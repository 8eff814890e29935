"""One benchmark set-up, run in a fresh interpreter and timed by run.py.

Imports stabring.cli, writes the workload's plant files for the seed and,
for verify_sim, runs `stabring synth -o` to write the controller files that
the workload's jobs read.  Exits 0 on success and 1 when a synth fails.

    python3 perfbench/prepare.py --workload verify_sim --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from stabring import cli

    import inputs
    import jobs

    plant_ids = inputs.seed_plant_ids(args.seed)
    needed = sorted({plant_ids[name] for name, _ in jobs.WORKLOADS[args.workload]})
    out_dir = Path(args.out)
    paths = inputs.write_plants(ROOT, needed, out_dir)
    if args.workload != "verify_sim":
        return 0
    for name in jobs.CONTROLLER_PLANTS:
        pid = plant_ids[name]
        target = jobs.controller_path(out_dir, pid)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["synth", str(paths[pid]), "-o", str(target)])
        if code != 0:
            print(f"synth {pid} exited {code}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
