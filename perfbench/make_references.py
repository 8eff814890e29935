"""Write references.json: the expected output of every job any seed can draw.

    python3 perfbench/make_references.py

For every plant variant it records the plant file's SHA-256 and, for every
command a workload runs on that plant, the exit code and the SHA-256 of
stdout.  Every controller that `synth` writes is checked once with
`stabring verify`, which must exit 0.  Re-run this only when the program's
output is meant to change; the benchmark then checks against the new file.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def commands_by_family() -> dict[str, set[str]]:
    import jobs

    out: dict[str, set[str]] = {}
    for workload, entries in jobs.WORKLOADS.items():
        for name, commands in entries:
            out.setdefault(name, set()).update(commands)
    for name in jobs.CONTROLLER_PLANTS:  # verify_sim's set-up runs synth
        out[name].add("synth")
    return out


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from stabring import cli

    import inputs
    import jobs

    order = ("synth", "verify", "simulate", "gef", "check")
    wanted = commands_by_family()
    refs: dict = {"plants": {}, "jobs": {}}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        tmp_dir = Path(tmp)
        for pid in inputs.all_plant_ids():
            commands = [c for c in order if c in wanted.get(inputs.family_of(pid), ())]
            if not commands:
                continue
            plant = inputs.write_plants(ROOT, [pid], tmp_dir)[pid]
            refs["plants"][pid] = inputs.sha256(plant.read_bytes())
            controller = jobs.controller_path(tmp_dir, pid)
            for command in commands:
                job = jobs.Job(f"{command} {pid}", command,
                               jobs.argv_for(command, plant, controller))
                outcome = jobs.run_job(job, None)
                if outcome.failed:
                    print(f"{job.key}: {outcome.status} {outcome.detail}", file=sys.stderr)
                    return 1
                refs["jobs"][job.key] = {"exit": outcome.exit_code,
                                         "stdout_sha256": outcome.digest}
                print(f"{job.key}: exit {outcome.exit_code} in {outcome.seconds:.2f} s",
                      flush=True)
                if command == "synth" and outcome.exit_code == 0:
                    with contextlib.redirect_stdout(io.StringIO()):
                        cli.main(["synth", str(plant), "-o", str(controller)])
                    if inputs.sha256(controller.read_bytes()) != outcome.digest:
                        print(f"{pid}: controller file differs from synth stdout",
                              file=sys.stderr)
                        return 1
                    check = jobs.run_job(jobs.Job(f"verify {pid}", "verify",
                                                  jobs.argv_for("verify", plant, controller)),
                                         None)
                    if check.failed or check.exit_code != 0:
                        print(f"{pid}: stabring verify of the synthesized controller "
                              f"exited {check.exit_code}", file=sys.stderr)
                        return 1
    (HERE / "references.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
