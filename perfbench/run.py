"""Benchmark of the stabring command line on seeded plant corpora.

    python3 perfbench/run.py --workload decide --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35

One workload runs in this process as a closed loop with one client: the
workload's fixed job list is run pass after pass, each job a call of
`stabring.cli.main(argv)`, until --seconds have passed (the last pass is
completed).  Every job's exit code and stdout digest are checked.

With --trace 0 the end-to-end metrics are printed; with --trace 1 untraced
and traced passes alternate and the per-layer metrics of the traced passes
are printed, with the tracing overhead.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  A fuller record,
with the run metadata and the per-command times, is written to
.perfbench/results/.  `--workload all` runs each workload in its own process
and prints one row per workload.  See NOTES.md for the design.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
import jobs
import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
REFERENCES = HERE / "references.json"

DEFAULT_SEED = 1
# set-up runs at least SETUP_MIN times, and up to SETUP_MAX times while the
# set-ups so far took under SETUP_BUDGET_S, so that cheap set-ups get a
# steadier median
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 7, 3.0
SETUP_CAP_S = 120.0
COMMANDS = ("gef", "check", "synth", "verify", "simulate")


class SetupError(Exception):
    pass


def _missing_files() -> list[str]:
    needed = [ROOT / "src" / "stabring" / "cli.py", REFERENCES]
    needed += [ROOT / "fixtures" / f"{name}.json"
               for name in ("delay_plant", "siso_delay_plant", "xy_plant")]
    return [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "stabring").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def metadata() -> dict:
    return {"python": platform.python_version(), "commit": _commit(),
            "source_sha256": _source_sha256(), "nproc": os.cpu_count(),
            "loadavg_start": list(os.getloadavg())}


def run_setups(workload: str, seed: int, work: Path, minimum: int) -> tuple[list[float], Path]:
    """Time fresh-interpreter set-ups; returns the times and the last one's dir."""
    times, out = [], None
    while len(times) < minimum or (len(times) < SETUP_MAX and sum(times) < SETUP_BUDGET_S):
        out = work / f"setup{len(times)}"
        argv = [sys.executable, str(HERE / "prepare.py"), "--workload", workload,
                "--seed", str(seed), "--out", str(out)]
        start = time.perf_counter()
        try:
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=SETUP_CAP_S)
        except subprocess.TimeoutExpired:
            raise SetupError(f"set-up ran past {SETUP_CAP_S} s")
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise SetupError(f"set-up exited {proc.returncode}: {proc.stderr.strip()}")
        if minimum == 1:
            break
    return times, out


def check_setup(workload: str, seed: int, work: Path, input_dir: Path, refs: dict):
    """Plant and controller files must match the references and every set-up."""
    plant_ids = inputs.seed_plant_ids(seed)
    for name, _ in jobs.WORKLOADS[workload]:
        pid = plant_ids[name]
        data = (input_dir / f"{pid}.json").read_bytes()
        if inputs.sha256(data) != refs["plants"][pid]:
            raise SetupError(f"plant file {pid} differs from its reference")
        if workload == "verify_sim":
            ctl = jobs.controller_path(input_dir, pid).read_bytes()
            if inputs.sha256(ctl) != refs["jobs"][f"synth {pid}"]["stdout_sha256"]:
                raise SetupError(f"controller for {pid} differs from its reference")
    for other in sorted(work.glob("setup*")):
        for path in sorted(input_dir.iterdir()):
            if (other / path.name).read_bytes() != path.read_bytes():
                raise SetupError(f"set-ups wrote different {path.name}")


def run_pass(job_list, refs, tracer=None):
    outcomes = []
    start = time.perf_counter()
    for job in job_list:
        span = tracer.begin(layers.ROOT) if tracer else None
        outcomes.append(jobs.run_job(job, refs))
        if span:
            tracer.end(span)
    return time.perf_counter() - start, outcomes


def end_to_end(walls, passes, setup_times) -> tuple[dict, dict]:
    metrics = {
        "wall_s": statistics.median(walls),
        "job_max_s": statistics.median([max(o.seconds for o in p) for p in passes]),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    per_command = {}
    for command in COMMANDS:
        sums = [sum(o.seconds for o in p if o.command == command) for p in passes]
        if any(o.command == command for o in passes[0]):
            per_command[f"{command}_s"] = statistics.median(sums)
    return metrics, per_command


def measure(args, refs, meta) -> dict:
    work = WORK / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        setup_times, input_dir = run_setups(args.workload, args.seed, work,
                                            1 if args.trace else SETUP_MIN)
        check_setup(args.workload, args.seed, work, input_dir, refs)
        from stabring import cli  # noqa: F401 - imported before timing starts

        job_list = jobs.build_jobs(args.workload, inputs.seed_plant_ids(args.seed), input_dir)
        walls, passes, traced_walls, traced_layers = [], [], [], []
        tracer = layers.Tracer()
        start = time.perf_counter()
        rounds = []  # one round: an untraced pass, plus a traced one with --trace 1
        while True:
            round_start = time.perf_counter()
            wall, outcomes = run_pass(job_list, refs["jobs"])
            walls.append(wall)
            passes.append(outcomes)
            if args.trace:
                tracer.reset()
                with tracer:
                    wall, outcomes = run_pass(job_list, refs["jobs"], tracer)
                traced_walls.append(wall)
                passes.append(outcomes)
                traced_layers.append(tracer.layer_metrics(wall))
            now = time.perf_counter()
            rounds.append(now - round_start)
            # start another round only if a typical one still ends in time
            if now - start + statistics.median(rounds) > args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed, mismatched = jobs.tally([o for p in passes for o in p])
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "passes": len(passes), "jobs_per_pass": len(job_list),
              "attempted": attempted, "failed": len(failed),
              "failed_frac": len(failed) / attempted,
              "pass_digest_mismatches": mismatched,
              "failures": [vars(o) for o in failed[:20]],
              "setup_times_s": setup_times, "pass_walls_s": walls,
              "traced_pass_walls_s": traced_walls}
    if args.trace:
        names = traced_layers[0].keys()
        metrics = {n: statistics.median([t[n] for t in traced_layers]) for n in names}
        metrics["trace.wall_s"] = statistics.median(traced_walls)
        metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        record["metrics"] = metrics
    else:
        record["metrics"], record["per_command"] = end_to_end(walls, passes, setup_times)
    record["correct"] = not failed and mismatched == 0
    meta["loadavg_end"] = list(os.getloadavg())
    record["meta"] = meta
    return record


def units(name: str) -> str:
    if name == "peak_rss_mb":
        return "MB"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith(("_ratio", "_frac", "coverage")):
        return "ratio"
    if name.endswith("_bits.max"):
        return "bits"
    return "count"


def print_record(record: dict):
    meta = record["meta"]
    print(f"perfbench {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"passes={record['passes']} jobs/pass={record['jobs_per_pass']}")
    print(f"  python {meta['python']}  commit {meta['commit'] or 'n/a'}  "
          f"source {meta['source_sha256'][:12]}  nproc {meta['nproc']}  "
          f"loadavg {meta['loadavg_start'][0]:.2f} -> {meta['loadavg_end'][0]:.2f}")
    rows = dict(record["metrics"])
    rows.update(record.get("per_command", {}))
    rows["failed_frac"] = record["failed_frac"]
    for name, value in rows.items():
        print(f"  {name:<36} {value:>14.6g} {units(name)}")
    for failure in record["failures"]:
        print(f"  FAILED {failure['key']}: {failure['status']} {failure['detail']}")


def result_line(record: dict) -> str:
    metrics = {name: {"value": value, "unit": units(name)}
               for name, value in record["metrics"].items()}
    return json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                       "failed": record["failed"], "metrics": metrics})


def run_all(args) -> int:
    """Each workload in its own process; one row of end-to-end metrics each."""
    records = []
    for workload in jobs.WORKLOADS:
        argv = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        path = WORK / "results" / f"{workload}-seed{args.seed}-trace0.json"
        records.append(json.loads(path.read_text()))
    names = list(records[0]["metrics"]) + [f"{c}_s" for c in COMMANDS] + ["failed_frac"]
    print(f"{'workload':<12}" + "".join(f"{n + ' (' + units(n) + ')':>21}" for n in names))
    for r in records:
        values = dict(r["metrics"], **r["per_command"], failed_frac=r["failed_frac"])
        cells = [f"{values[n]:>21.4f}" if n in values else f"{'-':>21}" for n in names]
        print(f"{r['workload']:<12}" + "".join(cells))
    return 0 if all(r["correct"] for r in records) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("decide", "synthesize", "verify_sim", "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = _missing_files()
    if missing:
        print(f"perfbench: missing {', '.join(missing)}; run from a stabring checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)

    meta = metadata()
    refs = json.loads(REFERENCES.read_text())
    try:
        record = measure(args, refs, meta)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")
    print_record(record)
    print(result_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
