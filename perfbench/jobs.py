"""Workload job lists, the in-process job runner, and output checking.

A job is one `stabring` command line.  Jobs run in the benchmark process,
one at a time (a closed loop with a single client): each job calls
`stabring.cli.main(argv)` with stdout and stderr captured, and the next job
starts only when the previous one has returned.

Every job's exit code and the SHA-256 of its stdout are compared with
references.json, which holds them for every plant variant a seed can draw.
A job fails when either differs, when it raises or prints a traceback, or
when it runs past its time cap; a timeout is recorded as such.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import signal
import time
from dataclasses import dataclass
from pathlib import Path

SIM_STEPS = 400

# family or fixture name -> commands run on that plant, per workload
WORKLOADS = {
    # gef and check over the whole corpus: the Groebner layer does the work,
    # closed-loop verification does none
    "decide": [(name, ("gef", "check")) for name in (
        "delay_plant", "siso_delay_plant", "xy_plant", "delay2", "delay3",
        "delay4", "sg345", "sg4567", "mimo2x2", "xy_stab", "xy_unstab")],
    # synth: closed-loop verification is the largest layer, GEF the second.
    # delay4 is left out: one synth of it runs for minutes (see NOTES.md).
    "synthesize": [(name, ("synth",)) for name in (
        "delay_plant", "siso_delay_plant", "delay3", "sg345", "mimo2x2",
        "xy_unstab")],
    # verify and simulate against controller files written during set-up
    "verify_sim": [(name, ("verify", "simulate")) for name in (
        "delay_plant", "siso_delay_plant", "delay3", "sg345", "mimo2x2")],
}

# plants whose controllers verify_sim's set-up synthesizes
CONTROLLER_PLANTS = [name for name, _ in WORKLOADS["verify_sim"]]

DEFAULT_CAP_S = 60.0


@dataclass(frozen=True)
class Job:
    key: str          # "<command> <plant id>", the references.json key
    command: str
    argv: tuple[str, ...]


@dataclass
class Outcome:
    key: str
    command: str
    seconds: float
    exit_code: int | None
    digest: str | None
    status: str       # "ok", "wrong_exit", "wrong_digest", "raised", "traceback", "timeout"
    detail: str = ""

    @property
    def failed(self) -> bool:
        return self.status != "ok"


def argv_for(command: str, plant: Path, controller: Path | None) -> tuple[str, ...]:
    if command in ("gef", "check", "synth"):
        return (command, str(plant))
    if command == "verify":
        return (command, str(plant), str(controller))
    if command == "simulate":
        return (command, str(plant), str(controller), "--steps", str(SIM_STEPS))
    raise ValueError(f"unknown command {command!r}")


def controller_path(input_dir: Path, plant_id: str) -> Path:
    return input_dir / f"{plant_id}.controller.json"


def build_jobs(workload: str, plant_ids: dict[str, str], input_dir: Path) -> list[Job]:
    """The workload's fixed job list; plant_ids maps family -> plant id."""
    jobs = []
    for name, commands in WORKLOADS[workload]:
        pid = plant_ids[name]
        plant = input_dir / f"{pid}.json"
        for command in commands:
            argv = argv_for(command, plant, controller_path(input_dir, pid))
            jobs.append(Job(f"{command} {pid}", command, argv))
    return jobs


class JobTimeout(BaseException):
    """Raised by the alarm handler; a BaseException so no program handler eats it."""


def _on_alarm(signum, frame):
    raise JobTimeout()


def run_job(job: Job, references: dict | None, cap_s: float = DEFAULT_CAP_S) -> Outcome:
    """Run one job in-process and check its output against the references.

    With references=None only the failures that need no reference (raising,
    a traceback, a timeout) are detected; that is how references are made.
    """
    from stabring import cli

    out, err = io.StringIO(), io.StringIO()
    code = None
    status, detail = "ok", ""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, cap_s)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(job.argv))
    except JobTimeout:
        status, detail = "timeout", f"cap {cap_s} s"
    except SystemExit as exc:  # argparse rejects the command line
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # noqa: BLE001 - any escape from main is a failure
        status, detail = "raised", f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = time.perf_counter() - start
        signal.signal(signal.SIGALRM, previous)
    stdout = out.getvalue()
    digest = hashlib.sha256(stdout.encode()).hexdigest()
    if status == "ok" and seconds > cap_s:
        status, detail = "timeout", f"{seconds:.3f} s > cap {cap_s} s"
    if status == "ok" and ("Traceback" in stdout or "Traceback" in err.getvalue()):
        status = "traceback"
    if status == "ok" and references is not None:
        ref = references.get(job.key)
        if ref is None:
            status, detail = "wrong_digest", "no reference for this job"
        elif code != ref["exit"]:
            status, detail = "wrong_exit", f"exit {code}, expected {ref['exit']}"
        elif digest != ref["stdout_sha256"]:
            status = "wrong_digest"
    return Outcome(job.key, job.command, seconds, code, digest, status, detail)


def tally(outcomes: list[Outcome]) -> tuple[int, list[Outcome], int]:
    """(attempted, failed outcomes, jobs whose stdout differs from an earlier pass)."""
    failed = [o for o in outcomes if o.failed]
    first: dict[str, str | None] = {}
    mismatched = sum(first.setdefault(o.key, o.digest) != o.digest for o in outcomes)
    return len(outcomes), failed, mismatched
