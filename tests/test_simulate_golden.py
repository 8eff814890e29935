"""`simulate` CSV traces on the fixture plants stay byte-identical.

`golden_simulate.json` holds the exit code and stdout SHA-256 of
`simulate --steps 400` on the delay and SISO fixtures, against the controller
`synth -o` writes for each, with the impulse input and with an input file
whose samples are nonzero in both `u1` and `u2`.  On the delay fixture it
also holds an input file whose samples restart after a long run of zeros,
so the loop comes to rest and must be excited again, and the same plant
against a zero controller: that loop is unstable and never comes to rest.
It also holds the exit code of the `xy` fixture against a zero controller: a
ring in two variables has no time axis, so that run must fail with exit 2.
Regenerate it only for an intended change of output:

    PYTHONPATH=src python tests/test_simulate_golden.py > tests/golden_simulate.json
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

from stabring.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "..", "fixtures")
GOLDEN = os.path.join(HERE, "golden_simulate.json")
STEPS = "400"
# nonzero samples on every input channel of each plant (u1 has one channel
# per plant output, u2 one per plant input)
INPUT_FILES = {
    "delay_plant": {"u1": [["1/2", "0", "-3", "7/5"], ["2", "-1/3"]],
                    "u2": [["0", "1/3", "0", "-4"]]},
    "siso_delay_plant": {"u1": [["1/2", "0", "-3", "7/5"]],
                         "u2": [["0", "1/3", "0", "-4"]]},
}
# the delay fixture's loop is at rest well before step 250, where the
# samples start again
GAP_INPUT = {"u1": [["1"] + ["0"] * 249 + ["-2/3", "0", "5"], []],
             "u2": [["0"] * 300 + ["1/7"]]}


def _write_json(path: str, data) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return path


def _run(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return {"exit": code, "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


def record() -> dict:
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, inputs in INPUT_FILES.items():
            plant = os.path.join(FIXTURES, f"{name}.json")
            ctl = os.path.join(tmp, f"{name}.controller.json")
            if main(["synth", plant, "-o", ctl]) != 0:
                raise RuntimeError(f"synth failed on {name}")
            input_file = _write_json(os.path.join(tmp, f"{name}.inputs.json"), inputs)
            out[name] = {
                "impulse": _run(["simulate", plant, ctl, "--steps", STEPS]),
                "input_file": _run(["simulate", plant, ctl, "--steps", STEPS,
                                    "--input", "file", "--input-file", input_file]),
            }
        plant = os.path.join(FIXTURES, "delay_plant.json")
        gap_file = _write_json(os.path.join(tmp, "gap.inputs.json"), GAP_INPUT)
        out["delay_plant"]["input_gap"] = _run(
            ["simulate", plant, os.path.join(tmp, "delay_plant.controller.json"),
             "--steps", STEPS, "--input", "file", "--input-file", gap_file])
        zero_ctl = _write_json(os.path.join(tmp, "zero.controller.json"),
                               {"entries": [["0", "0"]]})
        out["delay_plant"]["zero_controller"] = _run(
            ["simulate", plant, zero_ctl, "--steps", STEPS, "--input", "file",
             "--input-file", os.path.join(tmp, "delay_plant.inputs.json")])
        ctl = _write_json(os.path.join(tmp, "xy.controller.json"), {"entries": [["0"]]})
        out["xy_plant"] = {"exit": _run(["simulate", os.path.join(FIXTURES, "xy_plant.json"),
                                         ctl, "--steps", STEPS])["exit"]}
    return out


def test_simulate_traces_byte_identical():
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    assert record() == golden


if __name__ == "__main__":
    json.dump(record(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
