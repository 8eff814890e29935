"""Reports and certificates on the fixture plants stay byte-identical.

`golden_certificates.json` holds, for each fixture plant, the exit code and
stdout SHA-256 of `gef`, `check` and `synth`, and the Groebner data behind
the stabilizability certificate: the reduced basis of the ideal of all lifted
GEF generators, its cofactors over those generators, and the Bezout
certificate of `is_unit`.  Regenerate it only for an intended change of
output:

    PYTHONPATH=src python tests/test_certificate_stability.py > tests/golden_certificates.json
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys

from stabring.cli import load_plant, main
from stabring.gef import gef
from stabring.groebner import buchberger

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "..", "fixtures")
GOLDEN = os.path.join(HERE, "golden_certificates.json")
PLANTS = ("delay_plant", "siso_delay_plant", "xy_plant")
COMMANDS = ("gef", "check", "synth")


def _report(command: str, path: str) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([command, path])
    return {"exit": code, "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


def _groebner_record(path: str) -> dict:
    """The ideal of all lifted GEF generators, which `synth.stabilizable`
    decides, with its cofactors from a tracked run."""
    gr = gef(load_plant(path))
    lifts = [gr.pres.lift(lam) for entry in gr.entries for lam in entry.generators]
    handle = gr.pres.ideal(lifts)
    gb = buchberger(handle.all_gens(), handle.variables, track_cofactors=True)
    ok, cert = handle.is_unit()
    return {
        "basis": [str(g) for g in gb.basis],
        "cofactors": [[str(c) for c in cof] for cof in gb.cofactors],
        "bezout": None if not ok else {
            "coefficients": {str(i): str(h) for i, h in sorted(cert.coefficients.items())},
            "relation_coefficients": {str(i): str(h) for i, h in
                                      sorted(cert.relation_coefficients.items())},
        },
    }


def record() -> dict:
    out = {}
    for name in PLANTS:
        path = os.path.join(FIXTURES, f"{name}.json")
        out[name] = {"reports": {c: _report(c, path) for c in COMMANDS},
                     "groebner": _groebner_record(path)}
    return out


def _golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_reports_byte_identical():
    golden = _golden()
    for name in PLANTS:
        path = os.path.join(FIXTURES, f"{name}.json")
        for command in COMMANDS:
            assert _report(command, path) == golden[name]["reports"][command], (name, command)


def test_bases_cofactors_and_bezout_certificates_identical():
    golden = _golden()
    for name in PLANTS:
        path = os.path.join(FIXTURES, f"{name}.json")
        assert _groebner_record(path) == golden[name]["groebner"], name


if __name__ == "__main__":
    json.dump(record(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
