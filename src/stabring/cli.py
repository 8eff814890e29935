"""Command-line front end: plant files, reports, and trace export.

Commands
    gef PLANT         print the generalized elementary factors
    check PLANT       exit 0 iff the plant is stabilizable
    synth PLANT       synthesize, verify, and report a stabilizing controller
    verify PLANT CTL  re-verify a controller file against a plant
    simulate ...      exact closed-loop simulation, CSV trace output

Exit codes: 0 success / stabilizable / verified; 1 not stabilizable or
verification failed; 2 invalid input; 3 internal invariant violation.

Plant files are JSON: a ring block, the input/output counts, and an
outputs x inputs array of polynomial-fraction strings ("num/den" or "num")
in the grammar of the polynomial module.  Reports are deterministic: the
same input produces byte-identical output (timing is only included on
request, since it would break that guarantee).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from fractions import Fraction

from .gef import GefError, GefResult, PlantFraction, gef, scalar_denominator
from .matrixring import Mat
from .poly import DigitLimitError, ParseError, Polynomial, format_canonical, parse_fraction
from .ring import (PolyFraction, RingModel, RingError, ZERO_CONSTANT_TERM,
                   ZERO_IDEAL, z_nonsingular)
from .sim import SimError, simulate_loop, trace_to_csv
from .synth import (ControllerResult, NotStabilizableError, SynthError,
                    SynthesisInternalError, StabilizabilityResult,
                    row_factors, stabilizable, synthesize, verify_stabilizing)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


# Largest exponent generator of a monomial subalgebra a plant file may name:
# the semigroup table has g_1 * g_k + 2 entries.
MAX_GENERATOR = 1000

# Largest conductor of a monomial subalgebra a plant file may name: the gap
# systems of the scalar denominator and the factors are dense, about
# conductor x conductor, and their elimination grows with its cube.
MAX_CONDUCTOR = 200

# Most inputs + outputs of a plant: the factors are taken over all
# C(inputs + outputs, inputs) index sets, at most C(14, 7) = 3432 here.
MAX_CHANNELS = 14

# Most digits, and largest decimal exponent, of one sample of an input trace:
# Fraction("1e999999999") would compute a billion-digit power of ten, and
# within these bounds every sample prints in the CSV trace.
MAX_SAMPLE_DIGITS = 1000
MAX_SAMPLE_EXPONENT = 1000

# Longest `simulate` horizon: the trace holds `--steps` samples of every loop
# signal, and its CSV one line per step.
MAX_STEPS = 100_000


class InputError(Exception):
    pass


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------


def ring_from_config(cfg: dict) -> RingModel:
    if not isinstance(cfg, dict):
        raise InputError("'ring' must be a JSON object")
    kind = cfg.get("kind")
    z_mode = cfg.get("z_mode", ZERO_CONSTANT_TERM)
    if z_mode not in (ZERO_CONSTANT_TERM, ZERO_IDEAL):
        raise InputError(f"unknown z_mode {z_mode!r}")
    if kind == "monomial_subalgebra":
        var = cfg.get("variable")
        gens = cfg.get("generators")
        if not isinstance(var, str) or not isinstance(gens, list):
            raise InputError("monomial_subalgebra needs 'variable' and 'generators'")
        if not all(isinstance(g, int) and not isinstance(g, bool) for g in gens):
            raise InputError("'generators' must be integers")
        if any(g > MAX_GENERATOR for g in gens):
            raise InputError(f"'generators' must be at most {MAX_GENERATOR}")
        # every exponent below the least generator is a gap, so the conductor
        # is at least that generator: refuse it before the semigroup table
        if gens and min(gens) > MAX_CONDUCTOR:
            raise InputError(f"the least generator {min(gens)} of generators {gens} "
                             f"is past {MAX_CONDUCTOR}, and so is the conductor")
        ring = RingModel.monomial_subalgebra(var, tuple(gens), z_mode)
        if ring.conductor > MAX_CONDUCTOR:
            raise InputError(f"the conductor {ring.conductor} of generators {gens} "
                             f"is past {MAX_CONDUCTOR}")
        return ring
    if kind == "polynomial_ring":
        variables = cfg.get("variables")
        if not isinstance(variables, list) or not variables:
            raise InputError("polynomial_ring needs a nonempty 'variables' list")
        if not all(isinstance(v, str) for v in variables):
            raise InputError("'variables' must be strings")
        if len(set(variables)) != len(variables):
            raise InputError(f"duplicate ring variable in {variables!r}")
        return RingModel.polynomial(tuple(variables), z_mode)
    raise InputError(f"unknown ring kind {kind!r}")


def ring_to_config(ring: RingModel) -> dict:
    if ring.kind == "monomial":
        return {"kind": "monomial_subalgebra", "variable": ring.delay_var,
                "generators": list(ring.generators), "z_mode": ring.z_mode}
    return {"kind": "polynomial_ring", "variables": list(ring.variables),
            "z_mode": ring.z_mode}


def parse_fraction_text(text: str, variables: tuple[str, ...]) -> tuple[Polynomial, Polynomial]:
    """Split "num/den" at a top-level '/', falling back to a plain polynomial."""
    try:
        return parse_fraction(text, variables)
    except ParseError as exc:
        raise InputError(f"cannot parse transfer function {text!r}: {exc}")


def _read_json(path: str):
    """The parsed JSON file; an unreadable or malformed file is an InputError.

    A JSONDecodeError is a ValueError, and so is an integer literal past
    Python's digit limit for int conversion.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    except ValueError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}")


def load_plant(path: str) -> PlantFraction:
    data = _read_json(path)
    if not isinstance(data, dict):
        raise InputError("plant file must be a JSON object")
    ring = ring_from_config(data.get("ring", {}))
    m = data.get("inputs")
    n = data.get("outputs")
    entries = data.get("entries")
    if not all(isinstance(v, int) and not isinstance(v, bool) and v >= 1 for v in (m, n)):
        raise InputError("'inputs' and 'outputs' must be positive integers")
    if m + n > MAX_CHANNELS:
        raise InputError(f"'inputs' + 'outputs' must be at most {MAX_CHANNELS}, got {m + n}")
    if (not isinstance(entries, list) or len(entries) != n
            or any(not isinstance(r, list) or len(r) != m for r in entries)):
        raise InputError(f"'entries' must be a {n} x {m} array of strings")
    pairs = []
    for row in entries:
        pairs.append([parse_fraction_text(str(item), ring.variables) for item in row])
    return scalar_denominator(pairs, ring)


def load_controller(path: str, pf: PlantFraction) -> Mat:
    data = _read_json(path)
    if isinstance(data, dict) and "controller" in data:
        data = data["controller"]
    entries = data.get("entries") if isinstance(data, dict) else None
    if (not isinstance(entries, list) or len(entries) != pf.m
            or any(not isinstance(r, list) or len(r) != pf.n for r in entries)):
        raise InputError(f"controller entries must form a {pf.m} x {pf.n} array")
    rows = []
    for row in entries:
        out = []
        for item in row:
            num, den = parse_fraction_text(str(item), pf.ring.variables)
            if den.is_zero():
                raise InputError(f"controller entry {item!r} has a zero denominator")
            out.append(PolyFraction(num, den))
        rows.append(out)
    return Mat.from_rows(rows)


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------


def _matrix_strings(mat: Mat) -> list[list[str]]:
    return [[str(e) for e in mat.row(i)] for i in range(mat.rows)]


def plant_block(pf: PlantFraction) -> dict:
    return {
        "ring": ring_to_config(pf.ring),
        "inputs": pf.m,
        "outputs": pf.n,
        "entries": _matrix_strings(pf.P),
        "denominator": format_canonical(pf.d),
        "numerator": _matrix_strings(pf.N),
    }


def gef_block(result: GefResult) -> list[dict]:
    return [
        {
            "index_set": list(entry.index_set.members),
            "delta": format_canonical(entry.delta),
            "singular": entry.singular,
            "generators": [format_canonical(g) for g in entry.generators],
        }
        for entry in result.entries
    ]


def synth_report(pf: PlantFraction, decision: StabilizabilityResult,
                 result: ControllerResult | None) -> dict:
    report: dict = {"command": "synth",
                    "verdict": "stabilizable" if decision.stabilizable
                               else "not_stabilizable",
                    "plant": plant_block(pf),
                    "factors": gef_block(decision.gef_result)}
    if not decision.stabilizable:
        report["evidence_basis"] = [format_canonical(g) for g in decision.evidence_basis]
        return report
    # lambda_I clears every local denominator, so omega = 1 and every a_I = 1
    report["certificate"] = {
        "omega": 1,
        "terms": [
            {"index_set": list(index_set.members),
             "lambda": format_canonical(lam),
             "coefficient": "1"}
            for index_set, lam in result.certificate.sharp
        ],
    }
    report["controller"] = {"entries": _matrix_strings(result.C)}
    report["denominator"] = _matrix_strings(result.Den)
    report["numerator"] = _matrix_strings(result.Num)
    report["closed_loop"] = _matrix_strings(result.H)
    report["repair"] = {
        "applied": result.repair_applied,
        "index_set": list(result.repair_index_set.members)
                     if result.repair_index_set else None,
        "selector": _matrix_strings(result.repair_selector)
                    if result.repair_selector else None,
    }
    report["verification"] = {
        "well_posed": result.report.well_posed,
        "entries_in_ring": result.report.entry_membership,
        "denominator_z_nonsingular": z_nonsingular(result.Den, pf.ring),
    }
    return report


def render_report(report: dict, mode: str) -> str:
    if mode == "json":
        return json.dumps(report, indent=2) + "\n"
    lines = [f"verdict: {report.get('verdict', 'n/a')}"]
    for factor in report.get("factors", []):
        idx = ",".join(str(i) for i in factor["index_set"])
        if factor["singular"]:
            lines.append(f"factor {{{idx}}}: zero ideal (singular selection)")
        else:
            lines.append(f"factor {{{idx}}}: delta = {factor['delta']}")
            for g in factor["generators"]:
                lines.append(f"  generator: {g}")
    cert = report.get("certificate")
    if cert:
        lines.append(f"certificate omega: {cert['omega']}")
        for term in cert["terms"]:
            idx = ",".join(str(i) for i in term["index_set"])
            lines.append(f"  I={{{idx}}}: lambda = {term['lambda']}")
            lines.append(f"            a = {term['coefficient']}")
    ctl = report.get("controller")
    if ctl:
        for i, row in enumerate(ctl["entries"]):
            for j, entry in enumerate(row):
                lines.append(f"controller[{i + 1},{j + 1}] = {entry}")
    repair = report.get("repair")
    if repair:
        lines.append(f"repair applied: {repair['applied']}")
    verification = report.get("verification")
    if verification:
        lines.append(f"well posed: {verification['well_posed']}")
        lines.append("all closed-loop entries stable: "
                     + str(all(all(r) for r in verification['entries_in_ring'])))
    return "\n".join(lines) + "\n"


def _write_output(text: str, out_path: str | None):
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_gef(args) -> int:
    pf = load_plant(args.plant)
    result = gef(pf)
    report = {"command": "gef", "plant": plant_block(pf), "factors": gef_block(result)}
    _write_output(render_report(report, args.report), args.out)
    return EXIT_OK


def cmd_check(args) -> int:
    pf = load_plant(args.plant)
    decision = stabilizable(pf)
    if decision.stabilizable:
        print("stabilizable")
        return EXIT_OK
    print("not stabilizable")
    for g in decision.evidence_basis:
        print(f"  residual generator: {format_canonical(g)}")
    return EXIT_NEGATIVE


def cmd_synth(args) -> int:
    pf = load_plant(args.plant)
    started = time.monotonic()
    decision = stabilizable(pf)
    result = synthesize(pf, decision) if decision.stabilizable else None
    elapsed = time.monotonic() - started
    report = synth_report(pf, decision, result)
    if args.timing:
        report["timing"] = {"seconds": round(elapsed, 3)}
    _write_output(render_report(report, args.report), args.out)
    return EXIT_OK if decision.stabilizable else EXIT_NEGATIVE


def cmd_verify(args) -> int:
    pf = load_plant(args.plant)
    C = load_controller(args.controller, pf)
    report = verify_stabilizing(pf.N, pf.d, *row_factors(C, pf.ring.variables), pf.ring)
    if not report.well_posed:
        print("ill-posed: det(E + P*C) = 0")
        return EXIT_NEGATIVE
    if report.ok:
        print("verified: all closed-loop entries are stable and causal")
        return EXIT_OK
    print("verification failed at entries "
          + ", ".join(f"({i + 1},{j + 1})" for i, j in report.failures()))
    return EXIT_NEGATIVE


def _sample(value) -> Fraction:
    """One input sample as a Fraction, its digits and exponent bounded first."""
    text = str(value)
    if sum(ch.isdigit() for ch in text) > MAX_SAMPLE_DIGITS:
        raise ValueError(f"{text[:20]}... has more than {MAX_SAMPLE_DIGITS} digits")
    try:
        exponent = int(text.lower().partition("e")[2])
    except ValueError:  # no exponent, or a malformed one that Fraction rejects
        exponent = 0
    if abs(exponent) > MAX_SAMPLE_EXPONENT:
        raise ValueError(f"the exponent of {text!r} is past {MAX_SAMPLE_EXPONENT}")
    return Fraction(text)


def _load_input_file(path: str, n: int, m: int) -> tuple[list, list]:
    data = _read_json(path)
    if not isinstance(data, dict):
        raise InputError(f"input trace {path} must be a JSON object")

    def channels(key, count):
        raw = data.get(key, [])
        if not isinstance(raw, list) or any(not isinstance(ch, list) for ch in raw):
            raise InputError(f"{key!r} must be a list of channels, each a list of samples")
        if len(raw) > count:
            raise InputError(f"too many {key} channels")
        try:
            out = [[_sample(v) for v in ch] for ch in raw]
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"{key!r} holds a sample that is not a bounded rational number: "
                             f"{exc}")
        out += [[] for _ in range(count - len(out))]
        return out
    return channels("u1", n), channels("u2", m)


def cmd_simulate(args) -> int:
    if args.steps < 1:
        raise InputError(f"--steps must be a positive integer, got {args.steps}")
    if args.steps > MAX_STEPS:
        raise InputError(f"--steps must be at most {MAX_STEPS}, got {args.steps}")
    pf = load_plant(args.plant)
    C = load_controller(args.controller, pf)
    if args.input == "file":
        if not args.input_file:
            raise InputError("--input file requires --input-file PATH")
        u1, u2 = _load_input_file(args.input_file, pf.n, pf.m)
    else:
        u1 = [[Fraction(1)] if i == 0 else [] for i in range(pf.n)]
        u2 = [[] for _ in range(pf.m)]
    trace = simulate_loop(pf.P, C, u1, u2, args.steps)
    _write_output(trace_to_csv(trace), args.out)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.

    A parser refers to itself through its actions and argument groups, so a
    parser built per `main` call would be left to the cyclic collector.
    Parsing does not change it.
    """
    parser = argparse.ArgumentParser(
        prog="stabring",
        description="Exact stabilizability tests and controller synthesis over "
                    "rings of stable causal transfer functions.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gef", help="compute the generalized elementary factors")
    p.add_argument("plant")
    p.add_argument("--report", choices=("json", "text"), default="json")
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(fn=cmd_gef)

    p = sub.add_parser("check", help="decide stabilizability")
    p.add_argument("plant")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("synth", help="synthesize and verify a stabilizing controller")
    p.add_argument("plant")
    p.add_argument("--report", choices=("json", "text"), default="json")
    p.add_argument("-o", "--out", default=None)
    p.add_argument("--timing", action="store_true",
                   help="include wall-clock timing (breaks byte-determinism)")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("verify", help="verify a controller file against a plant")
    p.add_argument("plant")
    p.add_argument("controller")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("simulate", help="simulate the closed loop, write a CSV trace")
    p.add_argument("plant")
    p.add_argument("controller")
    p.add_argument("--steps", type=int, default=50)
    p.add_argument("--input", choices=("impulse", "file"), default="impulse")
    p.add_argument("--input-file", default=None)
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(fn=cmd_simulate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except NotStabilizableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    except (SynthesisInternalError, AssertionError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (InputError, ParseError, DigitLimitError, SynthError, SimError, GefError,
            RingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
