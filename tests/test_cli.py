"""Command-line interface: file formats, exit codes, determinism."""

import argparse
import contextlib
import gc
import io
import json
import os
import sys
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stabring.cli import (EXIT_INPUT, EXIT_INTERNAL, EXIT_NEGATIVE, EXIT_OK,
                          InputError, main, parse_fraction_text)
from stabring.groebner import IdealHandle
from stabring.poly import ParseError, Polynomial, parse_poly

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")
DELAY = os.path.join(FIXTURES, "delay_plant.json")
XY = os.path.join(FIXTURES, "xy_plant.json")
SISO = os.path.join(FIXTURES, "siso_delay_plant.json")


def write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


class TestFractionText:
    def test_plain_polynomial(self):
        num, den = parse_fraction_text("1/2*z + 1/2*z", ("z",))
        assert num == parse_poly("z", ("z",)) and den == parse_poly("1", ("z",))

    def test_fraction(self):
        num, den = parse_fraction_text("(1-z^3)/(1-z^2)", ("z",))
        assert num == parse_poly("1-z^3", ("z",))
        assert den == parse_poly("1-z^2", ("z",))

    def test_bare_variable_quotient(self):
        num, den = parse_fraction_text("x/y", ("x", "y"))
        assert num == parse_poly("x", ("x", "y"))
        assert den == parse_poly("y", ("x", "y"))

    def test_unparsable(self):
        with pytest.raises(InputError):
            parse_fraction_text("1 +* z", ("z",))

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.lists(st.sampled_from(["1", "2", "3", "z", "x", "/", "(", ")", "+", "-",
                                     "*", " "]), max_size=12).map("".join))
    @example("1/2/3")
    @example("1/2/3+z")
    @example("z/2/3")
    @example(" 1 / 2 /z")
    @example("(1/2)/3/z")
    @example("1/2*z/(1-z)")
    def test_same_as_two_pass_parse(self, text):
        """Entries split as the earlier parser, which parsed each one twice."""
        try:
            expected = _parse_fraction_text_two_pass(text, ("z",))
        except InputError:
            with pytest.raises(InputError):
                parse_fraction_text(text, ("z",))
            return
        assert parse_fraction_text(text, ("z",)) == expected


def _parse_fraction_text_two_pass(text, variables):
    """The earlier `parse_fraction_text`: the whole text as a polynomial, else
    the first top-level '/' where both sides parse."""
    try:
        return parse_poly(text, variables), Polynomial.one(variables)
    except ParseError:
        pass
    depth = 0
    candidates = []
    for pos, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "/" and depth == 0:
            candidates.append(pos)
    for pos in candidates:
        try:
            return parse_poly(text[:pos], variables), parse_poly(text[pos + 1:], variables)
        except ParseError:
            continue
    raise InputError(f"cannot parse transfer function {text!r}")


class TestExitCodes:
    def test_check_stabilizable(self, capsys):
        assert main(["check", DELAY]) == EXIT_OK
        assert "stabilizable" in capsys.readouterr().out

    def test_check_not_stabilizable(self, capsys):
        assert main(["check", XY]) == EXIT_NEGATIVE
        assert "not stabilizable" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert main(["check", "/nonexistent/plant.json"]) == EXIT_INPUT

    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["check", str(bad)]) == EXIT_INPUT

    def test_bad_entries_shape(self, tmp_path, capsys):
        payload = json.load(open(DELAY))
        payload["entries"] = [["z^2"]]
        path = tmp_path / "plant.json"
        write_json(path, payload)
        assert main(["check", str(path)]) == EXIT_INPUT

    def test_non_causal_plant(self, tmp_path, capsys):
        payload = json.load(open(DELAY))
        payload["entries"] = [["z/(1 - z^2)"], ["0"]]
        path = tmp_path / "plant.json"
        write_json(path, payload)
        assert main(["check", str(path)]) == EXIT_INPUT

    @pytest.mark.parametrize("ring", [
        {"kind": "monomial_subalgebra", "variable": "z", "generators": ["a", 3]},
        {"kind": "polynomial_ring", "variables": ["x", "x"]},
        5,
    ], ids=["non_integer_generator", "duplicate_variable", "ring_not_object"])
    def test_malformed_ring(self, tmp_path, capsys, ring):
        payload = json.load(open(XY))
        payload["ring"] = ring
        path = tmp_path / "plant.json"
        write_json(path, payload)
        assert main(["check", str(path)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("bad_file", ["plant", "controller", "input_file"])
    def test_integer_past_the_digit_limit(self, tmp_path, capsys, bad_file):
        # json.load raises a ValueError that is not a JSONDecodeError
        bad, ctl = tmp_path / "bad.json", tmp_path / "controller.json"
        write_json(ctl, {"entries": [["0"]]})
        argv, text = {
            "plant": (["check", bad], '{"inputs": %s}'),
            "controller": (["verify", SISO, bad], '{"entries": [[%s]]}'),
            "input_file": (["simulate", SISO, ctl, "--input", "file", "--input-file", bad],
                           '{"u1": [[%s]]}'),
        }[bad_file]
        bad.write_text(text % ("1" * 5000))
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            assert main([str(a) for a in argv]) == EXIT_INPUT
        finally:
            sys.set_int_max_str_digits(limit)
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv", [[], ["frobnicate", DELAY], ["check"],
                                      ["synth", DELAY, "--report", "yaml"]],
                             ids=["no_command", "unknown_command", "missing_plant",
                                  "bad_choice"])
    def test_bad_command_line(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_INPUT
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err and "usage:" in captured.err

    def test_unit_test_disagreeing_with_is_unit_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(IdealHandle, "is_unit", lambda handle: (False, None))
        assert main(["check", DELAY]) == EXIT_INTERNAL
        assert capsys.readouterr().err.startswith("internal error:")

    def test_no_parser_left_to_the_cyclic_collector(self, capsys):
        main(["check", DELAY])
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            for argv in (["check", DELAY], ["gef", XY, "--report", "text"]):
                main(argv)
            gc.collect()
            parsers = [o for o in gc.garbage if isinstance(o, argparse.ArgumentParser)]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert parsers == []


class TestSynthVerify:
    def test_round_trip(self, tmp_path, capsys):
        out = tmp_path / "controller.json"
        assert main(["synth", DELAY, "-o", str(out)]) == EXIT_OK
        assert main(["verify", DELAY, str(out)]) == EXIT_OK
        report = json.load(open(out))
        assert report["verdict"] == "stabilizable"
        assert report["repair"]["applied"] is True
        assert report["repair"]["selector"] == [["1", "0"]]
        assert all(all(row) for row in report["verification"]["entries_in_ring"])

    def test_verify_zero_controller_fails(self, tmp_path, capsys):
        ctl = tmp_path / "zero.json"
        write_json(ctl, {"entries": [["0", "0"]]})
        assert main(["verify", DELAY, str(ctl)]) == EXIT_NEGATIVE

    def test_synth_not_stabilizable(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["synth", XY, "-o", str(out)]) == EXIT_NEGATIVE
        report = json.load(open(out))
        assert report["verdict"] == "not_stabilizable"
        assert sorted(report["evidence_basis"]) == ["x", "y"]

    def test_determinism(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(["synth", DELAY, "-o", str(a)]) == EXIT_OK
        assert main(["synth", DELAY, "-o", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_text_report(self, tmp_path, capsys):
        assert main(["synth", SISO, "--report", "text"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "verdict: stabilizable" in out
        assert "controller[1,1]" in out


class TestGefCommand:
    def test_json_report(self, tmp_path):
        out = tmp_path / "gef.json"
        assert main(["gef", DELAY, "-o", str(out)]) == EXIT_OK
        report = json.load(open(out))
        assert report["command"] == "gef"
        assert [f["index_set"] for f in report["factors"]] == [[1], [2], [3]]
        assert all(len(f["generators"]) >= 1 for f in report["factors"])
        assert report["plant"]["denominator"] == "1 - 5*z^2 + 4*z^4"


class TestSimulateCommand:
    def test_csv_trace(self, tmp_path):
        ctl = tmp_path / "controller.json"
        trace = tmp_path / "trace.csv"
        assert main(["synth", SISO, "-o", str(ctl)]) == EXIT_OK
        assert main(["simulate", SISO, str(ctl), "--steps", "12",
                     "-o", str(trace)]) == EXIT_OK
        lines = trace.read_text().strip().split("\n")
        assert lines[0] == "step,u1_1,u2_1,e1_1,e2_1,y1_1,y2_1"
        assert len(lines) == 13

    def test_input_file(self, tmp_path):
        ctl = tmp_path / "controller.json"
        main(["synth", SISO, "-o", str(ctl)])
        inputs = tmp_path / "inputs.json"
        write_json(inputs, {"u1": [["1/2", "0", "1"]], "u2": [[]]})
        trace = tmp_path / "trace.csv"
        assert main(["simulate", SISO, str(ctl), "--steps", "6",
                     "--input", "file", "--input-file", str(inputs),
                     "-o", str(trace)]) == EXIT_OK
        assert trace.read_text().splitlines()[1].split(",")[1] == "1/2"

    def test_multivariate_rejected(self, tmp_path, capsys):
        ctl = tmp_path / "controller.json"
        write_json(ctl, {"entries": [["0"]]})
        assert main(["simulate", XY, str(ctl)]) == EXIT_INPUT

    @pytest.mark.parametrize("payload", [
        [1, 2],
        {"u1": [5]},
        {"u1": [["a"]]},
    ], ids=["top_level_list", "channel_not_list", "non_numeric_sample"])
    def test_malformed_input_file(self, tmp_path, capsys, payload):
        ctl = tmp_path / "controller.json"
        assert main(["synth", SISO, "-o", str(ctl)]) == EXIT_OK
        inputs = tmp_path / "inputs.json"
        write_json(inputs, payload)
        capsys.readouterr()
        assert main(["simulate", SISO, str(ctl), "--input", "file",
                     "--input-file", str(inputs)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    def test_negative_steps(self, tmp_path, capsys):
        ctl = tmp_path / "controller.json"
        assert main(["synth", SISO, "-o", str(ctl)]) == EXIT_OK
        capsys.readouterr()
        assert main(["simulate", SISO, str(ctl), "--steps", "-5"]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    def test_mixed_delay_variables_rejected(self, tmp_path, capsys):
        plant = tmp_path / "plant.json"
        write_json(plant, {"ring": {"kind": "polynomial_ring", "variables": ["x", "y"],
                                    "z_mode": "zero_ideal"},
                           "inputs": 1, "outputs": 2, "entries": [["x"], ["y"]]})
        ctl = tmp_path / "controller.json"
        write_json(ctl, {"entries": [["1", "0"]]})
        assert main(["simulate", str(plant), str(ctl)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1


class TestPlantCounts:
    @pytest.mark.parametrize("key", ["inputs", "outputs"])
    def test_boolean_count_rejected(self, tmp_path, capsys, key):
        payload = json.load(open(SISO))
        payload[key] = True
        path = tmp_path / "plant.json"
        write_json(path, payload)
        assert main(["check", str(path)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1


# ---------------------------------------------------------------------------
# fuzzing the plant file: every input must give exit 0, 1 or 2, no traceback
# ---------------------------------------------------------------------------

_NAMES = ["z", "q", "x", "y", "w"]
_JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-3, 12),
                          st.floats(allow_nan=False, allow_infinity=False),
                          st.text(max_size=4))
_JSON_VALUES = st.one_of(_JSON_SCALARS, st.lists(_JSON_SCALARS, max_size=3),
                         st.dictionaries(st.text(max_size=3), _JSON_SCALARS, max_size=2))
_Z_MODES = st.sampled_from(["zero_constant_term", "zero_ideal", "other"])


@st.composite
def _poly_text(draw, names):
    """A sum of terms in `names` with exponents <= 6."""
    terms = [draw(st.sampled_from(["1", "-1", "2", "1/3", "0"]))]
    for _ in range(draw(st.integers(0, 3))):
        coeff = draw(st.sampled_from(["", "2*", "3*", "1/2*", "0*",
                                      f"(1 - 2*{names[0]})*"]))
        terms.append(f"{coeff}{draw(st.sampled_from(names))}^{draw(st.integers(0, 6))}")
    text = terms[0]
    for term in terms[1:]:
        text += draw(st.sampled_from([" + ", " - "])) + term
    return text


def _entry(names):
    return st.one_of(
        _poly_text(names),
        st.builds(lambda n, d: f"({n})/({d})", _poly_text(names), _poly_text(names)))


# malformed pieces; random text has no '^', so no exponent can be huge
_JUNK_ENTRIES = st.one_of(_JSON_VALUES,
                          st.text(alphabet="zqxyw0123456789+-*/() .", max_size=12))
_NESTED_ENTRIES = st.sampled_from([3000, 300, 101, 100]).map(
    lambda k: "(" * k + "1" + ")" * k)
_JUNK_GENERATORS = st.one_of(
    st.sampled_from([[2, 3, 10 ** 30], [10 ** 30, 10 ** 30 + 1], [1001]]),
    st.lists(_JSON_SCALARS, max_size=4))
_JUNK_RINGS = st.one_of(_JSON_VALUES, st.fixed_dictionaries({}, optional={
    "kind": st.one_of(st.sampled_from(["monomial_subalgebra", "polynomial_ring"]),
                      _JSON_SCALARS),
    "variable": _JSON_VALUES, "variables": _JSON_VALUES, "generators": _JUNK_GENERATORS,
    "z_mode": st.one_of(_Z_MODES, _JSON_VALUES)}))
# one fault per plant at most, None for a well-formed plant; hypothesis draws
# the first items of a list most often
_FAULTS = ["nesting", "generators", "entry", "ring", "ring_field", "counts", "shape",
           "missing_key", "foreign_name", "top_level"] + [None] * 4


@st.composite
def _plants(draw):
    fault = draw(st.sampled_from(_FAULTS))
    if fault == "generators" or draw(st.booleans()):
        var = draw(st.sampled_from(_NAMES))
        ring = {"kind": "monomial_subalgebra", "variable": var,
                "generators": draw(st.sampled_from([[2, 3], [1], [3, 4, 5], [2, 5]]))}
        names = [var]
    else:
        names = draw(st.lists(st.sampled_from(_NAMES), min_size=1, max_size=3,
                              unique=True))
        ring = {"kind": "polynomial_ring", "variables": names}
    if draw(st.booleans()):
        ring["z_mode"] = draw(_Z_MODES)
    n, m = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    plant = {"ring": ring, "inputs": m, "outputs": n,
             "entries": [[draw(_entry(names)) for _ in range(m)] for _ in range(n)]}
    if fault == "ring":
        plant["ring"] = draw(_JUNK_RINGS)
    elif fault == "ring_field":
        ring[draw(st.sampled_from(sorted(ring)))] = draw(_JSON_VALUES)
    elif fault == "generators":
        ring["generators"] = draw(_JUNK_GENERATORS)
    elif fault == "counts":
        plant[draw(st.sampled_from(["inputs", "outputs"]))] = draw(_JSON_SCALARS)
    elif fault == "shape":
        plant["entries"] = draw(st.lists(st.lists(_entry(names), max_size=3), max_size=3))
    elif fault == "missing_key":
        del plant[draw(st.sampled_from(sorted(plant)))]
    elif fault in ("entry", "nesting"):
        junk = _JUNK_ENTRIES if fault == "entry" else _NESTED_ENTRIES
        plant["entries"][draw(st.integers(0, n - 1))][0] = draw(junk)
    elif fault == "foreign_name":
        plant["entries"][0][draw(st.integers(0, m - 1))] = draw(_poly_text(_NAMES))
    elif fault == "top_level":
        plant = draw(_JSON_VALUES)
    return plant


class TestPlantFileFuzz:
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(_plants(), st.sampled_from(["gef", "check", "synth"]))
    def test_exit_code_contract(self, plant, command):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "plant.json")
            write_json(path, plant)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command, path])
        assert code in (EXIT_OK, EXIT_NEGATIVE, EXIT_INPUT)
        assert "Traceback" not in out.getvalue() + err.getvalue()


def _univariate_text(coeffs):
    return " + ".join(f"({c})*z^{k}" for k, c in enumerate(coeffs) if c) or "0"


@st.composite
def _pid_plants(draw):
    """A causal plant over the PID Q[z], up to 2 x 2: each denominator has a
    nonzero constant term."""
    n, m = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    small = st.sampled_from([1, -1, 2, -3, 0])

    def entry():
        num = draw(st.lists(small, min_size=2, max_size=3))
        den = [draw(st.sampled_from([1, -1, 2, 3]))] + draw(st.lists(small, min_size=1,
                                                                      max_size=2))
        return f"({_univariate_text(num)})/({_univariate_text(den)})"

    return {"ring": {"kind": "monomial_subalgebra", "variable": "z", "generators": [1]},
            "inputs": m, "outputs": n,
            "entries": [[entry() for _ in range(m)] for _ in range(n)]}


class TestPidPlants:
    """Over the PID Q[z] every causal plant has a coprime factorization, so
    every one is stabilizable and synthesis must find a verified controller."""

    @settings(max_examples=12, derandomize=True, deadline=None)
    @given(_pid_plants())
    def test_check_synth_verify(self, plant):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "plant.json")
            ctl = os.path.join(tmp, "controller.json")
            write_json(path, plant)
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["check", path]) == EXIT_OK
                assert main(["synth", path, "-o", ctl]) == EXIT_OK
                assert main(["verify", path, ctl]) == EXIT_OK


class TestHostilePlants:
    """Inputs the fuzz test above finds crashing, with a traceback and exit 1,
    unless they are refused as input errors."""

    @pytest.mark.parametrize("ring,entry", [
        ({"kind": "monomial_subalgebra", "variable": "z", "generators": [2, 3]},
         "(" * 3000 + "1" + ")" * 3000),
        ({"kind": "monomial_subalgebra", "variable": "z", "generators": [2, 3, 10 ** 30]},
         "1"),
    ], ids=["deep_parentheses", "huge_generator"])
    def test_rejected_as_input_error(self, tmp_path, capsys, ring, entry):
        path = tmp_path / "plant.json"
        write_json(path, {"ring": ring, "inputs": 1, "outputs": 1, "entries": [[entry]]})
        assert main(["check", str(path)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
