"""Command-line interface: file formats, exit codes, determinism."""

import argparse
import contextlib
import gc
import io
import json
import os
import sys
import tempfile
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stabring import groebner
from stabring import ring as ring_module
from stabring.cli import (EXIT_INPUT, EXIT_INTERNAL, EXIT_NEGATIVE, EXIT_OK,
                          MAX_STEPS, InputError, main, parse_fraction_text)
from stabring.groebner import IdealHandle
from stabring.poly import ParseError, Polynomial, parse_poly
from stabring.ring import RingModel

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")
DELAY = os.path.join(FIXTURES, "delay_plant.json")
XY = os.path.join(FIXTURES, "xy_plant.json")
SISO = os.path.join(FIXTURES, "siso_delay_plant.json")
RING23 = {"kind": "monomial_subalgebra", "variable": "z", "generators": [2, 3]}


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

    @pytest.mark.parametrize("command,ring,entry,line", [
        ("check", None, None, "error: cannot read /nonexistent/plant.json: [Errno 2] "
                              "No such file or directory: '/nonexistent/plant.json'"),
        ("check", dict(RING23, generators=[2, 4]), "z^2",
         "error: exponent generators (2, 4) have gcd 2 != 1"),
        ("check", RING23, "z/(1 - z^2)", "error: entry (1,1) is not causal"),
        ("check", RING23, "1 +", "error: cannot parse transfer function '1 +': "
                                 "expected a number, variable, or '(' (at position 3)"),
        ("check", RING23, "z^2/(1 - z^2)^100000",
         "error: cannot parse transfer function 'z^2/(1 - z^2)^100000': "
         "power of exponent or degree past 1000 (at position 20)"),
        ("simulate", {"kind": "polynomial_ring", "variables": ["x", "y"],
                      "z_mode": "zero_ideal"}, "x/y",
         "error: the loop's entries use more than one variable (x, y); "
         "only univariate delay rings can be simulated"),
    ], ids=["input_error", "ring_error", "not_causal_error", "parse_error",
            "parse_error_in_the_denominator", "multivariate_simulation"])
    def test_error_line(self, tmp_path, capsys, command, ring, entry, line):
        argv = [command, "/nonexistent/plant.json"]
        if ring is not None:
            argv[1] = str(tmp_path / "plant.json")
            write_json(argv[1], {"ring": ring, "inputs": 1, "outputs": 1,
                                 "entries": [[entry]]})
        if command == "simulate":
            argv.append(str(tmp_path / "controller.json"))
            write_json(argv[2], {"entries": [["0"]]})
        assert main(argv) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == line + "\n"

    def test_unit_test_disagreeing_with_is_unit_exits_3(self, capsys, monkeypatch):
        # only synth builds the certificate, so only synth can meet the fault
        monkeypatch.setattr(IdealHandle, "is_unit", lambda handle: (False, None))
        assert main(["synth", DELAY]) == EXIT_INTERNAL
        assert capsys.readouterr().err.startswith("internal error:")

    def test_check_builds_no_certificate(self, tmp_path, capsys, monkeypatch):
        # check decides by the gcd test over Q[z^S] and an untracked reduced
        # basis over Q[x,y]: no `is_unit` and no cofactor-tracked Buchberger
        xy = tmp_path / "xy.json"
        write_json(xy, {"ring": {"kind": "polynomial_ring", "variables": ["x", "y"],
                                 "z_mode": "zero_ideal"}, "inputs": 1, "outputs": 2,
                        "entries": [["x/(1 + 2*x*y)"], ["y/(1 + 2*x*y)"]]})
        buchberger = groebner.buchberger

        def untracked(*args, track_cofactors=False):
            assert not track_cofactors, "a cofactor-tracked Buchberger run"
            return buchberger(*args)

        def no_is_unit(handle):
            raise AssertionError("is_unit called")
        monkeypatch.setattr(groebner, "buchberger", untracked)
        monkeypatch.setattr(IdealHandle, "is_unit", no_is_unit)
        assert main(["check", DELAY]) == EXIT_OK
        assert main(["check", str(xy)]) == EXIT_OK
        assert capsys.readouterr().out == "stabilizable\nstabilizable\n"

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

    def test_verify_ill_posed_controller(self, tmp_path, capsys):
        # C = [-1/P(1,1), 0] makes E + P*C singular
        ctl = tmp_path / "ill.json"
        write_json(ctl, {"entries": [["(-1 + z^2)/(1 - z^3)", "0"]]})
        assert main(["verify", DELAY, str(ctl)]) == EXIT_NEGATIVE
        assert capsys.readouterr().out == "ill-posed: det(E + P*C) = 0\n"

    def test_verify_zero_controller_denominator(self, tmp_path, capsys):
        ctl = tmp_path / "zero_den.json"
        write_json(ctl, {"entries": [["1/(z - z)", "0"]]})
        assert main(["verify", DELAY, str(ctl)]) == EXIT_INPUT
        assert "zero denominator" in capsys.readouterr().err

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


class TestReducedMultivariateEntries:
    """Over Q[x,y] each entry is reduced before its causality is decided."""

    RING = {"kind": "polynomial_ring", "variables": ["x", "y"],
            "z_mode": "zero_constant_term"}

    def _plant(self, tmp_path, column, ring=RING):
        path = tmp_path / "plant.json"
        write_json(path, {"ring": ring, "inputs": 1, "outputs": len(column),
                          "entries": [[e] for e in column]})
        return str(path)

    def test_check_decides_a_shared_factor(self, tmp_path, capsys):
        plant = self._plant(tmp_path, ["x/(x + x*y)", "y/(1 + 2*x*y)"])
        assert main(["check", plant]) == EXIT_NEGATIVE
        assert capsys.readouterr().out == ("not stabilizable\n"
                                           "  residual generator: 1 + y\n"
                                           "  residual generator: -1/2 + x\n")

    def test_gef_reports_the_reduced_entry(self, tmp_path):
        out = tmp_path / "gef.json"
        assert main(["gef", self._plant(tmp_path, ["(x*y)/(y + x*y)"]),
                     "-o", str(out)]) == EXIT_OK
        report = json.load(open(out))
        assert report["plant"]["entries"] == [["(x)/(1 + x)"]]
        assert report["plant"]["denominator"] == "1 + x"

    def test_reduced_denominator_in_z_is_not_causal(self, tmp_path, capsys):
        assert main(["gef", self._plant(tmp_path, ["(x*y + x)/(y + x*y)"])]) == EXIT_INPUT
        assert capsys.readouterr().err == "error: entry (1,1) is not causal\n"

    def test_gef_reports_each_entry_as_written_reduced(self, tmp_path):
        # the report's entries are the fractions parsed and reduced once, not
        # N[i,j]/d reduced again, which over Q[x,y] keeps d's scaling
        path = tmp_path / "row.json"
        write_json(path, {"ring": self.RING, "inputs": 2, "outputs": 1,
                          "entries": [["2*x/(3*y + 1)", "x/(5 + 7*x)"]]})
        out = tmp_path / "gef.json"
        assert main(["gef", str(path), "-o", str(out)]) == EXIT_OK
        plant = json.load(open(out))["plant"]
        assert plant["entries"] == [["(2*x)/(1 + 3*y)", "(x)/(5 + 7*x)"]]
        assert plant["denominator"] == "5 + 7*x + 15*y + 21*x*y"

    def test_each_entry_reduced_once(self, tmp_path, capsys):
        # one `ring.gcd` per plant entry while parsing, none for the plant
        # matrix P; each is a Groebner intersection over Q[x,y]
        plant = self._plant(tmp_path, ["x/(1 + 2*x*y)", "y/(1 + 2*x*y)"])
        for command in ("check", "gef"):
            with mock.patch.object(ring_module, "gcd", wraps=ring_module.gcd) as spy:
                assert main([command, plant]) == EXIT_OK
            assert spy.call_count == 2, command

    def test_synth_prints_a_reduced_controller(self, tmp_path, capsys):
        ring = dict(self.RING, z_mode="zero_ideal")
        plant = self._plant(tmp_path, ["x/(1 + 2*x*y)", "y/(1 + 2*x*y)"], ring)
        out = tmp_path / "controller.json"
        assert main(["synth", plant, "-o", str(out)]) == EXIT_OK
        assert json.load(open(out))["controller"]["entries"][0][0] == "-2*y"
        assert main(["verify", plant, str(out)]) == EXIT_OK


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
        {"u1": [["1e5000"]]},
        {"u1": [["1", "1e999999999"]]},
    ], ids=["top_level_list", "channel_not_list", "non_numeric_sample", "huge_exponent",
            "power_of_ten_past_any_memory"])
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

    def test_sample_past_the_digit_limit(self, tmp_path, capsys):
        # a 2500-digit controller gain drives the loop signals past 4300 digits
        ctl = tmp_path / "controller.json"
        write_json(ctl, {"entries": [["3" * 2500]]})
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            assert main(["simulate", SISO, str(ctl), "--steps", "5"]) == EXIT_INPUT
        finally:
            sys.set_int_max_str_digits(limit)
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot print a number")
        assert captured.err.count("\n") == 1

    def test_unstable_loop_stops_at_the_digit_limit(self, tmp_path, capsys):
        # the loop's pole at z = 1/99 is never cancelled; the run stops at
        # the first sample past 4300 digits, not after MAX_STEPS steps
        ctl = tmp_path / "controller.json"
        write_json(ctl, {"entries": [["(1+z)/(1-99*z)"]]})
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            assert main(["simulate", SISO, str(ctl), "--steps", str(MAX_STEPS)]) == EXIT_INPUT
        finally:
            sys.set_int_max_str_digits(limit)
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: cannot print a number: a sample of step 2155 "
                                "has more than 4300 digits\n")

    def test_negative_steps(self, tmp_path, capsys):
        ctl = tmp_path / "controller.json"
        assert main(["synth", SISO, "-o", str(ctl)]) == EXIT_OK
        capsys.readouterr()
        assert main(["simulate", SISO, str(ctl), "--steps", "-5"]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("controller", ["synthesized", "missing"])
    def test_steps_past_the_bound(self, tmp_path, capsys, controller):
        # refused before any file is read, so a missing controller file
        # reports the bound too
        ctl = tmp_path / "controller.json"
        if controller == "synthesized":
            assert main(["synth", SISO, "-o", str(ctl)]) == EXIT_OK
        capsys.readouterr()
        assert main(["simulate", SISO, str(ctl), "--steps", str(MAX_STEPS + 1)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --steps must be at most {MAX_STEPS}, got {MAX_STEPS + 1}\n"

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


# numerals past Python's 4300-digit limit for int conversion
_LONG_NUMERALS = st.sampled_from(["1" * 5000, "9" * 4301 + "*z^2", "1/" + "7" * 5000,
                                  "-" + "3" * 4400])
# malformed pieces; random text has no '^', so no exponent can be huge
_JUNK_ENTRIES = st.one_of(_JSON_VALUES, _LONG_NUMERALS,
                          st.text(alphabet="zqxyw0123456789+-*/() .", max_size=12))
_NESTED_ENTRIES = st.sampled_from([3000, 300, 101, 100]).map(
    lambda k: "(" * k + "1" + ")" * k)
# powers and products past the parser's degree bound, in the ring's first variable
_HUGE_DEGREES = st.sampled_from(["{v}^2/(1 - {v}^2)^100000", "({v} + 1)^1001",
                                 "{v}^600*{v}^600"])
# powers and products past the parser's term bound, in two distinct variables
_HUGE_TERM_COUNTS = st.sampled_from(["({v} + {w} + 1)^1000", "1/({v} + {w})^100",
                                     "({v} + 1)^500*({w} + 1)^500"])
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
_FAULTS = ["numeral", "nesting", "generators", "entry", "ring", "ring_field", "counts",
           "shape", "missing_key", "foreign_name", "top_level", "degree"] + [None] * 4


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
    elif fault in ("entry", "nesting", "numeral"):
        junk = {"entry": _JUNK_ENTRIES, "nesting": _NESTED_ENTRIES,
                "numeral": _LONG_NUMERALS}[fault]
        plant["entries"][draw(st.integers(0, n - 1))][0] = draw(junk)
    elif fault == "degree":
        huge = _HUGE_DEGREES if len(names) == 1 else st.one_of(_HUGE_DEGREES,
                                                               _HUGE_TERM_COUNTS)
        plant["entries"][0][0] = draw(huge).format(v=names[0], w=names[-1])
    elif fault == "foreign_name":
        plant["entries"][0][draw(st.integers(0, m - 1))] = draw(_poly_text(_NAMES))
    elif fault == "top_level":
        plant = draw(_JSON_VALUES)
    return plant


def _assert_exit_code_contract(argv_head, path, payload, argv_tail=()):
    """Write `payload` as JSON to `path` in a fresh directory, run the command
    under the default digit limit and check that it exits 0, 1 or 2 with no
    traceback."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            target = os.path.join(tmp, path)
            write_json(target, payload)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([*argv_head, target, *argv_tail])
    finally:
        sys.set_int_max_str_digits(limit)
    assert code in (EXIT_OK, EXIT_NEGATIVE, EXIT_INPUT)
    assert "Traceback" not in out.getvalue() + err.getvalue()


class TestPlantFileFuzz:
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(_plants(), st.sampled_from(["gef", "check", "synth"]))
    def test_exit_code_contract(self, plant, command):
        _assert_exit_code_contract([command], "plant.json", plant)


# fuzzing the controller file of `verify` and `simulate` against the 1 x 1
# plant SISO and the 2 x 1 plant DELAY (controllers 1 x 1 and 1 x 2)
_CONTROLLER_FAULTS = ["numeral", "entry", "shape", "top_level", "nesting"] + [None] * 3


@st.composite
def _controllers(draw, m, n):
    fault = draw(st.sampled_from(_CONTROLLER_FAULTS))
    entries = [[draw(_entry(["z"])) for _ in range(n)] for _ in range(m)]
    controller = {"entries": entries}
    if fault in ("entry", "nesting", "numeral"):
        junk = {"entry": _JUNK_ENTRIES, "nesting": _NESTED_ENTRIES,
                "numeral": _LONG_NUMERALS}[fault]
        entries[draw(st.integers(0, m - 1))][draw(st.integers(0, n - 1))] = draw(junk)
    elif fault == "shape":
        controller["entries"] = draw(st.one_of(
            _JSON_VALUES, st.lists(st.lists(_entry(["z"]), max_size=3), max_size=3)))
    elif fault == "top_level":
        controller = draw(_JSON_VALUES)
    if draw(st.booleans()):
        controller = {"controller": controller}  # as a synth report holds it
    return controller


_PLANTS_WITH_CONTROLLERS = st.sampled_from([(SISO, 1, 1), (DELAY, 1, 2)]).flatmap(
    lambda p: st.tuples(st.just(p[0]), _controllers(p[1], p[2])))

# samples of an input trace: rationals in the forms Fraction reads, and
# decimal exponents and digit counts on both sides of the bounds.  A power of
# ten past 4300 digits does not print, and one of a billion digits is not
# computed in any time.
_SAMPLES = st.one_of(st.integers(-9, 9), st.fractions(max_denominator=9).map(str),
                     st.floats(-1e6, 1e6), st.integers(-999, 999).map(lambda k: f"1.5e{k}"))
_HOSTILE_SAMPLES = st.one_of(
    st.sampled_from([5000, -4400, 999999999, -999999999, 1001, 1000, -1000]).map(
        lambda k: f"1e{k}"),
    st.sampled_from(["3" * 1001, "0." + "1" * 1000, "3" * 1000, "-2E+0_5000", "1_0e1_0"]),
    _LONG_NUMERALS, _JSON_VALUES)
_INPUT_FAULTS = ["sample", "channels", "top_level"] + [None] * 2


@st.composite
def _input_files(draw):
    """An input trace for the 1 x 1 plant SISO, with one fault at most."""
    fault = draw(st.sampled_from(_INPUT_FAULTS))
    data = {key: [draw(st.lists(_SAMPLES, max_size=4))] for key in ("u1", "u2")}
    if fault == "sample":
        channel = data[draw(st.sampled_from(["u1", "u2"]))][0]
        channel.insert(draw(st.integers(0, len(channel))), draw(_HOSTILE_SAMPLES))
    elif fault == "channels":
        data[draw(st.sampled_from(["u1", "u2"]))] = draw(st.one_of(
            _JSON_VALUES, st.lists(st.lists(_SAMPLES, max_size=2), max_size=3)))
    elif fault == "top_level":
        data = draw(_JSON_VALUES)
    return data


@pytest.fixture(scope="module")
def siso_controller(tmp_path_factory):
    path = tmp_path_factory.mktemp("controller") / "controller.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth", SISO, "-o", str(path)]) == EXIT_OK
    return str(path)


class TestControllerFileFuzz:
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(_PLANTS_WITH_CONTROLLERS, st.sampled_from(["verify", "simulate"]))
    def test_exit_code_contract(self, plant_and_controller, command):
        plant, controller = plant_and_controller
        tail = ["--steps", "8"] if command == "simulate" else []
        _assert_exit_code_contract([command, plant], "controller.json", controller, tail)


class TestInputFileFuzz:
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(_input_files())
    def test_exit_code_contract(self, siso_controller, payload):
        _assert_exit_code_contract(
            ["simulate", SISO, siso_controller, "--steps", "8", "--input", "file",
             "--input-file"], "inputs.json", payload)


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


@st.composite
def _semigroup_plants(draw):
    """A causal plant over Q[z^S] with a constant-term causality ideal, up to
    2 x 2: numerators and denominators are ring elements of degree at most 6,
    and each denominator has a nonzero constant term."""
    gens = draw(st.sampled_from([[2, 3], [3, 4, 5], [2, 5]]))
    ring = {"kind": "monomial_subalgebra", "variable": "z", "generators": gens,
            "z_mode": "zero_constant_term"}
    exps = [e for e in range(1, 7)
            if RingModel.monomial_subalgebra("z", gens).semigroup_contains(e)]
    n, m = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    small = st.sampled_from([1, -1, 2, -3])

    def ring_element(constants):
        coeffs = [draw(constants)] + [0] * 6
        for e in draw(st.lists(st.sampled_from(exps), max_size=2, unique=True)):
            coeffs[e] = draw(small)
        return _univariate_text(coeffs)

    def entry():
        num = ring_element(st.sampled_from([0, 1, -2]))
        return f"({num})/({ring_element(small)})"

    return {"ring": ring, "inputs": m, "outputs": n,
            "entries": [[entry() for _ in range(m)] for _ in range(n)]}


class TestSemigroupPlants:
    """Over Q[z^S] with Z the elements of zero constant term every causal plant
    is stabilizable: away from z = 0 the ring is locally Q[z], as the
    conductor holds a power of z, and at z = 0 the denominator is a unit."""

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(_semigroup_plants())
    def test_check_exits_zero(self, plant):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "plant.json")
            write_json(path, plant)
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["check", path]) == EXIT_OK


class TestHostilePlants:
    """Inputs the fuzz test above finds crashing, with a traceback and exit 1,
    or hanging, unless they are refused as input errors."""

    @pytest.mark.parametrize("command,ring,entry", [
        ("check", RING23, "(" * 3000 + "1" + ")" * 3000),
        ("check", {"kind": "monomial_subalgebra", "variable": "z",
                   "generators": [2, 3, 10 ** 30]}, "1"),
        ("check", RING23, "1" * 5000 + "*z^2"),
        ("check", RING23, "z^2/(1 - z^2)^100000"),
        ("check", {"kind": "polynomial_ring", "variables": ["x", "y"]}, "(x + y + 1)^1000"),
        # under the digit limit on input, past it in the report's products
        ("gef", RING23, "z^2/(1 - " + "3" * 2500 + "*z^2)"),
        ("synth", RING23, "z^2/(1 - " + "3" * 2500 + "*z^2)"),
        # conductor (17 - 1)(18 - 1) = 272: dense gap systems of that size
        ("check", {"kind": "monomial_subalgebra", "variable": "z",
                   "generators": [17, 18]}, "z^17/(1 - z^17)"),
    ], ids=["deep_parentheses", "huge_generator", "numeral_past_the_digit_limit",
            "degree_past_the_bound", "terms_past_the_bound",
            "gef_coefficient_past_the_digit_limit",
            "synth_coefficient_past_the_digit_limit", "conductor_past_the_bound"])
    def test_rejected_as_input_error(self, tmp_path, capsys, command, ring, entry):
        path = tmp_path / "plant.json"
        write_json(path, {"ring": ring, "inputs": 1, "outputs": 1, "entries": [[entry]]})
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            assert main([command, str(path)]) == EXIT_INPUT
        finally:
            sys.set_int_max_str_digits(limit)
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    def test_least_generator_past_the_conductor_bound(self, tmp_path, capsys, monkeypatch):
        # the conductor of (999, 1000) is at least 999: refused before the
        # semigroup table, of about a million entries, is built
        def no_table(gens):
            raise AssertionError("the semigroup table was built")
        monkeypatch.setattr(ring_module, "_semigroup_table", no_table)
        path = tmp_path / "plant.json"
        ring = {"kind": "monomial_subalgebra", "variable": "z", "generators": [999, 1000]}
        write_json(path, {"ring": ring, "inputs": 1, "outputs": 1, "entries": [["1"]]})
        assert main(["check", str(path)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.err == ("error: the least generator 999 of generators [999, 1000] "
                                "is past 200, and so is the conductor\n")

    @pytest.mark.parametrize("command", ["gef", "check", "synth"])
    def test_channels_past_the_bound(self, tmp_path, capsys, command):
        # 8 outputs and 7 inputs: C(15, 7) = 6435 index sets of 7 x 7 minors;
        # the bound is checked before any entry is parsed
        path = tmp_path / "plant.json"
        entries = [["z^2" if i == j else "0" for j in range(7)] for i in range(8)]
        entries[7][6] = "(" * 3000
        write_json(path, {"ring": RING23, "inputs": 7, "outputs": 8, "entries": entries})
        assert main([command, str(path)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        assert captured.err == "error: 'inputs' + 'outputs' must be at most 14, got 15\n"
