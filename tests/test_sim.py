"""Exact time-domain simulation against the algebraic closed loop."""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabring.matrixring import Mat
from stabring.poly import DigitLimitError, Polynomial, _fmt_rational, parse_poly
from stabring.ring import PolyFraction
from stabring.sim import (AlgebraicLoopSingularError, NotCausalTFError,
                          SignalTrace, SimError, SimulationUnsupportedError,
                          _pad, _Row, simulate_loop, trace_to_csv)
from stabring.synth import IllPosedError, closed_loop
from oracles import DiffEq, FieldFraction, compare_to_H, impulse_response

Z = ("z",)


def zp(text):
    return parse_poly(text, Z)


def frac(num, den="1"):
    return FieldFraction(zp(num), zp(den))


class TestImpulseResponse:
    def test_reduced_rational(self):
        # synthetic long division of (1+z+z^2)/(1+z)
        out = impulse_response(frac("1 - z^3", "1 - z^2"), 6)
        assert out == [1, 0, 1, -1, 1, -1]

    def test_polynomial(self):
        assert impulse_response(frac("1 + z^2"), 5) == [1, 0, 1, 0, 0]

    def test_constant(self):
        assert impulse_response(frac("1"), 4) == [1, 0, 0, 0]

    def test_convolution_oracle(self):
        # series of a product equals the convolution of the series
        a = frac("1", "1 - z^2")
        b = frac("1 + z", "1 - 3*z")
        sa = impulse_response(a, 12)
        sb = impulse_response(b, 12)
        sab = impulse_response(a * b, 12)
        conv = [sum(sa[k] * sb[t - k] for k in range(t + 1)) for t in range(12)]
        assert sab == conv

    def test_not_causal(self):
        with pytest.raises(NotCausalTFError):
            impulse_response(frac("1", "z^2"), 3)


class TestSimulateLoop:
    def test_open_loop_passthrough(self):
        P = Mat.from_rows([[frac("0")]])
        C = Mat.from_rows([[frac("0")]])
        trace = simulate_loop(P, C, [[Fraction(1)]], [[]], 5)
        assert trace.e1[0] == [1, 0, 0, 0, 0]
        assert trace.e2[0] == [0] * 5
        assert trace.y1[0] == [0] * 5
        assert trace.y2[0] == [0] * 5

    def test_loop_equations_hold(self, delay_plant, delay_controller):
        trace = simulate_loop(delay_plant.P, delay_controller.C,
                              [[Fraction(1), Fraction(0), Fraction(2)], []],
                              [[Fraction(1, 3)]], 12)
        for t in range(12):
            for i in range(2):
                assert trace.e1[i][t] == trace.u1[i][t] - trace.y2[i][t]
            assert trace.e2[0][t] == trace.u2[0][t] + trace.y1[0][t]

    def test_finite_support_over_delay_ring(self, delay_plant, delay_controller):
        trace = simulate_loop(delay_plant.P, delay_controller.C,
                              [[Fraction(1)], []], [[]], 40)
        for ch in trace.e1 + trace.e2:
            assert ch[1] == 0          # no unit-delay tap in the ring
            assert all(v == 0 for v in ch[30:])   # stable responses terminate

    def test_algebraic_loop_singular(self, ring23):
        P = Mat.from_rows([[frac("1")]])
        C = Mat.from_rows([[frac("-1")]])
        with pytest.raises(AlgebraicLoopSingularError):
            simulate_loop(P, C, [[Fraction(1)]], [[]], 3)

    def test_multivariate_rejected(self, xy_plant):
        C = Mat.from_rows([[PolyFraction(
            parse_poly("0", ("x", "y")), parse_poly("1", ("x", "y")))]])
        with pytest.raises(SimulationUnsupportedError):
            simulate_loop(xy_plant.P, C, [[Fraction(1)]], [[]], 3)

    def test_mixed_delay_variables_rejected(self):
        # each entry is univariate, but x and y cannot share one time axis
        xy = ("x", "y")
        P = Mat.from_rows([[PolyFraction(parse_poly("x", xy))],
                           [PolyFraction(parse_poly("y", xy))]])
        C = Mat.from_rows([[PolyFraction(parse_poly("1", xy)),
                            PolyFraction(parse_poly("0", xy))]])
        with pytest.raises(SimulationUnsupportedError):
            simulate_loop(P, C, [[Fraction(1)], []], [[]], 4)


class TestCompareToH:
    def test_delay_plant(self, delay_plant, delay_controller):
        assert compare_to_H(delay_plant.P, delay_controller.C, 50)

    def test_siso_pipeline(self, siso_plant, siso_controller):
        assert compare_to_H(siso_plant.P, siso_controller.C, 50)

    def test_identity_loop(self):
        P = Mat.from_rows([[frac("0")]])
        C = Mat.from_rows([[frac("0")]])
        assert compare_to_H(P, C, 10)

    def test_corrupted_controller_detected(self, delay_plant, delay_controller):
        # perturb one coefficient; the trace must no longer match the
        # closed-loop map of the original pair
        C = delay_controller.C
        num = C[0, 0].num + zp("1/977*z^2")
        entries = list(C.entries)
        entries[0] = PolyFraction(num, C[0, 0].den)
        corrupted = Mat(C.rows, C.cols, entries)
        reference = closed_loop(delay_plant.P, C)
        assert compare_to_H(delay_plant.P, C, 50, against=reference)
        assert not compare_to_H(delay_plant.P, corrupted, 50, against=reference)

    def test_matches_convolution_with_h(self, siso_plant, siso_controller):
        # time-domain trace equals convolution with the closed-loop series
        H = closed_loop(siso_plant.P, siso_controller.C)
        u = [Fraction(1), Fraction(2), Fraction(-1)]
        trace = simulate_loop(siso_plant.P, siso_controller.C, [list(u)], [[]], 15)
        h_series = impulse_response(H[0, 0], 15)
        expected = [sum(h_series[k] * (u[t - k] if t - k < len(u) else Fraction(0))
                        for k in range(t + 1)) for t in range(15)]
        assert trace.e1[0] == expected


class TestDigitLimit:
    """An unstable loop stops at its first sample that trace_to_csv could
    not print, instead of computing samples to the last step."""

    P = Mat.from_rows([[frac("z^2", "1 - z^2")]])
    # the pole of 1/(1 - 99 z) is never cancelled: samples grow by about two
    # digits a step, and the first past 4300 digits is made at step 2155
    C = Mat.from_rows([[frac("1 + z", "1 - 99*z")]])

    @pytest.fixture(autouse=True)
    def default_limit(self):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        yield
        sys.set_int_max_str_digits(limit)

    def test_raises_past_the_limit(self):
        with pytest.raises(DigitLimitError, match="step 2155 has more than 4300 digits"):
            simulate_loop(self.P, self.C, [[Fraction(1)]], [[]], 3000)

    def test_printable_horizon_returns(self):
        trace = simulate_loop(self.P, self.C, [[Fraction(1)]], [[]], 2155)
        for ch in trace.e1 + trace.e2 + trace.y1 + trace.y2:
            _fmt_rational(ch[-1].numerator, ch[-1].denominator)

    def test_no_limit(self):
        sys.set_int_max_str_digits(0)
        trace = simulate_loop(self.P, self.C, [[Fraction(1)]], [[]], 2300)
        assert len(str(trace.e1[0][-1].numerator)) > 4300


class TestCsv:
    def test_header_and_rationals(self):
        P = Mat.from_rows([[frac("z^2", "1 - z^2")]])
        C = Mat.from_rows([[frac("1")]])
        trace = simulate_loop(P, C, [[Fraction(1, 2)]], [[]], 3)
        text = trace_to_csv(trace)
        lines = text.strip().split("\n")
        assert lines[0] == "step,u1_1,u2_1,e1_1,e2_1,y1_1,y2_1"
        assert lines[1].startswith("0,1/2,")
        assert len(lines) == 4

    def test_zero_samples(self):
        # computed zeros, the zero padding of the inputs and the zero tail
        # after the loop comes to rest are all written as 0
        P = Mat.from_rows([[frac("z^2")]])
        C = Mat.from_rows([[frac("0")]])
        trace = simulate_loop(P, C, [[]], [[Fraction(-3, 2), Fraction(0)]], 5)
        assert trace_to_csv(trace).split("\n")[1:] == [
            "0,0,-3/2,0,-3/2,0,0", "1,0,0,0,0,0,0", "2,0,0,3/2,0,0,-3/2",
            "3,0,0,0,0,0,0", "4,0,0,0,0,0,0", ""]


# ---------------------------------------------------------------------------
# reference: one difference equation per SISO entry, summed per row
# ---------------------------------------------------------------------------


class _EntryState:
    """One SISO difference equation with its input/output history."""

    def __init__(self, eq: DiffEq):
        self.eq = eq
        self.inputs: list[Fraction] = []
        self.outputs: list[Fraction] = []

    def memory(self) -> Fraction:
        t = len(self.outputs)
        num, den = self.eq.num_coeffs, self.eq.den_coeffs
        acc = Fraction(0)
        for k in range(1, len(num)):
            if t - k >= 0:
                acc += num[k] * self.inputs[t - k]
        for k in range(1, len(den)):
            if t - k >= 0:
                acc -= den[k] * self.outputs[t - k]
        return acc / den[0]

    def advance(self, u: Fraction) -> Fraction:
        y = self.eq.feedthrough * u + self.memory()
        self.inputs.append(u)
        self.outputs.append(y)
        return y


def _reference_simulate_loop(P, C, u1, u2, steps):
    n, m = P.rows, P.cols
    plant = [[_EntryState(DiffEq.from_fraction(P[i, j])) for j in range(m)]
             for i in range(n)]
    ctrl = [[_EntryState(DiffEq.from_fraction(C[i, j])) for j in range(n)]
            for i in range(m)]
    u1 = _pad(u1, n, steps)
    u2 = _pad(u2, m, steps)
    k = n + m
    feed_p = Mat.build(n, m, lambda i, j: PolyFraction(plant[i][j].eq.feedthrough))
    feed_c = Mat.build(m, n, lambda i, j: PolyFraction(ctrl[i][j].eq.feedthrough))
    try:
        H0 = closed_loop(feed_p, feed_c)
    except IllPosedError:
        raise AlgebraicLoopSingularError("det(E + P(0)*C(0)) = 0")
    inv = [[H0[r, c].as_polynomial().constant_coeff() for c in range(k)]
           for r in range(k)]
    e1 = [[] for _ in range(n)]
    e2 = [[] for _ in range(m)]
    y1 = [[] for _ in range(m)]
    y2 = [[] for _ in range(n)]
    for t in range(steps):
        mem_p = [sum((plant[i][j].memory() for j in range(m)), Fraction(0))
                 for i in range(n)]
        mem_c = [sum((ctrl[i][j].memory() for j in range(n)), Fraction(0))
                 for i in range(m)]
        rhs = [u1[i][t] - mem_p[i] for i in range(n)]
        rhs += [u2[i][t] + mem_c[i] for i in range(m)]
        sol = [sum(inv[r][c] * rhs[c] for c in range(k)) for r in range(k)]
        e1_t, e2_t = sol[:n], sol[n:]
        for i in range(n):
            y2[i].append(sum((plant[i][j].advance(e2_t[j]) for j in range(m)),
                             Fraction(0)))
        for i in range(m):
            y1[i].append(sum((ctrl[i][j].advance(e1_t[j]) for j in range(n)),
                             Fraction(0)))
        for i in range(n):
            e1[i].append(e1_t[i])
        for i in range(m):
            e2[i].append(e2_t[i])
        for i in range(n):
            if e1[i][t] != u1[i][t] - y2[i][t]:
                raise SimError("loop equation e1 = u1 - y2 violated")
        for i in range(m):
            if e2[i][t] != u2[i][t] + y1[i][t]:
                raise SimError("loop equation e2 = u2 + y1 violated")
    return SignalTrace(u1, u2, e1, e2, y1, y2)


_SMALL = st.sampled_from([Fraction(c) for c in (-2, -1, 1, 2, 3)]
                         + [Fraction(1, 2), Fraction(-3, 4)])
# like the coefficients of a synthesized controller: 60- to 90-bit
# denominators, a different one for each coefficient
_WIDE = st.builds(Fraction, st.integers(-2 ** 30, 2 ** 30).filter(bool),
                  st.integers(2 ** 59, 2 ** 90 - 1))


def _upoly(coeffs, variables):
    """sum_k coeffs[k] z^k over `variables`, whose first variable is z."""
    pad = (0,) * (len(variables) - 1)
    return Polynomial({(k,) + pad: c for k, c in enumerate(coeffs)}, variables)


@st.composite
def _causal_poly(draw, variables, max_degree=3, coeff=_SMALL):
    """A polynomial with a nonzero constant term; its nonzero coefficients
    are drawn from `coeff`."""
    rest = st.lists(st.one_of(coeff, st.just(Fraction(0))), max_size=max_degree)
    return _upoly([draw(coeff)] + draw(rest), variables)


@st.composite
def _row(draw, cols, variables, coeff=_SMALL):
    """One row of causal fractions whose denominators are shared, pairwise
    coprime or dividing each other, with numerator and denominator optionally
    multiplied by a common factor, which a FieldFraction cancels again over
    the ambient variables (z,) and (z, w) alike.  Nonzero coefficients are
    drawn from `coeff`."""
    kind = draw(st.sampled_from(["shared", "coprime", "dividing"]))
    base = draw(_causal_poly(variables, coeff=coeff))
    if kind == "shared":
        dens = [base] * cols
    elif kind == "dividing":
        dens = [base]
        for _ in range(cols - 1):
            dens.append(dens[-1] * draw(_causal_poly(variables, max_degree=2, coeff=coeff)))
        dens = draw(st.permutations(dens))
    else:
        roots = draw(st.lists(coeff, min_size=cols, max_size=cols, unique=True))
        dens = [_upoly([Fraction(1), -r], variables) for r in roots]
    out = []
    for den in dens:
        num = _upoly(draw(st.lists(st.one_of(coeff, st.just(Fraction(0))),
                                   min_size=1, max_size=4)), variables)
        if draw(st.booleans()):
            common = draw(_causal_poly(variables, max_degree=2, coeff=coeff))
            num, den = num * common, den * common
        out.append(FieldFraction(num, den))
    return out


@st.composite
def _loop(draw, coeff=_SMALL):
    n, m = draw(st.sampled_from([(1, 1), (2, 1), (1, 2), (2, 2)]))
    variables = draw(st.sampled_from([("z",), ("z", "w")]))
    P = Mat.from_rows([draw(_row(m, variables, coeff)) for _ in range(n)])
    C = Mat.from_rows([draw(_row(n, variables, coeff)) for _ in range(m)])
    z = _upoly([Fraction(0), Fraction(1)], variables)
    case = draw(st.sampled_from(["causal"] * 3 + ["not_causal", "singular"]))
    entries = [e * FieldFraction(z) for e in C.entries] if case == "singular" else list(C.entries)
    if case == "not_causal":
        # a denominator without constant term has no causal realization
        entries[0] = PolyFraction(entries[0].num + 1, entries[0].den * z)
    if case == "singular":
        p0 = DiffEq.from_fraction(P[0, 0]).feedthrough
        if not p0:
            p0 = Fraction(1)
            P = Mat(n, m, [P[0, 0] + FieldFraction(Polynomial.one(variables))]
                    + list(P.entries[1:]))
        # only C[0, 0] has a feedthrough, so det(E + P(0) C(0)) = 1 + p0 c0 = 0
        entries[0] = entries[0] + FieldFraction(Polynomial.const(-1 / p0, variables))
    C = Mat(C.rows, C.cols, entries)
    trace = st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=7),
                     min_size=1, max_size=6)
    u1 = [draw(trace) for _ in range(n)]
    u2 = [draw(trace) for _ in range(m)]
    return P, C, u1, u2, draw(st.integers(1, 20))


def _outcome(simulate, P, C, u1, u2, steps):
    try:
        return simulate(P, C, u1, u2, steps)
    except (NotCausalTFError, AlgebraicLoopSingularError) as exc:
        return type(exc)


class TestRowRealizationOracle:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(loop=_loop())
    def test_matches_per_entry_simulation(self, loop):
        P, C, u1, u2, steps = loop
        want = _outcome(_reference_simulate_loop, P, C, u1, u2, steps)
        assert _outcome(simulate_loop, P, C, u1, u2, steps) == want

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(loop=_loop(coeff=_WIDE))
    def test_wide_denominators(self, loop):
        # every tap of a row is an integer only after scaling by the lcm of
        # many unrelated denominators, and the pending sums merge samples
        # whose denominators differ
        P, C, u1, u2, steps = loop
        want = _outcome(_reference_simulate_loop, P, C, u1, u2, steps)
        assert _outcome(simulate_loop, P, C, u1, u2, steps) == want


# ---------------------------------------------------------------------------
# the zero-state stop: loops that come to rest, are excited again after a
# quiet gap, or never come to rest
# ---------------------------------------------------------------------------


def _tap_bound(M: Mat) -> int:
    """A bound on the delays of every row's difference equation: d divides
    the product of the row's denominators and n_j = num_j d/den_j."""
    return max(max(e.num.total_degree() for e in row) + sum(e.den.total_degree() for e in row)
               for row in M.to_rows())


@st.composite
def _poly_row(draw, cols, variables, coeff=_SMALL):
    """Polynomial entries, some written over a common factor; nonzero
    coefficients are drawn from `coeff`."""
    out = []
    for _ in range(cols):
        num = _upoly(draw(st.lists(st.one_of(coeff, st.just(Fraction(0))),
                                   min_size=1, max_size=4)), variables)
        den = Polynomial.one(variables)
        if draw(st.booleans()):
            common = draw(_causal_poly(variables, max_degree=2, coeff=coeff))
            num, den = num * common, den * common
        out.append(FieldFraction(num, den))
    return out


@st.composite
def _gap_loop(draw, coeff=_SMALL):
    """A causal loop and inputs that fall quiet for longer than any tap
    reaches, then start again.

    `iir` loops have random rational rows and in general never come to rest.
    `open` loops have polynomial plants and a zero controller, and
    `nilpotent` ones a polynomial column P = [a; b] with the controller
    C = r [b, -a], so that C P = 0 and the closed loop I - P C is a
    polynomial matrix: both come to rest a few steps after each burst."""
    kind = draw(st.sampled_from(["iir", "open", "nilpotent"]))
    variables = draw(st.sampled_from([("z",), ("z", "w")]))
    if kind == "nilpotent":
        n, m = 2, 1
        (a,), (b,) = draw(_poly_row(1, variables, coeff)), draw(_poly_row(1, variables, coeff))
        (r,) = draw(_poly_row(1, variables, coeff))
        P = Mat.from_rows([[a], [b]])
        C = Mat.from_rows([[b * r, -(a * r)]])
    else:
        n, m = draw(st.sampled_from([(1, 1), (2, 1), (1, 2), (2, 2)]))
        row = _row if kind == "iir" else _poly_row
        P = Mat.from_rows([draw(row(m, variables, coeff)) for _ in range(n)])
        zero = PolyFraction(Polynomial.zero(variables), Polynomial.one(variables))
        C = (Mat.from_rows([draw(_row(n, variables, coeff)) for _ in range(m)]) if kind == "iir"
             else Mat(m, n, [zero] * (m * n)))
    gap = max(_tap_bound(P), _tap_bound(C)) + 1 + draw(st.integers(0, 6))
    sample = st.fractions(min_value=-5, max_value=5, max_denominator=7)
    burst = st.lists(sample, min_size=1, max_size=4)
    first, second = draw(burst), draw(burst)
    start = len(first) + gap
    steps = draw(st.integers(start + 1, max(start + 1, 80)))

    def channel():
        kept = draw(st.sampled_from(["both", "first", "second", "none"]))
        head = first if kept in ("both", "first") else [Fraction(0)] * len(first)
        tail = second if kept in ("both", "second") else []
        return head + [Fraction(0)] * gap + tail

    u1 = [channel() for _ in range(n)]
    u2 = [channel() for _ in range(m)]
    return P, C, u1, u2, steps


class TestZeroStateStop:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(loop=_gap_loop())
    def test_matches_per_entry_simulation(self, loop):
        P, C, u1, u2, steps = loop
        want = _outcome(_reference_simulate_loop, P, C, u1, u2, steps)
        assert _outcome(simulate_loop, P, C, u1, u2, steps) == want

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(loop=_gap_loop(coeff=_WIDE))
    def test_wide_denominators(self, loop):
        # IIR loops that never rest and finite-impulse-response loops that
        # rest after each burst, over coefficients with 60- to 90-bit
        # denominators
        P, C, u1, u2, steps = loop
        want = _outcome(_reference_simulate_loop, P, C, u1, u2, steps)
        assert _outcome(simulate_loop, P, C, u1, u2, steps) == want

    def test_impulse_again_after_rest(self, delay_plant, delay_controller):
        # the loop is at rest long before step 250; the second impulse must
        # still be simulated, and by time invariance it repeats the first
        P, C = delay_plant.P, delay_controller.C
        u1 = [[Fraction(1)] + [Fraction(0)] * 249 + [Fraction(1)], []]
        trace = simulate_loop(P, C, u1, [[]], 400)
        assert trace == _reference_simulate_loop(P, C, u1, [[]], 400)
        for ch in trace.e1 + trace.e2 + trace.y1 + trace.y2:
            assert len(ch) == 400
            assert all(v == 0 for v in ch[100:250])
            assert ch[250:400] == ch[0:150]
        assert trace.e1[0][250] != 0

    def test_unstable_loop_runs_every_step(self, delay_plant):
        # with no controller, the pole of 1/(1 + 2z) in P[2] is never
        # cancelled: the response doubles in size to the last step
        P = delay_plant.P
        zero = PolyFraction(zp("0"))
        C = Mat.from_rows([[zero, zero]])
        trace = simulate_loop(P, C, [[], []], [[Fraction(1)]], 400)
        assert trace == _reference_simulate_loop(P, C, [[], []], [[Fraction(1)]], 400)
        assert all(trace.y2[1][t] != 0 for t in range(2, 400))
        assert abs(trace.y2[1][399]) > 2 ** 390

    def test_cancelling_pending_sums(self):
        # both inputs feed the same delay with opposite weights; equal
        # samples cancel in the pending sum, which leaves no state behind
        P = Mat.from_rows([[frac("z^2", "1 - z"), frac("-z^2", "1 - z")]])
        row = _Row(P, Z, 10)
        row.advance(0, [Fraction(3), Fraction(3)], row.memory(0))
        assert row.pending == {} and row.outputs == [0]
        # nothing is kept for the steps past the horizon
        row = _Row(P, Z, 2)
        row.advance(0, [Fraction(3), Fraction(0)], row.memory(0))
        assert row.pending == {}
        zero = frac("0")
        C = Mat.from_rows([[zero], [zero]])
        u2 = [[Fraction(3), Fraction(1)], [Fraction(3), Fraction(2)]]
        trace = simulate_loop(P, C, [[]], u2, 10)
        assert trace == _reference_simulate_loop(P, C, [[]], u2, 10)
        assert trace.y2[0] == [0, 0, 0, -1, -1, -1, -1, -1, -1, -1]
