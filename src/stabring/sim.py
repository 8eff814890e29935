"""Exact discrete-time simulation of the feedback loop.

Transfer functions over a univariate delay ring are realized as difference
equations in their rational coefficients; the loop's instantaneous algebraic
constraint is solved exactly at each step, so every signal is a sequence of
Fractions.  Time-domain traces are cross-checked against the algebraic
closed-loop map by comparing impulse responses entry by entry, bit for bit.
Multivariate rings have no canonical time axis and are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .matrixring import Mat
from .ring import PolyFraction
from .synth import IllPosedError, closed_loop


class SimError(Exception):
    pass


class NotCausalTFError(SimError):
    """The transfer function has no instantaneous realization."""


class AlgebraicLoopSingularError(SimError):
    """The instantaneous loop equations are singular."""


class SimulationUnsupportedError(SimError):
    """Raised for plants over rings without a time axis (multivariate)."""


@dataclass
class DiffEq:
    """y_t = (1/d0) * (sum_k n_k u_{t-k} - sum_{k>=1} d_k y_{t-k})."""

    num_coeffs: list[Fraction]
    den_coeffs: list[Fraction]

    def __post_init__(self):
        if not self.den_coeffs or self.den_coeffs[0] == 0:
            raise NotCausalTFError("denominator needs a nonzero constant term")

    @staticmethod
    def from_fraction(tf: PolyFraction) -> "DiffEq":
        used = set(tf.num.used_variables()) | set(tf.den.used_variables())
        if len(used) > 1:
            raise SimulationUnsupportedError(
                "only univariate delay rings can be simulated")
        num = tf.num.univar_coeffs()
        den = tf.den.univar_coeffs()
        return DiffEq(num or [Fraction(0)], den)

    @property
    def feedthrough(self) -> Fraction:
        return self.num_coeffs[0] / self.den_coeffs[0]


def impulse_response(tf: PolyFraction | DiffEq, steps: int) -> list[Fraction]:
    """First `steps` power-series coefficients of the transfer function."""
    eq = tf if isinstance(tf, DiffEq) else DiffEq.from_fraction(tf)
    num, den = eq.num_coeffs, eq.den_coeffs
    out: list[Fraction] = []
    for t in range(steps):
        acc = num[t] if t < len(num) else Fraction(0)
        for k in range(1, min(t, len(den) - 1) + 1):
            acc -= den[k] * out[t - k]
        out.append(acc / den[0])
    return out


class _EntryState:
    """One SISO difference equation with its input/output history."""

    __slots__ = ("eq", "inputs", "outputs")

    def __init__(self, eq: DiffEq):
        self.eq = eq
        self.inputs: list[Fraction] = []
        self.outputs: list[Fraction] = []

    def memory(self) -> Fraction:
        """Contribution of past samples to the next output."""
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


@dataclass
class SignalTrace:
    """Per-channel rational sequences for all six loop signals."""

    u1: list[list[Fraction]]
    u2: list[list[Fraction]]
    e1: list[list[Fraction]]
    e2: list[list[Fraction]]
    y1: list[list[Fraction]]
    y2: list[list[Fraction]]

    def steps(self) -> int:
        return len(self.e1[0]) if self.e1 else 0


def _pad(channels: list[list[Fraction]], count: int, steps: int) -> list[list[Fraction]]:
    if len(channels) != count:
        raise SimError(f"expected {count} input channels, got {len(channels)}")
    out = []
    for ch in channels:
        vals = [Fraction(v) for v in ch[:steps]]
        vals += [Fraction(0)] * (steps - len(vals))
        out.append(vals)
    return out


def simulate_loop(P: Mat, C: Mat, u1: list[list[Fraction]],
                  u2: list[list[Fraction]], steps: int) -> SignalTrace:
    """Exact simulation of the loop e1 = u1 - y2, e2 = u2 + y1."""
    n, m = P.rows, P.cols
    if C.rows != m or C.cols != n:
        raise SimError("controller shape does not match the plant")
    plant = [[_EntryState(DiffEq.from_fraction(P[i, j])) for j in range(m)]
             for i in range(n)]
    ctrl = [[_EntryState(DiffEq.from_fraction(C[i, j])) for j in range(n)]
            for i in range(m)]
    u1 = _pad(u1, n, steps)
    u2 = _pad(u2, m, steps)

    # instantaneous constraint: [E_n  F_P; -F_C  E_m] [e1; e2] = rhs, whose
    # inverse is the closed loop of the feedthrough matrices
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
            total = Fraction(0)
            for j in range(m):
                total += plant[i][j].advance(e2_t[j])
            y2[i].append(total)
        for i in range(m):
            total = Fraction(0)
            for j in range(n):
                total += ctrl[i][j].advance(e1_t[j])
            y1[i].append(total)
        for i in range(n):
            e1[i].append(e1_t[i])
        for i in range(m):
            e2[i].append(e2_t[i])
        # the loop equations must hold exactly at every step
        for i in range(n):
            if e1[i][t] != u1[i][t] - y2[i][t]:
                raise SimError("loop equation e1 = u1 - y2 violated")
        for i in range(m):
            if e2[i][t] != u2[i][t] + y1[i][t]:
                raise SimError("loop equation e2 = u2 + y1 violated")
    return SignalTrace(u1, u2, e1, e2, y1, y2)


def compare_to_H(P: Mat, C: Mat, steps: int, against: Mat | None = None) -> bool:
    """Simulated impulse responses equal the algebraic closed-loop map.

    `against` substitutes a reference closed-loop matrix, which makes the
    check a detector: simulating a perturbed controller against the original
    map reports the mismatch.
    """
    n, m = P.rows, P.cols
    H = against if against is not None else closed_loop(P, C)
    for channel in range(n + m):
        u1 = [[Fraction(1)] if channel == i else [] for i in range(n)]
        u2 = [[Fraction(1)] if channel == n + i else [] for i in range(m)]
        trace = simulate_loop(P, C, u1, u2, steps)
        outputs = trace.e1 + trace.e2
        for row in range(n + m):
            expected = impulse_response(H[row, channel], steps)
            if outputs[row] != expected:
                return False
    return True


def trace_to_csv(trace: SignalTrace) -> str:
    """CSV with one row per step; rationals rendered as p/q."""
    groups = [("u1", trace.u1), ("u2", trace.u2), ("e1", trace.e1),
              ("e2", trace.e2), ("y1", trace.y1), ("y2", trace.y2)]
    header = ["step"]
    for name, channels in groups:
        header += [f"{name}_{i + 1}" for i in range(len(channels))]
    lines = [",".join(header)]
    for t in range(trace.steps()):
        row = [str(t)]
        for _, channels in groups:
            for ch in channels:
                v = ch[t]
                row.append(str(v.numerator) if v.denominator == 1
                           else f"{v.numerator}/{v.denominator}")
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
