"""Exact discrete-time simulation of the feedback loop.

Each output channel of the plant and of the controller is one difference
equation over the common denominator of its row, d_i(z) y_i = sum_j n_ij(z) u_j,
in the rational coefficients of a univariate delay ring.  Its history is
the loop signals themselves.  Realizing each entry on its own instead gives
every entry an IIR state whose samples cancel only in the row sum, so their
exact rationals keep growing while the loop signals, which are finite
impulse responses for a stabilizing controller, have long since reached 0.

The equations are realized by pushing, not pulling: each nonzero sample adds
its weighted copies into the future steps its taps reach, so a step costs
only the samples that are nonzero.  Once no future contribution is pending
and no input sample remains, the loop state and input are zero, and so is
every later sample; the simulation stops there and fills the rest of the
horizon with exact zeros.  A stabilizing controller over a delay ring makes
every closed-loop entry a polynomial, so under a finite input the work ends
with the transient, whatever the horizon.

The loop's instantaneous algebraic constraint is solved exactly at each
computed step, so every signal is a sequence of Fractions.  Its inverse is
the closed loop of the feedthrough matrices, whose numerators and det(Delta)
`synth._closed_loop` gives as constant polynomials.  The tests cross-check
time-domain traces against the algebraic closed-loop map, impulse response
by impulse response and bit for bit (`compare_to_H` in tests/oracles.py).
Multivariate rings, and loops whose entries together use more than one
variable, have no canonical time axis and are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .matrixring import Mat
from .poly import Polynomial, _fmt_rational
from .synth import IllPosedError, _closed_loop, _scalar_fraction


class SimError(Exception):
    pass


class NotCausalTFError(SimError):
    """The transfer function has no instantaneous realization."""


class AlgebraicLoopSingularError(SimError):
    """The instantaneous loop equations are singular."""


class SimulationUnsupportedError(SimError):
    """Raised for plants over rings without a time axis (multivariate)."""


_ZERO = Fraction(0)


def _taps(coeffs: list[Fraction], d0: Fraction) -> list[tuple[int, Fraction]]:
    """The nonzero coefficients past the constant term, as (delay, c / d0)."""
    return [(k, c / d0) for k, c in enumerate(coeffs) if k and c]


class _Row:
    """One output channel as one difference equation, d(z) y = sum_j n_j(z) u_j.

    d is the common denominator of the row's entries and n_j = num_j d/den_j,
    both scaled so that d(0) = 1; the feedthrough n_j(0)/d(0) equals
    num_j(0)/den_j(0).  d is the lcm of the den_j, so d(0) = 0, which raises
    NotCausalTFError, exactly when some den_j(0) = 0.

    The history is the loop signals themselves, pushed forward as they are
    made: a nonzero input sample v of channel j at step t adds c*v to
    pending[t + k] for each tap (k, c) of n_j, and a nonzero output sample
    adds its copies through the negated taps of d.  pending holds only the
    steps before `steps`, and a step whose sum cancels to 0 is dropped, so
    an empty pending means that no past sample reaches a later output.
    """

    __slots__ = ("feed", "num_taps", "den_taps", "steps", "pending", "outputs")

    def __init__(self, row: Mat, variables: tuple[str, ...], steps: int):
        N, d = _scalar_fraction(row, variables)
        den = d.univar_coeffs()
        if den[0] == 0:
            raise NotCausalTFError("denominator needs a nonzero constant term")
        self.feed = [n.constant_coeff() / den[0] for n in N.entries]
        self.num_taps = [_taps(n.univar_coeffs(), den[0]) for n in N.entries]
        self.den_taps = [(k, -c) for k, c in _taps(den, den[0])]
        self.steps = steps
        self.pending: dict[int, Fraction] = {}
        self.outputs: list[Fraction] = []

    def memory(self, t: int) -> Fraction:
        """Contribution of past samples to the output of step t."""
        return self.pending.pop(t, _ZERO)

    def advance(self, t: int, u: list[Fraction], memory: Fraction):
        """Append the output of step t for the inputs `u`, whose memory() is given."""
        y = memory
        for f, taps, v in zip(self.feed, self.num_taps, u):
            if v:
                if f:
                    y += f * v
                self._push(t, v, taps)
        if y:
            self._push(t, y, self.den_taps)
        self.outputs.append(y)

    def _push(self, t: int, v: Fraction, taps: list[tuple[int, Fraction]]):
        pending, steps = self.pending, self.steps
        for k, c in taps:  # in increasing delay
            s = t + k
            if s >= steps:
                break
            acc = pending.get(s)
            if acc is None:
                pending[s] = c * v
            else:
                acc += c * v
                if acc:
                    pending[s] = acc
                else:
                    del pending[s]


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
    used = sorted({v for e in P.entries + C.entries
                   for v in e.num.used_variables() + e.den.used_variables()})
    if len(used) > 1:
        raise SimulationUnsupportedError(
            f"the loop's entries use more than one variable ({', '.join(used)}); "
            "only univariate delay rings can be simulated")
    e1 = [[] for _ in range(n)]
    e2 = [[] for _ in range(m)]
    variables = tuple(used)
    plant = [_Row(P.take_rows([i]), variables, steps) for i in range(n)]
    ctrl = [_Row(C.take_rows([i]), variables, steps) for i in range(m)]
    u1 = _pad(u1, n, steps)
    u2 = _pad(u2, m, steps)

    # instantaneous constraint: [E_n  F_P; -F_C  E_m] [e1; e2] = rhs, whose
    # inverse is the closed loop of P = F_P and C = E_m^-1 F_C over constants
    feed_p = Mat.from_rows([[Polynomial.const(f) for f in row.feed] for row in plant])
    feed_c = Mat.from_rows([[Polynomial.const(f) for f in row.feed] for row in ctrl])
    one = Polynomial.one()
    try:
        H0, det = _closed_loop(feed_p, one, Mat.scalar_matrix(m, one, one.zero_like()), feed_c)
    except IllPosedError:
        raise AlgebraicLoopSingularError("det(E + P(0)*C(0)) = 0")
    det0 = det.constant_coeff()
    inv = [[e.constant_coeff() / det0 for e in row] for row in H0.to_rows()]
    y1 = [row.outputs for row in ctrl]
    y2 = [row.outputs for row in plant]
    rows = plant + ctrl
    last_input = max((t for ch in u1 + u2 for t in range(steps) if ch[t]), default=-1)
    for t in range(steps):
        if t > last_input and not any(row.pending for row in rows):
            # zero state and zero input from t on: every later sample is 0,
            # and so are both sides of each loop equation
            for ch in e1 + e2 + y1 + y2:
                ch.extend([_ZERO] * (steps - t))
            break
        mem_p = [row.memory(t) for row in plant]
        mem_c = [row.memory(t) for row in ctrl]
        rhs = [u1[i][t] - mem_p[i] for i in range(n)]
        rhs += [u2[i][t] + mem_c[i] for i in range(m)]
        sol = [sum((a * b for a, b in zip(row, rhs) if a and b), _ZERO)
               for row in inv]
        e1_t, e2_t = sol[:n], sol[n:]
        for row, mem in zip(plant, mem_p):
            row.advance(t, e2_t, mem)
        for row, mem in zip(ctrl, mem_c):
            row.advance(t, e1_t, mem)
        for i in range(n):
            e1[i].append(e1_t[i])
        for i in range(m):
            e2[i].append(e2_t[i])
        # the loop equations must hold exactly at every computed step
        for i in range(n):
            if e1[i][t] != u1[i][t] - y2[i][t]:
                raise SimError("loop equation e1 = u1 - y2 violated")
        for i in range(m):
            if e2[i][t] != u2[i][t] + y1[i][t]:
                raise SimError("loop equation e2 = u2 + y1 violated")
    return SignalTrace(u1, u2, e1, e2, y1, y2)


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
            row += [_fmt_rational(ch[t].numerator, ch[t].denominator)
                    for ch in channels]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
