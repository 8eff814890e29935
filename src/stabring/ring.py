"""Models of the ring of stable causal transfer functions.

Two computable integral domains are supported: full polynomial rings over Q,
and monomial subalgebras of a univariate delay ring Q[z] generated by powers
z^e1, ..., z^ek (a numerical-semigroup ring).  Each ring carries a causality
prime ideal Z in one of two modes:

  * zero_constant_term -- Z = elements with zero constant coefficient
    (finite impulse response with no instantaneous tap), and
  * zero_ideal -- Z = {0}, the no-causality-constraint setting.

The module also provides the quotient-ring presentation of a monomial
subalgebra (toric relation ideal plus lift/push maps), the fractions that
plant and controller files are read into, and the causality decision
procedures.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Iterable

from . import groebner
from .linsolve import solve_exact
from .matrixring import Mat
from .poly import NotDivisibleError, Polynomial, divide_exact, gcd_univariate

ZERO_CONSTANT_TERM = "zero_constant_term"
ZERO_IDEAL = "zero_ideal"


class RingError(Exception):
    pass


class MembershipError(RingError):
    """An element was required to lie in the stable ring but does not."""


class NotCausalError(RingError):
    """A transfer function admits no causal representation."""


class CausalityUndecidableError(RingError):
    """Causality cannot be decided without multivariate fraction reduction."""


class RingModel:
    """A stable-causal ring: full polynomial ring or monomial subalgebra."""

    def __init__(self, kind: str, variables: tuple[str, ...],
                 generators: tuple[int, ...], z_mode: str):
        if kind not in ("polynomial", "monomial"):
            raise RingError(f"unknown ring kind {kind!r}")
        if z_mode not in (ZERO_CONSTANT_TERM, ZERO_IDEAL):
            raise RingError(f"unknown z_mode {z_mode!r}")
        if not variables:
            raise RingError("a ring needs at least one variable")
        self.kind = kind
        self.variables = tuple(variables)
        self.generators = tuple(generators)
        self.z_mode = z_mode
        self._presentation: Presentation | None = None
        if kind == "monomial":
            if len(self.variables) != 1:
                raise RingError("monomial subalgebras live in one delay variable")
            gens = self.generators
            if not gens or list(gens) != sorted(set(gens)):
                raise RingError("exponent generators must be strictly ascending")
            if gens != (1,):
                if any(g < 2 for g in gens):
                    raise RingError("exponent generators must be >= 2 (or exactly (1,))")
                g = 0
                for e in gens:
                    g = math.gcd(g, e)
                if g != 1:
                    raise RingError(f"exponent generators {gens!r} have gcd {g} != 1")
            self._reachable, self.conductor = _semigroup_table(gens)
        else:
            if generators:
                raise RingError("polynomial rings take no exponent generators")
            self._reachable, self.conductor = (True,), 0

    # -- constructors --------------------------------------------------------

    @staticmethod
    def polynomial(variables: Iterable[str], z_mode: str = ZERO_IDEAL) -> "RingModel":
        return RingModel("polynomial", tuple(variables), (), z_mode)

    @staticmethod
    def monomial_subalgebra(delay_var: str, generators: Iterable[int],
                            z_mode: str = ZERO_CONSTANT_TERM) -> "RingModel":
        return RingModel("monomial", (delay_var,), tuple(generators), z_mode)

    def __repr__(self):
        if self.kind == "monomial":
            return (f"RingModel.monomial_subalgebra({self.variables[0]!r}, "
                    f"{self.generators!r}, z_mode={self.z_mode!r})")
        return f"RingModel.polynomial({self.variables!r}, z_mode={self.z_mode!r})"

    # -- numerical semigroup ---------------------------------------------------

    @property
    def delay_var(self) -> str:
        if self.kind != "monomial":
            raise RingError("delay_var is only defined for monomial subalgebras")
        return self.variables[0]

    def semigroup_contains(self, e: int) -> bool:
        if self.kind != "monomial":
            return True
        if e >= self.conductor:
            return True
        return self._reachable[e]

    def gaps(self) -> list[int]:
        """Exponents missing from the semigroup (all below the conductor)."""
        if self.kind != "monomial":
            return []
        return [e for e in range(self.conductor) if not self._reachable[e]]


def _semigroup_table(gens: tuple[int, ...]) -> tuple[tuple[bool, ...], int]:
    bound = gens[0] * gens[-1] + 1
    reachable = [False] * (bound + 1)
    reachable[0] = True
    for e in range(1, bound + 1):
        reachable[e] = any(e >= g and reachable[e - g] for g in gens)
    conductor = 0
    for e in range(bound, -1, -1):
        if not reachable[e]:
            conductor = e + 1
            break
    return tuple(reachable), conductor


# ---------------------------------------------------------------------------
# membership and the causality ideal
# ---------------------------------------------------------------------------


def membership(p: Polynomial, ring: RingModel) -> bool:
    """Whether the polynomial lies in the stable ring."""
    if any(v not in ring.variables for v in p.used_variables()):
        raise RingError(f"{p} uses variables outside {ring.variables!r}")
    if ring.kind == "polynomial":
        return True
    p = p.with_variables(ring.variables)
    return all(ring.semigroup_contains(exps[0]) for exps in p._terms)


def residue(a: Polynomial, ring: RingModel) -> Polynomial:
    """The image of a in A/Z: its constant term, or a itself when Z = 0."""
    if ring.z_mode == ZERO_IDEAL:
        return a
    return Polynomial.const(a.constant_coeff(), a.variables)


def in_Z(a: Polynomial, ring: RingModel) -> bool:
    """Membership in the causality prime ideal Z."""
    return residue(a, ring).is_zero()


def z_nonsingular(mat: Mat, ring: RingModel) -> bool:
    """det(M) in A \\ Z, decided as det(M mod Z) != 0 (reduction is a ring map)."""
    return not mat.map(lambda a: residue(a, ring)).det().is_zero()


# ---------------------------------------------------------------------------
# quotient-ring presentation (toric relations, lift, push)
# ---------------------------------------------------------------------------


class Presentation:
    """Polynomial-ring presentation of the stable ring.

    For a monomial subalgebra Q[z^e1..z^ek] this is Q[u1..uk] modulo the
    toric relation ideal (the kernel of u_i -> z^e_i); a full polynomial
    ring is its own presentation with no relations.

    The ring caches its presentation, so the presentation keeps only the
    ring's kind, delay variable and variables, not the ring itself: a
    reference cycle would keep both, with the lift basis, alive until the
    cyclic collector runs.
    """

    def __init__(self, ring: RingModel, variables: tuple[str, ...],
                 relations: list[Polynomial],
                 lift_gb: groebner.GroebnerBasis | None,
                 power_map: dict[str, int]):
        self._kind = ring.kind
        self._delay_var = ring.delay_var if ring.kind == "monomial" else None
        self._ring_variables = ring.variables
        self.variables = variables
        self.relations = relations
        self._lift_gb = lift_gb
        self.power_map = power_map  # presentation var -> exponent of the delay var

    def lift(self, a: Polynomial) -> Polynomial:
        """Canonical preimage of a stable element in the presentation ring."""
        if self._kind == "polynomial":
            return a.with_variables(self.variables)
        ext = self._lift_gb.variables  # (delay, u1, .., uk)
        nf = groebner.normal_form(a.with_variables(ext), self._lift_gb)
        if self._delay_var in nf.used_variables():
            raise MembershipError(f"{a} is not in the monomial subalgebra")
        return nf.with_variables(self.variables)

    def push(self, q: Polynomial) -> Polynomial:
        """The image in the ring: each term c*u1^a1..uk^ak goes to c*z^(e1*a1+..+ek*ak)."""
        q = q.with_variables(self.variables)
        if self._kind == "polynomial":
            return q
        weights = [self.power_map[u] for u in self.variables]
        terms: dict[tuple[int], int] = {}
        for exps, c in q._terms.items():  # integer numerators over q._den
            e = (sum(map(mul, weights, exps)),)
            terms[e] = terms.get(e, 0) + c
        return Polynomial._from_clean({e: c for e, c in terms.items() if c}, q._den,
                                      self._ring_variables)

    def ideal(self, gens: Iterable[Polynomial]) -> groebner.IdealHandle:
        return groebner.IdealHandle(self.variables, gens, self.relations)


def _presentation_var_names(count: int, avoid: tuple[str, ...]) -> tuple[str, ...]:
    preferred = ("u", "v", "w")
    if count <= len(preferred) and not any(v in avoid for v in preferred[:count]):
        return preferred[:count]
    names = []
    i = 1
    while len(names) < count:
        cand = f"u{i}"
        if cand not in avoid:
            names.append(cand)
        i += 1
    return tuple(names)


def presentation(ring: RingModel) -> Presentation:
    """The (cached) quotient-ring presentation of the ring."""
    if ring._presentation is not None:
        return ring._presentation
    if ring.kind == "polynomial":
        pres = Presentation(ring, ring.variables, [], None, {})
    else:
        z = ring.delay_var
        names = _presentation_var_names(len(ring.generators), ring.variables)
        ext = (z,) + names
        gens = []
        for name, e in zip(names, ring.generators):
            gens.append(Polynomial.var(name, ext)
                        - Polynomial.var(z, ext) ** e)
        gb = groebner.buchberger(gens, ext, groebner.elimination_order(1))
        relations = [g.with_variables(names) for g in gb.basis
                     if z not in g.used_variables()]
        pres = Presentation(ring, names, relations, gb,
                            dict(zip(names, ring.generators)))
    ring._presentation = pres
    return pres


# ---------------------------------------------------------------------------
# fractions over the ring
# ---------------------------------------------------------------------------


class PolyFraction:
    """Quotient of two polynomials; reduced and monic-denominator when the
    ambient variable set is univariate, stored as given otherwise.

    Fractions appear only at the file boundary, so there is no arithmetic
    on them here; the fraction-field oracle of the tests adds it.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial | int = 1):
        if isinstance(num, (int, Fraction)):
            num = Polynomial.const(num)
        if isinstance(den, (int, Fraction)):
            den = Polynomial.const(den, num.variables)
        if den.is_zero():
            raise ZeroDivisionError("fraction with zero denominator")
        merged = Polynomial.merge_variables(num, den)
        num = num.with_variables(merged)
        den = den.with_variables(merged)
        if num.is_zero():
            den = Polynomial.one(merged)
        elif len(merged) <= 1:
            g = gcd_univariate(num, den)
            if g.total_degree() > 0:
                num = divide_exact(num, g)
                den = divide_exact(den, g)
            lead = den.univar_coeffs()[-1]
            if lead != 1:
                scale = Fraction(1) / lead
                num = num.scale(scale)
                den = den.scale(scale)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("PolyFraction is immutable")

    def is_polynomial(self) -> bool:
        return self.den.is_constant()

    def as_polynomial(self) -> Polynomial:
        if not self.is_polynomial():
            try:
                return divide_exact(self.num, self.den)
            except NotDivisibleError:
                raise RingError(f"{self} is not a polynomial")
        return self.num.scale(Fraction(1) / self.den.constant_coeff())

    # the library never compares fractions; the tests compare what it returns
    def __eq__(self, other):
        if not isinstance(other, PolyFraction):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __str__(self):
        if self.is_polynomial():
            return str(self.as_polynomial())
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"PolyFraction({self.num!r}, {self.den!r})"


def fraction_in_ring(x: PolyFraction, ring: RingModel) -> bool:
    """Whether a transfer function is an element of the stable ring.

    The library decides membership of closed-loop entries from their ring
    numerators (`synth.verify_stabilizing`) and does not call this; only the
    tests do, and it stays here because perfbench/layers.py counts its calls.
    """
    try:
        h = divide_exact(x.num, x.den)
    except NotDivisibleError:
        return False
    return membership(h.with_variables(ring.variables), ring)


# ---------------------------------------------------------------------------
# causality decisions
# ---------------------------------------------------------------------------


def gap_rows(factors: Iterable[Polynomial], ring: RingModel,
             n: int) -> list[list[Fraction]]:
    """The gap conditions on an unknown x = x_0 + x_1 z + ... + x_(n-1) z^(n-1).

    For each factor w (in factor order) and each semigroup gap g (ascending),
    the row of the linear form (w*x)_g = sum_j w_j x_(g-j); w*x lies in A
    exactly when every row vanishes at x.  The ring must be monomial.
    """
    gaps = ring.gaps()
    rows: list[list[Fraction]] = []
    for w in factors:
        coeffs = w.with_variables(ring.variables).univar_coeffs()
        for g in gaps:
            row = [Fraction(0)] * n
            for j, wj in enumerate(coeffs[:g + 1]):
                k = g - j
                if k < n and wj:
                    row[k] = wj
            rows.append(row)
    return rows


def unit_multiplier(targets: list[Polynomial], ring: RingModel) -> Polynomial | None:
    """A multiplier s with nonzero constant term sending every target into A.

    Solves the gap-coefficient constraints (w*s)_g = 0 for every semigroup
    gap g as an exact linear system; the search degree is bounded by the
    semigroup conductor plus the maximal target degree, which is sufficient
    because gap positions all lie below the conductor.  Returns None when no
    such multiplier exists.
    """
    if ring.kind != "monomial":
        return Polynomial.one(ring.variables)
    degree = ring.conductor + max((t.total_degree() for t in targets), default=0)
    # (w*s)_g = 0 with s_0 = 1 moved to the right side
    full = gap_rows(targets, ring, degree + 1)
    rows = [row[1:] for row in full]
    rhs = [-row[0] for row in full]
    if not rows:
        return Polynomial.one(ring.variables)
    sol = solve_exact(rows, rhs)
    if sol is None:
        return None
    coeffs = [Fraction(1)] + sol
    return Polynomial.from_univar_coeffs(coeffs, ring.delay_var, ring.variables)


def causal(x: PolyFraction, ring: RingModel) -> bool:
    """Whether x admits a representation n/d with n in A and d in A \\ Z."""
    if ring.z_mode == ZERO_IDEAL:
        return True  # any nonzero denominator will do; A is a domain
    if len(ring.variables) <= 1:
        q = x.den.with_variables(ring.variables)
        if q.constant_coeff() == 0:
            return False
        if ring.kind == "polynomial":
            return True
        p = x.num.with_variables(ring.variables)
        return unit_multiplier([p, q], ring) is not None
    # multivariate with a constant-term causality ideal
    if x.den.constant_coeff() != 0:
        return True
    try:
        divide_exact(x.num, x.den)
        return True
    except NotDivisibleError:
        raise CausalityUndecidableError(
            "causality over a multivariate ring needs fraction reduction, "
            "which is out of scope; rewrite the entry with an invertible "
            "constant term in its denominator")

