"""Generalized elementary factors of a plant over a stable-causal ring.

A plant P (an n x m transfer matrix) is brought to a scalar-denominator
fraction P = N * d^-1 with N over the ring A and d in A outside the causality
ideal, stacked into T = [N; d*E_m].  For every selection I of m rows of T the
generalized elementary factor is the ideal of all lambda in A such that
lambda*T = K * (rows_I of T) for some K over A.  With delta_I = det(rows_I T)
nonzero and C = T * adj(rows_I T) this is the finite intersection of colon
ideals (delta_I A : c_rs) over the entries of C.  One formula gives it
(`_factor`): with g the gcd of delta and every target c, and h = delta/g, it
is (h) over a ring without gaps (Q[x1..xn] or Q[z], a UFD, where each colon
is (delta / gcd(delta, c))), and over Q[z^S] h times a space found by one
exact linear system on the coefficients below the conductor.  The factor is
lifted into the ring's quotient presentation, and its reduced basis there,
pushed back down, gives the reported generators; the entry keeps those and
no ideal.  The identity (C/g) * rows_I(T) = h*T is checked once per index
set, and (h, C/g) is kept on the entry.  Each reported generator lam is
post-verified by its witness matrix K = (lam/h) * (C/g): one exact division
and a ring-membership test per entry.  The identity lam*T = K * (rows_I T)
then holds without a product of its own, since K * rows_I(T) = (lam/h) * h*T.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linsolve import nullspace
from .matrixring import IndexSet, Mat, enumerate_index_sets
from .poly import NotDivisibleError, Polynomial, common_denominator, divide_exact
from .ring import (ZERO_IDEAL, NotCausalError, Presentation, PolyFraction,
                   RingModel, causal, gap_rows, gcd, in_Z, membership, presentation,
                   unit_multiplier)


class GefError(Exception):
    pass


class GefInternalError(GefError):
    """The exact bookkeeping of a factor failed its check (engine bug)."""


class MembershipFailedError(GefError):
    """The given lambda is not in the generalized elementary factor."""


@dataclass
class PlantFraction:
    """Scalar-denominator fraction of a causal plant with its stacked matrix."""

    ring: RingModel
    m: int
    n: int
    N: Mat   # n x m over the ring
    d: Polynomial
    T: Mat   # (m+n) x m over the ring
    P: Mat   # n x m over PolyFraction, each entry N[i,j]/d reduced

    @staticmethod
    def from_parts(ring: RingModel, N: Mat, d: Polynomial, P: Mat) -> "PlantFraction":
        """The plant of numerator matrix N and scalar denominator d, whose
        reduced entries N[i,j]/d the caller gives as P."""
        if in_Z(d, ring):
            raise NotCausalError(f"denominator {d} lies in the causality ideal")
        if not membership(d, ring):
            raise NotCausalError(f"denominator {d} is not in the ring")
        for entry in N.entries:
            if not membership(entry, ring):
                raise NotCausalError(f"numerator entry {entry} is not in the ring")
        n, m = N.rows, N.cols
        T = N.vstack(Mat.scalar_matrix(m, d, Polynomial.zero(ring.variables)))
        return PlantFraction(ring, m, n, N, d, T, P)

    def denominator_rows(self) -> IndexSet:
        return IndexSet(tuple(range(self.n + 1, self.n + self.m + 1)))


def scalar_denominator(entries, ring: RingModel) -> PlantFraction:
    """Scalar-denominator form of a plant given as numerator/denominator pairs.

    `entries` is an n x m nested sequence of (num, den) polynomial pairs,
    taken as written, so denominators supplied by the plant file are used
    directly when they already live in the ring.  In the univariate case d is
    their least common multiple, adjusted by a unit-constant multiplier
    search until d lies in A \\ Z and every numerator entry lies in A, and
    failing that the same from the reduced pairs; in the multivariate case d
    is the product of the distinct reduced denominators.  The reduced entries
    are the plant matrix P as well, so no entry is reduced twice.
    """
    pairs = [[(num.with_variables(ring.variables), den.with_variables(ring.variables))
              for num, den in row] for row in entries]
    n = len(pairs)
    m = len(pairs[0]) if n else 0
    if n < 1 or m < 1 or any(len(r) != m for r in pairs):
        raise GefError("plant entries must form a nonempty rectangular array")

    fractions = []
    for i, row in enumerate(pairs):
        for j, (num, den) in enumerate(row):
            if den.is_zero():
                raise NotCausalError(f"entry ({i + 1},{j + 1}) has a zero denominator")
            fr = PolyFraction(num, den)
            if not causal(fr, ring):
                raise NotCausalError(f"entry ({i + 1},{j + 1}) is not causal")
            fractions.append(fr)
    P = Mat(n, m, fractions)
    reduced = [[(fr.num, fr.den) for fr in fractions[i * m:(i + 1) * m]] for i in range(n)]

    if len(ring.variables) <= 1:
        # failing the pairs as written, the reduced ones drop non-ring factors;
        # a reduced fraction over one variable is unique, so P is N[i,j]/d
        plant = (_scalar_denominator_pairs(pairs, P, ring)
                 or _scalar_denominator_pairs(reduced, P, ring))
        if plant is None:
            raise NotCausalError("no scalar denominator found within the search bound")
        return plant

    nums, d = common_denominator((pair for row in reduced for pair in row), ring.variables)
    return PlantFraction.from_parts(ring, Mat(n, m, nums), d, P)


def _scalar_denominator_pairs(pairs, P: Mat, ring: RingModel) -> PlantFraction | None:
    base, lcm = common_denominator((pair for row in pairs for pair in row), ring.variables)
    s = _denominator_multiplier([lcm] + base, ring)
    if s is None:
        return None
    try:
        return PlantFraction.from_parts(ring, Mat(len(pairs), len(pairs[0]),
                                                  [e * s for e in base]), lcm * s, P)
    except NotCausalError:
        return None


def _denominator_multiplier(targets, ring: RingModel) -> Polynomial | None:
    s = unit_multiplier(targets, ring)
    if s is not None or ring.z_mode != ZERO_IDEAL:
        return s
    # without a causality constraint the multiplier may vanish at zero:
    # shift the candidate support upward one degree at a time (the ring is
    # Q[z^S] here, as `unit_multiplier` returns 1 over any other)
    z = Polynomial.var(ring.delay_var, ring.variables)
    bound = ring.conductor + max((t.total_degree() for t in targets), default=0) + 1
    shifted = list(targets)
    for power in range(1, bound + 1):
        shifted = [t * z for t in shifted]
        s = unit_multiplier(shifted, ring)
        if s is not None:
            return s * z ** power
    return None


# ---------------------------------------------------------------------------
# the factors themselves
# ---------------------------------------------------------------------------


@dataclass
class GefEntry:
    index_set: IndexSet
    delta: Polynomial
    # (h, C/g) of `_quotients`, identity checked; None when singular
    quotients: tuple[Polynomial, Mat] | None
    generators: list[Polynomial]   # pushed down to the ring, zero ideal -> []
    singular: bool


@dataclass
class GefResult:
    plant: PlantFraction
    pres: Presentation
    entries: list[GefEntry]

    def entry_for(self, index_set: IndexSet) -> GefEntry:
        for e in self.entries:
            if e.index_set == index_set:
                return e
        raise KeyError(f"no entry for {index_set}")

    def quotients(self, index_set: IndexSet) -> tuple[Polynomial, Mat]:
        """The (h, C/g) of `witness_matrix` for I, as kept on its entry."""
        entry = self.entry_for(index_set)
        if entry.singular:
            raise MembershipFailedError(f"rows {index_set} of T are singular")
        return entry.quotients


def _cofactor_columns(pf: PlantFraction, index_set: IndexSet) -> tuple[Polynomial, Mat]:
    rows = index_set.zero_based()
    M = pf.T.take_rows(rows)
    delta = M.det()
    if delta.is_zero():
        return delta, None
    return delta, pf.T * M.adjugate()


def _targets(delta: Polynomial, C: Mat) -> list[Polynomial]:
    """The distinct entries of C other than 0 and delta, whose colons are proper."""
    targets: list[Polynomial] = []
    for c in C.entries:
        if c.is_zero() or c == delta:
            continue  # the colon ideal is the whole ring for these
        if all(c != seen for seen in targets):
            targets.append(c)
    return targets


def _quotients(pf: PlantFraction, index_set: IndexSet, delta: Polynomial, C: Mat,
               g: Polynomial) -> tuple[Polynomial, Mat]:
    """h = delta/g and C/g, for g a gcd of delta and every entry of C.

    C = T adj(rows_I T), so C * rows_I(T) = delta*T and (C/g) * rows_I(T) =
    h*T.  That identity is checked here, once per index set; it raises
    GefInternalError when it fails.
    """
    h, C_g = divide_exact(delta, g), C.map(lambda c: divide_exact(c, g))
    if C_g * pf.T.take_rows(index_set.zero_based()) != pf.T.map(lambda e: e * h):
        raise GefInternalError(f"identity (C/g) * rows_I(T) = h*T failed for {index_set}")
    return h, C_g


def witness_matrix(pf: PlantFraction, index_set: IndexSet, lam: Polynomial,
                   quotients: tuple[Polynomial, Mat]) -> Mat:
    """The K with lam*T = K * (rows_I T); raises MembershipFailedError otherwise.

    With delta = det(rows_I T) nonzero and the cofactor columns
    C = T adj(rows_I T), K = lam*C/delta.  Let g be a gcd of delta and every
    entry of C, and h = delta/g, so that lam*c/delta = lam*(c/g)/h.  The
    polynomial ring is a UFD and no prime divides h and every c/g, so h
    divides every lam*(c/g) exactly when it divides lam: K = (lam/h)*(C/g)
    takes one exact division.  Each entry must lie in the ring.

    `quotients` is the (h, C/g) of I that `_quotients` checked: `gef` passes
    it per index set, and `synth.local_factorization` takes it from the entry
    (`GefResult.quotients`).  So the identity K * rows_I(T) = lam*T needs no
    product here: (C/g) * rows_I(T) = h*T, and q = lam/h is exact, so
    K * rows_I(T) = q * (C/g) * rows_I(T) = q*h*T = lam*T.
    """
    index_set.validate(pf.m, pf.n)
    h, C_g = quotients
    try:
        q = divide_exact(lam, h)
    except NotDivisibleError:
        raise MembershipFailedError(
            f"{lam} is not in the factor for {index_set}: division failed")
    K = C_g.map(lambda c: q * c)
    for k in K.entries:
        if not membership(k, pf.ring):
            raise MembershipFailedError(
                f"{lam} is not in the factor for {index_set}: witness leaves the ring")
    return K


def running_gcd(polys: list[Polynomial]) -> Polynomial:
    """A gcd of nonzero polynomials, folded pairwise with `ring.gcd`.

    The fold stops at the first constant, since every later gcd would be a
    nonzero constant too: the result is the full fold's up to a nonzero
    rational factor, and over Q[x1..xn] the intersections after it are
    skipped.
    """
    g = polys[0]
    for p in polys[1:]:
        if g.is_constant():
            break
        g = gcd(g, p)
    return g


def _factor(ring: RingModel, h: Polynomial, quotients: list[Polynomial]) -> list[Polynomial]:
    """Generators of the intersection of the colons (delta A : c) over the targets.

    Here g is the gcd of delta and every target, h = delta/g, and the
    `quotients` are the targets divided by g: `gef` passes the h and C/g
    that `_quotients` checked.  The intersection is (h) over
    a ring without gaps.  Over A = Q[z^S], with conductor F+1 and least
    generator s1, it is h * (V + z^(F+1) Q[z]), where V is the space of q of
    degree at most F for which h*q and every (c/g)*q vanish at all gaps; its
    generators are h*v for a basis v of V and h*z^(F+1+j) for j < s1.
    A constant factor of g scales h and every row of the gap system alike,
    so it changes neither the ideal nor V.
    """
    if not ring.gaps():
        return [h]
    n, z = ring.conductor, ring.delay_var
    gens = [h * Polynomial.from_univar_coeffs(v, z, ring.variables)
            for v in nullspace(gap_rows([h] + quotients, ring, n), n)]
    zvar = Polynomial.var(z, ring.variables)
    gens += [h * zvar ** (n + j) for j in range(ring.generators[0])]
    return gens


def gef(pf: PlantFraction) -> GefResult:
    """All generalized elementary factors of the plant, verified."""
    pres = presentation(pf.ring)
    entries: list[GefEntry] = []
    for index_set in enumerate_index_sets(pf.m, pf.n):
        delta, C = _cofactor_columns(pf, index_set)
        if delta.is_zero():
            # a nonzero lambda would force rank(rows_I T) = rank(T) = m,
            # impossible over a domain when delta vanishes
            entries.append(GefEntry(index_set, delta, None, [], singular=True))
            continue
        h, C_g = _quotients(pf, index_set, delta, C, running_gcd([delta] + _targets(delta, C)))
        handle = pres.ideal([pres.lift(f) for f in _factor(pf.ring, h, _targets(h, C_g))])
        generators = []
        for f in handle.reduced_basis():
            lam = pres.push(f)
            if lam.is_zero():
                continue
            if all(lam != seen for seen in generators):
                generators.append(lam)
        for lam in generators:
            witness_matrix(pf, index_set, lam, (h, C_g))  # raises on failure
        entries.append(GefEntry(index_set, delta, (h, C_g), generators, singular=False))
    return GefResult(pf, pres, entries)
