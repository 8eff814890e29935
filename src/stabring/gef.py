"""Generalized elementary factors of a plant over a stable-causal ring.

A plant P (an n x m transfer matrix) is brought to a scalar-denominator
fraction P = N * d^-1 with N over the ring A and d in A outside the causality
ideal, stacked into T = [N; d*E_m].  For every selection I of m rows of T the
generalized elementary factor is the ideal of all lambda in A such that
lambda*T = K * (rows_I of T) for some K over A.  With delta_I = det(rows_I T)
nonzero and C = T * adj(rows_I T) this is the finite intersection of colon
ideals (delta_I A : c_rs) over the entries of C.  The route depends on the
ring:

  * over Q[x1..xn] the colons and their intersection are Groebner
    computations (elimination with an auxiliary variable);
  * over a monomial ring Q[z^S] the intersection has a closed form, found by
    one gcd and one exact linear system on the coefficients below the
    conductor (`_gap_factor`).

Either way the factor is handed on as an ideal of the ring's quotient
presentation, whose reduced basis gives the reported generators, and each
reported generator is post-verified by reconstructing its witness matrix K.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groebner import IdealHandle
from .linsolve import nullspace
from .matrixring import IndexSet, Mat, enumerate_index_sets
from .poly import (NotDivisibleError, Polynomial, common_denominator,
                   divide_exact, gcd_univariate)
from .ring import (NotCausalError, Presentation, PolyFraction, RingModel,
                   causal, gap_rows, in_Z, membership, presentation,
                   unit_multiplier)


class GefError(Exception):
    pass


class GefInternalError(GefError):
    """A computed generator failed its witness verification (engine bug)."""


class MembershipFailedError(GefError):
    """The given lambda is not in the generalized elementary factor."""


@dataclass
class PlantFraction:
    """Scalar-denominator fraction of a causal plant with its stacked matrix."""

    ring: RingModel
    m: int
    n: int
    P: Mat   # n x m over PolyFraction
    N: Mat   # n x m over the ring
    d: Polynomial
    T: Mat   # (m+n) x m over the ring

    @staticmethod
    def from_parts(ring: RingModel, N: Mat, d: Polynomial) -> "PlantFraction":
        """Build the plant directly from numerator matrix and scalar denominator."""
        if d.is_zero() or in_Z(d, ring):
            raise NotCausalError(f"denominator {d} lies in the causality ideal")
        for entry in N.entries:
            if not membership(entry, ring):
                raise NotCausalError(f"numerator entry {entry} is not in the ring")
        n, m = N.rows, N.cols
        P = N.map(lambda e: PolyFraction(e, d))
        T = N.vstack(Mat.scalar_matrix(m, d, Polynomial.zero(ring.variables)))
        return PlantFraction(ring, m, n, P, N, d, T)

    def denominator_rows(self) -> IndexSet:
        return IndexSet(tuple(range(self.n + 1, self.n + self.m + 1)))


def scalar_denominator(entries, ring: RingModel) -> PlantFraction:
    """Scalar-denominator form of a plant given as numerator/denominator pairs.

    `entries` is an n x m nested sequence whose items are (num, den)
    polynomial pairs or PolyFraction values; pairs are taken as written, so
    denominators supplied by the plant file are used directly when they
    already live in the ring.  In the univariate case d is their least common
    multiple, adjusted by a unit-constant multiplier search until d lies in
    A \\ Z and every numerator entry lies in A; in the multivariate case d is
    the product of the distinct denominators.
    """
    pairs: list[list[tuple[Polynomial, Polynomial]]] = []
    for row in (entries.to_rows() if isinstance(entries, Mat) else entries):
        out_row = []
        for item in row:
            if isinstance(item, PolyFraction):
                out_row.append((item.num, item.den))
            else:
                num, den = item
                out_row.append((num.with_variables(ring.variables),
                                den.with_variables(ring.variables)))
        pairs.append(out_row)
    n = len(pairs)
    m = len(pairs[0]) if n else 0
    if n < 1 or m < 1 or any(len(r) != m for r in pairs):
        raise GefError("plant entries must form a nonempty rectangular array")

    for i, row in enumerate(pairs):
        for j, (num, den) in enumerate(row):
            if den.is_zero():
                raise NotCausalError(f"entry ({i + 1},{j + 1}) has a zero denominator")
            if not causal(PolyFraction(num, den), ring):
                raise NotCausalError(f"entry ({i + 1},{j + 1}) is not causal")

    if len(ring.variables) <= 1:
        plant = _scalar_denominator_pairs(pairs, ring)
        if plant is None:
            # retry from the reduced fractions, which drop non-ring factors
            reduced = [[(fr.num, fr.den) for fr in
                        (PolyFraction(num, den) for num, den in row)]
                       for row in pairs]
            plant = _scalar_denominator_pairs(reduced, ring)
        if plant is None:
            raise NotCausalError("no scalar denominator found within the search bound")
        return plant

    d = common_denominator((den for row in pairs for _, den in row), ring.variables)
    if in_Z(d, ring):
        raise NotCausalError(f"product denominator {d} lies in the causality ideal")
    N = Mat.build(n, m, lambda i, j: pairs[i][j][0] * divide_exact(d, pairs[i][j][1]))
    return PlantFraction.from_parts(ring, N, d)


def _scalar_denominator_pairs(pairs, ring: RingModel) -> PlantFraction | None:
    lcm = common_denominator((den for row in pairs for _, den in row), ring.variables)
    base = [[num * divide_exact(lcm, den) for num, den in row] for row in pairs]
    targets = [lcm] + [e for row in base for e in row]
    s = _denominator_multiplier(targets, ring)
    if s is None:
        return None
    d = lcm * s
    if in_Z(d, ring) or not membership(d, ring):
        return None
    N = Mat.from_rows([[e * s for e in row] for row in base])
    if not all(membership(e, ring) for e in N.entries):
        return None
    return PlantFraction.from_parts(ring, N, d)


def _denominator_multiplier(targets, ring: RingModel) -> Polynomial | None:
    s = unit_multiplier(targets, ring)
    if s is not None or ring.z_mode != "zero_ideal":
        return s
    # without a causality constraint the multiplier may vanish at zero:
    # shift the candidate support upward one degree at a time
    z = Polynomial.var(ring.delay_var, ring.variables) if ring.kind == "monomial" else None
    if z is None:
        return None
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
    generators: list[Polynomial]   # pushed down to the ring, zero ideal -> []
    handle: IdealHandle            # lifted ideal in the presentation ring
    singular: bool

    def contains(self, lam: Polynomial, pres: Presentation) -> bool:
        if self.singular:
            return lam.is_zero()
        return self.handle.contains(pres.lift(lam))


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


def _cofactor_columns(pf: PlantFraction, index_set: IndexSet) -> tuple[Polynomial, Mat]:
    rows = index_set.zero_based()
    M = pf.T.take_rows(rows)
    delta = M.det()
    if delta.is_zero():
        return delta, None
    return delta, pf.T * M.adjugate()


def witness_matrix(pf: PlantFraction, index_set: IndexSet, lam: Polynomial,
                   cofactor_columns: tuple[Polynomial, Mat] | None = None) -> Mat:
    """The K with lam*T = K * (rows_I T); raises MembershipFailedError otherwise.

    `cofactor_columns` is `_cofactor_columns(pf, index_set)` when the caller
    already has it; it is computed here otherwise.
    """
    index_set.validate(pf.m, pf.n)
    if cofactor_columns is None:
        cofactor_columns = _cofactor_columns(pf, index_set)
    delta, C = cofactor_columns
    if delta.is_zero():
        raise MembershipFailedError(f"rows {index_set} of T are singular")
    entries = []
    for c in C.entries:
        try:
            k = divide_exact(lam * c, delta)
        except NotDivisibleError:
            raise MembershipFailedError(
                f"{lam} is not in the factor for {index_set}: division failed")
        if not membership(k, pf.ring):
            raise MembershipFailedError(
                f"{lam} is not in the factor for {index_set}: witness leaves the ring")
        entries.append(k)
    K = Mat(C.rows, C.cols, entries)
    M = pf.T.take_rows(index_set.zero_based())
    if K * M != pf.T.map(lambda e: e * lam):
        raise GefInternalError("witness identity lam*T = K*(rows_I T) failed")
    return K


def _gap_factor(ring: RingModel, delta: Polynomial,
                targets: list[Polynomial]) -> list[Polynomial]:
    """Generators of the intersection of the colons (delta A : c) over the targets.

    A = Q[z^S] is a monomial ring with conductor F+1 and least generator s1.
    With g the monic gcd of delta and every target and h = delta/g, the
    intersection is h * (V + z^(F+1) Q[z]), where V is the space of q of
    degree at most F for which h*q and every (c/g)*q vanish at all gaps.  Its
    generators are h*v for a basis v of V and h*z^(F+1+j) for j < s1.
    """
    g = delta
    for c in targets:
        g = gcd_univariate(g, c)
    h = divide_exact(delta, g)
    factors = [h] + [divide_exact(c, g) for c in targets]
    n, z = ring.conductor, ring.delay_var
    gens = [h * Polynomial.from_univar_coeffs(v, z, ring.variables)
            for v in nullspace(gap_rows(factors, ring, n), n)]
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
            entries.append(GefEntry(index_set, delta, [],
                                    pres.ideal([Polynomial.zero(pres.variables)]),
                                    singular=True))
            continue
        targets: list[Polynomial] = []
        for c in C.entries:
            if c.is_zero() or c == delta:
                continue  # the colon ideal is the whole ring for these
            if all(c != seen for seen in targets):
                targets.append(c)
        if not targets:
            handle = pres.ideal([Polynomial.one(pres.variables)])
        elif pf.ring.kind == "monomial":
            handle = pres.ideal([pres.lift(g) for g in _gap_factor(pf.ring, delta, targets)])
        else:
            base = pres.ideal([pres.lift(delta)])
            handle = None
            for c in targets:
                colon = base.colon(pres.lift(c))
                handle = colon if handle is None else handle.intersect(colon)
        generators = []
        for g in handle.reduced_basis():
            lam = pres.push(g)
            if lam.is_zero():
                continue
            if all(lam != seen for seen in generators):
                generators.append(lam)
        for lam in generators:
            witness_matrix(pf, index_set, lam, (delta, C))  # raises on failure
        entries.append(GefEntry(index_set, delta, generators, handle, singular=False))
    return GefResult(pf, pres, entries)
