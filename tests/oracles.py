"""Test oracles: independent routes to what the library decides and computes.

The library decides stabilizability from the generalized elementary factors,
keeps the closed loop over the ring, and simulates one difference equation
per output channel.  The checks here take other routes, and only the tests
run them:

  * `FieldFraction`: the field operations on transfer functions, for closed
    loops computed as (E + P C)^-1 in the fraction field;
  * strict causality of a plant;
  * the impulse response of one transfer function, and `compare_to_H`, which
    simulates the loop and compares it with the algebraic closed loop;
  * matrix transposition, the transpose-duality check, and the causality
    report of a synthesized controller;
  * the determinant and the adjugate by cofactor expansion, the reference
    for the library's fraction-free elimination, and the ideal of minors of
    a matrix;
  * the paper's module criterion for plants with one input, and the local
    criterion at z = 0 for plants of any shape over Q[z^S];
  * ideal membership by a normal form, with or without a witness over the
    generators (`contains`, `membership_witness`), and the ideal of a
    factor rebuilt from its generators (`factor_ideal`);
  * a plant from its numerator matrix and denominator, each entry of P
    reduced from N[i,j]/d (`plant_from_parts`);
  * the lift into the ring's presentation as one normal form of the whole
    element, and the witness matrix by one exact division per entry;
  * Buchberger's algorithm with dense cofactor lists of `Polynomial`s, the
    reference for the library's sparse cofactor bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from operator import add
from typing import Iterable, Sequence

from stabring import groebner
from stabring.gef import GefEntry, GefResult, PlantFraction
from stabring.matrixring import IndexSet, Mat, MatrixError, enumerate_index_sets
from stabring.groebner import (DescendingKey, GroebnerBasis, IdealHandle, _exp_add,
                               _exp_divides, _exp_lcm, _exp_sub, _lead, _s_polynomial)
from stabring.poly import Exponents, Polynomial, _Divisor, _reduce_full, divide_exact
from stabring.ring import (ZERO_IDEAL, MembershipError, PolyFraction, Presentation,
                           RingModel, causal, fraction_in_ring, membership,
                           presentation, z_nonsingular)
from stabring.sim import NotCausalTFError, SimulationUnsupportedError, simulate_loop
from stabring.synth import ControllerResult, closed_loop

# ---------------------------------------------------------------------------
# the fraction field
# ---------------------------------------------------------------------------


class FieldFraction(PolyFraction):
    """A PolyFraction with the field operations: + - *, negation and inverse."""

    __slots__ = ()

    @staticmethod
    def from_poly(p: Polynomial) -> "FieldFraction":
        return FieldFraction(p, Polynomial.one(p.variables))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __add__(self, other: "FieldFraction") -> "FieldFraction":
        return FieldFraction(self.num * other.den + other.num * self.den,
                             self.den * other.den)

    def __neg__(self):
        return FieldFraction(-self.num, self.den)

    def __sub__(self, other: "FieldFraction") -> "FieldFraction":
        return self + (-other)

    def __mul__(self, other: "FieldFraction") -> "FieldFraction":
        return FieldFraction(self.num * other.num, self.den * other.den)

    def inverse(self) -> "FieldFraction":
        if self.is_zero():
            raise ZeroDivisionError("inverse of the zero transfer function")
        return FieldFraction(self.den, self.num)

    def zero_like(self) -> "FieldFraction":
        return FieldFraction(Polynomial.zero(self.num.variables))

    def one_like(self) -> "FieldFraction":
        return FieldFraction(Polynomial.one(self.num.variables))


def field(M: Mat) -> Mat:
    """The matrix of PolyFractions M with its entries as FieldFractions."""
    return M.map(lambda e: FieldFraction(e.num, e.den))


# ---------------------------------------------------------------------------
# strict causality
# ---------------------------------------------------------------------------


def strictly_causal(x: PolyFraction, ring: RingModel) -> bool:
    """Causal with a numerator representation inside Z."""
    if ring.z_mode == ZERO_IDEAL:
        return x.num.is_zero()
    if not causal(x, ring):
        return False
    if len(ring.variables) <= 1:
        return x.num.with_variables(ring.variables).constant_coeff() == 0
    if x.den.constant_coeff() != 0:
        return x.num.constant_coeff() == 0
    return divide_exact(x.num, x.den).constant_coeff() == 0


def matrix_strictly_causal(P: Mat, ring: RingModel) -> bool:
    return all(strictly_causal(entry, ring) for entry in P.entries)


# ---------------------------------------------------------------------------
# impulse responses, entry by entry
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# duality and causality of a synthesized controller
# ---------------------------------------------------------------------------


def transpose(M: Mat) -> Mat:
    return Mat.build(M.cols, M.rows, lambda i, j: M[j, i])


def transpose_duality_check(P: Mat, C: Mat, ring: RingModel | None = None) -> bool:
    """The closed loop of the transposed pair is the permuted closed loop."""
    n, m = P.rows, P.cols
    H = closed_loop(P, C)
    H_t = closed_loop(transpose(P), transpose(C))
    order = list(range(n, n + m)) + list(range(n))
    if transpose(H_t) != H.submatrix(order, order):
        return False
    if ring is not None:
        direct = all(fraction_in_ring(e, ring) for e in H.entries)
        transposed = all(fraction_in_ring(e, ring) for e in H_t.entries)
        if direct and not transposed:
            return False
    return True


@dataclass
class CausalityReport:
    denominator_nonsingular: bool
    adjugate_in_ring: bool
    entry_causal: list[list[bool]]
    controller_causal: bool
    plant_strictly_causal: bool

    @property
    def ok(self) -> bool:
        return (self.denominator_nonsingular and self.adjugate_in_ring
                and self.controller_causal)


def causality_check(pf: PlantFraction, result: ControllerResult) -> CausalityReport:
    """Causality of the synthesized controller, entrywise and structurally.

    Structurally: Den is Z-nonsingular, so C = (det(Den) E)^-1 (adj(Den) Num)
    exhibits every entry as a ring element over a denominator outside Z.  For
    a strictly causal plant every stabilizing controller must moreover be
    entrywise causal, which the per-entry decisions confirm.
    """
    ring = pf.ring
    den_ok = z_nonsingular(result.Den, ring)
    adj_num = result.Den.adjugate() * result.Num
    adj_ok = all(membership(e, ring) for e in adj_num.entries) and \
        membership(result.Den.det(), ring)
    flags = [[causal(result.C[i, j], ring) for j in range(result.C.cols)]
             for i in range(result.C.rows)]
    all_causal = den_ok and adj_ok and all(all(row) for row in flags)
    strict = matrix_strictly_causal(pf.P, ring)
    return CausalityReport(den_ok, adj_ok, flags, all_causal, strict)


# ---------------------------------------------------------------------------
# minors and the module criterion
# ---------------------------------------------------------------------------


def cofactor_det(mat: Mat, rows: tuple[int, ...] | None = None,
                 cols: tuple[int, ...] | None = None):
    """det of the square matrix (or of its rows x cols submatrix), expanded
    along the first row; it takes no division."""
    if rows is None:
        rows = cols = tuple(range(mat.rows))
    if len(rows) == 1:
        return mat[rows[0], cols[0]]
    acc = None
    for pos, j in enumerate(cols):
        term = mat[rows[0], j] * cofactor_det(mat, rows[1:], cols[:pos] + cols[pos + 1:])
        if pos % 2:
            term = -term
        acc = term if acc is None else acc + term
    return acc


def cofactor_adjugate(mat: Mat) -> Mat:
    """adj(mat) from the signed minors, each by `cofactor_det`."""
    n = mat.rows
    if n == 1:
        return Mat(1, 1, [mat[0, 0].one_like()])
    idx = tuple(range(n))

    def entry(i, j):
        minor = cofactor_det(mat, idx[:j] + idx[j + 1:], idx[:i] + idx[i + 1:])
        return minor if (i + j) % 2 == 0 else -minor
    return Mat.build(n, n, entry)


def minor_ideal(mat: Mat, size: int) -> list[Polynomial]:
    """All size-m minors, ordered by (row combination, column combination)."""
    if size < 1 or size > min(mat.rows, mat.cols):
        raise MatrixError(f"minor size {size} out of range")
    out = []
    for rows in combinations(range(mat.rows), size):
        for cols in combinations(range(mat.cols), size):
            out.append(mat.submatrix(list(rows), list(cols)).det())
    return out


def module_criterion(pf: PlantFraction) -> bool:
    """The paper's first criterion, for a plant with one input.

    The rows of T = [N; d] generate the ideal J = (n_1, .., n_n, d).  The
    factor of I = {i} is t_i J^-1, so the factors sum to J J^-1, and with
    J^-1 = d^-1 (dA : J) the plant is stabilizable exactly when J is
    invertible: when d lies in J (dA : J).  Decided in the ring's
    presentation by Groebner colons, intersections and one membership test,
    a route that shares neither the gap linear algebra nor the gcd of the
    decision over Q[z^S].
    """
    if pf.m != 1:
        raise ValueError("the module criterion is checked for one input only")
    pres = presentation(pf.ring)
    d = pres.lift(pf.d)
    gens = [pres.lift(t) for t in pf.T.entries if not t.is_zero()]
    dA = pres.ideal([d])
    quotient = dA.colon(gens[0])  # (dA : J) = the intersection of the (dA : t)
    for t in gens[1:]:
        quotient = quotient.intersect(dA.colon(t))
    return contains(pres.ideal([t * c for t in gens for c in quotient.gens]), d)


def _in_local_ring_at_zero(num: Polynomial, den: Polynomial, ring: RingModel) -> bool:
    """Whether num/den lies in Q(z) ∩ Q[[z^S]]: its Taylor series at 0 has no
    negative power and no term at a gap of S.  With den = z^v u, u(0) != 0,
    the series of num/u must vanish below v and at v + gap for every gap."""
    dc, nc = den.univar_coeffs(), num.univar_coeffs()
    v = next(k for k, c in enumerate(dc) if c)
    u = dc[v:]
    series: list[Fraction] = []
    for k in range(v + ring.conductor):
        acc = nc[k] if k < len(nc) else Fraction(0)
        acc -= sum(u[j] * series[k - j] for j in range(1, min(k, len(u) - 1) + 1))
        series.append(acc / u[0])
    return not any(series[:v]) and not any(series[v + gap] for gap in ring.gaps())


def local_criterion_at_zero(pf: PlantFraction) -> bool:
    """Stabilizability over Q[z^S] from the local ring at z = 0 alone.

    Q[z^S] contains z^c Q[z], c its conductor, so at every maximal ideal but
    m0 = (z^s : s in S) it is locally Q[z], a PID, where every plant is
    stabilizable.  The factors commute with localization, so their sum is
    the unit ideal unless it lies in m0; A_m0 is local, so there the sum is
    the unit ideal only when one factor is.  The plant is stabilizable
    exactly when, for some I, every entry of [P; E] rows_I([P; E])^-1 =
    T adj(rows_I T) / det(rows_I T) lies in A_m0 = Q(z) ∩ Q[[z^S]].  One
    determinant and adjugate per index set, by cofactor expansion, and a
    series division up to the conductor; no gap nullspace, gcd or Groebner
    basis.
    """
    ring = pf.ring
    for index_set in enumerate_index_sets(pf.m, pf.n):
        M = pf.T.take_rows(index_set.zero_based())
        delta = cofactor_det(M)
        if delta.is_zero():
            continue
        if all(_in_local_ring_at_zero(c, delta, ring)
               for c in (pf.T * cofactor_adjugate(M)).entries):
            return True
    return False


# ---------------------------------------------------------------------------
# ideal membership, the factor's ideal, and a plant from its parts
# ---------------------------------------------------------------------------


def contains(handle: IdealHandle, p: Polynomial) -> bool:
    """Whether p lies in the ideal: its normal form modulo the reduced basis is 0."""
    return groebner.normal_form(p, handle.groebner()).is_zero()


def membership_witness(handle: IdealHandle,
                       p: Polynomial) -> tuple[bool, list[Polynomial] | None]:
    """(True, c) with p = sum c[i] * handle.all_gens()[i], or (False, None).

    The division quotients of p by the basis, combined with the basis
    cofactors over the generators, give c."""
    gb = handle.groebner(track_cofactors=True)
    p = p.with_variables(gb.variables)
    rem, scale, quot = _reduce_full(dict(p._terms), p._den, gb._divisors, gb.key,
                                    want_quotients=True)
    if rem:
        return False, None
    coeffs = [Polynomial.zero(gb.variables) for _ in gb.generators]
    for q, cof in zip(quot, gb.cofactors):
        if q:
            q = Polynomial._from_clean(q, scale, gb.variables)
            coeffs = [a + q * b for a, b in zip(coeffs, cof)]
    return True, coeffs


def factor_ideal(result: GefResult, entry: GefEntry) -> IdealHandle:
    """The factor of the entry as an ideal of the presentation, from its
    generators.  `gef` lifted the factor, took its reduced basis and pushed it
    down; lifting again gives the same ideal, since lift(push(f)) = f modulo
    the relations and an element that pushes to 0 lies in the relations."""
    pres = result.pres
    return pres.ideal([pres.lift(g) for g in entry.generators])


def plant_from_parts(ring: RingModel, N: Mat, d: Polynomial) -> PlantFraction:
    """`PlantFraction.from_parts` with each entry of P reduced from N[i,j]/d."""
    return PlantFraction.from_parts(ring, N, d, N.map(lambda e: PolyFraction(e, d)))


# ---------------------------------------------------------------------------
# the lift and the witness, computed whole
# ---------------------------------------------------------------------------


def normal_form_lift(pres: Presentation, a: Polynomial) -> Polynomial:
    """The preimage of a in the presentation: the normal form of the whole
    element modulo the lift basis, which must be free of the delay variable;
    MembershipError otherwise."""
    if pres._lift_gb is None:
        return a.with_variables(pres.variables)
    ext = pres._lift_gb.variables  # (delay, u1, .., uk)
    nf = groebner.normal_form(a.with_variables(ext), pres._lift_gb)
    if ext[0] in nf.used_variables():
        raise MembershipError(f"{a} is not in the monomial subalgebra")
    return nf.with_variables(pres.variables)


def entrywise_witness(pf: PlantFraction, index_set: IndexSet, lam: Polynomial) -> Mat:
    """K = lam * T adj(rows_I T) / det(rows_I T), by one exact division per
    entry; NotDivisibleError when one of them fails."""
    M = pf.T.take_rows(index_set.zero_based())
    delta = cofactor_det(M)
    return (pf.T * M.adjugate()).map(lambda c: divide_exact(lam * c, delta))


# ---------------------------------------------------------------------------
# Buchberger with dense cofactors
# ---------------------------------------------------------------------------


def mul_term(p: Polynomial, shift: Exponents, coeff: Fraction | int) -> Polynomial:
    """p * coeff * x^shift for a nonzero coeff."""
    return Polynomial._from_clean(
        {tuple(map(add, exps, shift)): c * coeff.numerator for exps, c in p._terms.items()},
        p._den * coeff.denominator, p.variables)


def dense_cofactor_buchberger(generators: Sequence[Polynomial], variables: Iterable[str],
                              key: DescendingKey) -> GroebnerBasis:
    """`groebner.buchberger(track_cofactors=True)` with each cofactor a dense
    list of `Polynomial`s over the generators, zeros included, updated by
    whole-polynomial arithmetic (`a - q * b` for every entry).  The pair
    selection, reductions and interreduction are the library's, so the basis
    and the cofactor lists must come out equal."""
    variables = tuple(variables)
    gens = [g.with_variables(variables) for g in generators]
    zero, one = Polynomial.zero(variables), Polynomial.one(variables)
    divs: list[_Divisor] = []
    cofs: list[list[Polynomial]] = []
    sugars: list[int] = []
    pairs: dict[tuple[int, int], tuple] = {}

    def pair_key(i: int, j: int) -> tuple:
        li, lj = divs[i].lead, divs[j].lead
        lcm = _exp_lcm(li, lj)
        sugar = max(sugars[i] + sum(_exp_sub(lcm, li)), sugars[j] + sum(_exp_sub(lcm, lj)))
        return (sugar, tuple(-k for k in key(lcm)), i, j)

    def add_element(terms, scale, lexp, cof, sugar):
        nonlocal pairs
        if terms[lexp] != scale:
            cof = [c.scale(Fraction(scale, terms[lexp])) for c in cof]
        leads = [d.lead for d in divs]
        t = len(divs)
        kept = {}
        for (i, j), k in pairs.items():
            lcm_ij = _exp_lcm(leads[i], leads[j])
            if (not _exp_divides(lexp, lcm_ij)
                    or _exp_lcm(leads[i], lexp) == lcm_ij
                    or _exp_lcm(leads[j], lexp) == lcm_ij):
                kept[i, j] = k
        lcm_groups: dict[Exponents, list[int]] = {}
        for i in range(t):
            lcm_groups.setdefault(_exp_lcm(leads[i], lexp), []).append(i)
        minimal: list[Exponents] = []
        for lcm in sorted(lcm_groups, key=key, reverse=True):
            if all(not _exp_divides(prev, lcm) for prev in minimal):
                minimal.append(lcm)
        divs.append(_Divisor(terms, lexp))
        cofs.append(cof)
        sugars.append(sugar)
        for lcm in minimal:
            members = lcm_groups[lcm]
            if any(_exp_lcm(leads[i], lexp) == _exp_add(leads[i], lexp) for i in members):
                continue
            kept[min(members), t] = pair_key(min(members), t)
        pairs = kept

    for i, g in enumerate(gens):
        if not g.is_zero():
            add_element(g._terms, g._den, _lead(g, key)[0],
                        [one if j == i else zero for j in range(len(gens))],
                        g.total_degree())

    while pairs:
        i, j = min(pairs, key=pairs.__getitem__)
        sugar = pairs.pop((i, j))[0]
        li, lj = divs[i].lead, divs[j].lead
        lcm = _exp_lcm(li, lj)
        si, sj = _exp_sub(lcm, li), _exp_sub(lcm, lj)
        work, scale = _s_polynomial(divs[i], divs[j], si, sj)
        if not work:
            continue
        rem, scale, quot = _reduce_full(work, scale, divs, key,
                                        want_quotients=True)
        if not rem:
            continue
        scof = [mul_term(a, si, 1) - mul_term(b, sj, 1) for a, b in zip(cofs[i], cofs[j])]
        for q, cof_k in zip(quot, cofs):
            if q:
                q = Polynomial._from_clean(q, scale, variables)
                scof = [a - q * b for a, b in zip(scof, cof_k)]
        add_element(rem, scale, next(iter(rem)), scof, sugar)

    minimal_idx: list[int] = []
    for k in sorted(range(len(divs)), key=lambda k: key(divs[k].lead),
                    reverse=True):
        if all(not _exp_divides(divs[j].lead, divs[k].lead) for j in minimal_idx):
            minimal_idx.append(k)
    basis, basis_cofs = [], []
    for k in minimal_idx:
        others = [j for j in minimal_idx if j != k]
        work, scale = divs[k].terms()
        rem, scale, quot = _reduce_full(work, scale, [divs[j] for j in others],
                                        key, want_quotients=True)
        basis.append(Polynomial._from_clean(rem, scale, variables))
        cof = cofs[k]
        for q, j in zip(quot, others):
            if q:
                q = Polynomial._from_clean(q, scale, variables)
                cof = [a - q * b for a, b in zip(cof, cofs[j])]
        basis_cofs.append(cof)
    return GroebnerBasis(variables, key, gens, basis, basis_cofs)
