"""Buchberger Groebner-basis engine over Q[x1..xk] with cofactor tracking.

Supports ideal membership with witnesses, unit-ideal tests with Bezout
certificates, colon ideals, intersections, and elimination.  Every ideal
handle carries a list of relation generators that are implicitly adjoined to
all computations, which makes the engine operate modulo a quotient-ring
presentation while staying inside an ordinary polynomial ring.

Determinism: the selection strategy is sugar with a fixed tie-break by
(order key of the pair lcm, input index), reducers are chosen by basis
index, and the reduced basis is sorted by leading monomial.  Identical
inputs therefore produce identical bases and identical certificates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .poly import Exponents, Polynomial, _grevlex_key

# ---------------------------------------------------------------------------
# monomial orders
# ---------------------------------------------------------------------------


class MonomialOrder:
    """Total multiplicative monomial order: lex, grevlex, or block elimination."""

    __slots__ = ("kind", "front")

    def __init__(self, kind: str, front: int = 0):
        if kind not in ("lex", "grevlex", "block"):
            raise ValueError(f"unknown order kind {kind!r}")
        self.kind = kind
        self.front = front

    def key(self, exps: Exponents):
        if self.kind == "lex":
            return exps
        if self.kind == "grevlex":
            return _grevlex_key(exps)
        return (_grevlex_key(exps[:self.front]), _grevlex_key(exps[self.front:]))

    def cache_key(self):
        return (self.kind, self.front)

    def __repr__(self):
        if self.kind == "block":
            return f"MonomialOrder('block', front={self.front})"
        return f"MonomialOrder({self.kind!r})"


LEX = MonomialOrder("lex")
GREVLEX = MonomialOrder("grevlex")


def elimination_order(front_count: int) -> MonomialOrder:
    """Block order making the first `front_count` variables greatest."""
    return MonomialOrder("block", front_count)


# ---------------------------------------------------------------------------
# low-level helpers on aligned polynomials
# ---------------------------------------------------------------------------


def _lead(p: Polynomial, order: MonomialOrder) -> tuple[Exponents, Fraction]:
    terms = dict(p.items())
    exps = max(terms, key=order.key)
    return exps, terms[exps]


def _mul_term(p: Polynomial, shift: Exponents, coeff: Fraction) -> Polynomial:
    return Polynomial(
        {tuple(a + b for a, b in zip(exps, shift)): c * coeff for exps, c in p.items()},
        p.variables)


def _exp_divides(a: Exponents, b: Exponents) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _exp_lcm(a: Exponents, b: Exponents) -> Exponents:
    return tuple(max(x, y) for x, y in zip(a, b))


def _exp_add(a: Exponents, b: Exponents) -> Exponents:
    return tuple(x + y for x, y in zip(a, b))


def _exp_sub(a: Exponents, b: Exponents) -> Exponents:
    return tuple(x - y for x, y in zip(a, b))


def _reduce_full(p: Polynomial, basis: list[Polynomial],
                 leads: list[tuple[Exponents, Fraction]], order: MonomialOrder,
                 want_quotients: bool = False):
    """Full normal form of p modulo basis; optionally the division quotients."""
    nvars = len(p.variables)
    work = dict(p.items())
    remainder: dict[Exponents, Fraction] = {}
    quotients = [dict() for _ in basis] if want_quotients else None
    while work:
        exps = max(work, key=order.key)
        coeff = work.pop(exps)
        for idx, (lexp, lcoeff) in enumerate(leads):
            if _exp_divides(lexp, exps):
                factor = coeff / lcoeff
                shift = _exp_sub(exps, lexp)
                if want_quotients:
                    quotients[idx][shift] = quotients[idx].get(shift, Fraction(0)) + factor
                for e2, c2 in basis[idx].items():
                    if e2 == lexp:
                        continue
                    e = _exp_add(e2, shift)
                    s = work.get(e, Fraction(0)) - factor * c2
                    if s:
                        work[e] = s
                    else:
                        work.pop(e, None)
                break
        else:
            remainder[exps] = coeff
    rem = Polynomial(remainder, p.variables)
    if want_quotients:
        return rem, [Polynomial(q, p.variables) for q in quotients]
    return rem


# ---------------------------------------------------------------------------
# Buchberger with cofactors
# ---------------------------------------------------------------------------


@dataclass
class GroebnerBasis:
    """Reduced Groebner basis, optionally with exact cofactors over the inputs."""

    variables: tuple[str, ...]
    order: MonomialOrder
    generators: list[Polynomial]
    basis: list[Polynomial]
    cofactors: list[list[Polynomial]] | None = None

    def leads(self) -> list[tuple[Exponents, Fraction]]:
        return [_lead(g, self.order) for g in self.basis]

    def check_cofactors(self):
        """Assert basis[i] = sum_j cofactors[i][j] * generators[j] exactly."""
        if self.cofactors is None:
            raise ValueError("basis was computed without cofactor tracking")
        for g, cof in zip(self.basis, self.cofactors):
            acc = Polynomial.zero(self.variables)
            for c, gen in zip(cof, self.generators):
                acc = acc + c * gen
            if acc != g:
                raise AssertionError("cofactor bookkeeping is inconsistent")


def buchberger(generators: Sequence[Polynomial], variables: Iterable[str],
               order: MonomialOrder = GREVLEX, track_cofactors: bool = False,
               ) -> GroebnerBasis:
    """Reduced Groebner basis of the given generators.

    With track_cofactors=True every basis element g carries polynomials c_i
    with g = sum c_i * generators[i]; the bookkeeping is re-verified before
    returning.
    """
    variables = tuple(variables)
    gens = [g.with_variables(variables) for g in generators]
    track = track_cofactors
    nvars = len(variables)

    polys: list[Polynomial] = []       # current basis
    leads: list[tuple[Exponents, Fraction]] = []
    cofs: list[list[Polynomial]] = []  # over gens
    sugars: list[int] = []
    pairs: set[tuple[int, int]] = set()

    def unit_cof(i: int) -> list[Polynomial]:
        return [Polynomial.one(variables) if j == i else Polynomial.zero(variables)
                for j in range(len(gens))]

    def add_element(p: Polynomial, cof: list[Polynomial] | None, sugar: int):
        """Gebauer-Moeller pair update, then append p to the basis."""
        nonlocal pairs
        lexp, lcoeff = _lead(p, order)
        if lcoeff != 1:
            p = p.scale(Fraction(1) / lcoeff)
            if track:
                cof = [c.scale(Fraction(1) / lcoeff) for c in cof]
            lcoeff = Fraction(1)
        t = len(polys)
        kept = set()
        for (i, j) in pairs:
            lcm_ij = _exp_lcm(leads[i][0], leads[j][0])
            if (not _exp_divides(lexp, lcm_ij)
                    or _exp_lcm(leads[i][0], lexp) == lcm_ij
                    or _exp_lcm(leads[j][0], lexp) == lcm_ij):
                kept.add((i, j))
        lcm_groups: dict[Exponents, list[int]] = {}
        for i in range(t):
            lcm_groups.setdefault(_exp_lcm(leads[i][0], lexp), []).append(i)
        minimal: list[Exponents] = []
        for lcm in sorted(lcm_groups, key=order.key):
            if all(not _exp_divides(prev, lcm) for prev in minimal):
                minimal.append(lcm)
        for lcm in minimal:
            members = lcm_groups[lcm]
            if any(_exp_lcm(leads[i][0], lexp) == _exp_add(leads[i][0], lexp)
                   for i in members):
                continue  # product criterion
            kept.add((min(members), t))
        polys.append(p)
        leads.append((lexp, lcoeff))
        cofs.append(cof)
        sugars.append(sugar)
        pairs = kept

    for i, g in enumerate(gens):
        if g.is_zero():
            continue
        add_element(g, unit_cof(i) if track else None, g.total_degree())

    def pair_sort_key(pair: tuple[int, int]):
        i, j = pair
        lcm = _exp_lcm(leads[i][0], leads[j][0])
        sugar = max(sugars[i] + sum(_exp_sub(lcm, leads[i][0])),
                    sugars[j] + sum(_exp_sub(lcm, leads[j][0])))
        return (sugar, order.key(lcm), i, j)

    while pairs:
        i, j = min(pairs, key=pair_sort_key)
        pairs.discard((i, j))
        (li, ci), (lj, cj) = leads[i], leads[j]
        lcm = _exp_lcm(li, lj)
        s = (_mul_term(polys[i], _exp_sub(lcm, li), Fraction(1) / ci)
             - _mul_term(polys[j], _exp_sub(lcm, lj), Fraction(1) / cj))
        sugar = max(sugars[i] + sum(_exp_sub(lcm, li)),
                    sugars[j] + sum(_exp_sub(lcm, lj)))
        if s.is_zero():
            continue
        if track:
            scof = [_mul_term(a, _exp_sub(lcm, li), Fraction(1) / ci)
                    - _mul_term(b, _exp_sub(lcm, lj), Fraction(1) / cj)
                    for a, b in zip(cofs[i], cofs[j])]
        rem, quot = _reduce_full(s, polys, leads, order, want_quotients=True)
        if rem.is_zero():
            continue
        if track:
            for q, cof_k in zip(quot, cofs):
                if q.is_zero():
                    continue
                scof = [a - q * b for a, b in zip(scof, cof_k)]
            add_element(rem, scof, sugar)
        else:
            add_element(rem, None, sugar)

    basis_idx = sorted(range(len(polys)), key=lambda k: order.key(leads[k][0]))
    minimal_idx: list[int] = []
    for k in basis_idx:
        if all(not _exp_divides(leads[j][0], leads[k][0]) for j in minimal_idx):
            minimal_idx.append(k)

    reduced: list[Polynomial] = []
    reduced_cofs: list[list[Polynomial]] = []
    for pos, k in enumerate(minimal_idx):
        others = [polys[j] for j in minimal_idx if j != k]
        other_leads = [leads[j] for j in minimal_idx if j != k]
        rem, quot = _reduce_full(polys[k], others, other_leads, order,
                                 want_quotients=True)
        if track:
            cof = list(cofs[k])
            other_cofs = [cofs[j] for j in minimal_idx if j != k]
            for q, cof_o in zip(quot, other_cofs):
                if q.is_zero():
                    continue
                cof = [a - q * b for a, b in zip(cof, cof_o)]
        lexp, lcoeff = _lead(rem, order)
        if lcoeff != 1:
            rem = rem.scale(Fraction(1) / lcoeff)
            if track:
                cof = [c.scale(Fraction(1) / lcoeff) for c in cof]
        reduced.append(rem)
        reduced_cofs.append(cof if track else None)

    order_idx = sorted(range(len(reduced)), key=lambda k: order.key(_lead(reduced[k], order)[0]))
    basis = [reduced[k] for k in order_idx]
    out = GroebnerBasis(variables, order, gens, basis,
                        [reduced_cofs[k] for k in order_idx] if track else None)
    if track:
        out.check_cofactors()
    return out


def normal_form(p: Polynomial, gb: GroebnerBasis, witness: bool = False):
    """Normal form of p modulo gb; optionally with cofactors over gb.generators."""
    p = p.with_variables(gb.variables)
    if not gb.basis:
        if witness:
            return p, [Polynomial.zero(gb.variables) for _ in gb.generators]
        return p
    rem, quot = _reduce_full(p, gb.basis, gb.leads(), gb.order, want_quotients=True)
    if not witness:
        return rem
    if gb.cofactors is None:
        raise ValueError("witness requested but basis lacks cofactors")
    coeffs = [Polynomial.zero(gb.variables) for _ in gb.generators]
    for q, cof in zip(quot, gb.cofactors):
        if q.is_zero():
            continue
        coeffs = [a + q * b for a, b in zip(coeffs, cof)]
    return rem, coeffs


# ---------------------------------------------------------------------------
# ideal handles
# ---------------------------------------------------------------------------


@dataclass
class BezoutCertificate:
    """Coefficients h with sum_g h_g * g = 1 modulo the relation ideal."""

    coefficients: dict[int, Polynomial]           # over IdealHandle.gens
    relation_coefficients: dict[int, Polynomial]  # over IdealHandle.relations

    def verify(self, handle: "IdealHandle") -> bool:
        acc = Polynomial.zero(handle.variables)
        for idx, h in self.coefficients.items():
            acc = acc + h * handle.gens[idx]
        for idx, h in self.relation_coefficients.items():
            acc = acc + h * handle.relations[idx]
        return acc == Polynomial.one(handle.variables)


class IdealHandle:
    """An ideal of a presented ring: generators plus implicit relations."""

    def __init__(self, variables: Iterable[str], gens: Iterable[Polynomial],
                 relations: Iterable[Polynomial] = ()):
        self.variables = tuple(variables)
        self.gens = [g.with_variables(self.variables) for g in gens]
        self.relations = [r.with_variables(self.variables) for r in relations]
        self._cache: dict[tuple, GroebnerBasis] = {}

    @staticmethod
    def over(presentation, gens: Iterable[Polynomial]) -> "IdealHandle":
        """Handle in a ring presentation (duck-typed: .variables, .relations)."""
        return IdealHandle(presentation.variables, gens, presentation.relations)

    def all_gens(self) -> list[Polynomial]:
        return self.gens + self.relations

    def groebner(self, order: MonomialOrder = GREVLEX,
                 track_cofactors: bool = False) -> GroebnerBasis:
        key = order.cache_key()
        hit = self._cache.get(key)
        if hit is not None and (hit.cofactors is not None or not track_cofactors):
            return hit
        gb = buchberger(self.all_gens(), self.variables, order, track_cofactors)
        self._cache[key] = gb
        return gb

    def contains(self, p: Polynomial, witness: bool = False):
        """Membership of p; with witness=True also the cofactor expression."""
        gb = self.groebner(track_cofactors=witness)
        if not witness:
            return normal_form(p, gb).is_zero()
        rem, coeffs = normal_form(p, gb, witness=True)
        if not rem.is_zero():
            return False, None
        return True, coeffs

    def is_unit(self) -> tuple[bool, BezoutCertificate | None]:
        """Whether the ideal is all of the ring, with a Bezout certificate."""
        gb = self.groebner(track_cofactors=True)
        if len(gb.basis) != 1 or not gb.basis[0].is_constant():
            return False, None
        one = gb.basis[0]
        if one.constant_coeff() != 1:  # reduced bases are monic, so this is 1
            return False, None
        cof = gb.cofactors[0]
        ngens = len(self.gens)
        cert = BezoutCertificate(
            coefficients={i: cof[i] for i in range(ngens) if not cof[i].is_zero()},
            relation_coefficients={i - ngens: cof[i] for i in range(ngens, len(cof))
                                   if not cof[i].is_zero()})
        if not cert.verify(self):
            raise AssertionError("Bezout certificate failed verification")
        return True, cert

    def colon(self, f: Polynomial) -> "IdealHandle":
        """(I : f) = {g | g*f in I}, via intersection with <f> and exact division."""
        from .poly import divide_exact
        if f.is_zero():
            raise ValueError("colon by zero")
        f = f.with_variables(self.variables)
        inter = _intersect_gens(self.all_gens(), [f], self.variables)
        quotients = [divide_exact(g, f) for g in inter]
        return IdealHandle(self.variables, quotients, self.relations)

    def intersect(self, other: "IdealHandle") -> "IdealHandle":
        if self.variables != other.variables:
            raise ValueError("intersection requires the same ambient variables")
        gens = _intersect_gens(self.all_gens(), other.all_gens(), self.variables)
        return IdealHandle(self.variables, gens, self.relations)

    def eliminate(self, drop_vars: Iterable[str]) -> "IdealHandle":
        """The ideal's contraction to the subring without drop_vars."""
        drop = [v for v in self.variables if v in set(drop_vars)]
        keep = [v for v in self.variables if v not in set(drop_vars)]
        ordered = tuple(drop) + tuple(keep)
        gens = [g.with_variables(ordered) for g in self.all_gens()]
        gb = buchberger(gens, ordered, elimination_order(len(drop)))
        survivors = [g.with_variables(tuple(keep)) for g in gb.basis
                     if all(v in keep for v in g.used_variables())]
        relations = [r for r in self.relations
                     if all(v in keep for v in r.used_variables())]
        relations = [r.with_variables(tuple(keep)) for r in relations]
        return IdealHandle(tuple(keep), survivors, relations)

    def reduced_basis(self, order: MonomialOrder = GREVLEX) -> list[Polynomial]:
        return list(self.groebner(order).basis)

    def __repr__(self):
        return (f"IdealHandle(vars={self.variables!r}, gens={len(self.gens)}, "
                f"relations={len(self.relations)})")


def _fresh_var(variables: tuple[str, ...]) -> str:
    if "t" not in variables:
        return "t"
    k = 0
    while f"t{k}" in variables:
        k += 1
    return f"t{k}"


def _intersect_gens(gens_a: list[Polynomial], gens_b: list[Polynomial],
                    variables: tuple[str, ...]) -> list[Polynomial]:
    """Generators of <gens_a> intersect <gens_b> by the auxiliary-variable trick."""
    t = _fresh_var(variables)
    ext = (t,) + variables
    tpoly = Polynomial.var(t, ext)
    one_minus_t = Polynomial.one(ext) - tpoly
    aux = [tpoly * g.with_variables(ext) for g in gens_a]
    aux += [one_minus_t * g.with_variables(ext) for g in gens_b]
    gb = buchberger(aux, ext, elimination_order(1))
    return [g.with_variables(variables) for g in gb.basis
            if all(v != t for v in g.used_variables())]
