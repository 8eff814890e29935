"""Buchberger Groebner-basis engine over Q[x1..xk] with cofactor tracking.

Supports unit-ideal tests with Bezout certificates, normal forms and
intersections; colon ideals serve only the tests.  Every ideal handle
carries a list of relation generators that are implicitly adjoined to all
computations, which makes the engine operate modulo a quotient-ring
presentation while staying inside an ordinary polynomial ring.

A monomial order is its flat descending key, a tuple that sorts ascending
exactly when monomials sort descending.  There are two: grevlex
(`poly._grevlex_descending_key`), in which every ideal is reduced, and the
elimination order of the first variable (`_elimination_descending_key`),
which the ring presentation and the intersection of two ideals use.

Reduction is the kernel of the polynomial module, `poly._reduce_full`, which
`poly.divide_exact` runs with one divisor over two or more variables.  It
works on the stored form of a polynomial, integer numerators over one common
denominator, and keeps the pending monomials in a heap on the order's key,
so each step pops the greatest pending term instead of rescanning them all.
Basis elements are kept monic, each with its lead and an integer tail
computed once (`poly._Divisor`).  Division quotients, integers over the
scale of the remainder, are formed only when cofactors are tracked
(`buchberger(track_cofactors=True)`, which only `IdealHandle.is_unit` asks
for); normal forms, colon, intersection and elimination never do.

Tracked cofactors are sparse while the basis is built: each maps the index of
a generator to a nonzero polynomial, all in integer form over one common
denominator (`_cofactor_sum`), so the scaling of a new element, the S-pair
update x^si c_i - x^sj c_j and each a - q*b touch only the generators that
an element depends on.  The dense lists of `GroebnerBasis.cofactors` are
built once at the end and the identity they state is verified once there
(`check_cofactors`); `IdealHandle.is_unit` adds only the check that the one
basis element is 1.

Determinism: the selection strategy is sugar with a fixed tie-break by
(order of the pair lcm, input index), reducers are chosen by basis index,
and the reduced basis is sorted by leading monomial.  Each reduction step is
fixed by the exact polynomial still pending, and the heap and the common
denominator change only how that polynomial is stored, so identical inputs
produce identical bases and identical certificates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add, le, sub
from typing import Callable, Iterable, Sequence

from .poly import Exponents, Polynomial, _Divisor, _grevlex_descending_key, _reduce_full

# ---------------------------------------------------------------------------
# monomial orders
# ---------------------------------------------------------------------------

# an order's flat descending key (see the module docstring)
DescendingKey = Callable[[Exponents], tuple[int, ...]]


def _elimination_descending_key(exps: Exponents) -> tuple[int, ...]:
    """Elimination order of the first variable: its degree decides first,
    grevlex on the other variables breaks ties."""
    return (-exps[0],) + _grevlex_descending_key(exps[1:])


# ---------------------------------------------------------------------------
# low-level helpers on aligned polynomials
# ---------------------------------------------------------------------------


def _lead(p: Polynomial, key: DescendingKey) -> tuple[Exponents, Fraction]:
    exps = min(p._terms, key=key)
    return exps, p.coeff(exps)


def _exp_divides(a: Exponents, b: Exponents) -> bool:
    return all(map(le, a, b))


def _exp_lcm(a: Exponents, b: Exponents) -> Exponents:
    return tuple(map(max, a, b))


def _exp_add(a: Exponents, b: Exponents) -> Exponents:
    return tuple(map(add, a, b))


def _exp_sub(a: Exponents, b: Exponents) -> Exponents:
    return tuple(map(sub, a, b))


def _s_polynomial(di: _Divisor, dj: _Divisor, si: Exponents, sj: Exponents):
    """x^si * gi - x^sj * gj in integer form; the leads cancel, so only tails enter."""
    scale = math.lcm(di.den, dj.den)
    mi, mj = scale // di.den, scale // dj.den
    terms = {tuple(map(add, e, si)): a * mi for e, a in di.tail}
    for e, a in dj.tail:
        e = tuple(map(add, e, sj))
        s = terms.get(e, 0) - a * mj
        if s:
            terms[e] = s
        else:
            terms.pop(e, None)
    return terms, scale


# ---------------------------------------------------------------------------
# sparse cofactors
# ---------------------------------------------------------------------------

# A tracked cofactor is (terms, den): generator i enters with the polynomial
# terms[i] / den in integer form, and a generator outside `terms` with 0.
_Cofactor = tuple[dict[int, dict[Exponents, int]], int]


def _cofactor_sum(parts: list[tuple[dict[Exponents, int], int, _Cofactor]]) -> _Cofactor:
    """sum (mult / s) * cof over the parts (mult, s, cof), where mult / s is
    a polynomial in integer form over the positive s; only the support of
    each cof is touched, and the result is reduced by the gcd of its numbers."""
    den = math.lcm(*[s * d for _, s, (_, d) in parts])
    acc: dict[int, dict[Exponents, int]] = {}
    for mult, s, (terms, d) in parts:
        f = den // (s * d)
        for i, t in terms.items():
            out = acc.setdefault(i, {})
            get = out.get
            for e1, c1 in mult.items():
                c1 *= f
                for e2, c2 in t.items():
                    e = tuple(map(add, e1, e2))
                    out[e] = get(e, 0) + c1 * c2
    acc = {i: nz for i, t in acc.items() if (nz := {e: c for e, c in t.items() if c})}
    g = math.gcd(den, *[c for t in acc.values() for c in t.values()])
    if g != 1:
        den //= g
        acc = {i: {e: c // g for e, c in t.items()} for i, t in acc.items()}
    return acc, den


def _cofactor_list(cof: _Cofactor, count: int, variables: tuple[str, ...]) -> list[Polynomial]:
    """The dense list of `count` polynomials that the sparse cofactor stands for."""
    terms, den = cof
    return [Polynomial._from_clean(terms[i], den, variables) if i in terms
            else Polynomial.zero(variables) for i in range(count)]


# ---------------------------------------------------------------------------
# Buchberger with cofactors
# ---------------------------------------------------------------------------


@dataclass
class GroebnerBasis:
    """Reduced Groebner basis, optionally with exact cofactors over the inputs."""

    variables: tuple[str, ...]
    key: DescendingKey
    generators: list[Polynomial]
    basis: list[Polynomial]
    cofactors: list[list[Polynomial]] | None = None
    _divisors: list[_Divisor] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._divisors = [_Divisor.of(g, self.key) for g in self.basis]

    def check_cofactors(self):
        """Assert basis[i] = sum_j cofactors[i][j] * generators[j] exactly."""
        if self.cofactors is None:
            raise ValueError("basis was computed without cofactor tracking")
        for g, cof in zip(self.basis, self.cofactors):
            acc = Polynomial.zero(self.variables)
            for c, gen in zip(cof, self.generators):
                if c:
                    acc = acc + c * gen
            if acc != g:
                raise AssertionError("cofactor bookkeeping is inconsistent")


def buchberger(generators: Sequence[Polynomial], variables: Iterable[str],
               key: DescendingKey = _grevlex_descending_key,
               track_cofactors: bool = False) -> GroebnerBasis:
    """Reduced Groebner basis of the given generators.

    With track_cofactors=True every basis element g carries polynomials c_i
    with g = sum c_i * generators[i].  They are kept sparse while the basis
    is built (`_cofactor_sum`), turned into dense lists once at the end, and
    the bookkeeping is re-verified before returning.
    """
    variables = tuple(variables)
    gens = [g.with_variables(variables) for g in generators]
    track = track_cofactors
    one = (0,) * len(variables)

    divs: list[_Divisor] = []    # current basis, monic
    cofs: list[_Cofactor] = []   # over gens
    sugars: list[int] = []
    pairs: dict[tuple[int, int], tuple] = {}  # pair -> selection key

    def reduced_cof(heads, quots, scale: int) -> _Cofactor:
        """sum mult * cofs[k] over the heads (mult, k), minus (q / scale) * cofs[k]
        over the division quotients (k, q) that are nonzero."""
        parts = [(mult, 1, cofs[k]) for mult, k in heads]
        parts += [({e: -w for e, w in q.items()}, scale, cofs[k]) for k, q in quots if q]
        return _cofactor_sum(parts)

    def pair_key(i: int, j: int) -> tuple:
        li, lj = divs[i].lead, divs[j].lead
        lcm = _exp_lcm(li, lj)
        sugar = max(sugars[i] + sum(_exp_sub(lcm, li)), sugars[j] + sum(_exp_sub(lcm, lj)))
        return (sugar, tuple(-k for k in key(lcm)), i, j)

    def add_element(terms: dict[Exponents, int], scale: int, lexp: Exponents,
                    cof: _Cofactor | None, sugar: int):
        """Gebauer-Moeller pair update, then append terms / scale, made monic."""
        nonlocal pairs
        lc = terms[lexp]
        if track and lc != scale:
            cof = _cofactor_sum([({one: scale if lc > 0 else -scale}, abs(lc), cof)])
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
            if any(_exp_lcm(leads[i], lexp) == _exp_add(leads[i], lexp)
                   for i in members):
                continue  # product criterion
            kept[min(members), t] = pair_key(min(members), t)
        pairs = kept

    for i, g in enumerate(gens):
        if g.is_zero():
            continue
        add_element(g._terms, g._den, _lead(g, key)[0],
                    ({i: {one: 1}}, 1) if track else None, g.total_degree())

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
                                        want_quotients=track)
        if not rem:
            continue
        lexp = next(iter(rem))  # the remainder comes out in descending order
        if not track:
            add_element(rem, scale, lexp, None, sugar)
            continue
        # rem / scale = x^si g_i - x^sj g_j - sum (q_k / scale) g_k
        add_element(rem, scale, lexp,
                    reduced_cof([({si: 1}, i), ({sj: -1}, j)], enumerate(quot), scale),
                    sugar)

    # minimal basis in ascending lead order; reducing an element by the others
    # keeps its lead (no other lead divides it) and its lead coefficient 1
    minimal_idx: list[int] = []
    for k in sorted(range(len(divs)), key=lambda k: key(divs[k].lead),
                    reverse=True):
        if all(not _exp_divides(divs[j].lead, divs[k].lead) for j in minimal_idx):
            minimal_idx.append(k)

    basis: list[Polynomial] = []
    basis_cofs: list[list[Polynomial]] = []  # dense, built once per element
    for k in minimal_idx:
        others = [j for j in minimal_idx if j != k]
        work, scale = divs[k].terms()
        rem, scale, quot = _reduce_full(work, scale, [divs[j] for j in others],
                                        key,
                                        want_quotients=track)
        basis.append(Polynomial._from_clean(rem, scale, variables))
        if track:
            cof = reduced_cof([({one: 1}, k)], zip(others, quot), scale)
            basis_cofs.append(_cofactor_list(cof, len(gens), variables))

    out = GroebnerBasis(variables, key, gens, basis, basis_cofs if track else None)
    if track:
        out.check_cofactors()
    return out


def normal_form(p: Polynomial, gb: GroebnerBasis) -> Polynomial:
    """Normal form of p modulo gb."""
    p = p.with_variables(gb.variables)
    rem, scale, _ = _reduce_full(dict(p._terms), p._den, gb._divisors, gb.key)
    return Polynomial._from_clean(rem, scale, gb.variables)


# ---------------------------------------------------------------------------
# ideal handles
# ---------------------------------------------------------------------------


@dataclass
class BezoutCertificate:
    """Coefficients h with sum_g h_g * g = 1 modulo the relation ideal."""

    coefficients: dict[int, Polynomial]           # over IdealHandle.gens
    relation_coefficients: dict[int, Polynomial]  # over IdealHandle.relations


class IdealHandle:
    """An ideal of a presented ring: generators plus implicit relations."""

    def __init__(self, variables: Iterable[str], gens: Iterable[Polynomial],
                 relations: Iterable[Polynomial] = ()):
        self.variables = tuple(variables)
        self.gens = [g.with_variables(self.variables) for g in gens]
        self.relations = [r.with_variables(self.variables) for r in relations]
        self._basis: GroebnerBasis | None = None

    def all_gens(self) -> list[Polynomial]:
        return self.gens + self.relations

    def groebner(self) -> GroebnerBasis:
        """The grevlex reduced basis of all generators, kept for later calls."""
        if self._basis is None:
            self._basis = buchberger(self.all_gens(), self.variables)
        return self._basis

    def is_unit(self) -> tuple[bool, BezoutCertificate | None]:
        """Whether the ideal is all of the ring, with a Bezout certificate."""
        gb = buchberger(self.all_gens(), self.variables, track_cofactors=True)
        if len(gb.basis) != 1 or not gb.basis[0].is_constant():
            return False, None
        # `buchberger` verified basis[0] = sum cof[i] * all_gens()[i], so the
        # cofactors are a Bezout certificate once basis[0] is 1, as a reduced
        # (monic) basis must make it
        if gb.basis[0] != Polynomial.one(self.variables):
            raise AssertionError("the reduced basis of a unit ideal is not [1]")
        cof = gb.cofactors[0]
        ngens = len(self.gens)
        cert = BezoutCertificate(
            coefficients={i: cof[i] for i in range(ngens) if not cof[i].is_zero()},
            relation_coefficients={i - ngens: cof[i] for i in range(ngens, len(cof))
                                   if not cof[i].is_zero()})
        return True, cert

    # the library does not call it; the tests' oracles and perfbench/layers.py do
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

    def reduced_basis(self) -> list[Polynomial]:
        return list(self.groebner().basis)

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
    gb = buchberger(aux, ext, _elimination_descending_key)
    return [g.with_variables(variables) for g in gb.basis
            if all(v != t for v in g.used_variables())]
