"""Groebner engine: bases, cofactors, membership, colon, intersection."""

import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stabring import groebner
from stabring.groebner import (GroebnerBasis, IdealHandle, buchberger,
                               _elimination_descending_key, _lead, _exp_lcm, _exp_sub)
from stabring.linsolve import solve_exact
from stabring.poly import (Polynomial, _Divisor, _grevlex_descending_key, _reduce_full,
                           parse_poly)

from oracles import (bezout_holds, contains, dense_cofactor_buchberger, evaluate,
                     membership_witness, mul_term)

XY = ("x", "y")
UV = ("u", "v")


def xy(text):
    return parse_poly(text, XY)


GREVLEX = _grevlex_descending_key


def _spoly(f, g, key):
    (lf, cf), (lg, cg) = _lead(f, key), _lead(g, key)
    lcm = _exp_lcm(lf, lg)
    return (mul_term(f, _exp_sub(lcm, lf), Fraction(1) / cf)
            - mul_term(g, _exp_sub(lcm, lg), Fraction(1) / cg))


def _reduces_to_zero(p, basis, key):
    """Independent full-reduction check used as the Buchberger oracle."""
    leads = [_lead(g, key) for g in basis]
    work = p
    while not work.is_zero():
        lexp, lcoeff = _lead(work, key)
        for (le, lc), g in zip(leads, basis):
            if all(a <= b for a, b in zip(le, lexp)):
                work = work - mul_term(g, _exp_sub(lexp, le), lcoeff / lc)
                break
        else:
            return False
    return True


class TestBuchberger:
    def test_singleton(self):
        gb = buchberger([xy("x")], XY)
        assert gb.basis == [xy("x")]

    def test_elimination_produces_toric_relation(self):
        zuv = ("z", "u", "v")
        gens = [parse_poly("u - z^2", zuv), parse_poly("v - z^3", zuv)]
        gb = buchberger(gens, zuv, _elimination_descending_key)
        survivors = [g for g in gb.basis if "z" not in g.used_variables()]
        assert len(survivors) == 1
        rel = survivors[0].with_variables(UV)
        expected = parse_poly("u^3 - v^2", UV)
        assert rel == expected or rel == -expected
        # the relation vanishes on the curve (t^2, t^3)
        for t in (Fraction(-3), Fraction(1, 2), Fraction(5, 7)):
            assert evaluate(rel, {"u": t ** 2, "v": t ** 3}) == 0

    def test_all_s_polynomials_reduce(self):
        gens = [xy("x^2"), xy("x*y + y^2")]
        gb = buchberger(gens, XY, GREVLEX, track_cofactors=True)
        for i in range(len(gb.basis)):
            for j in range(i + 1, len(gb.basis)):
                s = _spoly(gb.basis[i], gb.basis[j], GREVLEX)
                assert s.is_zero() or _reduces_to_zero(s, gb.basis, GREVLEX)
        gb.check_cofactors()

    def test_s_polynomials_random(self):
        rng = random.Random(41)
        for trial in range(6):
            gens = []
            for _ in range(rng.randint(2, 3)):
                p = Polynomial.zero(XY)
                for _ in range(rng.randint(1, 3)):
                    exps = (rng.randint(0, 3), rng.randint(0, 3))
                    p = p + Polynomial({exps: Fraction(rng.randint(-4, 4))}, XY)
                if not p.is_zero():
                    gens.append(p)
            if not gens:
                continue
            gb = buchberger(gens, XY, GREVLEX, track_cofactors=True)
            gb.check_cofactors()
            for i in range(len(gb.basis)):
                for j in range(i + 1, len(gb.basis)):
                    s = _spoly(gb.basis[i], gb.basis[j], GREVLEX)
                    assert s.is_zero() or _reduces_to_zero(s, gb.basis, GREVLEX)

    def test_determinism(self):
        gens = [xy("x^2 - y"), xy("x*y - 1"), xy("y^3 - x")]
        first = buchberger(gens, XY, GREVLEX, track_cofactors=True)
        second = buchberger(gens, XY, GREVLEX, track_cofactors=True)
        assert first.basis == second.basis
        assert first.cofactors == second.cofactors


class TestMembership:
    def test_zero_in_anything(self):
        handle = IdealHandle(XY, [xy("x^2 + y")])
        assert contains(handle, Polynomial.zero(XY))

    def test_witness(self):
        handle = IdealHandle(("u",), [parse_poly("u", ("u",))])
        ok, witness = membership_witness(handle, parse_poly("u^2", ("u",)))
        assert ok
        assert witness[0] == parse_poly("u", ("u",))

    def test_one_not_in_proper_ideal(self):
        handle = IdealHandle(XY, [xy("x"), xy("y")])
        assert not contains(handle, xy("1"))
        # oracle: the common zero (0,0) certifies non-membership
        assert all(evaluate(g, {"x": Fraction(0), "y": Fraction(0)}) == 0
                   for g in handle.gens)

    def test_witness_reconstructs_member(self):
        handle = IdealHandle(XY, [xy("x^2 - y"), xy("y^2 - 1")])
        p = xy("(x^2 - y)*(x + 3) + (y^2 - 1)*y")
        ok, witness = membership_witness(handle, p)
        assert ok
        acc = Polynomial.zero(XY)
        for c, g in zip(witness, handle.all_gens()):
            acc = acc + c * g
        assert acc == p


def _membership_oracle(p, gens, variables, degree_bound):
    """Solve p = sum h_i g_i with deg h_i <= degree_bound as a linear system."""
    monomials = []
    nvars = len(variables)
    for total in range(degree_bound + 1):
        for combo in combinations_with_replacement(range(nvars), total):
            exps = [0] * nvars
            for idx in combo:
                exps[idx] += 1
            monomials.append(tuple(exps))
    columns = []
    for g in gens:
        for mono in monomials:
            columns.append(mul_term(g, mono, Fraction(1)))
    rows_index = {}
    for poly in columns + [p]:
        for exps, _ in poly.items():
            rows_index.setdefault(exps, len(rows_index))
    matrix = [[Fraction(0)] * len(columns) for _ in range(len(rows_index))]
    rhs = [Fraction(0)] * len(rows_index)
    for cidx, poly in enumerate(columns):
        for exps, coeff in poly.items():
            matrix[rows_index[exps]][cidx] = coeff
    for exps, coeff in p.items():
        rhs[rows_index[exps]] = coeff
    return solve_exact(matrix, rhs) is not None


class TestOracleEquivalence:
    def test_agreement_on_random_instances(self):
        rng = random.Random(47)
        variables = ("x", "y", "w")
        checked = 0
        while checked < 24:
            gens = []
            for _ in range(rng.randint(1, 3)):
                p = Polynomial.zero(variables)
                for _ in range(rng.randint(1, 3)):
                    exps = tuple(rng.randint(0, 2) for _ in variables)
                    p = p + Polynomial(
                        {exps: Fraction(rng.randint(-3, 3))}, variables)
                if not p.is_zero():
                    gens.append(p)
            if not gens:
                continue
            handle = IdealHandle(variables, gens)
            if rng.random() < 0.5:
                # known member: a random combination of the generators
                p = Polynomial.zero(variables)
                for g in gens:
                    factor = Polynomial(
                        {tuple(rng.randint(0, 1) for _ in variables):
                         Fraction(rng.randint(-2, 2))}, variables)
                    p = p + factor * g
            else:
                p = Polynomial.zero(variables)
                for _ in range(rng.randint(1, 3)):
                    exps = tuple(rng.randint(0, 2) for _ in variables)
                    p = p + Polynomial(
                        {exps: Fraction(rng.randint(-3, 3))}, variables)
            ok, witness = membership_witness(handle, p)
            if ok:
                bound = max((c.total_degree() for c in witness
                             if not c.is_zero()), default=0)
            else:
                bound = p.total_degree() + 2
            assert _membership_oracle(p, gens, variables, max(bound, 0)) == ok
            checked += 1
        assert checked >= 20


class TestUnitIdeal:
    def test_trivial(self):
        handle = IdealHandle(XY, [xy("1")])
        ok, cert = handle.is_unit()
        assert ok and cert.coefficients == {0: xy("1")}

    def test_proper(self):
        ok, cert = IdealHandle(XY, [xy("x"), xy("y")]).is_unit()
        assert not ok and cert is None

    def test_certificate_verifies(self):
        handle = IdealHandle(XY, [xy("x + 1"), xy("x - 1")])
        ok, cert = handle.is_unit()
        assert ok and bezout_holds(cert, handle)

    def test_with_relations(self):
        # u and 1 - u are coprime modulo the toric relation
        rel = parse_poly("v^2 - u^3", UV)
        handle = IdealHandle(UV, [parse_poly("u", UV), parse_poly("1 - u", UV)], [rel])
        ok, cert = handle.is_unit()
        assert ok and bezout_holds(cert, handle)

    def test_basis_other_than_one_is_refused(self, monkeypatch):
        # `buchberger` checks the cofactors, so is_unit only checks that the
        # one basis element is 1; a constant 2 must not pass as a certificate
        handle = IdealHandle(XY, [xy("x + 1"), xy("x - 1")])

        def two(gens, variables, key=GREVLEX, track_cofactors=False):
            zero = Polynomial.zero(variables)
            return GroebnerBasis(tuple(variables), key, list(gens), [xy("2")],
                                 [[zero] * len(gens)])
        monkeypatch.setattr(groebner, "buchberger", two)
        with pytest.raises(AssertionError, match="not \\[1\\]"):
            handle.is_unit()


class TestColonIntersect:
    def test_colon_self(self):
        handle = IdealHandle(XY, [xy("x^2 + y")])
        colon = handle.colon(xy("x^2 + y"))
        assert contains(colon, xy("1"))

    def test_colon_product(self):
        handle = IdealHandle(XY, [xy("x*y")])
        colon = handle.colon(xy("x"))
        # double inclusion against <y>
        assert contains(colon, xy("y"))
        target = IdealHandle(XY, [xy("y")])
        assert all(contains(target, g) for g in colon.gens)

    def test_colon_in_quotient(self):
        rel = parse_poly("v^2 - u^3", UV)
        handle = IdealHandle(UV, [parse_poly("u^3", UV)], [rel])
        colon = handle.colon(parse_poly("u", UV))
        assert contains(colon, parse_poly("v^2", UV))
        # oracle: u * v^2 is in <u^3, v^2 - u^3>
        direct = IdealHandle(UV, [parse_poly("u^3", UV), rel])
        assert contains(direct, parse_poly("u*v^2", UV))

    def test_colon_by_zero_rejected(self):
        with pytest.raises(ValueError):
            IdealHandle(XY, [xy("x")]).colon(Polynomial.zero(XY))

    def test_intersect_with_unit(self):
        handle = IdealHandle(XY, [xy("x^2 - y")])
        inter = handle.intersect(IdealHandle(XY, [xy("1")]))
        assert contains(inter, xy("x^2 - y"))
        assert all(contains(handle, g) for g in inter.gens)

    def test_intersect_principal(self):
        inter = IdealHandle(XY, [xy("x")]).intersect(IdealHandle(XY, [xy("y")]))
        assert contains(inter, xy("x*y"))
        target = IdealHandle(XY, [xy("x*y")])
        assert all(contains(target, g) for g in inter.gens)

    def test_intersect_idempotent(self):
        u_only = ("u",)
        handle = IdealHandle(u_only, [parse_poly("u", u_only)])
        inter = handle.intersect(IdealHandle(u_only, [parse_poly("u", u_only)]))
        assert contains(inter, parse_poly("u", u_only))
        assert all(contains(handle, g) for g in inter.gens)


# ---------------------------------------------------------------------------
# the heap-ordered integer reduction against the max-scan Fraction loop
# ---------------------------------------------------------------------------


def _grevlex_ascending(e):
    return (sum(e), tuple(-x for x in reversed(e)))


# the library's two orders: each descending key, and an ascending key of the
# same order written out apart from the engine
_ORDERS = {
    "grevlex": (GREVLEX, _grevlex_ascending),
    "elimination": (_elimination_descending_key,
                    lambda e: (e[0], _grevlex_ascending(e[1:]))),
}


def _max_scan_reduce_full(p, basis, leads, ascending, want_quotients=False):
    """Reference reduction: rescan all pending terms for the greatest each step."""
    work = dict(p.items())
    remainder = {}
    quotients = [dict() for _ in basis] if want_quotients else None
    while work:
        exps = max(work, key=ascending)
        coeff = work.pop(exps)
        for idx, (lexp, lcoeff) in enumerate(leads):
            if all(a <= b for a, b in zip(lexp, exps)):
                factor = coeff / lcoeff
                shift = tuple(a - b for a, b in zip(exps, lexp))
                if want_quotients:
                    quotients[idx][shift] = quotients[idx].get(shift, Fraction(0)) + factor
                for e2, c2 in basis[idx].items():
                    if e2 == lexp:
                        continue
                    e = tuple(a + b for a, b in zip(e2, shift))
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


_XYW = ("x", "y", "w")


@st.composite
def _random_poly(draw, max_terms=5, max_exp=3):
    terms = draw(st.dictionaries(
        st.tuples(*[st.integers(0, max_exp)] * len(_XYW)),
        st.fractions(min_value=-6, max_value=6, max_denominator=5),
        min_size=1, max_size=max_terms))
    return Polynomial(terms, _XYW)


class TestHeapReductionOracle:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(p=_random_poly(max_terms=8, max_exp=4),
           basis=st.lists(_random_poly(), min_size=1, max_size=4),
           order=st.sampled_from(sorted(_ORDERS)))
    def test_remainder_and_quotients_match(self, p, basis, order):
        basis = [g for g in basis if not g.is_zero()]
        assume(basis)
        key, ascending = _ORDERS[order]
        leads = [_lead(g, key) for g in basis]
        want_rem, want_quot = _max_scan_reduce_full(p, basis, leads, ascending,
                                                    want_quotients=True)
        rem, scale, quot = _reduce_full(dict(p._terms), p._den,
                                        [_Divisor.of(g, key) for g in basis],
                                        key, want_quotients=True)
        assert Polynomial._from_clean(rem, scale, _XYW) == want_rem
        # the divisors are the monic g / lc, so their quotients are lc times larger
        for q, (_, lc), want in zip(quot, leads, want_quot):
            assert Polynomial._from_clean(q, scale, _XYW).scale(Fraction(1) / lc) == want
        rem_only, scale, none = _reduce_full(
            dict(p._terms), p._den, [_Divisor.of(g, key) for g in basis], key)
        assert none is None
        assert Polynomial._from_clean(rem_only, scale, _XYW) == want_rem


_RELATIONS = [[], ["w^2 - x^3"], ["x*y - w"]]


@st.composite
def _tracked_ideal(draw):
    """Generators, relations and kind: "unit" holds a and 1 - a*b; "proper"
    has no constant term anywhere, so it lies in (x, y, w); "any" is as drawn."""
    gens = draw(st.lists(_random_poly(max_terms=3, max_exp=2), min_size=1, max_size=3))
    relations = [parse_poly(r, _XYW) for r in draw(st.sampled_from(_RELATIONS))]
    kind = draw(st.sampled_from(["any", "unit", "proper"]))
    if kind == "unit":
        b = draw(_random_poly(max_terms=2, max_exp=1))
        gens.append(Polynomial.one(_XYW) - gens[0] * b)
    elif kind == "proper":
        gens = [g - g.constant_coeff() for g in gens]
    return gens, relations, kind


class TestSparseCofactors:
    """Tracked Buchberger keeps sparse integer cofactors; the dense oracle
    updates whole lists of `Polynomial`s.  Same pairs, same reductions, so
    the same basis and the same cofactor lists."""

    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(ideal=_tracked_ideal(), order=st.sampled_from(sorted(_ORDERS)))
    def test_same_basis_and_cofactors_as_dense_oracle(self, ideal, order):
        gens, relations, kind = ideal
        key = _ORDERS[order][0]
        gb = buchberger(gens + relations, _XYW, key, track_cofactors=True)
        want = dense_cofactor_buchberger(gens + relations, _XYW, key)
        assert gb.basis == want.basis
        assert gb.cofactors == want.cofactors
        unit = gb.basis == [Polynomial.one(_XYW)]
        if kind == "unit":
            assert unit
        elif kind == "proper":
            assert not unit
