"""Ring model: semigroup membership, presentation, causality, fractions."""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabring.poly import Polynomial, parse_poly
from stabring.ring import (MembershipError, PolyFraction, RingModel, RingError,
                           ZERO_CONSTANT_TERM, ZERO_IDEAL, causal, in_Z, membership,
                           presentation, residue, unit_multiplier, z_nonsingular)
from stabring.matrixring import Mat
from oracles import FieldFraction, normal_form_lift, strictly_causal

Z = ("z",)


def zp(text):
    return parse_poly(text, Z)


def brute_force_semigroup(gens, bound):
    """Every nonnegative integer combination of the generators up to bound."""
    reachable = {0}
    frontier = [0]
    while frontier:
        e = frontier.pop()
        for g in gens:
            if e + g <= bound and e + g not in reachable:
                reachable.add(e + g)
                frontier.append(e + g)
    return reachable


class TestMembership:
    def test_examples(self, ring23):
        assert membership(zp("1 + z^3"), ring23)
        assert not membership(zp("z"), ring23)
        assert not membership(zp("1 - 3*z + z^2"), ring23)

    def test_against_brute_force(self, ring23):
        oracle = brute_force_semigroup((2, 3), 50)
        for e in range(51):
            assert ring23.semigroup_contains(e) == (e in oracle)

    def test_other_semigroups(self):
        for gens in [(2, 5), (3, 5), (3, 4, 5), (4, 7, 9)]:
            ring = RingModel.monomial_subalgebra("z", gens)
            oracle = brute_force_semigroup(gens, 50)
            for e in range(51):
                assert ring.semigroup_contains(e) == (e in oracle), (gens, e)

    def test_full_ring_everything(self):
        ring = RingModel.polynomial(("x", "y"))
        assert membership(parse_poly("x*y - 1/2", ("x", "y")), ring)

    def test_foreign_variable_rejected(self, ring23):
        with pytest.raises(RingError):
            membership(parse_poly("x", ("x",)), ring23)

    def test_bad_generators(self):
        with pytest.raises(RingError):
            RingModel.monomial_subalgebra("z", (2, 4))
        with pytest.raises(RingError):
            RingModel.monomial_subalgebra("z", (3, 2))
        with pytest.raises(RingError):
            RingModel.monomial_subalgebra("z", (1, 2))


def _random_ring_element(rng, ring, degree=9, terms=4):
    exps = [e for e in range(degree + 1) if ring.semigroup_contains(e)]
    p = Polynomial.zero(ring.variables)
    for _ in range(rng.randint(0, terms)):
        e = rng.choice(exps)
        p = p + Polynomial({(e,): Fraction(rng.randint(-5, 5))}, ring.variables)
    return p


class TestPresentation:
    def test_z2_z3_relation(self, ring23):
        pres = presentation(ring23)
        uv = pres.variables
        assert len(pres.relations) == 1
        rel = pres.relations[0]
        expected = parse_poly(f"{uv[0]}^3 - {uv[1]}^2", uv)
        assert rel == expected or rel == -expected
        # substitution oracle: the relation vanishes under u -> z^2, v -> z^3
        assert pres.push(rel).is_zero()
        # v^2 - u^3 is irreducible: a factorization would split it as
        # (v - s)(v + s) with s^2 = u^3, impossible for odd exponent
        assert rel.total_degree() == 3

    def test_z2_z5_relation(self):
        ring = RingModel.monomial_subalgebra("z", (2, 5))
        pres = presentation(ring)
        uv = pres.variables
        assert pres.relations == [parse_poly(f"{uv[0]}^5 - {uv[1]}^2", uv)] or \
            pres.relations == [-parse_poly(f"{uv[0]}^5 - {uv[1]}^2", uv)]
        assert pres.push(pres.relations[0]).is_zero()

    def test_full_ring_trivial(self):
        ring = RingModel.polynomial(("x", "y"))
        pres = presentation(ring)
        assert pres.relations == []
        p = parse_poly("x^2*y - 1", ("x", "y"))
        assert pres.lift(p) == p
        assert pres.push(p) == p

    def test_lift_examples(self, ring23):
        pres = presentation(ring23)
        lifted = pres.lift(zp("z^7"))
        u, v = pres.variables
        assert lifted == parse_poly(f"{u}^2*{v}", (u, v))
        assert pres.push(lifted) == zp("z^7")
        assert pres.lift(zp("1")) == Polynomial.one(pres.variables)
        assert pres.push(pres.relations[0]).is_zero()

    def test_lift_rejects_non_members(self, ring23):
        pres = presentation(ring23)
        with pytest.raises(MembershipError):
            pres.lift(zp("z"))

    def test_push_lift_identity_random(self, ring23):
        pres = presentation(ring23)
        rng = random.Random(17)
        for _ in range(100):
            a = _random_ring_element(rng, ring23)
            assert pres.push(pres.lift(a)) == a


def _push_by_substitution(pres, ring, q):
    """The earlier `Presentation.push`: each u_i replaced by the polynomial
    z^(e_i), with one power and one product per variable of each term."""
    result = Polynomial.zero(ring.variables)
    for exps, coeff in q.items():
        term = Polynomial.const(coeff, ring.variables)
        for u, e in zip(q.variables, exps):
            if e:
                term = term * Polynomial({(pres.power_map[u],): 1}, ring.variables) ** e
        result = result + term
    return result


@st.composite
def _presentation_poly(draw):
    ring = RingModel.monomial_subalgebra(
        "z", draw(st.sampled_from([(2, 3), (3, 4, 5), (4, 5, 6, 7)])))
    k = len(ring.generators)
    terms = draw(st.dictionaries(
        st.tuples(*[st.integers(0, 4)] * k),
        st.one_of(st.integers(-9, 9), st.fractions(-3, 3, max_denominator=7)),
        max_size=6))
    return ring, Polynomial(terms, presentation(ring).variables)


class TestPushExponentMap:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(_presentation_poly())
    def test_matches_substitution(self, case):
        ring, q = case
        pres = presentation(ring)
        pushed = pres.push(q)
        assert pushed.variables == ring.variables
        assert pushed == _push_by_substitution(pres, ring, q)

    def test_cancelling_terms_drop(self, ring23):
        pres = presentation(ring23)
        u, v = pres.variables
        # u^3 and v^2 both map to z^6
        assert pres.push(parse_poly(f"{u}^3 - {v}^2 + 2", (u, v))) == zp("2")


LIFT_SEMIGROUPS = [(2, 3), (3, 4, 5), (4, 5, 6, 7), (2, 5), (1,)]


def _elements(ring):
    """Elements of the ring with up to six terms of degree at most 30."""
    exponent = st.integers(0, 30).filter(ring.semigroup_contains)
    return st.dictionaries(
        st.tuples(exponent),
        st.one_of(st.integers(-9, 9), st.fractions(-3, 3, max_denominator=7)),
        max_size=6).map(lambda terms: Polynomial(terms, ring.variables))


# a fresh ring per example, so that its lift table starts empty
_lift_rings = st.builds(lambda gens, z_mode: RingModel.monomial_subalgebra("z", gens, z_mode),
                        st.sampled_from(LIFT_SEMIGROUPS),
                        st.sampled_from([ZERO_CONSTANT_TERM, ZERO_IDEAL]))


class TestLiftTable:
    """`Presentation.lift` looks each exponent up in a table; the oracle
    takes the normal form of the whole element."""

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(_lift_rings, st.data())
    def test_matches_normal_form(self, ring, data):
        pres = presentation(ring)
        a = data.draw(_elements(ring))
        assert pres.lift(a) == normal_form_lift(pres, a)
        # a second element over the same ring reads the table filled above
        b = data.draw(_elements(ring))
        assert pres.lift(a + b) == normal_form_lift(pres, a + b)

    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(_lift_rings, st.data())
    def test_gap_raises_in_both(self, ring, data):
        a = data.draw(_elements(ring))
        if not ring.gaps():
            return  # Q[z] has no gap
        gap = data.draw(st.sampled_from(ring.gaps()))
        bad = a + Polynomial({(gap,): data.draw(st.integers(1, 5))}, ring.variables)
        pres = presentation(ring)
        with pytest.raises(MembershipError):
            normal_form_lift(pres, bad)
        with pytest.raises(MembershipError):
            pres.lift(bad)
        # the gap is remembered: a second lift raises from the table
        with pytest.raises(MembershipError):
            pres.lift(bad)


class TestCausalityIdeal:
    def test_in_z(self, ring23):
        assert in_Z(zp("z^2 + z^3"), ring23)
        assert not in_Z(zp("1 + z^2"), ring23)
        ring0 = RingModel.polynomial(("x",), ZERO_IDEAL)
        assert in_Z(parse_poly("0", ("x",)), ring0)
        assert not in_Z(parse_poly("x", ("x",)), ring0)

    def test_z_is_prime(self, ring23):
        rng = random.Random(23)
        assert not in_Z(zp("1"), ring23)
        for _ in range(50):
            a = _random_ring_element(rng, ring23)
            b = _random_ring_element(rng, ring23)
            if in_Z(a * b, ring23):
                assert in_Z(a, ring23) or in_Z(b, ring23)

    def test_unit_sum_facts(self, ring23):
        # the three closure facts used throughout the synthesis arguments
        rng = random.Random(29)
        for _ in range(60):
            a = _random_ring_element(rng, ring23)
            b = _random_ring_element(rng, ring23)
            if not in_Z(a + b, ring23):
                assert not in_Z(a, ring23) or not in_Z(b, ring23)
            if not in_Z(a, ring23) and in_Z(b, ring23):
                assert not in_Z(a + b, ring23)
            if not in_Z(a * b, ring23):
                assert not in_Z(a, ring23) and not in_Z(b, ring23)


_RESIDUE_RINGS = [RingModel.monomial_subalgebra("z", (2, 3)),
                  RingModel.polynomial(("x", "y"), ZERO_CONSTANT_TERM),
                  RingModel.polynomial(("x", "y"), ZERO_IDEAL)]


@st.composite
def _square_matrices(draw):
    """A ring and a k x k matrix over it, k <= 3.

    Some entries have a zero constant term, and the last row may be a
    multiple of the first, so that the determinant vanishes in either mode.
    """
    ring = draw(st.sampled_from(_RESIDUE_RINGS))
    if ring.kind == "monomial":
        monomials = [(0,), (2,), (3,), (5,)]
    else:
        monomials = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0)]

    def entry():
        terms = draw(st.dictionaries(st.sampled_from(monomials[1:]), st.integers(-2, 2),
                                     max_size=2))
        terms[monomials[0]] = draw(st.sampled_from([1, -1, 2, 0]))
        return Polynomial(terms, ring.variables)

    k = draw(st.integers(1, 3))
    rows = [[entry() for _ in range(k)] for _ in range(k)]
    if k > 1 and draw(st.booleans()):
        c = entry()
        rows[-1] = [c * a for a in rows[0]]
    return ring, Mat.from_rows(rows)


class TestResidue:
    def test_images(self, ring23):
        assert residue(zp("2 - z^2 + z^3"), ring23) == zp("2")
        assert residue(zp("z^2"), ring23).is_zero()
        ring0 = RingModel.monomial_subalgebra("z", (2, 3), ZERO_IDEAL)
        assert residue(zp("2 - z^2"), ring0) == zp("2 - z^2")

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(_square_matrices())
    def test_z_nonsingular_matches_the_polynomial_determinant(self, case):
        ring, mat = case
        assert z_nonsingular(mat, ring) == (not in_Z(mat.det(), ring))


@st.composite
def _reduction_cases(draw):
    """(n, d, f), nonzero, over Q[x,y] or Q[x,y,w] with total degree at most
    2 before f is shifted by 4 (a nonzero constant term) or multiplied by x
    (none)."""
    variables = draw(st.sampled_from([("x", "y"), ("x", "y", "w")]))
    exps = [e for e in product(range(3), repeat=len(variables)) if sum(e) <= 2]

    def poly():
        terms = {e: Fraction(draw(st.integers(-3, 3).filter(bool)))
                 for e in draw(st.lists(st.sampled_from(exps), min_size=1, max_size=3,
                                        unique=True))}
        return Polynomial(terms, variables)

    n, d, f = poly(), poly(), poly()
    if draw(st.booleans()):
        return n, d, f + Polynomial.const(4, variables)
    return n, d, f * Polynomial.var("x", variables)


class TestCausal:
    def test_plant_entry_causal(self, ring23):
        x = PolyFraction(zp("1 - z^3"), zp("1 - z^2"))
        assert causal(x, ring23)

    def test_strictly_causal(self, ring23):
        x = PolyFraction(zp("z^2"), zp("1 - z^2"))
        assert strictly_causal(x, ring23)
        assert causal(x, ring23)

    def test_unit_delay_not_causal(self, ring23):
        assert not causal(PolyFraction(zp("z"), zp("1 - z^2")), ring23)
        assert not causal(PolyFraction(zp("1"), zp("z^2")), ring23)

    def test_zero_ideal_mode(self):
        ring = RingModel.monomial_subalgebra("z", (2, 3), ZERO_IDEAL)
        assert causal(PolyFraction(zp("1"), zp("z^2")), ring)
        assert strictly_causal(PolyFraction(zp("0"), zp("1")), ring)
        assert not strictly_causal(PolyFraction(zp("1"), zp("1")), ring)

    def test_full_univariate_ring(self):
        ring = RingModel.polynomial(("z",), "zero_constant_term")
        assert causal(PolyFraction(zp("z"), zp("1 - z")), ring)
        assert not causal(PolyFraction(zp("1"), zp("z")), ring)

    def test_multivariate_common_factor(self):
        ring = RingModel.polynomial(("x", "y"), ZERO_CONSTANT_TERM)
        xy = lambda text: parse_poly(text, ring.variables)
        # x/(x + x*y) is x/(x*(1 + y)) = 1/(1 + y)
        assert causal(PolyFraction(xy("x"), xy("x + x*y")), ring)
        # (x*y + x)/(y + x*y) = x*(1 + y)/(y*(1 + x)) is reduced, with den in Z
        assert not causal(PolyFraction(xy("x*y + x"), xy("y + x*y")), ring)

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(_reduction_cases())
    def test_common_factor_keeps_causality(self, case):
        n, d, f = case
        ring = RingModel.polynomial(n.variables, ZERO_CONSTANT_TERM)
        assert causal(PolyFraction(n * f, d * f), ring) == causal(PolyFraction(n, d), ring)

    def test_unit_multiplier_witness(self, ring23):
        # the search must actually produce a multiplier that works
        p, q = zp("1 + z + z^2"), zp("1 + z")
        s = unit_multiplier([p, q], ring23)
        assert s is not None and s.constant_coeff() == 1
        assert membership(p * s, ring23) and membership(q * s, ring23)

    def test_z_nonsingular(self, ring23):
        assert not z_nonsingular(Mat.from_rows([[zp("z^2")]]), ring23)
        assert z_nonsingular(Mat.from_rows([[zp("1 - z^2")]]), ring23)


class TestFraction:
    def test_reduction(self):
        x = PolyFraction(zp("1 - z^3"), zp("1 - z^2"))
        assert x.num == zp("1 + z + z^2").scale(Fraction(1, 1))
        assert x.den.univar_coeffs()[-1] == 1  # monic denominator

    def test_arithmetic(self):
        a = FieldFraction(zp("1"), zp("1 - z"))
        b = FieldFraction(zp("1"), zp("1 + z"))
        assert a * b == PolyFraction(zp("1"), zp("1 - z^2"))
        assert a + b == PolyFraction(zp("2"), zp("1 - z^2"))
        assert a - a == PolyFraction(zp("0"), zp("1"))

    def test_multivariate_unreduced(self):
        xy = ("x", "y")
        x = PolyFraction(parse_poly("x*y", xy), parse_poly("y^2", xy))
        assert x.num == parse_poly("x", xy) and x.den == parse_poly("y", xy)

    def test_multivariate_reduced_input_kept(self):
        xy = ("x", "y")
        num, den = parse_poly("4 + 2*x*y", xy), parse_poly("6*x - 3*y^2", xy)
        x = PolyFraction(num, den)
        assert x.num._terms == num._terms and x.num._den == num._den
        assert x.den._terms == den._terms and x.den._den == den._den

    def test_multivariate_as_polynomial(self):
        xy = lambda text: parse_poly(text, ("x", "y"))
        assert PolyFraction(xy("x*y"), xy("y")).as_polynomial() == xy("x")
        with pytest.raises(RingError):
            PolyFraction(xy("x"), xy("y")).as_polynomial()

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(_reduction_cases())
    def test_multivariate_reduction_matches_sympy(self, case):
        sympy = pytest.importorskip("sympy")
        n, d, f = case
        gens = sympy.symbols(n.variables)

        def to_sympy(p):
            return sum(sympy.Rational(c.numerator, c.denominator)
                       * sympy.prod([g ** e for g, e in zip(gens, exps)])
                       for exps, c in p.items())

        x = PolyFraction(n * f, d * f)
        num, den = sympy.fraction(sympy.cancel(to_sympy(n) / to_sympy(d)))
        # one rational factor c with x.num = c*num and x.den = c*den
        c = sympy.cancel(to_sympy(x.num) / num)
        assert c.is_Rational and c != 0
        assert sympy.expand(to_sympy(x.den) - c * den) == 0

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            PolyFraction(zp("1"), zp("0"))

