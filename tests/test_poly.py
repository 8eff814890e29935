"""Polynomial arithmetic, parsing, exact division, gcd, and formatting."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabring.poly import (NotDivisibleError, ParseError, Polynomial, PolyError,
                           UnknownVariableError, divide_exact,
                           format_canonical, gcd_univariate, parse_poly)

Z = ("z",)
XY = ("x", "y")


def zp(text):
    return parse_poly(text, Z)


def _eval_oracle(text, poly, var, points):
    """Cross-check a parse by evaluating text naively and the result exactly."""
    for value in points:
        expected = eval(text.replace("^", "**"), {var: Fraction(value)})
        assert poly.evaluate({var: Fraction(value)}) == expected


class TestParse:
    def test_product_expansion(self):
        p = zp("(1+2*z)*(1+z+z^2)")
        assert p == zp("1 + 3*z + 3*z^2 + 2*z^3")
        _eval_oracle("(1+2*z)*(1+z+z^2)", p, "z", [2, 3])

    def test_cancellation(self):
        assert zp("z^2 - z^2").is_zero()

    def test_rational_coefficients(self):
        assert zp("1/2*z + 1/2*z") == zp("z")

    def test_syntax_error_reports_position(self):
        with pytest.raises(ParseError) as err:
            zp("1 + * z")
        assert err.value.position == 4

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariableError):
            zp("1 + y")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            zp("1 + z)")

    def test_whitespace_insignificant(self):
        assert zp(" ( 1 + 2 * z ) ^ 2 ") == zp("(1+2*z)^2")

    def test_leading_minus(self):
        assert zp("-z + 1") == zp("1 - z")

    def test_zero_denominator_rational(self):
        with pytest.raises(ParseError):
            zp("1/0")


class TestArith:
    def test_add(self):
        assert zp("z^2") + zp("z^3") == zp("z^2 + z^3")

    def test_mul(self):
        assert zp("1-z") * zp("1+z") == zp("1 - z^2")

    def test_pow(self):
        assert zp("1+2*z") ** 2 == zp("1 + 4*z + 4*z^2")

    def test_neg_sub(self):
        assert -zp("z") == zp("-z")
        assert zp("1") - zp("z") == zp("1 - z")

    def test_negative_power_rejected(self):
        with pytest.raises(Exception):
            zp("z") ** -1

    def test_variable_union(self):
        p = parse_poly("x", ("x",))
        q = parse_poly("y", ("y",))
        s = p + q
        assert set(s.variables) == {"x", "y"}
        assert s == parse_poly("x + y", XY)


def _long_division(num, den):
    """Dense univariate long division oracle: returns (quotient, remainder)."""
    num = list(num)
    q = [Fraction(0)] * max(len(num) - len(den) + 1, 1)
    while len(num) >= len(den) and any(num):
        while num and num[-1] == 0:
            num.pop()
        if len(num) < len(den):
            break
        shift = len(num) - len(den)
        factor = num[-1] / den[-1]
        q[shift] += factor
        for i, c in enumerate(den):
            num[shift + i] -= factor * c
    return q, num


class TestDivideExact:
    def test_spec_division(self):
        quotient = divide_exact(zp("1-z^4"), zp("1-z^2"))
        assert quotient == zp("1 + z^2")
        q, r = _long_division(zp("1-z^4").univar_coeffs(), zp("1-z^2").univar_coeffs())
        assert all(v == 0 for v in r)
        assert quotient == Polynomial.from_univar_coeffs(q, "z")

    def test_not_divisible(self):
        with pytest.raises(NotDivisibleError):
            divide_exact(zp("1-z^3"), zp("1-z^2"))
        # the long-division oracle agrees that a remainder is left
        _, r = _long_division(zp("1-z^3").univar_coeffs(), zp("1-z^2").univar_coeffs())
        assert any(v != 0 for v in r)

    def test_identity_divisor(self):
        p = zp("3 - z + 7*z^5")
        assert divide_exact(p, zp("1")) == p

    def test_multivariate(self):
        p = parse_poly("(x+y)*(x-y)", XY)
        assert divide_exact(p, parse_poly("x+y", XY)) == parse_poly("x-y", XY)

    def test_round_trip_random(self):
        rng = random.Random(7)
        for _ in range(40):
            h = _random_poly(rng, Z, degree=4)
            q = _random_poly(rng, Z, degree=3)
            if q.is_zero():
                continue
            assert divide_exact(h * q, q) == h


class TestGcd:
    def test_common_factor(self):
        g = gcd_univariate(zp("1-z^2"), zp("1-z^3"))
        assert g == zp("z - 1")

    def test_coprime(self):
        assert gcd_univariate(zp("1-z^2"), zp("1-4*z^2")) == zp("1")

    def test_gcd_with_zero(self):
        assert gcd_univariate(zp("2-2*z^2"), zp("0")) == zp("z^2 - 1")

    def test_multivariate_rejected(self):
        with pytest.raises(Exception):
            gcd_univariate(parse_poly("x", XY), parse_poly("y", XY))

    def test_divides_both_and_monic(self):
        rng = random.Random(11)
        for _ in range(25):
            p = _random_poly(rng, Z, degree=5)
            q = _random_poly(rng, Z, degree=4)
            if p.is_zero() and q.is_zero():
                continue
            g = gcd_univariate(p, q)
            assert g.univar_coeffs()[-1] == 1
            for target in (p, q):
                if not target.is_zero():
                    divide_exact(target, g)


def _gcd_fraction_euclid(p, q):
    """The earlier `gcd_univariate`: Euclid over `Fraction`s, monic at the end."""
    used = set(p.used_variables()) | set(q.used_variables())
    var = next(iter(used)) if used else (p.variables[0] if p.variables else
                                         (q.variables[0] if q.variables else "x"))

    def strip(c):
        while c and c[-1] == 0:
            c.pop()
        return c

    def rem(u, v):
        u = list(u)
        while len(u) >= len(v) and u:
            factor = u[-1] / v[-1]
            shift = len(u) - len(v)
            for i, cv in enumerate(v):
                u[shift + i] -= factor * cv
            strip(u)
        return u

    a, b = strip(p.univar_coeffs()), strip(q.univar_coeffs())
    while b:
        a, b = b, rem(a, b)
    monic = [c / a[-1] for c in a]
    ambient = p.variables if var in p.variables else q.variables
    if var not in ambient:
        ambient = (var,)
    return Polynomial.from_univar_coeffs(monic, var, ambient)


_coefficient = st.one_of(
    st.integers(-9, 9),
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
    st.integers(-10 ** 30, 10 ** 30).map(lambda n: Fraction(n, 10 ** 12 + 39)))


@st.composite
def _univariate(draw, ambient, var):
    coeffs = draw(st.lists(_coefficient, max_size=7))
    return Polynomial.from_univar_coeffs(coeffs, var, ambient)


class TestIntegerGcd:
    """The primitive remainder sequence against the `Fraction` Euclid."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.sampled_from([(Z, "z"), (("q",), "q"), (("x", "q"), "q"), (XY, "x")])
           .flatmap(lambda av: st.tuples(_univariate(*av), _univariate(*av),
                                         _univariate(*av))))
    def test_matches_fraction_euclid(self, polys):
        common, p, q = polys
        # a shared factor makes most pairs non-coprime
        p, q = common * p, common * q
        if p.is_zero() and q.is_zero():
            return
        g, expected = gcd_univariate(p, q), _gcd_fraction_euclid(p, q)
        assert g == expected and g.variables == expected.variables
        assert g == gcd_univariate(q, p)

    @pytest.mark.parametrize("p,q,expected", [
        ("0", "3/4*z^2 - 3/4", "z^2 - 1"),
        ("7", "1 + z", "1"),
        ("-2/3", "0", "1"),
        ("1 + z", "1 - z", "1"),
        ("(1+z)^3*(2-z)", "(1+z)^2*(5+z)", "1 + 2*z + z^2"),
        ("123456789012345678901234567890*(1 + z)*(1 - 3*z)",
         "(1 - 3*z)*(98765432109876543210/7 + z^4)", "-1/3 + z"),
    ])
    def test_cases(self, p, q, expected):
        g = gcd_univariate(zp(p), zp(q))
        assert g == zp(expected)
        assert g == _gcd_fraction_euclid(zp(p), zp(q))

    def test_ambient_of_the_used_variable(self):
        ambient = ("x", "q")
        p = parse_poly("(1 + q)*(2 - q)", ambient)
        q = parse_poly("(1 + q)*q", ambient)
        g = gcd_univariate(p, q)
        assert g.variables == ambient and g == parse_poly("q + 1", ambient)
        # a constant over another ambient takes the used variable's
        g = gcd_univariate(Polynomial.const(3, ("s",)), q)
        assert g.variables == ambient and g == Polynomial.one(ambient)


class TestFormat:
    def test_ascending_degree(self):
        assert format_canonical(zp("2*z^3 + 1 + 3*z + 3*z^2")) == "1 + 3*z + 3*z^2 + 2*z^3"

    def test_zero(self):
        assert format_canonical(Polynomial.zero(Z)) == "0"

    def test_sign(self):
        assert format_canonical(zp("-z + 1")) == "1 - z"

    def test_fraction_coeff(self):
        assert format_canonical(zp("1/2 - 3/4*z")) == "1/2 - 3/4*z"

    def test_multivariate_tie_break(self):
        assert format_canonical(parse_poly("y + x", XY)) == "x + y"


def _random_poly(rng, variables, degree=4, terms=4):
    p = Polynomial.zero(variables)
    for _ in range(rng.randint(0, terms)):
        exps = tuple(rng.randint(0, degree) for _ in variables)
        coeff = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        p = p + Polynomial({exps: Fraction(1)}, variables).scale(coeff)
    return p


class TestProperties:
    def test_format_parse_round_trip(self):
        rng = random.Random(3)
        for _ in range(60):
            variables = Z if rng.random() < 0.5 else XY
            p = _random_poly(rng, variables)
            assert parse_poly(format_canonical(p), variables) == p

    def test_ring_axioms(self):
        rng = random.Random(5)
        for _ in range(30):
            a = _random_poly(rng, XY, degree=3)
            b = _random_poly(rng, XY, degree=3)
            c = _random_poly(rng, XY, degree=3)
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c


# ---------------------------------------------------------------------------
# the previous Fraction kernel, kept as the reference for the integer-form one
# ---------------------------------------------------------------------------


def _ref_add(p, q):
    a, b = p._aligned(q)
    terms = dict(a._terms)
    for exps, coeff in b._terms.items():
        s = terms.get(exps, Fraction(0)) + coeff
        if s:
            terms[exps] = s
        else:
            terms.pop(exps, None)
    return Polynomial(terms, a.variables)


def _ref_mul(p, q):
    a, b = p._aligned(q)
    if len(a._terms) < len(b._terms):
        a, b = b, a
    terms = {}
    for e1, c1 in a._terms.items():
        for e2, c2 in b._terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            s = terms.get(e, Fraction(0)) + c1 * c2
            if s:
                terms[e] = s
            else:
                del terms[e]
    return Polynomial(terms, a.variables)


def _ref_grevlex_key(exps):
    return (sum(exps), tuple(-e for e in reversed(exps)))


def _ref_divide_exact(p, q):
    """Max-scan `Fraction` division: rescans every pending term on each step."""
    if q.is_zero():
        raise PolyError("division by the zero polynomial")
    if p.is_zero():
        return Polynomial.zero(p.variables)
    a, b = p._aligned(q)
    if b.is_constant():
        return a.scale(Fraction(1) / b.constant_coeff())
    lead_q = max(b._terms, key=_ref_grevlex_key)
    cq = b._terms[lead_q]
    work = dict(a._terms)
    quot = {}
    while work:
        lead = max(work, key=_ref_grevlex_key)
        diff = tuple(x - y for x, y in zip(lead, lead_q))
        if any(e < 0 for e in diff):
            raise NotDivisibleError("remainder left")
        c = work[lead] / cq
        quot[diff] = quot.get(diff, Fraction(0)) + c
        for e2, c2 in b._terms.items():
            e = tuple(x + y for x, y in zip(diff, e2))
            s = work.get(e, Fraction(0)) - c * c2
            if s:
                work[e] = s
            else:
                work.pop(e, None)
    return Polynomial(quot, a.variables)


_NAMES = ("x", "y", "z")
# small and large denominators; 2^61 - 1 and 10^12 + 39 are primes
_DENOMINATORS = (1, 1, 2, 3, 7, 12, 2 ** 61 - 1, 10 ** 12 + 39)


@st.composite
def _coefficients(draw):
    num = draw(st.one_of(st.integers(-9, 9), st.integers(-10 ** 20, 10 ** 20)))
    return Fraction(num, draw(st.sampled_from(_DENOMINATORS)))


@st.composite
def _polys(draw, variables, max_terms=5, max_exp=3):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        exps = tuple(draw(st.integers(0, max_exp)) for _ in variables)
        terms[exps] = draw(_coefficients())
    return Polynomial(terms, variables)


@st.composite
def _poly_pairs(draw):
    """Two polynomials over 1-3 variables, sometimes over different variable
    tuples, and sometimes with terms of the second cancelling the first's."""
    nvars = draw(st.integers(1, 3))
    variables = _NAMES[:nvars]
    p = draw(_polys(variables))
    other = variables
    if nvars > 1 and draw(st.booleans()):
        other = tuple(reversed(variables))
    q = draw(_polys(other))
    if draw(st.booleans()):
        # q gets the negation of some of p's terms, so p + q cancels there
        negated = {e: -c for e, c in p.items() if draw(st.booleans())}
        q = _ref_add(q, Polynomial(negated, variables))
    return p, q


def _same(result, reference):
    assert result._terms == reference._terms
    assert result.variables == reference.variables


def _assert_clean(p, nvars=None):
    """The invariants `Polynomial.__init__` establishes."""
    assert isinstance(p.variables, tuple)
    assert len(set(p.variables)) == len(p.variables)
    if nvars is not None:
        assert len(p.variables) == nvars
    for exps, coeff in p._terms.items():
        assert type(exps) is tuple and len(exps) == len(p.variables)
        assert all(type(e) is int and e >= 0 for e in exps)
        assert type(coeff) is Fraction and coeff != 0


class TestKernelOracle:
    """The integer-form kernel against the previous `Fraction` loops."""

    @settings(max_examples=250, derandomize=True, deadline=None)
    @given(_poly_pairs())
    def test_add_sub_mul(self, pair):
        p, q = pair
        _same(p + q, _ref_add(p, q))
        _same(p - q, _ref_add(p, -q))
        _same(p * q, _ref_mul(p, q))
        _same(q * p, _ref_mul(q, p))
        _same(p + (-p), Polynomial.zero(p.variables))

    @settings(max_examples=250, derandomize=True, deadline=None)
    @given(_poly_pairs(), st.booleans())
    def test_divide_exact(self, pair, exact):
        h, q = pair
        if q.is_zero():
            return
        p = _ref_mul(h, q) if exact else h
        try:
            expected = _ref_divide_exact(p, q)
        except NotDivisibleError:
            assert not exact
            with pytest.raises(NotDivisibleError):
                divide_exact(p, q)
            return
        _same(divide_exact(p, q), expected)
        if exact:
            assert divide_exact(p, q) == h


class TestInternalInvariants:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(_poly_pairs(), _coefficients(), st.integers(-5, 5))
    def test_results_satisfy_init_invariants(self, pair, c, k):
        p, q = pair
        for r in (p + q, p - q, -p, p * q, p.scale(c), p * k, k * p, p + k, k - p,
                  p ** 2):
            _assert_clean(r)
        merged = Polynomial.merge_variables(p, q)
        _assert_clean(p.with_variables(merged), len(merged))
        _assert_clean(p.with_variables(p.variables + ("w",)), len(p.variables) + 1)
        if not q.is_zero():
            _assert_clean(divide_exact(p * q, q))

    def test_with_variables_duplicate_names(self):
        p = parse_poly("x", ("x",))
        with pytest.raises(PolyError):
            p.with_variables(("x", "x"))

    def test_with_variables_drops_used(self):
        p = parse_poly("x + y", XY)
        with pytest.raises(PolyError):
            p.with_variables(("x",))

    def test_divide_exact_negative_lead(self):
        q = parse_poly("1/3 - 2/5*x*y", XY)
        h = parse_poly("7 + x - 3/4*y^2", XY)
        assert divide_exact(h * q, q) == h
        with pytest.raises(NotDivisibleError):
            divide_exact(h * q + parse_poly("x^3", XY), q)


class TestParseNesting:
    def test_nesting_bound(self):
        assert zp("(" * 100 + "z" + ")" * 100) == zp("z")
        with pytest.raises(ParseError):
            zp("(" * 101 + "z" + ")" * 101)

    def test_deep_nesting_is_a_parse_error(self):
        with pytest.raises(ParseError):
            zp("(" * 5000 + "z" + ")" * 5000)
