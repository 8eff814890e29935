"""Polynomial arithmetic, parsing, exact division, gcd, and formatting."""

import gc
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabring.poly import (DigitLimitError, NotDivisibleError, ParseError, Polynomial,
                           PolyError, UnknownVariableError, _pseudo_divide,
                           common_denominator, divide_exact, format_canonical,
                           gcd_univariate, lcm_univariate, parse_fraction,
                           parse_poly)

from oracles import evaluate, reference_parse_fraction

Z = ("z",)
XY = ("x", "y")
ZW = ("z", "w")


def zp(text):
    return parse_poly(text, Z)


def _eval_oracle(text, poly, var, points):
    """Cross-check a parse by evaluating text naively and the result exactly."""
    for value in points:
        expected = eval(text.replace("^", "**"), {var: Fraction(value)})
        assert evaluate(poly, {var: Fraction(value)}) == expected


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
        # a sign binds looser than '^'
        assert zp("-z^2") == -zp("z^2")
        assert zp("-2^2") == zp("-4")

    def test_zero_denominator_rational(self):
        with pytest.raises(ParseError):
            zp("1/0")

    def test_minus_after_an_operator(self):
        assert zp("1 + -3*z^2") == zp("1 - 3*z^2")
        assert zp("1 - -z") == zp("1 + z")
        assert zp("2*-z") == zp("-2*z")
        assert zp("(-z)^2") == zp("z^2")

    def test_superscript_digit_is_not_an_integer(self):
        # '²' is a digit to str.isdigit, but int() does not read it
        with pytest.raises(ParseError, match=r"^expected an integer \(at position 2\)$"):
            zp("z^²")
        with pytest.raises(ParseError, match=r"^expected a number, variable, or '\(' "
                                             r"\(at position 0\)$"):
            zp("²*z")

    def test_decimal_digits_of_any_script(self):
        # ARABIC-INDIC DIGIT THREE is a decimal digit that int() reads
        assert zp("\u0663*z") == zp("3*z")
        assert zp("z^\u0663") == zp("z^3")

    def test_repeated_minus(self):
        assert zp("--z") == zp("z")
        assert zp("1 - - -z") == zp("1 - z")
        # a long run of signs is read by a loop, not by recursion
        assert zp("-" * 100001 + "z") == zp("-z")


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


class TestCommonDenominator:
    def test_univariate_running_lcm(self):
        # lcm(2 - 2*z^2, 1 - z) keeps the first argument times (1 - z)/(z - 1)
        pairs = [(zp("1"), zp("2 - 2*z^2")), (zp("z"), zp("1 - z")), (zp("3"), zp("1 + z"))]
        nums, c = common_denominator(pairs, Z)
        assert c == zp("-2 + 2*z^2")
        assert nums == [zp("-1"), zp("-2*z - 2*z^2"), zp("-6 + 6*z")]

    def test_multivariate_product_of_distinct(self):
        xy = lambda text: parse_poly(text, XY)
        pairs = [(xy("x"), xy("1 + y")), (xy("y"), xy("1 + x")), (xy("1"), xy("1 + y"))]
        nums, c = common_denominator(pairs, XY)
        assert c == xy("(1 + y)*(1 + x)")
        assert nums == [xy("x*(1 + x)"), xy("y*(1 + y)"), xy("1 + x")]

    def test_fractions_unchanged(self):
        rng = random.Random(13)
        for variables in (Z, XY):
            pairs = []
            for _ in range(4):
                den = _random_poly(rng, variables, degree=2)
                if not den.is_zero():
                    pairs.append((_random_poly(rng, variables, degree=2), den))
            nums, c = common_denominator(pairs, variables)
            for (num, den), scaled in zip(pairs, nums):
                assert scaled * den == num * c


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

    def test_matches_fraction_terms(self):
        # the text built from the integer numerators over one denominator is
        # the text of the reduced Fraction coefficients
        rng = random.Random(17)
        for _ in range(80):
            variables = Z if rng.random() < 0.5 else XY
            p = _random_poly(rng, variables)
            assert format_canonical(p) == _ref_format(p)

    def test_coefficient_past_the_digit_limit(self):
        p = Polynomial.const(Fraction(1, 10 ** 4300), Z)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            with pytest.raises(DigitLimitError):
                format_canonical(p)
        finally:
            sys.set_int_max_str_digits(limit)


def _ref_format(p):
    """`format_canonical` from the reduced Fraction coefficients of `items()`."""
    pieces = []
    for exps, coeff in sorted(p.items(), key=lambda t: (sum(t[0]), tuple(-e for e in t[0]))):
        mono = "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(p.variables, exps) if e)
        mag = abs(coeff)
        text = str(mag)
        body = text if not mono else mono if mag == 1 else f"{text}*{mono}"
        sign = "-" if coeff < 0 else "+"
        pieces.append(("-" if coeff < 0 else "") + body if not pieces else f"{sign} {body}")
    return " ".join(pieces) or "0"


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
    terms = dict(a.items())
    for exps, coeff in b.items():
        s = terms.get(exps, Fraction(0)) + coeff
        if s:
            terms[exps] = s
        else:
            terms.pop(exps, None)
    return Polynomial(terms, a.variables)


def _ref_mul(p, q):
    a, b = p._aligned(q)
    if len(list(a.items())) < len(list(b.items())):
        a, b = b, a
    terms = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
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
    lead_q = max((e for e, _ in b.items()), key=_ref_grevlex_key)
    cq = b.coeff(lead_q)
    work = dict(a.items())
    quot = {}
    while work:
        lead = max(work, key=_ref_grevlex_key)
        diff = tuple(x - y for x, y in zip(lead, lead_q))
        if any(e < 0 for e in diff):
            raise NotDivisibleError("remainder left")
        c = work[lead] / cq
        quot[diff] = quot.get(diff, Fraction(0)) + c
        for e2, c2 in b.items():
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
    assert dict(result.items()) == dict(reference.items())
    assert all(result.coeff(e) == c for e, c in reference.items())
    assert result.variables == reference.variables


def _assert_clean(p, nvars=None):
    """The invariants `Polynomial.__init__` establishes: integer numerators
    over one positive denominator, with no factor common to all of them."""
    assert isinstance(p.variables, tuple)
    assert len(set(p.variables)) == len(p.variables)
    if nvars is not None:
        assert len(p.variables) == nvars
    assert type(p._den) is int and p._den > 0
    assert math.gcd(p._den, *p._terms.values()) == 1
    for exps, coeff in p._terms.items():
        assert type(exps) is tuple and len(exps) == len(p.variables)
        assert all(type(e) is int and e >= 0 for e in exps)
        assert type(coeff) is int and coeff != 0


@st.composite
def _univariate_polys(draw, variables=Z):
    """Polynomials over one variable up to degree about 40: sparse with gaps,
    a dense run shifted up, or a constant."""
    shape = draw(st.sampled_from(["sparse", "run", "constant"]))
    if shape == "sparse":
        coeffs = draw(st.dictionaries(st.integers(0, 40), _coefficients(), max_size=8))
    elif shape == "run":
        run = draw(st.lists(_coefficients(), max_size=10))
        shift = draw(st.integers(0, 30))
        coeffs = {shift + k: c for k, c in enumerate(run)}
    else:
        coeffs = {0: draw(_coefficients())}
    return Polynomial({(k,): c for k, c in coeffs.items()}, variables)


def _ref_pow(p, n):
    result = Polynomial.one(p.variables)
    for _ in range(n):
        result = _ref_mul(result, p)
    return result


def _ref_lcm(p, q):
    # the gcd is checked against the `Fraction` Euclid in TestIntegerGcd,
    # which is too slow on these degrees and coefficients
    return _ref_mul(p, _ref_divide_exact(q, gcd_univariate(p, q)))


def _convolve(u, v):
    out = [0] * (len(u) + len(v) - 1) if u and v else []
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            out[i + j] += a * b
    return out


def _dense_integers(nonzero=True):
    """Dense ascending integer lists without trailing zeros, some with gaps."""
    coeffs = st.lists(st.one_of(st.integers(-9, 9), st.just(0),
                                st.integers(-10 ** 20, 10 ** 20)), max_size=25)
    stripped = coeffs.map(lambda c: c[:max((i + 1 for i, x in enumerate(c) if x), default=0)])
    return stripped.filter(bool) if nonzero else stripped


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

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(st.one_of(_polys(_NAMES[:1]), _polys(_NAMES[:2]), _polys(_NAMES),
                     _univariate_polys()),
           st.integers(0, 5))
    def test_pow(self, p, n):
        r = p ** n
        _same(r, _ref_pow(p, n))
        _assert_clean(r)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(_univariate_polys(), _univariate_polys(), st.booleans())
    def test_univariate(self, h, q, exact):
        """The dense one-variable route of `*`, `divide_exact` and
        `lcm_univariate`, and the same pair over two variables, where the
        dict route runs."""
        hw, qw = h.with_variables(ZW), q.with_variables(ZW)
        for r, rw in ((h * q, hw * qw), (q * h, qw * hw)):
            _same(r, _ref_mul(h, q))
            _same(rw, _ref_mul(hw, qw))
            _assert_clean(r)
            _assert_clean(rw)
        if not (h.is_zero() and q.is_zero()):
            expected = _ref_lcm(h, q)
            for r in (lcm_univariate(h, q), lcm_univariate(hw, qw)):
                _same(r, expected.with_variables(r.variables))
                _assert_clean(r)
        if q.is_zero():
            return
        p = _ref_mul(h, q) if exact else h
        pw = p.with_variables(ZW)
        try:
            expected = _ref_divide_exact(p, q)
        except NotDivisibleError:
            assert not exact
            for a, b in ((p, q), (pw, qw)):
                with pytest.raises(NotDivisibleError):
                    divide_exact(a, b)
            return
        for a, b in ((p, q), (pw, qw)):
            r = divide_exact(a, b)
            _same(r, expected.with_variables(a.variables))
            _assert_clean(r)
        if exact:
            assert divide_exact(p, q) == h

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(_dense_integers(nonzero=False), _dense_integers())
    def test_pseudo_divide(self, u, v):
        """s*u == q*v + r with deg r < deg v and s > 0; the quotient is only
        computed on request and changes nothing else."""
        r, s, q = _pseudo_divide(list(u), v, want_quotient=True)
        assert type(s) is int and s > 0
        assert len(r) < len(v) and (not r or r[-1] != 0)
        qv = _convolve(q, v)
        total = [0] * max(len(qv), len(r))
        for i, c in enumerate(qv):
            total[i] += c
        for i, c in enumerate(r):
            total[i] += c
        while total and total[-1] == 0:
            total.pop()
        assert total == [s * c for c in u]
        assert _pseudo_divide(list(u), v) == (r, s, None)


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

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(_poly_pairs(), _coefficients())
    def test_canonical_form_is_unique(self, pair, c):
        """Results reached by different routes are == and hash equal, and
        items() yields reduced `Fraction`s."""
        p, q = pair
        routes = [p.with_variables(tuple(reversed(p.variables)))]
        if not q.is_zero():
            routes.append(divide_exact(p * q, q))
        if c:
            routes.append(p.scale(c).scale(1 / c))
        for r in routes:
            assert r == p and hash(r) == hash(p)
            _assert_clean(r)
        for _, coeff in p.items():
            assert type(coeff) is Fraction and coeff != 0
            assert math.gcd(coeff.numerator, coeff.denominator) == 1

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(_coefficients(), st.sampled_from([(), Z, XY, _NAMES]))
    def test_const_and_var(self, c, variables):
        for p in (Polynomial.const(c, variables), Polynomial.const(0, variables),
                  Polynomial.one(variables)):
            _assert_clean(p, len(variables))
        assert Polynomial.const(c, variables) == Polynomial(
            {(0,) * len(variables): c}, variables)
        for v in variables:
            x = Polynomial.var(v, variables)
            _assert_clean(x, len(variables))
            assert x.used_variables() == (v,) and x.coeff(
                tuple(int(w == v) for w in variables)) == 1
        with pytest.raises(PolyError):
            Polynomial.const(c, variables + variables[:1] + ("w", "w"))
        with pytest.raises(PolyError):
            Polynomial.var("w", ("w", "w"))

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(st.lists(st.tuples(st.booleans(), _univariate_polys()), min_size=1, max_size=12))
    def test_parsed_sum(self, terms):
        """A parsed sum of many terms is the running sum, in canonical form."""
        text = " ".join(f"{'-' if neg else '+'} ({format_canonical(p)})" for neg, p in terms)
        expected = Polynomial.zero(Z)
        for neg, p in terms:
            expected = _ref_add(expected, -p if neg else p)
        r = zp(text.lstrip("+ "))
        _same(r, expected)
        _assert_clean(r)

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


class TestParseFraction:
    def test_leaves_no_cyclic_garbage(self):
        # a caught ParseError kept with its traceback would tie each call's
        # frame and parser into a cycle for the cyclic collector
        gc.collect()
        gc.disable()
        try:
            for _ in range(10):
                num, den = parse_fraction("(1 - z^3)/(1 - z^2)", Z)
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert (num, den) == (zp("1 - z^3"), zp("1 - z^2"))


class TestParseNesting:
    def test_nesting_bound(self):
        assert zp("(" * 100 + "z" + ")" * 100) == zp("z")
        with pytest.raises(ParseError):
            zp("(" * 101 + "z" + ")" * 101)

    def test_deep_nesting_is_a_parse_error(self):
        with pytest.raises(ParseError):
            zp("(" * 5000 + "z" + ")" * 5000)


class TestParseDegree:
    def test_degree_bound(self):
        assert zp("z^10 * (z^2)^495") == zp("z^1000")
        assert zp("1^1000 * 3") == zp("3")

    @pytest.mark.parametrize("text", ["(1 - z^2)^100000", "z^1001", "(z^2)^501",
                                      "z^500 * z^501", "2^1001", "0^5000"])
    def test_past_the_bound_is_a_parse_error(self, text):
        with pytest.raises(ParseError, match="past 1000"):
            zp(text)

    def test_term_bound(self):
        assert len(list(zp("(1 + z)^1000").items())) == 1001
        assert len(list(parse_poly("(x + 1)^40 * (y + 1)^40", XY).items())) == 41 * 41
        # one term of degree 1000, whatever the count C(1002, 2) allows
        assert parse_poly("(x*y)^500", XY) == parse_poly("x^500*y^500", XY)

    @pytest.mark.parametrize("text", ["(x + y + 1)^1000", "(x + y + 1)^62",
                                      "(x + 1)^49 * (y + 1)^49",
                                      "(x + y + 1)^31 * (x + y + 1)^31"])
    def test_past_the_term_bound_is_a_parse_error(self, text):
        with pytest.raises(ParseError, match="more than 2000 terms"):
            parse_poly(text, XY)


# Texts for the differential test against the reference parser: monomial
# sums with rationals (zero denominators too), runs of signs, nested
# parentheses, powers of sums, '/' bars as in 1/2/3, unknown names, and
# powers and products past the degree and term bounds.
_ATOMS = st.one_of(
    st.integers(0, 120).map(str),
    st.tuples(st.integers(0, 40), st.integers(1, 12)).map(lambda p: f"{p[0]}/{p[1]}"),
    st.sampled_from(["x", "y"] * 12 + ["w", "x1", "_", "1/0", "x^600", "2^1001",
                                       "(x + y + 1)^62"]),
)


def _compound(inner):
    return st.one_of(
        st.tuples(inner, st.sampled_from(["+", " - ", "*", " * ", "/", "-", " / "]),
                  inner).map("".join),
        st.tuples(st.sampled_from(["-", "--", "- -", "---"]), inner).map("".join),
        inner.map("({})".format),
        st.tuples(inner, st.sampled_from(["^0", "^1", "^2", " ^ 3"])).map("".join),
        st.tuples(inner, st.integers(0, 4)).map(lambda p: f"({p[0]})^{p[1]}"),
    )


_EXPRESSIONS = st.recursive(_ATOMS, _compound, max_leaves=14)

_FRACTIONS = st.tuples(_EXPRESSIONS, st.sampled_from(["/", " / "]), _EXPRESSIONS,
                       st.booleans()).map(lambda p: f"{p[0]}{p[1]}({p[2]})" if p[3]
                                          else "".join(p[:3]))

_TOKEN_SOUPS = st.one_of(
    st.lists(st.sampled_from(["0", "1", "12", "3/4", "x", "y", "w", "+", "-", "*", "/",
                              "^", "(", ")", " ", "\t", "^1001", "/0", "x1", "$"]),
             max_size=16).map("".join),
    st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=20),
)


def _parse_outcome(parse, text):
    """The parsed pair in canonical form, or the parse error's class, message
    and position."""
    try:
        num, den = parse(text, XY)
    except ParseError as exc:
        return type(exc), str(exc), exc.position
    return [(p.variables, p._den, p._terms) for p in (num, den)]


class TestReferenceParser:
    @settings(max_examples=800, derandomize=True, deadline=None)
    @given(st.one_of(_EXPRESSIONS, _FRACTIONS, _TOKEN_SOUPS))
    def test_same_pair_or_same_error(self, text):
        assert (_parse_outcome(parse_fraction, text)
                == _parse_outcome(reference_parse_fraction, text))
