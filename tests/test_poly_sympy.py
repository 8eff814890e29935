"""Differential tests of polynomial products and exact division against sympy."""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from stabring.poly import (NotDivisibleError, Polynomial, divide_exact,  # noqa: E402
                          gcd_univariate)

VARIABLES = ("x", "y", "z")


def _random_poly(rng, variables, max_terms=5, max_exp=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(0, max_exp) for _ in variables)
        num = rng.choice([rng.randint(-9, 9), rng.randint(-10 ** 15, 10 ** 15)])
        terms[exps] = Fraction(num, rng.choice([1, 2, 3, 7, 10 ** 12 + 39]))
    return Polynomial(terms, variables)


def _to_sympy(p, gens):
    terms = {exps: sympy.Rational(c.numerator, c.denominator) for exps, c in p.items()}
    return sympy.Poly.from_dict(terms or {(0,) * len(gens): 0}, *gens, domain=sympy.QQ)


def _from_sympy(poly, variables):
    terms = {exps: Fraction(int(c.p), int(c.q)) for exps, c in poly.as_dict().items()}
    return Polynomial(terms, variables)


def _seeded_pairs():
    """(h, q, r): nonzero h and q, and a perturbation r of the product h*q."""
    rng = random.Random(2024)
    pairs = []
    while len(pairs) < 20:
        variables = VARIABLES[:rng.randint(1, 3)]
        h = _random_poly(rng, variables)
        q = _random_poly(rng, variables)
        r = _random_poly(rng, variables, max_terms=2)
        if not h.is_zero() and not q.is_zero():
            pairs.append((h, q, r))
    return pairs


@pytest.mark.parametrize("h,q,r", _seeded_pairs())
def test_product_and_quotient_match_sympy(h, q, r):
    gens = sympy.symbols(h.variables)
    sh, sq = _to_sympy(h, gens), _to_sympy(q, gens)
    product = h * q
    assert product == _from_sympy(sh * sq, h.variables)
    # an exact quotient
    quotient, remainder = sympy.div(sh * sq, sq)
    assert remainder.is_zero
    assert divide_exact(product, q) == _from_sympy(quotient, h.variables)
    # and a pair that may not divide: one divisor is a Groebner basis, so
    # sympy's remainder is zero exactly when q divides
    p = product + r
    quotient, remainder = sympy.div(_to_sympy(p, gens), sq)
    if remainder.is_zero:
        assert divide_exact(p, q) == _from_sympy(quotient, h.variables)
    else:
        with pytest.raises(NotDivisibleError):
            divide_exact(p, q)


def _seeded_gcd_pairs():
    """(p, q) with a shared random factor, over one variable."""
    rng = random.Random(7)
    pairs = []
    while len(pairs) < 20:
        variables = (rng.choice("zqx"),)
        common = _random_poly(rng, variables, max_exp=2)
        p = common * _random_poly(rng, variables, max_exp=4)
        q = common * _random_poly(rng, variables, max_exp=4)
        if rng.random() < 0.15:
            q = Polynomial.zero(variables)
        if not p.is_zero():
            pairs.append((p, q))
    return pairs


@pytest.mark.parametrize("p,q", _seeded_gcd_pairs())
def test_gcd_matches_sympy(p, q):
    gens = sympy.symbols(p.variables)
    expected = sympy.gcd(_to_sympy(p, gens), _to_sympy(q, gens)).monic()
    assert gcd_univariate(p, q) == _from_sympy(expected, p.variables)
