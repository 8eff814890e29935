"""Differential tests of the Groebner engine against sympy on seeded random ideals."""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from stabring.groebner import IdealHandle, _lead, buchberger  # noqa: E402
from stabring.poly import Polynomial, _grevlex_descending_key  # noqa: E402

from oracles import contains  # noqa: E402


def _random_poly(rng, variables, max_terms=3, max_exp=2):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(0, max_exp) for _ in variables)
        terms[exps] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    return Polynomial(terms, variables)


def _random_ideal(rng, variables, max_gens=3):
    gens = []
    while len(gens) < rng.randint(2, max_gens):
        p = _random_poly(rng, variables)
        if not p.is_zero():
            gens.append(p)
    return gens


def _to_sympy(p, symbols):
    expr = sympy.Integer(0)
    for exps, c in p.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for s, e in zip(symbols, exps):
            term *= s ** e
        expr += term
    return expr


def _from_sympy(expr, symbols, variables):
    poly = sympy.Poly(expr, *symbols)
    return Polynomial({exps: Fraction(str(c)) for exps, c in poly.terms()}, variables)


def _monic(p):
    return p.scale(Fraction(1) / _lead(p, _grevlex_descending_key)[1])


CASES = [(seed, ("x", "y")) for seed in range(8)] + [(seed, ("x", "y", "w")) for seed in range(8, 14)]


@pytest.mark.parametrize("seed,variables", CASES)
def test_reduced_grevlex_basis_matches_sympy(seed, variables):
    rng = random.Random(seed)
    symbols = sympy.symbols(variables)
    gens = _random_ideal(rng, variables)
    ours = buchberger(gens, variables).basis
    theirs = sympy.groebner([_to_sympy(g, symbols) for g in gens], *symbols, order="grevlex")
    theirs = [_monic(_from_sympy(g, symbols, variables)) for g in theirs.exprs]
    assert sorted(map(str, ours)) == sorted(map(str, theirs))


def _sympy_ideal(ring, gens, symbols):
    return ring.ideal(*[_to_sympy(g, symbols) for g in gens])


def _sympy_gens(ideal, ring, symbols, variables):
    return [_from_sympy(ring.to_sympy(g), symbols, variables) for g in ideal.gens]


def _same_ideal(ours, theirs, ring, symbols, variables):
    """Double inclusion: each ideal contains the other's generators."""
    their_gens = _sympy_gens(theirs, ring, symbols, variables)
    assert all(contains(ours, g) for g in their_gens)
    assert all(theirs.contains(_to_sympy(g, symbols)) for g in ours.gens)


@pytest.mark.parametrize("seed", range(6))
def test_colon_and_intersection_match_sympy(seed):
    rng = random.Random(100 + seed)
    variables = ("x", "y")
    symbols = sympy.symbols(variables)
    ring = sympy.QQ.old_poly_ring(*symbols)
    gens_a = _random_ideal(rng, variables, max_gens=2)
    gens_b = _random_ideal(rng, variables, max_gens=2)
    f = _random_poly(rng, variables)
    while f.is_zero():
        f = _random_poly(rng, variables)
    a, b = IdealHandle(variables, gens_a), IdealHandle(variables, gens_b)
    sa, sb = _sympy_ideal(ring, gens_a, symbols), _sympy_ideal(ring, gens_b, symbols)

    _same_ideal(a.colon(f), sa.quotient(ring.ideal(_to_sympy(f, symbols))),
                ring, symbols, variables)
    _same_ideal(a.intersect(b), sa.intersect(sb), ring, symbols, variables)
