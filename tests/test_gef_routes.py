"""The gap route of the GEFs over monomial rings against the Groebner route.

Over Q[z^S] `gef` finds each factor in closed form (`_gap_factor`): one gcd
and one exact nullspace.  The oracle is the route polynomial rings still
take: a Groebner colon ideal per target and their intersection, in the
quotient presentation.  Both are ideals of the same presentation, so their
reduced bases must be equal.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabring.gef import PlantFraction, _cofactor_columns, gef
from stabring.linsolve import nullspace, solve_exact
from stabring.matrixring import Mat, enumerate_index_sets
from stabring.poly import Polynomial
from stabring.ring import RingModel, presentation

SEMIGROUPS = [(2, 3), (3, 5), (3, 4, 5), (4, 5, 6, 7), (1,)]


def groebner_factor(pf: PlantFraction, index_set):
    """The factor of one index set by Groebner colons and their intersection."""
    pres = presentation(pf.ring)
    delta, C = _cofactor_columns(pf, index_set)
    targets = []
    for c in C.entries:
        if not c.is_zero() and c != delta and c not in targets:
            targets.append(c)
    if not targets:
        return pres.ideal([Polynomial.one(pres.variables)])
    base = pres.ideal([pres.lift(delta)])
    handle = None
    for c in targets:
        colon = base.colon(pres.lift(c))
        handle = colon if handle is None else handle.intersect(colon)
    return handle


@st.composite
def causal_plants(draw, gens):
    """A random plant N d^-1 over Q[z^gens], up to 2 x 2.

    A common factor is drawn into d and into some numerator entries, so that
    the gcd of delta and its targets is often more than a constant.
    """
    ring = RingModel.monomial_subalgebra("z", gens)
    z = Polynomial.var("z", ring.variables)
    exponent = st.sampled_from([e for e in range(1, 7) if ring.semigroup_contains(e)])
    coeff = st.sampled_from([-3, -2, -1, 1, 2, 3])

    def element(constant=0):
        # at most two terms besides the constant, to keep the oracle quick
        acc = Polynomial.const(Fraction(constant), ring.variables)
        for e, c in draw(st.lists(st.tuples(exponent, coeff), max_size=2)):
            acc = acc + z ** e * c
        return acc

    n = draw(st.integers(1, 2))
    m = draw(st.integers(1, 2))
    common = Polynomial.one(ring.variables) + z ** draw(exponent) * draw(coeff)
    d = element(constant=draw(st.sampled_from([1, -2, 3]))) * common
    entries = [element() * (common if draw(st.booleans()) else Polynomial.one(ring.variables))
               for _ in range(n * m)]
    return PlantFraction.from_parts(ring, Mat(n, m, entries), d)


class TestGapRouteAgainstGroebner:
    @pytest.mark.parametrize("gens", SEMIGROUPS, ids=str)
    @settings(max_examples=10, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_reduced_bases_equal(self, gens, data):
        pf = data.draw(causal_plants(gens))
        result = gef(pf)
        for entry, index_set in zip(result.entries, enumerate_index_sets(pf.m, pf.n)):
            assert entry.index_set == index_set
            if entry.singular:
                continue
            oracle = groebner_factor(pf, index_set)
            assert entry.handle.reduced_basis() == oracle.reduced_basis()


class TestNullspace:
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), max_size=4),
        st.lists(st.integers(-5, 5), min_size=n, max_size=n))))
    def test_against_solve_exact(self, case):
        # x0 - solve_exact(rows, rows x0) lies in the kernel, so it must be a
        # combination of the basis vectors
        n, rows, x0 = case
        rows = [[Fraction(a) for a in row] for row in rows]
        basis = nullspace(rows, n)
        for x in basis:
            assert all(sum(a * v for a, v in zip(row, x)) == 0 for row in rows)
            # independent: a column where x is 1 and every other vector is 0
            assert any(x[f] == 1 and all(y[f] == 0 for y in basis if y is not x)
                       for f in range(n))
        b = [sum(a * v for a, v in zip(row, x0)) for row in rows]
        x1 = solve_exact(rows, b) if rows else [Fraction(0)] * n
        diff = [a - c for a, c in zip(x0, x1)]
        if not basis:
            assert not any(diff)
        else:
            columns = [[x[k] for x in basis] for k in range(n)]
            assert solve_exact(columns, diff) is not None
