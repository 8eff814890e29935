"""The generalized elementary factors of `gef` against Groebner colon ideals.

`gef` finds each factor by one formula (`_factor`): with h = delta /
gcd(delta, targets), the factor is (h) over a ring without gaps and h times
one exact nullspace over Q[z^S].  The oracle is the factor's definition: a
Groebner colon ideal per target and their intersection, in the quotient
presentation.  Both are ideals of the same presentation, so their reduced
bases must be equal.

`witness_matrix` builds K = (lam/h) * (C/g) from one exact division, with the
(h, C/g) that `gef` kept on the entry; its oracle divides lam*c by delta for
every entry c of C (`oracles.entrywise_witness`).
"""

import importlib
from fractions import Fraction
from functools import reduce
from itertools import combinations_with_replacement
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabring.gef import (GefInternalError, MembershipFailedError, PlantFraction,
                          _cofactor_columns, gef, running_gcd, witness_matrix)
from stabring.linsolve import nullspace, solve_exact
from stabring.matrixring import IndexSet, Mat, enumerate_index_sets
from stabring.poly import NotDivisibleError, Polynomial, divide_exact, parse_poly
from stabring.ring import (ZERO_CONSTANT_TERM, ZERO_IDEAL, RingModel, gcd, membership,
                           presentation)
from stabring.synth import local_factorization

from oracles import entrywise_witness, factor_ideal, plant_from_parts

# the package exports the function `gef`, which hides the module of that name
gef_module = importlib.import_module("stabring.gef")

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


def _monomials(ring: RingModel) -> list[Polynomial]:
    """The nonconstant monomials of the ring of degree at most 6 (Q[z^S]) or 2."""
    if ring.kind == "monomial":
        z = Polynomial.var("z", ring.variables)
        return [z ** e for e in range(1, 7) if ring.semigroup_contains(e)]
    out = []
    for k in (1, 2):
        for names in combinations_with_replacement(ring.variables, k):
            term = Polynomial.one(ring.variables)
            for name in names:
                term = term * Polynomial.var(name, ring.variables)
            out.append(term)
    return out


@st.composite
def causal_plants(draw, ring):
    """A random plant N d^-1 over the ring, up to 2 x 2.

    A common factor is drawn into d and into some numerator entries, so that
    the gcd of delta and its targets is often more than a constant.
    """
    monomial = st.sampled_from(_monomials(ring))
    coeff = st.sampled_from([-3, -2, -1, 1, 2, 3])

    def element(constant=0):
        # at most two terms besides the constant, to keep the oracle quick
        acc = Polynomial.const(Fraction(constant), ring.variables)
        for t, c in draw(st.lists(st.tuples(monomial, coeff), max_size=2)):
            acc = acc + t * c
        return acc

    n = draw(st.integers(1, 2))
    m = draw(st.integers(1, 2))
    common = Polynomial.one(ring.variables) + draw(monomial) * draw(coeff)
    d = element(constant=draw(st.sampled_from([1, -2, 3]))) * common
    entries = [element() * (common if draw(st.booleans()) else Polynomial.one(ring.variables))
               for _ in range(n * m)]
    return plant_from_parts(ring, Mat(n, m, entries), d)


def assert_factors_match(pf: PlantFraction) -> int:
    """gef against the oracle on every index set; returns the nonsingular count."""
    result = gef(pf)
    nonsingular = 0
    for entry, index_set in zip(result.entries, enumerate_index_sets(pf.m, pf.n),
                                strict=True):
        assert entry.index_set == index_set
        if entry.singular:
            continue
        nonsingular += 1
        oracle = groebner_factor(pf, index_set)
        assert factor_ideal(result, entry).reduced_basis() == oracle.reduced_basis()
    return nonsingular


class TestGapRouteAgainstGroebner:
    @pytest.mark.parametrize("gens", SEMIGROUPS, ids=str)
    @settings(max_examples=10, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_reduced_bases_equal(self, gens, data):
        assert_factors_match(data.draw(causal_plants(RingModel.monomial_subalgebra("z", gens))))


POLYNOMIAL_RINGS = {
    "xy": RingModel.polynomial(("x", "y"), ZERO_IDEAL),
    "xy-constant-term": RingModel.polynomial(("x", "y"), ZERO_CONSTANT_TERM),
    "xyw": RingModel.polynomial(("x", "y", "w")),
    "z": RingModel.polynomial(("z",)),
}


class TestPrincipalFactorAgainstGroebner:
    @pytest.mark.parametrize("name", POLYNOMIAL_RINGS)
    @settings(max_examples=10, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_reduced_bases_equal(self, name, data):
        assert_factors_match(data.draw(causal_plants(POLYNOMIAL_RINGS[name])))


def witness_outcome(pf: PlantFraction, index_set, lam):
    """The oracle's K, or the reason `witness_matrix` must give for refusing lam."""
    try:
        K = entrywise_witness(pf, index_set, lam)
    except NotDivisibleError:
        return "division failed"
    if not all(membership(k, pf.ring) for k in K.entries):
        return "witness leaves the ring"
    return K


def library_outcome(pf: PlantFraction, index_set, lam, quotients):
    try:
        return witness_matrix(pf, index_set, lam, quotients)
    except MembershipFailedError as exc:
        return str(exc).rsplit(": ", 1)[1]


def assert_witnesses_match(pf: PlantFraction):
    """`witness_matrix`, from the (h, C/g) kept on each entry, against one
    exact division per entry.  The candidates are every generator g, which
    the factor holds, and g + 1 and 1 + v, which most factors do not hold;
    over Q[z^S] also g*z, whose witness may hold z."""
    result = gef(pf)
    ring = pf.ring
    one = Polynomial.one(ring.variables)
    v = Polynomial.var(ring.variables[0], ring.variables)
    for entry in result.entries:
        if entry.singular:
            continue
        quotients = result.quotients(entry.index_set)
        candidates = [one + v]
        for g in entry.generators:
            assert isinstance(witness_outcome(pf, entry.index_set, g), Mat)
            candidates += [g, g + one] + ([g * v] if ring.kind == "monomial" else [])
        for lam in candidates:
            expected = witness_outcome(pf, entry.index_set, lam)
            assert library_outcome(pf, entry.index_set, lam, quotients) == expected


class TestWitnessAgainstEntrywiseDivision:
    @pytest.mark.parametrize("name", ["delay_plant", "siso_plant", "xy_plant"])
    def test_fixtures(self, name, request):
        pf = request.getfixturevalue(name)
        assert_witnesses_match(pf)

    @pytest.mark.parametrize("gens", SEMIGROUPS, ids=str)
    @settings(max_examples=10, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_random_plants_over_semigroup_rings(self, gens, data):
        ring = RingModel.monomial_subalgebra("z", gens)
        assert_witnesses_match(data.draw(causal_plants(ring)))

    @pytest.mark.parametrize("name", POLYNOMIAL_RINGS)
    @settings(max_examples=10, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_random_plants_over_polynomial_rings(self, name, data):
        assert_witnesses_match(data.draw(causal_plants(POLYNOMIAL_RINGS[name])))

    def test_division_failed(self, ring23):
        # P = z^2: rows {1} give delta = z^2, C = (z^2, 1), g = 1 and h = z^2,
        # which does not divide 1 + z^2
        pf = plant_from_parts(ring23, Mat(1, 1, [parse_poly("z^2", ("z",))]),
                              Polynomial.one(("z",)))
        lam = parse_poly("1 + z^2", ("z",))
        rows = IndexSet((1,))
        assert witness_outcome(pf, rows, lam) == "division failed"
        with pytest.raises(MembershipFailedError, match="division failed$"):
            witness_matrix(pf, rows, lam, gef(pf).quotients(rows))

    def test_witness_leaves_the_ring(self, ring23):
        # z^3 lies in the ring and h = z^2 divides it, but K = z*(z^2, 1)
        # holds z
        pf = plant_from_parts(ring23, Mat(1, 1, [parse_poly("z^2", ("z",))]),
                              Polynomial.one(("z",)))
        lam = parse_poly("z^3", ("z",))
        rows = IndexSet((1,))
        assert witness_outcome(pf, rows, lam) == "witness leaves the ring"
        with pytest.raises(MembershipFailedError, match="witness leaves the ring$"):
            witness_matrix(pf, rows, lam, gef(pf).quotients(rows))


class TestNoTargets:
    @pytest.mark.parametrize("ring", [RingModel.monomial_subalgebra("z", (2, 3)),
                                      POLYNOMIAL_RINGS["xy"]], ids=["z2z3", "xy"])
    @pytest.mark.parametrize("n, m", [(1, 1), (2, 1), (2, 2)])
    def test_zero_numerators(self, ring, n, m):
        # no index set has a target: the nonsingular ones take the whole
        # ring, the reduced basis [1]
        one = Polynomial.one(ring.variables)
        d = one - Polynomial.var(ring.variables[-1], ring.variables) ** 2 * 4
        pf = plant_from_parts(ring, Mat(n, m, [one.zero_like()] * (n * m)), d)
        assert assert_factors_match(pf) == 1
        assert all(e.generators == [one] for e in gef(pf).entries if not e.singular)


class TestMultivariateGcd:
    CASES = [
        ("(x + y)*(1 - x*y)", "(x + y)*(2 + w)"),
        ("(1 + x)^2*(y - w)", "(1 + x)*(y - w)^2"),
        ("x*y + w", "x - y"),                     # coprime
        ("x^2 - y^2", "3"),                       # a constant
        ("5", "x*w + 1"),
        ("2*(x - 1)*(w + y)", "-4*(x - 1)*(w + y)"),
        ("x*y*w", "x*w^2"),
    ]

    @pytest.mark.parametrize("a, b", CASES)
    def test_against_sympy(self, a, b):
        sympy = pytest.importorskip("sympy")
        variables = ("x", "y", "w")
        p, q = parse_poly(a, variables), parse_poly(b, variables)
        g = gcd(p, q)
        # each division raises unless g divides
        divide_exact(p, g)
        divide_exact(q, g)
        symbols = sympy.symbols(variables)
        theirs = sympy.Poly(sympy.gcd(sympy.sympify(a.replace("^", "**")),
                                      sympy.sympify(b.replace("^", "**"))), *symbols)
        theirs = Polynomial({e: Fraction(int(c.p), int(c.q))
                             for e, c in theirs.as_dict().items()}, variables)
        ratio = divide_exact(g, theirs)
        assert ratio.is_constant() and not ratio.is_zero()


@st.composite
def gcd_chains(draw):
    """Nonzero polynomials over Q[z] or Q[x,y] sharing a drawn factor, one of
    them possibly a nonzero constant at any position."""
    variables = draw(st.sampled_from([("z",), ("x", "y")]))
    exps = [e for e in combinations_with_replacement(range(3), len(variables))
            if sum(e) <= 2] if len(variables) > 1 else [(e,) for e in range(3)]

    def poly():
        terms = {e: Fraction(draw(st.integers(-3, 3).filter(bool)))
                 for e in draw(st.lists(st.sampled_from(exps), min_size=1, max_size=3,
                                        unique=True))}
        return Polynomial(terms, variables)

    common = poly()
    polys = [common * poly() for _ in range(draw(st.integers(1, 4)))]
    if draw(st.booleans()):
        constant = Polynomial.one(variables).scale(Fraction(draw(st.integers(1, 5))))
        polys.insert(draw(st.integers(0, len(polys))), constant)
    return polys


class TestRunningGcd:
    """`running_gcd` stops at the first constant; the full pairwise fold does not."""

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(gcd_chains())
    def test_matches_the_full_fold(self, polys):
        ratio = divide_exact(running_gcd(polys), reduce(gcd, polys))
        assert ratio.is_constant() and not ratio.is_zero()

    @pytest.mark.parametrize("ring", [RingModel.polynomial(("x", "y"), ZERO_IDEAL),
                                      RingModel.monomial_subalgebra("z", (2, 3))],
                             ids=["xy", "z2z3"])
    def test_no_gcd_after_a_constant(self, ring):
        v = ring.variables[0]
        p = lambda text: parse_poly(text.replace("v", v), ring.variables)
        # gcd(v^2, 1 + v^2) is constant: the two targets after it take no gcd
        delta, targets = p("v^2"), [p("1 + v^2"), p("v^3"), p("v^2 + v^3")]
        with mock.patch.object(gef_module, "gcd", wraps=gcd) as spy:
            running_gcd([delta] + targets)
            assert spy.call_count == 1
            assert running_gcd([p("3")] + targets).is_constant()
            assert spy.call_count == 1


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


class TestOneIdentityPerIndexSet:
    """`_quotients` checks (C/g) * rows_I(T) = h*T once per index set; the
    witnesses of the generators form no product of their own."""

    @staticmethod
    def corrupted_columns(pf, index_set):
        # c + delta keeps gcd(delta, c), so every division stays exact
        delta, C = _cofactor_columns(pf, index_set)
        if C is None:
            return delta, C
        return delta, Mat(C.rows, C.cols, [C.entries[0] + delta] + list(C.entries[1:]))

    def test_corrupted_quotients_raise(self, delay_plant):
        index_set = IndexSet((1,))
        delta, C = self.corrupted_columns(delay_plant, index_set)
        g = running_gcd([delta] + gef_module._targets(delta, C))
        with pytest.raises(GefInternalError, match="rows_I"):
            gef_module._quotients(delay_plant, index_set, delta, C, g)
        with mock.patch.object(gef_module, "_cofactor_columns", self.corrupted_columns):
            with pytest.raises(GefInternalError):
                gef(delay_plant)

    @pytest.mark.parametrize("name", ["delay_plant", "siso_plant", "xy_plant"])
    def test_one_product_per_index_set(self, name, request):
        pf = request.getfixturevalue(name)
        with mock.patch.object(Mat, "__mul__", autospec=True,
                               side_effect=Mat.__mul__) as spy:
            result = gef(pf)
        nonsingular = [e for e in result.entries if not e.singular]
        for entry in nonsingular:
            C_g = entry.quotients[1]
            calls = [c.args for c in spy.call_args_list if c.args[0] is C_g]
            assert len(calls) == 1
            assert calls[0][1] == pf.T.take_rows(entry.index_set.zero_based())
        # T * adj(rows_I T) and the identity, however many generators
        assert spy.call_count == 2 * len(nonsingular)

    def test_generators_outnumber_the_index_sets(self, delay_plant):
        # so the count above would see one product per generator
        result = gef(delay_plant)
        nonsingular = [e for e in result.entries if not e.singular]
        assert sum(len(e.generators) for e in nonsingular) > len(nonsingular)

    def test_local_factorization_takes_no_determinant(self, delay_plant):
        result = gef(delay_plant)
        with mock.patch.object(Mat, "det", autospec=True, side_effect=Mat.det) as det, \
                mock.patch.object(Mat, "adjugate", autospec=True,
                                  side_effect=Mat.adjugate) as adj:
            for entry in result.entries:
                for lam in entry.generators:
                    assert local_factorization(result, entry.index_set, lam).bezout_holds()
        assert det.call_count == 0 and adj.call_count == 0
