"""Generalized elementary factors: scalar denominators, ideals, witnesses."""

import random
from fractions import Fraction

import pytest

from stabring.gef import (GefResult, MembershipFailedError,
                          _scalar_denominator_pairs, gef, scalar_denominator,
                          witness_matrix)
from stabring.matrixring import IndexSet, Mat
from stabring.poly import Polynomial, parse_poly
from stabring.ring import (NotCausalError, PolyFraction, RingModel, ZERO_IDEAL,
                           in_Z, membership)

from oracles import contains, factor_ideal, plant_from_parts

Z = ("z",)


def zp(text):
    return parse_poly(text, Z)


def ideals_equal(result: GefResult, index_set, expected_gens) -> bool:
    """Mutual-membership equality of a computed factor and an expected ideal."""
    entry = result.entry_for(IndexSet(tuple(index_set)))
    pres = result.pres
    expected = pres.ideal([pres.lift(g) for g in expected_gens])
    ideal = factor_ideal(result, entry)
    forward = all(contains(ideal, pres.lift(g)) for g in expected_gens)
    backward = all(contains(expected, pres.lift(g)) for g in entry.generators)
    return forward and backward


class TestScalarDenominator:
    def test_delay_plant_uses_given_denominators(self, delay_plant):
        # d and N must be exactly the products written in the plant entries
        assert delay_plant.d == zp("(1 - z^2)*(1 - 4*z^2)")
        assert delay_plant.N.entries[0] == zp("(1 - z^3)*(1 - 4*z^2)")
        assert delay_plant.N.entries[1] == zp("(1 - 8*z^3)*(1 - z^2)")
        assert delay_plant.m == 1 and delay_plant.n == 2

    def test_stacked_matrix(self, delay_plant):
        assert delay_plant.T.rows == 3 and delay_plant.T.cols == 1
        assert delay_plant.T.entries[2] == delay_plant.d

    def test_zero_plant(self, zero_plant):
        assert zero_plant.d == zp("1")
        assert all(e.is_zero() for e in zero_plant.N.entries)

    def test_xy_plant(self, xy_plant, ring_xy):
        assert xy_plant.d == parse_poly("y", ring_xy.variables)
        assert xy_plant.N.entries[0] == parse_poly("x", ring_xy.variables)

    def test_fraction_form_reproduced(self, delay_plant):
        # P = N * d^-1 entrywise
        for i in range(2):
            assert delay_plant.P[i, 0] == PolyFraction(delay_plant.N[i, 0],
                                                       delay_plant.d)

    def test_non_causal_rejected(self, ring23):
        with pytest.raises(NotCausalError):
            scalar_denominator([[(zp("z"), zp("1 - z^2"))]], ring23)

    def test_multiplier_search_from_reduced_form(self, ring23):
        # denominators written outside the ring still admit a denominator
        pf = scalar_denominator([[(zp("1 + z + z^2"), zp("1 + z"))]], ring23)
        assert membership(pf.d, ring23) and not in_Z(pf.d, ring23)
        assert all(membership(e, ring23) for e in pf.N.entries)
        assert pf.P[0, 0] == PolyFraction(zp("1 + z + z^2"), zp("1 + z"))

    def test_retry_from_reduced_fractions(self, ring23):
        # z^2/z^2 as written puts z^2 into every common denominator, which
        # then lies in Z; its reduced form 1/1 does not
        pairs = [[(zp("z^2"), zp("z^2"))], [(zp("z^2"), zp("1 - z^2"))]]
        P = Mat(2, 1, [PolyFraction(num, den) for row in pairs for num, den in row])
        assert _scalar_denominator_pairs(pairs, P, ring23) is None
        pf = scalar_denominator(pairs, ring23)
        assert pf.d == zp("-1 + z^2")
        assert pf.N.entries == (zp("-1 + z^2"), zp("-z^2"))

    def test_zero_ideal_multiplier_shift(self):
        # no multiplier with a constant term sends z into Q[z^2,z^3]; without
        # a causality constraint the search shifts the support upward
        ring = RingModel.monomial_subalgebra("z", (2, 3), ZERO_IDEAL)
        pf = scalar_denominator([[(zp("1"), zp("z"))]], ring)
        assert pf.d == zp("z^3")
        assert pf.N.entries == (zp("z^2"),)

    def test_from_parts_rejects_denominator_outside_ring(self, ring23):
        with pytest.raises(NotCausalError):
            plant_from_parts(ring23, Mat.from_rows([[zp("z^2")]]), zp("1 + z"))


class TestFactors:
    def test_delay_plant_matches_published_ideals(self, delay_plant, paper):
        result = gef(delay_plant)
        for key, gens in paper.factor_gens.items():
            assert ideals_equal(result, key, gens), key

    def test_generators_live_in_ring(self, delay_plant, ring23):
        result = gef(delay_plant)
        for entry in result.entries:
            for g in entry.generators:
                assert membership(g, ring23)

    def test_zero_always_belongs(self, delay_plant):
        result = gef(delay_plant)
        pres = result.pres
        zero = Polynomial.zero(pres.variables)
        for entry in result.entries:
            assert contains(factor_ideal(result, entry), zero)

    def test_ideal_property(self, delay_plant, ring23):
        result = gef(delay_plant)
        pres = result.pres
        rng = random.Random(53)
        exps = [e for e in range(9) if ring23.semigroup_contains(e)]
        for entry in result.entries:
            ideal = factor_ideal(result, entry)
            for g in entry.generators[:2]:
                a = Polynomial.zero(Z)
                for _ in range(3):
                    a = a + Polynomial({(rng.choice(exps),):
                                        Fraction(rng.randint(-4, 4))}, Z)
                assert contains(ideal, pres.lift(a * g))

    def test_xy_factors(self, xy_plant, ring_xy):
        result = gef(xy_plant)
        vx = ring_xy.variables
        # hand colon computation: x | lambda*y forces x | lambda, and dually
        assert ideals_equal(result, (1,), [parse_poly("x", vx)])
        assert ideals_equal(result, (2,), [parse_poly("y", vx)])

    def test_zero_plant_unit_factor(self, zero_plant):
        result = gef(zero_plant)
        denominator_rows = zero_plant.denominator_rows()
        entry = result.entry_for(denominator_rows)
        assert entry.generators == [Polynomial.one(Z).with_variables(Z)]
        # selections hitting the zero numerator rows are singular
        assert result.entry_for(IndexSet((1,))).singular


class TestRepresentationInvariance:
    def test_scaled_fraction_same_ideals(self, delay_plant, ring23):
        base = gef(delay_plant)
        pres = base.pres
        rng = random.Random(59)
        exps = [e for e in range(2, 8) if ring23.semigroup_contains(e)]
        for trial in range(5):
            s = Polynomial.one(Z)
            for _ in range(rng.randint(1, 2)):
                s = s + Polynomial({(rng.choice(exps),):
                                    Fraction(rng.randint(-3, 3))}, Z)
            if in_Z(s, ring23) or s.is_zero():
                continue
            scaled = plant_from_parts(
                ring23, delay_plant.N.map(lambda e: e * s), delay_plant.d * s)
            other = gef(scaled)
            for entry, entry_s in zip(base.entries, other.entries):
                assert entry.index_set == entry_s.index_set
                ideal, ideal_s = factor_ideal(base, entry), factor_ideal(other, entry_s)
                fwd = all(contains(ideal_s, pres.lift(g)) for g in entry.generators)
                bwd = all(contains(ideal, pres.lift(g)) for g in entry_s.generators)
                assert fwd and bwd, (trial, entry.index_set)


class TestWitness:
    def test_published_witness_column(self, delay_plant, paper):
        rows = IndexSet((1,))
        K = witness_matrix(delay_plant, rows, paper.lam1, gef(delay_plant).quotients(rows))
        assert K.entries == (paper.lam1, paper.k2, paper.k3)
        lhs = delay_plant.T.map(lambda e: e * paper.lam1)
        assert K * delay_plant.T.take_rows([0]) == lhs

    def test_witness_identity_for_computed_generators(self, delay_plant):
        result = gef(delay_plant)
        for entry in result.entries:
            for lam in entry.generators:
                K = witness_matrix(delay_plant, entry.index_set, lam,
                                   result.quotients(entry.index_set))
                lhs = delay_plant.T.map(lambda e: e * lam)
                assert K * delay_plant.T.take_rows(entry.index_set.zero_based()) == lhs

    def test_zero_plant_witness(self, zero_plant):
        rows = zero_plant.denominator_rows()
        quotients = gef(zero_plant).quotients(rows)
        assert witness_matrix(zero_plant, rows, zp("1"), quotients) == zero_plant.T
        assert zero_plant.T.take_rows(rows.zero_based()).entries == (zp("1"),)

    def test_siso_witness(self, siso_plant):
        lam = zp("1 - z^2")
        rows = IndexSet((2,))
        K = witness_matrix(siso_plant, rows, lam, gef(siso_plant).quotients(rows))
        # lambda * T = K * (1 - z^2) by direct substitution
        lhs = siso_plant.T.map(lambda e: e * lam)
        assert K * siso_plant.T.take_rows([1]) == lhs
        assert K.entries == (zp("z^2"), zp("1 - z^2"))

    def test_non_member_rejected(self, delay_plant):
        with pytest.raises(MembershipFailedError):
            witness_matrix(delay_plant, IndexSet((1,)), zp("1 + z^2"),
                           gef(delay_plant).quotients(IndexSet((1,))))
