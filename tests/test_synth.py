"""Stabilizability, local factorizations, repair, synthesis, verification."""

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stabring import groebner, synth
from stabring.cli import main, synth_report
from stabring.gef import PlantFraction, gef, scalar_denominator
from stabring.matrixring import IndexSet, Mat
from stabring.poly import Polynomial, parse_poly
from stabring.ring import (PolyFraction, RingModel, ZERO_IDEAL, fraction_in_ring,
                           in_Z, membership, presentation, z_nonsingular)
from stabring.synth import (IllPosedError, NoNonsingularMinorError,
                            NotStabilizableError, _closed_loop,
                            _running_gcd, _scalar_fraction,
                            closed_loop, local_factorization,
                            partition_powers, repair_nonsingular, row_factors,
                            stabilizable, synthesize, verify_stabilizing)
from oracles import (FieldFraction, causality_check, compare_to_H, field,
                     minor_ideal, transpose_duality_check)
from test_acceptance import _Budget

Z = ("z",)


def zp(text):
    return parse_poly(text, Z)


class TestStabilizable:
    def test_delay_plant(self, delay_plant, delay_decision):
        assert delay_decision.stabilizable
        cert = delay_decision.certificate
        assert cert.verify()
        total = Polynomial.zero(Z)
        for _, lam in cert.sharp:
            total = total + lam
        assert total == zp("1")

    def test_certificate_lambdas_in_factors(self, delay_plant, delay_decision):
        result = delay_decision.gef_result
        pres = result.pres
        for index_set, lam in delay_decision.certificate.sharp:
            entry = result.entry_for(index_set)
            assert entry.handle.contains(pres.lift(lam))

    def test_nine_generators_contain_one(self, delay_plant, paper):
        # the nine published factor generators, lifted, generate the unit ideal
        pres = presentation(delay_plant.ring)
        lifted = [pres.lift(g) for gens in paper.factor_gens.values()
                  for g in gens]
        assert len(lifted) == 9
        handle = pres.ideal(lifted)
        ok, cert = handle.is_unit()
        assert ok and cert.verify(handle)

    def test_xy_not_stabilizable(self, xy_plant):
        decision = stabilizable(xy_plant)
        assert not decision.stabilizable
        vx = xy_plant.ring.variables
        basis = {str(g) for g in decision.evidence_basis}
        assert basis == {"x", "y"}

    def test_zero_plant(self, zero_plant):
        decision = stabilizable(zero_plant)
        assert decision.stabilizable
        sharp = decision.certificate.sharp
        assert len(sharp) == 1
        assert sharp[0][0] == zero_plant.denominator_rows()
        assert sharp[0][1] == zp("1")

    def test_siso_partition(self, siso_plant):
        decision = stabilizable(siso_plant)
        assert decision.stabilizable
        lams = decision.certificate.lambdas()
        total = Polynomial.zero(Z)
        for lam in lams:
            total = total + lam
        assert total == zp("1")


def _random_ring_poly(rng, ring, degree=6, terms=3):
    exps = [e for e in range(degree + 1) if ring.semigroup_contains(e)]
    p = Polynomial.zero(Z)
    for _ in range(terms):
        p = p + Polynomial({(rng.choice(exps),): rng.randint(-3, 3)}, Z)
    return p


class TestGcdUnitTest:
    """The gcd unit test of `stabilizable` agrees with `IdealHandle.is_unit`."""

    @pytest.mark.parametrize("gens", [(1,), (2, 3), (3, 5), (4, 5, 6, 7)])
    def test_agrees_on_random_subsets(self, gens):
        ring = RingModel.monomial_subalgebra("z", gens)
        pres = presentation(ring)
        rng = random.Random(sum(gens))
        outcomes = []
        for _ in range(8):
            d = Polynomial.one(Z) + _random_ring_poly(rng, ring).scale(Fraction(1, 2))
            if in_Z(d, ring):
                continue
            N = Mat.from_rows([[_random_ring_poly(rng, ring)], [_random_ring_poly(rng, ring)]])
            result = gef(PlantFraction.from_parts(ring, N, d))
            lams = [lam for e in result.entries for lam in e.generators]
            for _ in range(8):
                subset = rng.sample(lams, rng.randint(1, len(lams)))
                by_gcd = _running_gcd(subset).is_constant()
                ok, cert = pres.ideal([pres.lift(lam) for lam in subset]).is_unit()
                assert by_gcd == ok, [str(lam) for lam in subset]
                outcomes.append(ok)
        assert set(outcomes) == {True, False}


class TestPolynomialRingUnitTest:
    """Over Q[x,y] the full set's tracked run is reused when it is chosen."""

    XY = ("x", "y")

    def _decide(self, monkeypatch, rows, den):
        N = Mat.from_rows([[parse_poly(r, self.XY)] for r in rows])
        pf = PlantFraction.from_parts(RingModel.polynomial(self.XY), N,
                                      parse_poly(den, self.XY))
        gr = gef(pf)
        monkeypatch.setattr(synth, "gef", lambda _: gr)
        tracked = []  # track_cofactors of each Buchberger run after the GEFs
        buchberger = groebner.buchberger

        def counting(gens, variables, order, track_cofactors=False):
            tracked.append(track_cofactors)
            return buchberger(gens, variables, order, track_cofactors)
        monkeypatch.setattr(groebner, "buchberger", counting)
        decision = stabilizable(pf)
        assert decision.stabilizable and decision.certificate.verify()
        return decision, tracked

    def test_full_set_chosen_tracks_once(self, monkeypatch):
        # x/(1 + xy): neither factor alone generates, so both are chosen
        decision, tracked = self._decide(monkeypatch, ["x"], "1 + x*y")
        assert len(decision.certificate.sharp) == 2
        assert tracked == [True, False, False]

    def test_subset_chosen_tracks_full_and_subset(self, monkeypatch):
        # [x; y]/(1 + xy): the first and third factors generate
        decision, tracked = self._decide(monkeypatch, ["x", "y"], "1 + x*y")
        assert [i for i, _ in decision.certificate.sharp] == [IndexSet((1,)),
                                                               IndexSet((3,))]
        assert tracked.count(True) == 2 and tracked[0] and tracked[-1]


class TestLocalFactorization:
    # over A_lam the factors are K_N/lam and K_D/lam; the published values are
    # the witness column (lam1, k2, k3) and the 0/1 Bezout coefficients

    def test_published_values_first_selection(self, delay_plant, paper):
        lf = local_factorization(delay_plant, IndexSet((1,)), paper.lam1)
        assert lf.K_N.entries == (paper.lam1, paper.k2)
        assert lf.K_D.entries == (paper.k3,)
        assert lf.Y.entries == (zp("1"), zp("0"))
        assert lf.X.entries == (zp("0"),)
        assert lf.bezout_holds()

    def test_published_values_second_selection(self, delay_plant, paper):
        lf = local_factorization(delay_plant, IndexSet((2,)), paper.lam2)
        assert lf.Y.entries == (zp("0"), zp("1"))
        assert lf.X.entries == (zp("0"),)
        assert lf.bezout_holds()

    def test_zero_plant(self, zero_plant):
        lf = local_factorization(zero_plant, zero_plant.denominator_rows(), zp("1"))
        assert all(e.is_zero() for e in lf.K_N.entries)
        assert lf.K_D.entries == (zp("1"),)
        assert all(e.is_zero() for e in lf.Y.entries)
        assert lf.X.entries == (zp("1"),)

    def test_siso_bezout_by_substitution(self, siso_plant):
        lam = zp("1 - z^2")
        lf = local_factorization(siso_plant, IndexSet((2,)), lam)
        lhs = lf.Y * lf.K_N + lf.X * lf.K_D
        assert lhs.entries == (lam,)


class TestPartitionPowers:
    def test_single_unit(self):
        assert partition_powers([zp("1")]) == [zp("1")]

    def test_omega_one_gives_units(self, delay_decision):
        lams = delay_decision.certificate.lambdas()
        coeffs = partition_powers(lams)
        assert all(a == zp("1") for a in coeffs)

    def test_three_lambdas(self):
        lam = [zp("z^2"), zp("z^3"), zp("1 - z^2 - z^3")]
        coeffs = partition_powers(lam)
        total = Polynomial.zero(Z)
        for a, l in zip(coeffs, lam):
            total = total + a * l
        assert total == zp("1")

    def test_rejects_non_partition(self):
        with pytest.raises(Exception):
            partition_powers([zp("z^2")])


def _repair_by_polynomial_minors(a_mat, b_mat, ring):
    """The scan over polynomial minors: (rows, R) of the first minor outside Z, else None.

    Its order, fewest B-rows first and lexicographic among those, is the
    oracle for `repair_nonsingular`'s claim that the lexicographic scan
    finds the same minor."""
    p, q = a_mat.rows, b_mat.rows
    stack = a_mat.vstack(b_mat)
    for rows in sorted(combinations(range(p + q), p),
                       key=lambda c: (sum(i >= p for i in c), c)):
        if not in_Z(stack.take_rows(rows).det(), ring):
            cells = set(zip([i for i in range(p) if i not in rows],
                            [i - p for i in rows if i >= p]))
            return rows, Mat.build(p, q, lambda i, j: Polynomial.const(
                int((i, j) in cells), ring.variables))
    return None


@st.composite
def _stacked_pairs(draw):
    """A ring over Q[z^2,z^3] and a p x p matrix A over it with a q x p B, p, q <= 3.

    The last rows of A may repeat the first mod Z, so that A(0) is
    rank-deficient by up to p - 1; one column may be killed mod Z, so that
    [A; B] has no Z-nonsingular full-size minor at all.
    """
    ring = draw(st.sampled_from([RingModel.monomial_subalgebra("z", (2, 3)),
                                 RingModel.monomial_subalgebra("z", (2, 3), ZERO_IDEAL)]))
    killer = zp("0") if ring.z_mode == ZERO_IDEAL else zp("z^2")  # a generator of Z
    p, q = draw(st.integers(1, 3)), draw(st.integers(1, 3))

    def entry():
        terms = draw(st.dictionaries(st.sampled_from([(2,), (3,), (5,)]),
                                     st.integers(-2, 2), max_size=2))
        terms[(0,)] = draw(st.sampled_from([1, -1, 2, 0]))
        return Polynomial(terms, Z)

    rows = [[entry() for _ in range(p)] for _ in range(p + q)]
    for i in range(p - draw(st.integers(0, p - 1)), p):
        rows[i] = [a + killer * entry() for a in rows[0]]
    if draw(st.integers(0, 3)) == 3:
        j = draw(st.integers(0, p - 1))
        for row in rows:
            row[j] = row[j] * killer
    return ring, Mat.from_rows(rows[:p]), Mat.from_rows(rows[p:])


class TestRepair:
    def test_published_instance(self, ring23, paper):
        a_mat = Mat.from_rows([[zp("0")]])
        scalar = paper.alpha1 * paper.lam1 * paper.g_12_3
        b_mat = Mat.from_rows([[-(scalar * paper.lam1)],
                               [-(scalar * paper.k2)]])
        result = repair_nonsingular(a_mat, b_mat, ring23)
        assert result.R.to_rows() == [[zp("1"), zp("0")]]
        assert (a_mat.vstack(b_mat).take_rows(result.rows).det()
                == -(paper.alpha1 * paper.lam1 ** 2 * paper.g_12_3))
        repaired = a_mat + result.R * b_mat
        assert z_nonsingular(repaired, ring23)

    def test_already_nonsingular(self, ring23):
        a_mat = Mat.from_rows([[zp("1 - z^2")]])
        b_mat = Mat.from_rows([[zp("z^2")], [zp("1")]])
        result = repair_nonsingular(a_mat, b_mat, ring23)
        assert all(e.is_zero() for e in result.R.entries)
        assert a_mat.vstack(b_mat).take_rows(result.rows).det() == zp("1 - z^2")

    def test_minor_enumeration_by_hand(self, ring23):
        a_mat = Mat.from_rows([[zp("0")]])
        b_mat = Mat.from_rows([[zp("1")], [zp("z^2")]])
        result = repair_nonsingular(a_mat, b_mat, ring23)
        assert result.R.to_rows() == [[zp("1"), zp("0")]]
        assert (a_mat + result.R * b_mat).entries[0] == zp("1")

    def test_no_minor_raises(self, ring23):
        a_mat = Mat.from_rows([[zp("z^2")]])
        b_mat = Mat.from_rows([[zp("z^3")]])
        with pytest.raises(NoNonsingularMinorError):
            repair_nonsingular(a_mat, b_mat, ring23)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(_stacked_pairs())
    # A(0) = 0, so the first minor outside Z takes two B-rows
    @example((RingModel.monomial_subalgebra("z", (2, 3)),
              Mat.from_rows([[zp("z^2"), zp("z^3")], [zp("z^3"), zp("z^2")]]),
              Mat.from_rows([[zp("z^2"), zp("1")], [zp("1"), zp("z^3")], [zp("1"), zp("1")]])))
    def test_same_choice_as_the_polynomial_minor_scan(self, case):
        ring, a_mat, b_mat = case
        expected = _repair_by_polynomial_minors(a_mat, b_mat, ring)
        if expected is None:
            with pytest.raises(NoNonsingularMinorError):
                repair_nonsingular(a_mat, b_mat, ring)
            return
        result = repair_nonsingular(a_mat, b_mat, ring)
        assert (result.rows, result.R) == expected

    def test_scan_with_several_b_rows(self, tmp_path):
        # the 3 x 2 plant [r2, z^2; z^3, r3; z^2, z^3] with
        # rc = (1 - c^3 z^3)/(1 - c^2 z^2): its repair takes two B-rows
        r = lambda c: f"(1 - {c ** 3}*z^3)/(1 - {c ** 2}*z^2)"
        path = tmp_path / "plant.json"
        path.write_text(json.dumps({
            "ring": {"kind": "monomial_subalgebra", "variable": "z", "generators": [2, 3],
                     "z_mode": "zero_constant_term"},
            "inputs": 2, "outputs": 3,
            "entries": [[r(2), "z^2"], ["z^3", r(3)], ["z^2", "z^3"]]}))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["synth", str(path)]) == 0
        assert json.loads(out.getvalue())["repair"]["applied"]
        # the report of the scan over polynomial minors
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == \
            "da19220f1c13513d6024ab18c6c955baf308ad3c123839e3d448e139a4e49724"


class TestSynthesize:
    def test_delay_plant_repair_branch_fires(self, delay_plant, delay_decision,
                                             delay_controller):
        assert delay_controller.repair_applied
        assert delay_controller.repair_index_set == IndexSet((1,))
        assert delay_controller.report.ok
        certificate = synth_report(delay_plant, delay_decision, delay_controller)["certificate"]
        assert certificate["omega"] == 1
        assert all(term["coefficient"] == "1" for term in certificate["terms"])

    def test_denominator_z_nonsingular(self, delay_plant, delay_controller):
        assert z_nonsingular(delay_controller.Den, delay_plant.ring)

    def test_h_entries_in_ring(self, delay_plant, delay_controller):
        flags = delay_controller.report.entry_membership
        assert all(all(row) for row in flags)
        for entry in delay_controller.H.entries:
            assert membership(entry, delay_plant.ring)

    def test_certificate_identity_after_synthesis(self, delay_controller):
        assert delay_controller.certificate.verify()

    def test_local_bezout_after_repair(self, delay_controller):
        for lf in delay_controller.locals:
            assert lf.bezout_holds()

    def test_closed_loop_block_identities(self, delay_plant, delay_controller):
        # (E + C P)^-1 equals the synthesized denominator, and C (E + P C)^-1
        # the numerator, as matrices over the transfer-function field
        P, C = field(delay_plant.P), field(delay_controller.C)
        m = delay_plant.m
        one = P.entries[0].one_like()
        E_m = Mat.scalar_matrix(m, one, one.zero_like())
        inner = E_m + C * P
        det = inner.det()
        inv = inner.adjugate().map(lambda e: e * det.inverse())
        den_frac = delay_controller.Den.map(FieldFraction.from_poly)
        num_frac = delay_controller.Num.map(FieldFraction.from_poly)
        assert inv == den_frac
        n = delay_plant.n
        E_n = Mat.scalar_matrix(n, one, one.zero_like())
        outer = E_n + P * C
        det_o = outer.det()
        inv_o = outer.adjugate().map(lambda e: e * det_o.inverse())
        assert C * inv_o == num_frac

    def test_zero_plant(self, zero_plant):
        result = synthesize(zero_plant)
        assert all(e.is_zero() for e in field(result.C).entries)
        expected = Mat.scalar_matrix(3, zp("1"), zp("0"))
        assert result.H == expected
        assert not result.repair_applied

    def test_siso_pipeline(self, siso_plant, siso_controller):
        assert siso_controller.report.ok
        assert z_nonsingular(siso_controller.Den, siso_plant.ring)

    def test_not_stabilizable_raises(self, xy_plant):
        with pytest.raises(NotStabilizableError):
            synthesize(xy_plant)


class TestFourOutputDelayPlant:
    def test_synthesis_verifies_within_budget(self, ring23):
        pairs = [[(zp(f"1 - {c ** 3}*z^3"), zp(f"1 - {c ** 2}*z^2"))]
                 for c in (1, 2, 3, 4)]
        with _Budget("4-output delay synth verifies", 30):
            pf = scalar_denominator(pairs, ring23)
            result = synthesize(pf)
            assert result.report.ok
            assert transpose_duality_check(pf.P, result.C, ring23)


class TestVerifyStabilizing:
    def test_published_controller_reproduces_h(self, delay_plant, paper):
        report = verify_stabilizing(delay_plant.P,
                                    *row_factors(paper.controller, delay_plant.ring.variables),
                                    delay_plant.ring)
        assert report.ok
        for (i, j), expected in paper.h_entries.items():
            assert report.H_ring[i, j] == expected, (i, j)

    def test_zero_pair(self, zero_plant):
        C = Mat.from_rows([[PolyFraction(zp("0")), PolyFraction(zp("0"))]])
        report = verify_stabilizing(zero_plant.P, *row_factors(C, zero_plant.ring.variables),
                                    zero_plant.ring)
        assert report.ok
        assert report.H_ring == Mat.scalar_matrix(3, zp("1"), zp("0"))

    def test_zero_controller_rejected(self, delay_plant):
        C = Mat.from_rows([[PolyFraction(zp("0")), PolyFraction(zp("0"))]])
        report = verify_stabilizing(delay_plant.P, *row_factors(C, delay_plant.ring.variables),
                                    delay_plant.ring)
        assert report.well_posed and not report.ok
        # the failing block is -P, whose reduced entries are not polynomials
        assert (0, 2) in report.failures()

    def test_polynomial_entry_outside_ring(self, ring23):
        # with P = 0 the closed loop is [[1, 0], [C, 1]]: C = z divides
        # exactly but does not lie in Q[z^2,z^3]
        P = Mat.from_rows([[PolyFraction(zp("0"))]])
        C = Mat.from_rows([[PolyFraction(zp("z"))]])
        report = verify_stabilizing(P, *row_factors(C, ring23.variables), ring23)
        assert report.well_posed and not report.ok
        assert report.failures() == [(1, 0)] and report.H_ring is None

    def test_ill_posed(self, ring23):
        P = Mat.from_rows([[PolyFraction(zp("1"))]])
        C = Mat.from_rows([[PolyFraction(zp("-1"))]])
        report = verify_stabilizing(P, *row_factors(C, ring23.variables), ring23)
        assert not report.well_posed and not report.ok


class TestDuality:
    def test_delay_plant_with_synthesized_controller(self, delay_plant,
                                                     delay_controller):
        assert transpose_duality_check(delay_plant.P, delay_controller.C,
                                       delay_plant.ring)

    def test_zero_pair(self, zero_plant):
        C = Mat.from_rows([[PolyFraction(zp("0")), PolyFraction(zp("0"))]])
        assert transpose_duality_check(zero_plant.P, C, zero_plant.ring)

    def test_random_siso_pairs(self, ring23):
        rng = random.Random(61)
        checked = 0
        while checked < 10:
            num_p = _random_causal_poly(rng)
            num_c = _random_causal_poly(rng)
            P = Mat.from_rows([[PolyFraction(num_p, zp("1 - z^2"))]])
            C = Mat.from_rows([[PolyFraction(num_c, zp("1 - 4*z^2"))]])
            try:
                assert transpose_duality_check(P, C)
            except IllPosedError:
                continue
            checked += 1


def _fraction_inverse(M):
    det = M.det()
    if det.is_zero():
        raise IllPosedError("matrix over the transfer-function field is singular")
    inv_det = det.inverse()
    return M.adjugate().map(lambda e: e * inv_det)


def _fraction_closed_loop(P, C):
    """Reference closed loop: (E + P C)^-1 and (E + C P)^-1 in the fraction field."""
    P, C = field(P), field(C)
    one = P.entries[0].one_like()
    E_n = Mat.scalar_matrix(P.rows, one, one.zero_like())
    E_m = Mat.scalar_matrix(P.cols, one, one.zero_like())
    H11 = _fraction_inverse(E_n + P * C)
    H22 = _fraction_inverse(E_m + C * P)
    return H11.hstack(-(P * H22)).vstack((C * H11).hstack(H22))


def _ill_posed_partner(P):
    """A controller with E + C P singular: minus the inverse of P's (0, 0) entry."""
    P = field(P)
    zero = P.entries[0].zero_like()
    return Mat.build(P.cols, P.rows, lambda i, j:
                     -P[0, 0].inverse() if (i, j) == (0, 0) else zero)


class TestClosedLoopOracle:
    DELAY_DENS = ("1", "1 - z^2", "1 - 4*z^2", "1 + 2*z^3")
    XY = ("x", "y")

    def _delay_entry(self, rng):
        return PolyFraction(_random_causal_poly(rng), zp(rng.choice(self.DELAY_DENS)))

    def _xy_entry(self, rng, den):
        # numerators share a factor with their denominator; multivariate
        # fractions are stored unreduced
        terms = ["1", "x", "y", "x*y", "x^2"]
        num = parse_poly(" + ".join(rng.sample(terms, rng.randint(1, 3))), self.XY)
        den = parse_poly(den, self.XY)
        return PolyFraction(num * parse_poly("1 + x", self.XY), den)

    def _pairs(self, rng, ring23):
        """Random pairs of each shape, then one ill-posed pair per shape."""
        siso = lambda: Mat.from_rows([[self._delay_entry(rng)]])
        square = lambda: Mat.build(2, 2, lambda i, j: self._delay_entry(rng))
        # the second plant denominator divides the first
        xy_plant = lambda: Mat.from_rows([[self._xy_entry(rng, "(1 + x)*(1 + y)")],
                                          [self._xy_entry(rng, "1 + x")]])
        xy_controller = lambda: Mat.from_rows([[self._xy_entry(rng, "1 + x*y"),
                                                self._xy_entry(rng, "1 + y")]])
        xy_ring = RingModel.polynomial(self.XY, ZERO_IDEAL)
        for plant, controller, ring, count in ((siso, siso, ring23, 8),
                                               (square, square, ring23, 2),
                                               (xy_plant, xy_controller, xy_ring, 2)):
            for _ in range(count):
                yield plant(), controller(), ring
            P = plant()
            yield P, _ill_posed_partner(P), ring

    def test_matches_fraction_field_reference(self, ring23):
        rng = random.Random(97)
        ill_posed = 0
        for P, C, ring in self._pairs(rng, ring23):
            try:
                expected = _fraction_closed_loop(P, C)
            except IllPosedError:
                ill_posed += 1
                with pytest.raises(IllPosedError):
                    closed_loop(P, C)
                report = verify_stabilizing(P, *row_factors(C, ring.variables), ring)
                assert not report.well_posed
                continue
            assert closed_loop(P, C) == expected
            reference_failures = [(i, j) for i in range(expected.rows)
                                  for j in range(expected.cols)
                                  if not fraction_in_ring(expected[i, j], ring)]
            report = verify_stabilizing(P, *row_factors(C, ring.variables), ring)
            assert report.failures() == reference_failures
        assert ill_posed == 3

    def _nonsingular(self, entry):
        """A random 2x2 ring matrix with nonzero determinant and off-diagonal."""
        while True:
            T = Mat.build(2, 2, lambda i, j: entry())
            if not T.det().is_zero() and not T[0, 1].is_zero():
                return T

    def _factor_pairs(self, rng, ring23):
        """Plants with left factorizations C = X^-1 Y whose X is not diagonal.

        Random pairs over Q[z^2,z^3]; one pair over Q[x,y], whose plant keeps
        a common factor 1 + y of its numerators and denominators and whose
        Delta = [[1, x], [0, 1]] is unimodular; and one ill-posed pair, T X0
        and T Y0 for the row factors of an ill-posed controller.
        """
        square = lambda: Mat.build(2, 2, lambda i, j: self._delay_entry(rng))
        delay_poly = lambda: _random_causal_poly(rng)
        for _ in range(4):
            yield (square(), self._nonsingular(delay_poly),
                   Mat.build(2, 2, lambda i, j: delay_poly()), ring23)
        xy = lambda text: parse_poly(text, self.XY)
        P = Mat.from_rows([[PolyFraction(xy("x*(1 + y)"), xy("1 + y")),
                            PolyFraction(xy("y*(1 + y)"), xy("1 + y"))]])
        yield (P, Mat.from_rows([[xy("1 - x"), xy("x - y")], [xy("0"), xy("1")]]),
               Mat.from_rows([[xy("1")], [xy("0")]]), RingModel.polynomial(self.XY, ZERO_IDEAL))
        P = square()
        X0, Y0 = row_factors(_ill_posed_partner(P), Z)
        T = self._nonsingular(delay_poly)
        yield P, T * X0, T * Y0, ring23

    def test_general_factorization_matches_fraction_field_reference(self, ring23):
        rng = random.Random(41)
        ill_posed = 0
        for P, X, Y, ring in self._factor_pairs(rng, ring23):
            N, d = _scalar_fraction(P, ring.variables)
            C = _fraction_inverse(X.map(FieldFraction.from_poly)) * Y.map(FieldFraction.from_poly)
            try:
                expected = _fraction_closed_loop(P, C)
            except IllPosedError:
                ill_posed += 1
                with pytest.raises(IllPosedError):
                    _closed_loop(N, d, X, Y)
                assert not verify_stabilizing(P, X, Y, ring).well_posed
                continue
            H, det = _closed_loop(N, d, X, Y)
            assert H.map(lambda e: PolyFraction(e, det)) == expected
            assert closed_loop(P, C) == expected
            reference_failures = [(i, j) for i in range(expected.rows)
                                  for j in range(expected.cols)
                                  if not fraction_in_ring(expected[i, j], ring)]
            assert verify_stabilizing(P, X, Y, ring).failures() == reference_failures
        assert ill_posed == 1


def _random_causal_poly(rng):
    exps = [0, 2, 3, 4, 5]
    p = Polynomial.zero(Z)
    for _ in range(rng.randint(1, 3)):
        p = p + Polynomial({(rng.choice(exps),): Fraction(rng.randint(-3, 3))}, Z)
    return p


@st.composite
def _causal_plants(draw):
    """Generators (a, b) and an n x m plant over Q[z^a,z^b], n, m <= 2.

    Every numerator and denominator is a ring element with exponents at most
    6; a denominator's constant term is nonzero, so every entry is causal.
    """
    gens = draw(st.sampled_from([(2, 3), (3, 5)]))
    exps = [e for e in range(1, 7) if any((e - a * gens[0]) % gens[1] == 0
                                          for a in range(e // gens[0] + 1))]

    def ring_poly(constants):
        terms = {(0,): Fraction(draw(st.sampled_from(constants)))}
        for e in draw(st.lists(st.sampled_from(exps), max_size=2, unique=True)):
            terms[(e,)] = Fraction(draw(st.integers(-3, 3)))
        return Polynomial(terms, Z)

    n, m = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    rows = [[(ring_poly(range(-2, 3)), ring_poly([-2, -1, 1, 2])) for _ in range(m)]
            for _ in range(n)]
    return gens, rows


def _synthesize_from_own_factors(pf, decision=None):
    """synthesize with synth.row_factors raising, so it cannot split its own fractions."""
    refuse = AssertionError("synthesize split its controller's fractions")
    with mock.patch.object(synth, "row_factors", side_effect=refuse):
        return synthesize(pf, decision)


def _file_route_h(pf, result):
    """H from the reported fractions, split into row factors as a controller file is."""
    X, Y = row_factors(result.C, pf.ring.variables)
    return verify_stabilizing(pf.P, X, Y, pf.ring).H_ring


class TestSynthesisVerifiesItsFactors:
    @pytest.mark.parametrize("name, repaired", [("delay_plant", True),
                                                ("siso_plant", False),
                                                ("zero_plant", False)])
    def test_file_route_gives_the_same_h(self, request, name, repaired):
        pf = request.getfixturevalue(name)
        result = _synthesize_from_own_factors(pf)
        assert result.repair_applied == repaired
        assert result.report.H_ring == _file_route_h(pf, result)


class TestRowFactors:
    def _check(self, C, variables):
        """X is diagonal with nonzero c_i and Y[i, j] / c_i == C[i, j]; returns X."""
        X, Y = row_factors(C, variables)
        assert (X.rows, X.cols, Y.rows, Y.cols) == (C.rows, C.rows, C.rows, C.cols)
        for i in range(C.rows):
            assert not X[i, i].is_zero()
            assert all(X[i, j].is_zero() for j in range(C.rows) if j != i)
            for j in range(C.cols):
                assert PolyFraction(Y[i, j], X[i, i]) == C[i, j], (i, j)
        return X

    def test_oracle_and_published_controllers(self, ring23, paper):
        for _, C, ring in TestClosedLoopOracle()._pairs(random.Random(97), ring23):
            self._check(C, ring.variables)
        self._check(paper.controller, Z)

    def test_zero_row_and_multivariate_rows(self):
        xy_vars = ("x", "y")
        xy = lambda text: parse_poly(text, xy_vars)
        C = Mat.from_rows([
            [PolyFraction(xy("0")), PolyFraction(xy("0"))],
            [PolyFraction(xy("x"), xy("1 + y")), PolyFraction(xy("y"), xy("(1 + x)*(1 + y)"))],
            [PolyFraction(xy("1"), xy("1 + x*y")), PolyFraction(xy("x - y"))],
        ])
        X = self._check(C, xy_vars)
        assert X[0, 0] == xy("1")


class TestRandomPlantSynthesis:
    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(_causal_plants())
    # the published delay plant, whose synthesis takes the repair branch
    @example(((2, 3), [[(zp("1 - z^3"), zp("1 - z^2"))], [(zp("1 - 8*z^3"), zp("1 - 4*z^2"))]]))
    def test_h_matches_fraction_field_and_simulation(self, plant):
        gens, rows = plant
        pf = scalar_denominator(rows, RingModel.monomial_subalgebra("z", gens))
        decision = stabilizable(pf)
        if not decision.stabilizable:
            return
        result = _synthesize_from_own_factors(pf, decision)
        assert result.report.H_ring == _file_route_h(pf, result)
        H = result.H.map(FieldFraction.from_poly)
        assert H == _fraction_closed_loop(pf.P, result.C)
        assert compare_to_H(pf.P, result.C, 8, against=H)


class TestCausality:
    def test_synthesized_controller_causal(self, delay_plant, delay_controller):
        report = causality_check(delay_plant, delay_controller)
        assert report.ok
        assert report.denominator_nonsingular and report.adjugate_in_ring
        assert not report.plant_strictly_causal

    def test_strictly_causal_plant(self, siso_plant, siso_controller):
        report = causality_check(siso_plant, siso_controller)
        assert report.plant_strictly_causal
        assert report.ok
        assert all(all(row) for row in report.entry_causal)

    def test_zero_controller(self, zero_plant):
        result = synthesize(zero_plant)
        report = causality_check(zero_plant, result)
        assert report.ok


class TestOtherShapes:
    def test_two_by_two_full_ring(self):
        from stabring.ring import ZERO_CONSTANT_TERM
        ring = RingModel.polynomial(("z",), ZERO_CONSTANT_TERM)
        pairs = [[(zp("z"), zp("1 - z")), (zp("1"), zp("1"))],
                 [(zp("0"), zp("1")), (zp("z^2"), zp("1 - 2*z"))]]
        pf = scalar_denominator(pairs, ring)
        result = synthesize(pf)
        assert result.report.ok
        assert causality_check(pf, result).ok
        assert transpose_duality_check(pf.P, result.C, ring)

    def test_wide_plant(self, ring23):
        pairs = [[(zp("z^2"), zp("1 - z^2")), (zp("z^3"), zp("1 - z^3"))]]
        pf = scalar_denominator(pairs, ring23)
        result = synthesize(pf)
        assert result.report.ok
        assert z_nonsingular(result.Den, ring23)
        assert result.Den.rows == 2 and result.Num.cols == 1

    def test_multivariate_stabilizable(self):
        from stabring.ring import ZERO_IDEAL
        ring = RingModel.polynomial(("x", "y"), ZERO_IDEAL)
        vx = ring.variables
        pf = scalar_denominator(
            [[(parse_poly("x", vx), parse_poly("1 + x", vx))]], ring)
        decision = stabilizable(pf)
        assert decision.stabilizable
        result = synthesize(pf, decision)
        assert result.report.ok


class TestMinorIdealRelations:
    def test_minor_ideal_inside_factor_sum(self, delay_plant, delay_decision,
                                           paper):
        # with f = lam1^2 and the witness column K, the size-1 minors of f*K
        # land in the sum of all generalized elementary factors, and f^2 lands
        # in the minor ideal itself
        result = delay_decision.gef_result
        pres = result.pres
        f = paper.lam1 ** 2
        K = Mat.from_rows([[paper.lam1], [paper.k2], [paper.k3]])
        minors = minor_ideal(K.map(lambda e: e * f), 1)
        all_gens = [pres.lift(g) for entry in result.entries
                    for g in entry.generators]
        sum_handle = pres.ideal(all_gens)
        for minor in minors:
            assert sum_handle.contains(pres.lift(minor))
        minor_handle = pres.ideal([pres.lift(m) for m in minors])
        assert minor_handle.contains(pres.lift(f ** 2))
