"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every check is exact (no tolerances); the stated wall-clock budgets
are asserted as hard bounds.
"""

import random
import time
from fractions import Fraction

from stabring.gef import PlantFraction, gef
from stabring.matrixring import IndexSet, Mat
from stabring.poly import Polynomial, parse_poly
from stabring.ring import PolyFraction, presentation, z_nonsingular
from stabring.synth import (repair_nonsingular, row_factors, stabilizable,
                            synthesize, verify_stabilizing)
from oracles import (FieldFraction, causality_check, compare_to_H, field,
                     impulse_response, minor_ideal, transpose_duality_check)

Z = ("z",)


def zp(text):
    return parse_poly(text, Z)


class _Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"{status} {self.name} ({elapsed:.2f}s, budget {self.seconds}s)")
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"{self.name} exceeded its {self.seconds}s budget: {elapsed:.2f}s")
        return False


def _ideals_equal(result, index_set, expected_gens):
    entry = result.entry_for(IndexSet(index_set))
    pres = result.pres
    expected = pres.ideal([pres.lift(g) for g in expected_gens])
    forward = all(entry.handle.contains(pres.lift(g)) for g in expected_gens)
    backward = all(expected.contains(pres.lift(g)) for g in entry.generators)
    return forward and backward


def test_criterion_01_gef_reproduction(delay_plant, paper):
    with _Budget("criterion 01: factor ideals match the published generators", 10):
        result = gef(delay_plant)
        for key, gens in paper.factor_gens.items():
            assert _ideals_equal(result, key, gens), key


def test_criterion_02_bezout_identity(paper):
    with _Budget("criterion 02: alpha/lambda partition of unity", 1):
        assert paper.alpha1 * paper.lam01 + paper.alpha2 * paper.lam02 == zp("1")


def test_criterion_03_stabilizability_verdicts(delay_plant, delay_decision,
                                               xy_plant):
    with _Budget("criterion 03a: delay plant stabilizable", 10):
        assert delay_decision.stabilizable
        assert delay_decision.certificate.verify()
    with _Budget("criterion 03b: x/y plant not stabilizable", 10):
        assert not stabilizable(xy_plant).stabilizable


def test_criterion_04_synthesis_soundness(delay_plant, delay_decision):
    with _Budget("criterion 04: synthesis repairs and verifies", 60):
        result = synthesize(delay_plant, delay_decision)
        assert result.repair_applied
        assert result.report.ok
        flags = result.report.entry_membership
        assert sum(len(r) for r in flags) == 9
        assert all(all(r) for r in flags)
        assert z_nonsingular(result.Den, delay_plant.ring)
        P, C = field(delay_plant.P), field(result.C)
        one = P.entries[0].one_like()
        loop = Mat.scalar_matrix(2, one, one.zero_like()) + P * C
        assert not loop.det().is_zero()
        assert result.report.well_posed


def test_criterion_05_golden_controller(delay_plant, paper):
    with _Budget("criterion 05: published controller reproduces H exactly", 30):
        report = verify_stabilizing(delay_plant.P,
                                    *row_factors(paper.controller, delay_plant.ring.variables),
                                    delay_plant.ring)
        assert report.ok
        for (i, j), expected in paper.h_entries.items():
            assert report.H_ring[i, j] == expected, (i, j)


def test_criterion_06_repair_golden(ring23, paper):
    with _Budget("criterion 06: repair selector and minor match", 10):
        a_mat = Mat.from_rows([[zp("0")]])
        scalar = paper.alpha1 * paper.lam1 * paper.g_12_3
        b_mat = Mat.from_rows([[-(scalar * paper.lam1)], [-(scalar * paper.k2)]])
        result = repair_nonsingular(a_mat, b_mat, ring23)
        assert result.R.to_rows() == [[zp("1"), zp("0")]]
        assert (a_mat.vstack(b_mat).take_rows(result.rows).det()
                == -(paper.alpha1 * paper.lam1 ** 2 * paper.g_12_3))


def test_criterion_07_representation_invariance(delay_plant, ring23):
    with _Budget("criterion 07: factor ideals invariant under fraction scaling", 60):
        base = gef(delay_plant)
        pres = base.pres
        rng = random.Random(101)
        exps = [e for e in range(2, 8) if ring23.semigroup_contains(e)]
        done = 0
        while done < 5:
            s = Polynomial.one(Z)
            for _ in range(rng.randint(1, 2)):
                s = s + Polynomial({(rng.choice(exps),):
                                    Fraction(rng.randint(-3, 3))}, Z)
            if s.constant_coeff() == 0:
                continue
            scaled = PlantFraction.from_parts(
                ring23, delay_plant.N.map(lambda e: e * s), delay_plant.d * s)
            other = gef(scaled)
            for entry, entry_s in zip(base.entries, other.entries):
                assert all(entry_s.handle.contains(pres.lift(g))
                           for g in entry.generators)
                assert all(entry.handle.contains(pres.lift(g))
                           for g in entry_s.generators)
            done += 1


def test_criterion_08_transpose_duality(delay_plant, delay_controller):
    with _Budget("criterion 08: transpose duality identity", 60):
        assert transpose_duality_check(delay_plant.P, delay_controller.C,
                                       delay_plant.ring)
        rng = random.Random(103)
        exps = [0, 2, 3, 4]
        checked = 0
        while checked < 10:
            def rand_poly():
                p = Polynomial.zero(Z)
                for _ in range(rng.randint(1, 3)):
                    p = p + Polynomial({(rng.choice(exps),):
                                        Fraction(rng.randint(-3, 3))}, Z)
                return p
            P = Mat.from_rows([[PolyFraction(rand_poly(), zp("1 - z^2"))]])
            C = Mat.from_rows([[PolyFraction(rand_poly(), zp("1 - 4*z^2"))]])
            try:
                assert transpose_duality_check(P, C)
            except Exception as exc:
                from stabring.synth import IllPosedError
                if isinstance(exc, IllPosedError):
                    continue
                raise
            checked += 1


def test_criterion_09_minor_ideal_relations(delay_plant, delay_decision, paper):
    with _Budget("criterion 09: minor-ideal inclusions for f = lambda1^2", 60):
        result = delay_decision.gef_result
        pres = result.pres
        f = paper.lam1 ** 2
        K = Mat.from_rows([[paper.lam1], [paper.k2], [paper.k3]])
        minors = minor_ideal(K.map(lambda e: e * f), 1)
        sum_handle = pres.ideal([pres.lift(g) for entry in result.entries
                                 for g in entry.generators])
        for minor in minors:
            assert sum_handle.contains(pres.lift(minor))
        minor_handle = pres.ideal([pres.lift(mn) for mn in minors])
        assert minor_handle.contains(pres.lift(f ** 2))  # xi = 2


def test_criterion_10_membership_oracle(ring23):
    with _Budget("criterion 10: Groebner membership matches the linear oracle", 60):
        from test_groebner import _membership_oracle
        from stabring.groebner import IdealHandle
        rng = random.Random(107)
        variables = ("x", "y", "w")
        checked = 0
        while checked < 20:
            gens = []
            for _ in range(rng.randint(1, 3)):
                p = Polynomial.zero(variables)
                for _ in range(rng.randint(1, 3)):
                    exps = tuple(rng.randint(0, 2) for _ in variables)
                    p = p + Polynomial({exps: Fraction(rng.randint(-3, 3))},
                                       variables)
                if not p.is_zero():
                    gens.append(p)
            if not gens:
                continue
            handle = IdealHandle(variables, gens)
            if rng.random() < 0.5:
                p = Polynomial.zero(variables)
                for g in gens:
                    factor = Polynomial(
                        {tuple(rng.randint(0, 1) for _ in variables):
                         Fraction(rng.randint(-2, 2))}, variables)
                    p = p + factor * g
            else:
                p = Polynomial.zero(variables)
                for _ in range(rng.randint(1, 4)):
                    exps = tuple(rng.randint(0, 2) for _ in variables)
                    p = p + Polynomial({exps: Fraction(rng.randint(-3, 3))},
                                       variables)
            ok, witness = handle.contains(p, witness=True)
            bound = (max((c.total_degree() for c in witness if not c.is_zero()),
                         default=0) if ok else p.total_degree() + 2)
            assert _membership_oracle(p, gens, variables, max(bound, 0)) == ok
            checked += 1


def test_criterion_11_time_frequency_agreement(delay_plant, delay_controller,
                                               siso_plant, siso_controller):
    with _Budget("criterion 11: simulation agrees with the closed-loop map", 60):
        assert compare_to_H(delay_plant.P, delay_controller.C, 50)
        assert compare_to_H(siso_plant.P, siso_controller.C, 50)
        for result in (delay_controller, siso_controller):
            for entry in result.H.entries:
                series = impulse_response(FieldFraction.from_poly(entry), 50)
                assert series[1] == 0                      # no unit-delay tap
                degree = entry.total_degree()
                assert all(v == 0 for v in series[degree + 1:])  # finite support


def test_criterion_12_causality(delay_plant, delay_controller, siso_plant,
                                siso_controller):
    with _Budget("criterion 12: synthesized controllers are causal", 60):
        report = causality_check(delay_plant, delay_controller)
        assert report.ok
        strict = causality_check(siso_plant, siso_controller)
        assert strict.ok
        assert strict.plant_strictly_causal
        assert all(all(row) for row in strict.entry_causal)


def test_criterion_13_presentation_correctness(ring23):
    with _Budget("criterion 13: toric relation and lift/push identity", 60):
        pres = presentation(ring23)
        u, v = pres.variables
        expected = parse_poly(f"{u}^3 - {v}^2", (u, v))
        assert len(pres.relations) == 1
        assert pres.relations[0] in (expected, -expected)
        rng = random.Random(109)
        exps = [e for e in range(12) if ring23.semigroup_contains(e)]
        for _ in range(100):
            a = Polynomial.zero(Z)
            for _ in range(rng.randint(0, 4)):
                a = a + Polynomial({(rng.choice(exps),):
                                    Fraction(rng.randint(-6, 6), rng.randint(1, 3))}, Z)
            assert pres.push(pres.lift(a)) == a
