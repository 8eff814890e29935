"""The paper's module criterion against the decision, on plants with one input.

`stabilizable` decides by the generalized elementary factors: over Q[z^S] by
gap linear algebra and one gcd, over Q[x1..xn] by Groebner bases.  The
module criterion (`oracles.module_criterion`) asks instead whether the ideal
J generated by the rows of T = [N; d] is invertible, with Groebner colons
and intersections in the ring's presentation.
"""

import importlib.util
from fractions import Fraction
from pathlib import Path

from hypothesis import event, given, settings
from hypothesis import strategies as st

from stabring.cli import load_plant
from stabring.gef import scalar_denominator
from stabring.poly import Polynomial
from stabring.ring import ZERO_CONSTANT_TERM, ZERO_IDEAL, RingModel
from stabring.synth import stabilizable
from oracles import module_criterion

ROOT = Path(__file__).resolve().parents[1]


def _corpus():
    """perfbench/inputs.py, which writes every plant of the benchmark corpus."""
    spec = importlib.util.spec_from_file_location("corpus_inputs",
                                                  ROOT / "perfbench" / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@st.composite
def _one_input_plants(draw):
    """A ring Q[z^S], S one of (2, 3), (3, 4, 5), (2, 5), in either causality
    mode, and the (num, den) rows of a plant with one input and up to three
    outputs over it.

    Numerators and denominators are ring elements of degree at most 6.  With
    Z the elements of zero constant term every denominator has a nonzero
    constant term, and the plant is stabilizable.  With Z = 0 half of the
    plants have no constant term anywhere: away from z = 0 the ring is
    locally Q[z], so this is where plants that are not stabilizable come
    from.
    """
    gens = draw(st.sampled_from([(2, 3), (3, 4, 5), (2, 5)]))
    z_mode = draw(st.sampled_from([ZERO_CONSTANT_TERM, ZERO_IDEAL]))
    ring = RingModel.monomial_subalgebra("z", gens, z_mode)
    exps = [e for e in range(1, 7) if ring.semigroup_contains(e)]
    small = st.sampled_from([1, -1, 2, -3])

    def ring_element(constants, nonzero):
        constant = draw(constants)
        terms = {(0,): Fraction(constant)}
        others = st.lists(st.sampled_from(exps), min_size=int(nonzero and constant == 0),
                          max_size=2, unique=True)
        for e in draw(others):
            terms[(e,)] = Fraction(draw(small))
        return Polynomial(terms, ring.variables)

    if z_mode == ZERO_IDEAL and draw(st.booleans()):
        # every entry vanishes at z = 0, the one singular point of Q[z^S]
        constants = den_constants = st.just(0)
    else:
        constants = st.sampled_from([0, 1, -2])
        den_constants = small if z_mode == ZERO_CONSTANT_TERM else constants
    rows = [[(ring_element(constants, False), ring_element(den_constants, True))]
            for _ in range(draw(st.integers(1, 3)))]
    return ring, rows


class TestModuleCriterion:
    def test_corpus_plants_with_one_input(self, tmp_path):
        inputs = _corpus()
        verdicts = []
        for plant_id in inputs.all_plant_ids():
            path = inputs.write_plants(ROOT, [plant_id], tmp_path)[plant_id]
            pf = load_plant(str(path))
            if pf.m != 1:
                continue
            verdict = stabilizable(pf).stabilizable
            assert module_criterion(pf) == verdict, plant_id
            verdicts.append(verdict)
        # the fixture xy_plant and the four xy_unstab plants are not stabilizable
        assert (len(verdicts), verdicts.count(False)) == (31, 5)

    @settings(max_examples=120, derandomize=True, deadline=None)
    @given(_one_input_plants())
    def test_random_plants(self, plant):
        ring, rows = plant
        pf = scalar_denominator(rows, ring)
        verdict = stabilizable(pf).stabilizable
        event(f"{ring.z_mode}, {'stabilizable' if verdict else 'not stabilizable'}")
        assert module_criterion(pf) == verdict
