"""The local criterion at z = 0 against the decision, on plants over Q[z^S].

Away from z = 0 the ring Q[z^S] is locally Q[z], where every plant is
stabilizable, so the decision over the whole ring must agree with one over
the local ring at z = 0 (`oracles.local_criterion_at_zero`), which takes one
determinant, one adjugate and a series division per index set.  The same
argument says what a negative verdict leaves: the generators of all factors
have no common zero but z = 0, so their gcd is c z^k.
"""

from fractions import Fraction

from hypothesis import event, given, settings
from hypothesis import strategies as st

from stabring.gef import running_gcd, scalar_denominator
from stabring.poly import Polynomial
from stabring.ring import ZERO_CONSTANT_TERM, ZERO_IDEAL, RingModel
from stabring.synth import stabilizable
from oracles import local_criterion_at_zero


@st.composite
def _plants(draw):
    """A ring Q[z^S], S one of (2, 3), (3, 4, 5), (2, 5), (3, 5), in either
    causality mode, and the (num, den) entries of a plant of up to three
    outputs and two inputs over it.

    Entries are ring elements of degree at most 6.  With Z the elements of
    zero constant term every denominator has a nonzero constant term, and the
    plant is stabilizable.  With Z = 0, half of the plants have no constant
    term anywhere, which is where plants that are not stabilizable come from.
    """
    gens = draw(st.sampled_from([(2, 3), (3, 4, 5), (2, 5), (3, 5)]))
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
        constants = den_constants = st.just(0)
    else:
        constants = st.sampled_from([0, 1, -2])
        den_constants = small if z_mode == ZERO_CONSTANT_TERM else constants
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    rows = [[(ring_element(constants, False), ring_element(den_constants, True))
             for _ in range(m)] for _ in range(n)]
    return ring, rows


def _verdict(decision) -> str:
    return "stabilizable" if decision.stabilizable else "not stabilizable"


class TestLocalCriterionAtZero:
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(_plants())
    def test_agrees_with_the_decision(self, plant):
        ring, rows = plant
        pf = scalar_denominator(rows, ring)
        decision = stabilizable(pf)
        event(f"{pf.n} x {pf.m}, {ring.z_mode}, {_verdict(decision)}")
        assert local_criterion_at_zero(pf) == decision.stabilizable

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(_plants())
    def test_negative_verdict_leaves_a_power_of_z(self, plant):
        ring, rows = plant
        decision = stabilizable(scalar_denominator(rows, ring))
        event(_verdict(decision))
        g = running_gcd([lam for entry in decision.gef_result.entries
                         for lam in entry.generators])
        if decision.stabilizable:
            assert g.is_constant()
        else:
            # c z^k with k >= 1: one term, not the constant one
            assert len([c for c in g.univar_coeffs() if c]) == 1 and g.constant_coeff() == 0
