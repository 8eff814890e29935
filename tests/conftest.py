"""Shared fixtures: rings, plants, and the published golden data.

The delay-ring plant, its partition-of-unity elements, and the reference
controller come from the worked finite-time-delay example; they are rebuilt
here with the package's own parser so every golden test starts from plain
text.
"""

from __future__ import annotations

from fractions import Fraction
from types import SimpleNamespace

import pytest

from stabring.gef import PlantFraction, scalar_denominator
from stabring.matrixring import Mat
from stabring.poly import Polynomial, parse_poly
from stabring.ring import PolyFraction, RingModel, ZERO_IDEAL


def zpoly(text: str) -> Polynomial:
    return parse_poly(text, ("z",))


@pytest.fixture(scope="session")
def ring23() -> RingModel:
    """Delay ring generated by z^2 and z^3 with the no-unit-delay ideal."""
    return RingModel.monomial_subalgebra("z", (2, 3))


@pytest.fixture(scope="session")
def ring_xy() -> RingModel:
    return RingModel.polynomial(("x", "y"), ZERO_IDEAL)


@pytest.fixture(scope="session")
def delay_plant(ring23) -> PlantFraction:
    """The two-output one-input delay plant and its stacked matrix."""
    pairs = [
        [(zpoly("1 - z^3"), zpoly("1 - z^2"))],
        [(zpoly("1 - 8*z^3"), zpoly("1 - 4*z^2"))],
    ]
    return scalar_denominator(pairs, ring23)


@pytest.fixture(scope="session")
def siso_plant(ring23) -> PlantFraction:
    return scalar_denominator([[(zpoly("z^2"), zpoly("1 - z^2"))]], ring23)


@pytest.fixture(scope="session")
def zero_plant(ring23) -> PlantFraction:
    pairs = [[(zpoly("0"), zpoly("1"))], [(zpoly("0"), zpoly("1"))]]
    return scalar_denominator(pairs, ring23)


@pytest.fixture(scope="session")
def xy_plant(ring_xy) -> PlantFraction:
    vars_xy = ring_xy.variables
    return scalar_denominator(
        [[(parse_poly("x", vars_xy), parse_poly("y", vars_xy))]], ring_xy)


@pytest.fixture(scope="session")
def paper(ring23) -> SimpleNamespace:
    """Golden data of the worked example: alpha/lambda pairs, controller, H."""
    alpha1 = zpoly("-4233 - 23646*z^2 - 39836*z^3 - 201780*z^4 - 113016*z^5 "
                   "+ 75344*z^6").scale(Fraction(1, 5852))
    alpha2 = zpoly("10085 + 18418*z^2 + 121140*z^3 + 131852*z^4 "
                   "+ 113016*z^5").scale(Fraction(1, 5852))
    lam01 = zpoly("(1 + 2*z)*(1 - 3*z)*(1 + z + z^2)")
    lam02 = zpoly("(1 + z)*(1 + 2*z + 4*z^2)*(1 - 3*z + z^2)")
    lam1 = alpha1 * lam01
    lam2 = alpha2 * lam02
    one = zpoly("1")
    g_12_3 = zpoly("(1 + z)*(1 + 2*z)*(1 - 3*z)")
    k2 = alpha1 * zpoly("(1 + z)*(1 - 3*z)*(1 + 2*z + 4*z^2)")
    k3 = alpha1 * g_12_3
    den = -(alpha1 * lam1 ** 2 * g_12_3)
    c1 = alpha1 * g_12_3 * (one + alpha1 * lam1 * g_12_3)
    c2 = alpha2 * zpoly("(1 + z)*(1 + 2*z)*(1 - 3*z + z^2)")
    controller = Mat.from_rows([[PolyFraction(c1, den), PolyFraction(c2, den)]])
    h = {
        (0, 0): -(alpha1 * lam1 ** 2 * g_12_3)
                + alpha2 * zpoly("(1 + z)*(1 - 3*z + z^2)*(1 + 2*z + 4*z^2)"),
        (0, 1): -(alpha2 * zpoly("(1 + 2*z)*(1 + z + z^2)*(1 - 3*z + z^2)")),
        (0, 2): lam1 ** 3,
        (1, 0): -(alpha1 * zpoly("(1 + z)*(1 - 3*z)*(1 + 2*z + 4*z^2)")
                  * (one + lam1 * alpha1 * g_12_3)),
        (1, 1): alpha1 * (zpoly("(1 + 2*z)*(1 - 3*z)*(1 + z + z^2)")
                          * (one + alpha1 * lam1 * g_12_3)
                          - lam1 ** 2 * g_12_3),
        (1, 2): alpha1 * lam1 ** 2 * zpoly("(1 + z)*(1 - 3*z)*(1 + 2*z + 4*z^2)"),
        (2, 0): alpha1 * g_12_3 * (one + alpha1 * lam1 * g_12_3),
        (2, 1): alpha2 * zpoly("(1 + z)*(1 + 2*z)*(1 - 3*z + z^2)"),
        (2, 2): -(alpha1 * lam1 ** 2 * g_12_3),
    }
    # the three-generator ideals of the three row selections
    factors = {
        (1,): ["(1+2*z)*(1+z+z^2)*(1-3*z)", "(1+2*z)*(1+z+z^2)*z^2",
               "(1+2*z)*(1+z+z^2)*z^3"],
        (2,): ["(1+z)*(1+2*z+4*z^2)*(1-3*z)", "(1+z)*(1+2*z+4*z^2)*z^2",
               "(1+z)*(1+2*z+4*z^2)*z^3"],
        (3,): ["(1+z)*(1+2*z)*(1-3*z)", "(1+z)*(1+2*z)*z^2",
               "(1+z)*(1+2*z)*z^3"],
    }
    factor_gens = {key: [zpoly(s) for s in texts] for key, texts in factors.items()}
    return SimpleNamespace(alpha1=alpha1, alpha2=alpha2, lam01=lam01, lam02=lam02,
                           lam1=lam1, lam2=lam2, k2=k2, k3=k3,
                           controller=controller, h_entries=h,
                           factor_gens=factor_gens, g_12_3=g_12_3)


@pytest.fixture(scope="session")
def delay_decision(delay_plant):
    from stabring.synth import stabilizable
    return stabilizable(delay_plant)


@pytest.fixture(scope="session")
def delay_certificate(delay_decision):
    from stabring.synth import partition_of_unity
    return partition_of_unity(delay_decision)


@pytest.fixture(scope="session")
def delay_controller(delay_plant, delay_decision):
    from stabring.synth import synthesize
    return synthesize(delay_plant, delay_decision)


@pytest.fixture(scope="session")
def siso_controller(siso_plant):
    from stabring.synth import stabilizable, synthesize
    return synthesize(siso_plant, stabilizable(siso_plant))
