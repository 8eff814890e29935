"""Exact feedback stabilizability and controller synthesis over rings of
stable causal transfer functions."""

from .poly import (ParseError, Polynomial, Rational, divide_exact,
                   format_canonical, gcd_univariate, parse_poly)
from .ring import (PolyFraction, Presentation, RingModel, ZERO_CONSTANT_TERM,
                   ZERO_IDEAL, causal, fraction_in_ring, in_Z, membership,
                   presentation, strictly_causal, z_nonsingular)
from .matrixring import IndexSet, Mat, enumerate_index_sets, minor_ideal, selection
from .groebner import (BezoutCertificate, GroebnerBasis, GREVLEX, IdealHandle,
                       LEX, MonomialOrder, buchberger, elimination_order,
                       normal_form)
from .gef import GefResult, PlantFraction, gef, scalar_denominator, witness_matrix
from .synth import (CausalityReport, ControllerResult, LocalFactorization,
                    StabilizabilityCertificate, StabilizabilityResult,
                    causality_check, closed_loop, local_factorization,
                    repair_nonsingular, stabilizable, synthesize,
                    transpose_duality_check, verify_stabilizing)
from .sim import (DiffEq, SignalTrace, compare_to_H, impulse_response,
                  simulate_loop, trace_to_csv)

__version__ = "0.1.0"
