"""Complex Gaussian quadrature for oscillatory integrals with a stationary point.

The toolkit builds the non-Hermitian orthogonal polynomials attached to
the weight e^{i z^r} on a two-ray contour, uses their zeros as quadrature
nodes for integrals int_a^b f(x) e^{i omega x^r} dx, and, for the cubic
case r = 3, computes the limiting zero curve, its equilibrium measure,
and explicit strong asymptotics of the rescaled polynomials, each piece
cross-validated against an independent oracle.

Layers (importable submodules):

    precision    arbitrary-precision contexts, panelled quadrature
    geometry     polyline arc length
    opq          moments -> recurrence -> zeros -> weights pipeline
    scurve       cubic-case curve gamma, equilibrium measure, phases, g
    asymptotics  outer/band/Airy-edge formulas and zero diagnostics
    oscillatory  endpoint + stationary steepest-descent quadrature
    serialize    deterministic decimal-string CSV/JSON artifacts
    verify       the acceptance/verification suites
    cli          `oscgauss` command-line front end
"""

from . import (asymptotics, geometry, opq, oscillatory, precision,
               scurve, serialize, verify)
from .errors import (DegenerateFunctionalError, IllConditionedError,
                     NoiseFloorError, NonconvergenceError, NonFiniteError,
                     OnCutError, OutsideDiskError, ToolkitError)
from .opq import (MomentSequence, QuadratureRule, RecurrenceCoefficients,
                  WeightSpec, build_recurrence, build_rule, moment,
                  moment_sequence, zeros)
from .oscillatory import (OscillatoryIntegralSpec, amplitude, evaluate_report,
                          laguerre_rule, stationary_rule)
from .precision import PrecisionContext
from .scurve import (CurvePolyline, PhaseContext, build_phase_context,
                     trace_gamma, verify_equilibrium)
from .verify import run_suite

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # layers
    "precision", "geometry", "opq", "scurve", "asymptotics", "oscillatory",
    "serialize", "verify",
    # core types
    "PrecisionContext", "WeightSpec", "MomentSequence",
    "RecurrenceCoefficients", "QuadratureRule", "CurvePolyline",
    "PhaseContext", "OscillatoryIntegralSpec",
    # headline operations
    "moment", "moment_sequence", "build_recurrence", "zeros", "build_rule",
    "trace_gamma", "build_phase_context", "verify_equilibrium", "amplitude",
    "laguerre_rule", "stationary_rule", "evaluate_report", "run_suite",
    # errors
    "ToolkitError", "OnCutError", "DegenerateFunctionalError",
    "NonconvergenceError", "IllConditionedError", "OutsideDiskError",
    "NoiseFloorError", "NonFiniteError",
]
