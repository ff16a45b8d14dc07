"""Complex Gaussian quadrature for oscillatory integrals with a stationary point.

The toolkit builds the non-Hermitian orthogonal polynomials attached to
the weight e^{i z^r} on a two-ray contour, uses their zeros as quadrature
nodes for integrals int_a^b f(x) e^{i omega x^r} dx, and, for the cubic
case r = 3, computes the limiting zero curve, its equilibrium measure,
and explicit strong asymptotics of the rescaled polynomials, each piece
cross-validated against an independent oracle.

Every name is reached as oscgauss.<layer>.<name>: the package binds the
layers below (cli once imported) and __version__, and nothing else.

    errors       the ToolkitError hierarchy
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

from . import (asymptotics, errors, geometry, opq, oscillatory, precision,
               scurve, serialize, verify)

__version__ = "0.1.0"

__all__ = ["__version__", "errors", "precision", "geometry", "opq", "scurve",
           "asymptotics", "oscillatory", "serialize", "verify"]
