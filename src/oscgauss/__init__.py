"""Complex Gaussian quadrature for oscillatory integrals with a stationary point.

The toolkit builds the non-Hermitian orthogonal polynomials attached to
the weight e^{i z^r} on a two-ray contour, uses their zeros as quadrature
nodes for integrals int_a^b f(x) e^{i omega x^r} dx, and, for the cubic
case r = 3, computes the limiting zero curve, its equilibrium measure,
and explicit strong asymptotics of the rescaled polynomials, each piece
cross-validated against an independent oracle.

Every name is reached as oscgauss.<layer>.<name>: the package binds the
layers below (cli once imported) and __version__, and nothing else.
errors, precision, opq, oscillatory and serialize load with the package,
and none of them imports numpy; the cubic-case layers and verify, which
need numpy, load on first access (a PEP 562 module __getattr__).

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

from . import errors, opq, oscillatory, precision, serialize

__version__ = "0.1.0"

__all__ = ["__version__", "errors", "precision", "geometry", "opq", "scurve",
           "asymptotics", "oscillatory", "serialize", "verify"]


def __getattr__(name):
    """Load a cubic-case layer or verify on its first access."""
    if name in ("geometry", "scurve", "asymptotics", "verify"):
        from importlib import import_module
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
