"""Extended-precision arithmetic contract and panelled quadrature.

The rest of the package consumes two things from here: a precision
context (intermediate arithmetic carries GUARD_DIGITS beyond the working
digits, and results are rounded back to the working count) with its
non-finite check, and the panelled Gauss-Legendre primitive the
verification oracles integrate with.

Arbitrary-precision arithmetic is delegated to mpmath; the functions here
add the error contract (non-finite check, rounding discipline) that the
callers rely on.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import mpmath as mp

from .errors import NonFiniteError

__all__ = [
    "GUARD_DIGITS",
    "PrecisionContext",
    "ensure_finite",
    "panel_quad_vector",
    "ray_cuts",
]


# Extra digits carried by all intermediate arithmetic.
GUARD_DIGITS = 10


@dataclass(frozen=True)
class PrecisionContext:
    """Immutable working-precision contract.

    Every result is rounded to decimal_digits; intermediate arithmetic
    carries GUARD_DIGITS more.
    """

    decimal_digits: int = 30

    def __post_init__(self):
        if self.decimal_digits < 30:
            raise ValueError("precision must be at least 30 decimal digits")

    def working(self):
        """Context manager setting mpmath to decimal_digits + GUARD_DIGITS."""
        return mp.workdps(self.decimal_digits + GUARD_DIGITS)

    def finalize(self, value):
        """Round an mpmath value to decimal_digits."""
        with mp.workdps(self.decimal_digits):
            return +value


def _is_finite_number(x) -> bool:
    if isinstance(x, (float, complex)):   # numpy's float64 and complex128 too
        return cmath.isfinite(x)
    try:
        return mp.isfinite(mp.mpmathify(x))
    except (AttributeError, TypeError, ValueError):   # mpmath fails on "ej" with AttributeError
        return False


def ensure_finite(value, context: str = "operation"):
    """Abort with NonFiniteError instead of letting NaN/overflow escape."""
    if not _is_finite_number(value):
        raise NonFiniteError(f"{context} produced a non-finite value: {value!r}")
    return value


# ---------------------------------------------------------------------------
# Panelled Gauss-Legendre quadrature
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=16)
def _legendre_rule(m: int, dps: int) -> tuple:
    """m-point Gauss-Legendre nodes and weights on [-1, 1] at dps digits."""
    with mp.workdps(dps):
        xs, ws = mp.gauss_quadrature(m, "legendre")
        return tuple(zip(xs, ws))


def panel_quad_vector(g, cuts, m: int):
    """(values, error_estimates) lists of the integrals of the components of
    g, a function returning a sequence, along the polyline `cuts`.

    Every panel [u, v] (real or complex end points) gets m-point
    Gauss-Legendre, exact for polynomials of degree <= 2m-1, once whole and
    once as its two halves; the halved sum is returned with |halved - whole|
    as the estimate.  Runs at the ambient mpmath precision.  Convergence is
    geometric only where g is analytic on a neighbourhood of each panel.
    g is called once per node for all components, so integrands sharing an
    expensive factor (a family of moments) pay for it once.
    """
    rule = _legendre_rule(m, mp.mp.dps)

    def gl(u, v):
        c, h = (u + v) / 2, (v - u) / 2
        rows = [(w, g(c + h * x)) for x, w in rule]
        return [h * mp.fsum(w * row[i] for w, row in rows)
                for i in range(len(rows[0][1]))]

    whole, halved = [], []
    for u, v in zip(cuts[:-1], cuts[1:]):
        u, v = mp.mpmathify(u), mp.mpmathify(v)
        mid = (u + v) / 2
        whole.append(gl(u, v))
        halved += [gl(u, mid), gl(mid, v)]
    values = [mp.fsum(col) for col in zip(*halved)]
    return values, [abs(val - mp.fsum(col)) for val, col in zip(values, zip(*whole))]


def ray_cuts(r: int) -> list:
    """Panel cuts for int_0^oo h(rho) e^{-rho^r} drho, truncated.

    The cuts 0, 1, 4^{1/r}, 4^{2/r}, ... put rho^r at 0, 1, 4, 16, ...: every
    panel past the first quadruples the decay exponent, so e^{-rho^r} is
    equally well resolved for every r (for r = 2 the cuts are 0, 1, 2, 4,
    8, ...).  The last cut is the first with rho^r >= dps ln 10 + 10 at the
    ambient precision, where e^{-rho^r} < e^{-10} 10^{-dps}: the dropped tail
    is below working precision unless |h| grows there by more than e^{10}.
    """
    j_max = math.ceil(math.log(mp.mp.dps * math.log(10) + 10, 4))
    return [0] + [mp.power(4, mp.mpf(j) / r) for j in range(j_max + 1)]
