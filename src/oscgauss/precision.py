"""Extended-precision arithmetic contract and panelled quadrature.

The rest of the package consumes two things from here: a precision
context (intermediate arithmetic carries GUARD_DIGITS beyond the working
digits, and results are rounded back to the working count) with its
non-finite check, and the panelled Gauss-Legendre primitive the
verification oracles integrate with (its rules found by Newton on the
Legendre recurrence, independently of opq; its sums exact dot products).
Where the panels go is the oracles' business: the ray cuts live with the
ray integral in the oscillatory module.

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

from .errors import NonconvergenceError, NonFiniteError

__all__ = [
    "GUARD_DIGITS",
    "PrecisionContext",
    "ensure_finite",
    "panel_quad_vector",
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
    """(nodes, weights) of m-point Gauss-Legendre on [-1, 1] at dps digits.

    Newton on k P_k = (2k-1) x P_{k-1} - (k-1) P_{k-2} at dps + 10 digits, from
    the seeds cos(pi (k - 1/4) / (m + 1/2)) (Hale & Townsend 2013), finds the
    floor(m/2) positive nodes (and 0 for odd m), with P_m' = m (x P_m - P_{m-1})
    / (x^2 - 1) and w = 2 / ((1 - x^2) P_m'^2); the half is rounded to dps digits
    and mirrored, so the nodes ascend and the rule is symmetric bit for bit.
    Nothing in opq is called: the oracles share no code with what they check.
    """
    def newton(x):   # (node, weight) of the root Newton reaches from x
        for _ in range(20):
            p0, p1 = mp.mpf(1), x
            for k in range(2, m + 1):
                p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
            dp = m * (x * p1 - p0) / (x * x - 1)
            dx = p1 / dp
            x -= dx
            if abs(dx) < tol:
                return x, 2 / ((1 - x * x) * dp ** 2)
        raise NonconvergenceError(f"a {m}-point Gauss-Legendre node did not converge")

    seeds = [math.cos(math.pi * (k - 0.25) / (m + 0.5)) for k in range(1, m // 2 + 1)]
    with mp.workdps(dps + 10):
        tol = mp.mpf(10) ** -(dps + 8)
        half = [newton(mp.mpf(x)) for x in seeds + [0] * (m % 2)]
    with mp.workdps(dps):   # a bare -x outside would round to 15 digits
        half = [(+x, +w) for x, w in half]
        return tuple(zip(*([(-x, w) for x, w in half[:m // 2]] + half[::-1])))


def panel_quad_vector(g, cuts, m: int):
    """(values, error_estimates) lists of the integrals of the components of
    g, a function returning a sequence, along the polyline `cuts`.

    Every panel [u, v] (real or complex end points) gets m-point
    Gauss-Legendre, exact for polynomials of degree <= 2m-1, once whole and
    once as its two halves; the halved sum is returned with |halved - whole|
    as the estimate.  Runs at the ambient mpmath precision.  Convergence is
    geometric only where g is analytic on a neighbourhood of each panel.
    g is called once per node for all components (a family of moments pays
    for a shared factor once), and each component of a panel is one exact
    dot product of the weights with its values, rounded once.
    """
    xs, ws = _legendre_rule(m, mp.mp.dps)

    def gl(u, v):
        c, h = (u + v) / 2, (v - u) / 2
        rows = [g(c + h * x) for x in xs]
        return [h * mp.fdot(ws, col) for col in zip(*rows)]

    whole, halved = [], []
    for u, v in zip(cuts[:-1], cuts[1:]):
        u, v = mp.mpmathify(u), mp.mpmathify(v)
        mid = (u + v) / 2
        whole.append(gl(u, v))
        halved += [gl(u, mid), gl(mid, v)]
    values = [mp.fsum(col) for col in zip(*halved)]
    return values, [abs(val - mp.fsum(col)) for val, col in zip(values, zip(*whole))]

