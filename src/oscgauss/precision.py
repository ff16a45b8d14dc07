"""Extended-precision arithmetic contract and panelled quadrature.

The rest of the package consumes two things from here: a precision
context over mpmath (intermediate arithmetic carries GUARD_DIGITS beyond
the working digits, and results are rounded back to the working count)
with its non-finite check, and the panelled Gauss-Kronrod primitive the
verification oracles integrate with (its rules found by Newton on the
Legendre and Kronrod-Jacobi recurrences, independently of opq; its sums
exact dot products).  Where the panels go is the oracles' business: the
ray cuts live with the ray integral in the oscillatory module.
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
# Panelled Gauss-Kronrod quadrature
# ---------------------------------------------------------------------------

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


@functools.lru_cache(maxsize=16)
def _kronrod_rule(m: int, dps: int) -> tuple:
    """(nodes, Kronrod weights, Gauss weights) of the (G_m, K_{2m+1}) pair on [-1, 1].

    Laurie's algorithm (Math. Comp. 66 (1997) 1133) extends the Legendre beta_k to the
    Kronrod-Jacobi matrix (every alpha 0); Newton, in floats then at dps + 10 digits,
    finds the root of its pi_{2m+1} / pi_m in each gap between Gauss nodes.  Rounded
    and mirrored as _legendre_rule is, which is the Gauss half (nodes 1, 3, ...).
    """
    xg, wg = _legendre_rule(m, dps)
    with mp.workdps(dps + 10):
        b = [mp.mpf(2)] + [mp.mpf(k * k) / (4 * k * k - 1) for k in range(1, (3 * m + 3) // 2)]
        b, s, t, u = b + [0] * (m // 2), [0] * (m // 2 + 2), [0, b[m + 1]] + [0] * (m // 2), 0
        for i in range(m - 1):   # Laurie's two loops, the alpha terms dropped
            for k in range((i + 1) // 2, -1, -1):
                s[k + 1] = u = u + b[k + m + 1] * s[k] - b[i - k] * s[k + 1]
            s, t, u = t, s, 0
        s[1:] = s[:-1]
        for i in range(m - 1, 2 * m - 2):
            for j in range(1, (i - 1) // 2 + m - i + 1):
                s[j] = u = u + b[m - j] * s[j + 1] - b[i + j + 1] * s[j]
            if i % 2:
                b[(i + 1) // 2 + m + 1] = s[j] / s[j + 1]
            s, t, u = t, s, 0
        # floats run in y = 2x, where the recurrence (4 beta_k -> 1) neither under- nor overflows
        bf, bprod, tol = [4 * float(v) for v in b], mp.fprod(b), mp.mpf(10) ** -(dps + 8)

        def at(x, b):   # (pi_2m pi_{2m+1}' - pi_2m' pi_{2m+1}, Newton step on pi_{2m+1} / pi_m)
            p0, p, d0, d = 0, 1, 0, 0
            for k in range(2 * m + 1):
                p0, p, d0, d = p, x * p - b[k] * p0, d, p + x * d - b[k] * d0
                if k == m - 1:
                    q, dq = p, d
            return d * p0 - d0 * p, (p * q / (d * q - p * dq) if p else 0)   # 0 at a root

        def newton(x, lo, hi, b, tol):   # the root of pi_{2m+1} / pi_m in (lo, hi)
            for _ in range(60):
                dx = at(x, b)[1]
                x = x - dx if lo < x - dx < hi else (x + (lo if x - dx <= lo else hi)) / 2
                if abs(dx) < tol:
                    return x
            raise NonconvergenceError(f"a {2 * m + 1}-point Gauss-Kronrod node did not converge")

        ends = [float(x) for x in xg[m // 2:]] + [1.0]
        half = [newton(mp.mpf(newton(lo + hi, 2 * lo, 2 * hi, bf, 1e-15) / 2), lo, hi, b, tol)
                for lo, hi in zip(ends, ends[1:])] + [mp.mpf(0)] * (1 - m % 2)
        # beta_0 / sum_k phat_k(x)^2, the sum by Christoffel-Darboux
        half = [(x, bprod / at(x, b)[0]) for x in sorted(half + list(xg[m // 2:]))]
    with mp.workdps(dps):   # -x and +x round alike, so the rule is symmetric bit for bit
        return (*zip(*([(-x, +w) for x, w in half[:0:-1]] + [(+x, +w) for x, w in half])), wg)


def panel_quad_vector(g, cuts, m: int):
    """(values, error_estimates) lists of the integrals of the components of
    g, a function returning a sequence, along the polyline `cuts`.

    Every panel [u, v] (real or complex end points) gets the Gauss-Kronrod pair:
    the K_{2m+1} total (exact through degree 3m+1) is the value, its distance
    from the G_m total (exact through 2m-1) the estimate.  Runs at the ambient
    mpmath precision; converges geometrically only where g is analytic around
    each panel.  g is called once per node for all components, and each
    component of a panel is one exact dot product of the weights with its values.
    """
    xs, wk, wg = _kronrod_rule(m, mp.mp.dps)
    kron, gauss = [], []
    for u, v in zip(cuts[:-1], cuts[1:]):
        u, v = mp.mpmathify(u), mp.mpmathify(v)
        c, h = (u + v) / 2, (v - u) / 2
        cols = list(zip(*[g(c + h * x) for x in xs]))
        kron.append([h * mp.fdot(wk, col) for col in cols])
        gauss.append([h * mp.fdot(wg, col[1::2]) for col in cols])
    values = [mp.fsum(col) for col in zip(*kron)]
    return values, [abs(val - mp.fsum(col)) for val, col in zip(values, zip(*gauss))]
