"""Extended-precision arithmetic contract and panelled quadrature.

The rest of the package consumes two things from here: a precision
context over mpmath (intermediate arithmetic carries GUARD_DIGITS beyond
the working digits, and results are rounded back to the working count)
with its non-finite check, and the panelled Gauss-Kronrod primitive the
verification oracles integrate with (both rules by Newton on one
Kronrod-Jacobi recurrence, without opq or an eigenvalue solver; its sums
exact dot products).  Where the panels go is the oracles' business: the
ray cuts live with the ray integral in the oscillatory module.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from numbers import Real

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
        d = self.decimal_digits
        if not (isinstance(d, Real) and 30 <= d < math.inf and int(d) == d):
            raise ValueError(f"precision must be at least 30 decimal digits, got {d!r}")
        object.__setattr__(self, "decimal_digits", int(d))   # 40.0 keys and works as 40

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

@functools.lru_cache(maxsize=16)
def _kronrod_rule(m: int, dps: int) -> tuple:
    """(nodes, Kronrod weights, Gauss weights) of the (G_m, K_{2m+1}) pair on [-1, 1].

    Laurie's algorithm (Math. Comp. 66 (1997) 1133) extends the Legendre beta_k to the
    Kronrod-Jacobi matrix (every alpha 0).  Newton on its recurrence, in floats then at
    dps + 10 digits, finds the roots of its pi_m (monic Legendre) in Bruns' brackets
    cos(k pi/(m + 1/2)) < x_k < cos((k - 1/2) pi/(m + 1/2)), then of pi_{2m+1} / pi_m per gap.
    The positive half is rounded and mirrored (Gauss nodes at odd positions, Kronrod weights
    at the rounded ones); nothing in opq runs, so the oracles share no code with what they check.
    """
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
        bf, tol = [4 * float(v) for v in b], mp.mpf(10) ** -(dps + 8)

        def at(x, b, n):   # (pi_{n-1} pi_n' - pi_{n-1}' pi_n, Newton step on pi_n / pi_m)
            p0, p, d0, d, q, dq = 0, 1, 0, 0, 1, 0   # pi_m enters only for n > m
            for k in range(n):
                p0, p, d0, d = p, x * p - b[k] * p0, d, p + x * d - b[k] * d0
                if k == m - 1 < n - 1:
                    q, dq = p, d
            return d * p0 - d0 * p, (p * q / (d * q - p * dq) if p else 0)   # 0 at a root

        def newton(x, lo, hi, n, b, tol):   # the root in (lo, hi) that at(x, b, n) steps to
            for _ in range(60):
                dx = at(x, b, n)[1]
                x = x - dx if lo < x - dx < hi else (x + (lo if x - dx <= lo else hi)) / 2
                if abs(dx) < tol:
                    return x
            raise NonconvergenceError(f"a root of the Kronrod-Jacobi pi_{n} did not converge")

        def roots(brackets, n):   # floats first, then dps + 10 digits
            return [newton(mp.mpf(newton(lo + hi, 2 * lo, 2 * hi, n, bf, 1e-15) / 2),
                           lo, hi, n, b, tol) for lo, hi in brackets]

        c = math.pi / (m + 0.5)   # Bruns' brackets, ascending
        xg = [mp.mpf(0)] * (m % 2) + roots(
            [(math.cos(k * c), math.cos((k - 0.5) * c)) for k in range(m // 2, 0, -1)], m)
        # w(x) = 1 / sum_{k<n} pi_k(x)^2 / (beta_0 ... beta_k), by Christoffel-Darboux
        bm, bprod = mp.fprod(b[:m]), mp.fprod(b)
        gauss = [(x, bm / at(x, b, m)[0]) for x in xg]
        with mp.workdps(dps):
            xg = [+x for x in xg]
        ends = [float(x) for x in xg] + [1.0]
        xk = roots(zip(ends, ends[1:]), 2 * m + 1) + [mp.mpf(0)] * (1 - m % 2)
        kronrod = [(x, bprod / at(x, b, 2 * m + 1)[0]) for x in sorted(xk + xg)]
    with mp.workdps(dps):   # -x and +x round alike, so each rule is symmetric bit for bit
        (xs, wk), (_, wg) = [zip(*([(-x, +w) for x, w in half[::-1] if x] +
                                   [(+x, +w) for x, w in half])) for half in (kronrod, gauss)]
    return xs, wk, wg


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
