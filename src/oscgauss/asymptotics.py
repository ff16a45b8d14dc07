"""Strong asymptotics for the cubic-weight polynomials P_n.

Three closed-form approximations, each tied to a region of the plane:

* ``pn_outer``   -- away from the limiting curve: e^{n g(z)} times the
  (1,1) entry of the global parametrix ``n_matrix``, built from ``beta``,
  the fourth root of the Moebius ratio (z - z2)/(z - z1) cut along the arc.
* the band   -- in a tube around the open arc: a two-term formula in
  the chord branch of the phase, analytic across the arc itself, so one
  expression is valid on both sides (and on the arc); ``pn_asymptotic``
  evaluates it once ``region_classify`` has placed z in the tube.
* ``pn_airy``    -- in disks around the branch points: Ai and Ai' (``_airy``,
  in-house) of n^{2/3} f(z), where f = ``conformal_f`` is the conformal map
  straightening the phase ((3/2) phi)^{2/3}.  The disk at the left
  endpoint is handled through the reflection symmetry
  P_n(z) = (-1)^n conj(P_n(-conj z)).

``pn_asymptotic`` classifies a point once and evaluates the matching
formula without repeating that region's test.  The band is a tube around
the arc, measured by the Newton projection onto it
(``scurve._nearest_on_gamma``): like the parametrices, the lens side of
``beta`` and f, it is fixed by Q alone.  All three formulas can be
checked against ``exact_pn``, the recurrence of P_n from the string
equations of the weight, rounded to 60 digits and evaluated by opq's
integer kernel at 241 bits; the observed convergence rate is O(1/n).
"""

from __future__ import annotations

import cmath
import functools

import mpmath as mp
import numpy as np

from . import opq
from .errors import OnCutError, OutsideDiskError
from .precision import PrecisionContext, ensure_finite
from .scurve import (
    L_CONST,
    PhaseContext,
    SQRT2,
    Z1,
    Z2,
    _in_lens,
    _nearest_on_gamma,
    _require_off_cut,
    g_eval,
    phi2_chord,
)

__all__ = [
    "beta",
    "n_matrix",
    "conformal_f",
    "boundary_winding",
    "region_classify",
    "pn_outer",
    "pn_airy",
    "pn_asymptotic",
    "exact_pn",
    "zero_distribution_report",
    "airy_model_matrix",
    "airy_model_residual",
    "airy_deviation",
]

# Q'(z2) = -z2^3 + i for the quadratic differential Q(z) dz^2 with
# Q(z) = -z^4/4 + i z - 3/4.  Its cube root fixes the scale and rotation
# of the conformal map at the right branch point.
QP2 = SQRT2 - 4j
FC = QP2 ** (1.0 / 3.0)          # principal root; arg = -atan(2 sqrt 2)/3

_OMEGA = np.exp(2j * np.pi / 3)

# The regions of the three formulas: the Airy disks |z - z1|, |z - z2| <=
# AIRY_RADIUS, then the band within TUBE_WIDTH of the arc.
AIRY_RADIUS = 0.5
TUBE_WIDTH = 0.25


def _q4(w):
    """Principal fourth root."""
    return np.sqrt(np.sqrt(w))


# ---------------------------------------------------------------------------
# Global parametrix
# ---------------------------------------------------------------------------

def beta(z: complex) -> complex:
    """beta(z) = ((z - z2)/(z - z1))^{1/4} with its cut moved onto the arc.

    The principal fourth root of the Moebius ratio is discontinuous across
    the chord between the branch points; multiplying by i inside the lens
    (between arc and chord) cancels that jump and leaves a branch cut
    exactly on the arc, with boundary values beta_+ = i beta_-.  beta -> 1
    at infinity.  No on-cut guard on the open arc: callers that need one
    apply it.  At z1 and z2, where the cut ends and beta is infinite or 0,
    it raises OnCutError, and so do n_matrix and pn_outer.
    """
    z = complex(z)
    if z in (Z1, Z2):
        raise OnCutError(f"beta is singular at the branch point {z}, an end of the cut")
    b = complex(_q4((z - Z2) / (z - Z1)))
    if _in_lens(z):
        b *= 1j
    return ensure_finite(b, "beta")


def _n_entries(b: complex) -> tuple[complex, complex]:
    """(n11, n12) = ((b + 1/b)/2, (b - 1/b)/(2i)) of the global parametrix at beta = b."""
    return (b + 1 / b) / 2, (b - 1 / b) / 2j


def n_matrix(z: complex) -> np.ndarray:
    """2x2 global parametrix [[n11, n12], [-n12, n11]]; det = n11^2 + n12^2 = 1."""
    _require_off_cut(z)
    n11, n12 = _n_entries(beta(z))
    return np.array([[n11, n12], [-n12, n11]], dtype=complex)


# ---------------------------------------------------------------------------
# Local (Airy) parametrix at the right branch point
# ---------------------------------------------------------------------------

def conformal_f(z: complex) -> complex:
    """Conformal map f with ((3/2) phi2)^2 = f^3 near the right endpoint.

    The square of the chord-branch phase is single valued and analytic on
    the whole disk (squaring removes the half-integer monodromy), so
    f = (z - z2) Q'(z2)^{1/3} ((3/2 phi2)^2 / ((z - z2)^3 Q'(z2)))^{1/3}
    needs only a principal cube root of a ratio that stays close to 1.
    f maps the arc onto the negative reals and its forward extension onto
    the positive reals; f'(z2) = Q'(z2)^{1/3}, |f'(z2)| = 18^{1/6}.
    """
    z = complex(z)
    dz = z - Z2
    if abs(dz) > AIRY_RADIUS * (1 + 1e-12):
        raise OutsideDiskError(
            f"|z - z2| = {abs(dz):.4f} exceeds the disk radius {AIRY_RADIUS}")
    if abs(dz) <= 1e-9:
        return dz * FC
    psi = 1.5 * complex(phi2_chord(z))
    chi = psi * psi / (dz ** 3 * QP2)
    return ensure_finite(dz * FC * np.exp(np.log(chi) / 3.0), "conformal_f")


def boundary_winding() -> float:
    """Winding number of f around 0 along |z - z2| = 0.9 AIRY_RADIUS (720 samples).

    1.0 iff f is injective-consistent on the disk.
    """
    th = np.linspace(-np.pi, np.pi, 720, endpoint=False)
    fv = np.array([conformal_f(complex(Z2 + 0.9 * AIRY_RADIUS * np.exp(1j * t))) for t in th])
    return float(np.sum(np.diff(np.unwrap(np.angle(np.r_[fv, fv[:1]])))) / (2 * np.pi))


# ---------------------------------------------------------------------------
# Ai and Ai' (Gil, Segura & Temme, ACM TOMS 28, 2002; DLMF 9.2, 9.4, 9.6, 9.7)
# ---------------------------------------------------------------------------

def _series_coefficients(k: int) -> np.ndarray:
    """Rows F0..F3, k terms each, of the Maclaurin series (DLMF 9.4) in w = z^3:
    Ai = F0 + z F1, Ai' = z^2 F2 + F3, from Ai'' = z Ai: c_{m+3} = c_m/((m+2)(m+3))."""
    j = np.arange(1, k + 1)
    a = 0.355028053887817239 * np.cumprod(np.r_[1.0, 1 / ((3 * j - 1) * 3 * j)])   # Ai(0)
    b = -0.258819403792806798 * np.cumprod(np.r_[1.0, 1 / (3 * j * (3 * j + 1))])  # Ai'(0)
    return np.array([a[:k], b[:k], 3 * j * a[1:], (3 * j - 2) * b[:k]])


def _expansion_coefficients(k: int) -> np.ndarray:
    """Rows (-1)^j u_j and (-1)^j v_j, j < k, of DLMF 9.7.5-6, by 9.7.2."""
    i, j = np.arange(1, k), np.arange(k)
    u = np.cumprod(np.r_[1.0, (6 * i - 5) * (6 * i - 3) * (6 * i - 1) / ((2 * i - 1) * 216 * i)])
    return np.array([u, (6 * j + 1) / (1 - 6 * j) * u]) * (-1.0) ** j


# Series: the first term left out is below 1e-16 of Ai and Ai' wherever used.
# Expansion (|z| >= 9.5, |xi| >= 19.5): terms shrink to j ~ 2|xi|; the 25th is < 3e-17.
_SERIES, _EXPANSION, _POWERS = _series_coefficients(36), _expansion_coefficients(25), np.arange(36)


@functools.cache
def _laguerre_rule() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x/2, a, W) of the 36-point Golub-Welsch rules for t^a e^{-t}, a = -1/6, 1/6,
    without nodes of weight < 1e-18: W @ (xi + x/2)^a = 2 sqrt(pi) e^{xi} (Ai, Ai')
    by the Laplace integrals of K_{1/3}, K_{2/3} (DLMF 9.6.1-2, 10.32.8)."""
    k, rules = np.arange(36), []
    for a, scale in ((-1 / 6, (2 / 3) ** (1 / 6)), (1 / 6, -1.5 ** (1 / 6))):
        off = np.sqrt(k[1:] * (k[1:] + a))
        x, v = np.linalg.eigh(np.diag(2 * k + a + 1) + np.diag(off, 1) + np.diag(off, -1))
        rules.append((x / 2, np.full(k.size, a), v[0] ** 2 * scale))
    half, expo, w = (np.concatenate(part) for part in zip(*rules))
    keep = np.abs(w) > 1e-18
    return half[keep], expo[keep], np.array([w * (expo < 0), w * (expo > 0)])[:, keep]


def _airy_direct(z: complex) -> tuple[complex, complex]:
    """(Ai, Ai') for |arg z| <= 0.8 pi at |z| < 9.5, |arg z| <= 2 pi/3 beyond: the
    Maclaurin series, Gauss-Laguerre (2.5 < |z| < 9.5, arg z within pi/3, or pi/2
    from |z| = 3.5) and the asymptotic expansion (|z| >= 9.5)."""
    r, th = abs(z), abs(cmath.phase(z))
    if r < 9.5 and not (r > 2.5 and (th < cmath.pi / 3 or (r >= 3.5 and th <= cmath.pi / 2))):
        f0, f1, f2, f3 = (_SERIES @ (z * z * z) ** _POWERS).tolist()
        return f0 + z * f1, z * z * f2 + f3
    xi = 2 / 3 * z ** 1.5
    e = np.exp(-xi) / (2 * np.sqrt(np.pi))
    if r < 9.5:
        half, alpha, w = _laguerre_rule()
        ai, aip = (w @ (xi + half) ** alpha).tolist()
        return complex(e * ai), complex(e * aip)
    (s0, s1), q = (_EXPANSION @ (1 / xi) ** _POWERS[:25]).tolist(), z ** 0.25
    return complex(e / q * s0), complex(-e * q * s1)


def _airy(zeta: complex) -> tuple[complex, complex]:
    """(Ai(zeta), Ai'(zeta)); Ai(z) = -w Ai(wz) - w^2 Ai(w^2 z), w = e^{2 pi i/3}
    (DLMF 9.2.12), where no direct method is accurate."""
    z = complex(zeta)
    r, th = abs(z), abs(cmath.phase(z))
    if (r >= 3.5 and th > 0.8 * cmath.pi) or (r >= 9.5 and th > 2 * cmath.pi / 3):
        w, w2 = complex(_OMEGA), complex(_OMEGA).conjugate()
        (a1, p1), (a2, p2) = _airy_direct(w * z), _airy_direct(w2 * z)
        return -w * a1 - w2 * a2, -w2 * p1 - w * p2
    return _airy_direct(z)


# ---------------------------------------------------------------------------
# Region classification and the three formulas
# ---------------------------------------------------------------------------

def region_classify(z: complex) -> str:
    """'disk2' | 'disk1' | 'band' | 'outer' (disks take precedence)."""
    z = complex(z)
    if abs(z - Z2) <= AIRY_RADIUS:
        return "disk2"
    if abs(z - Z1) <= AIRY_RADIUS:
        return "disk1"
    return "band" if _nearest_on_gamma(z)[0] <= TUBE_WIDTH else "outer"


def _v_half_minus_l(z: complex, n: int) -> complex:
    v = -1j * z ** 3 / 3
    return n * (v / 2 - L_CONST)


def pn_outer(n: int, z: complex) -> complex:
    """Leading outer asymptotics e^{n g(z)} (beta + 1/beta)/2.

    g_eval runs first: it applies the on-cut guard (OnCutError).
    """
    z = complex(z)
    gv = g_eval(z)
    n11, _ = _n_entries(beta(z))
    return ensure_finite(np.exp(n * gv) * n11, "pn_outer")


def _band(n: int, z: complex) -> complex:
    """Two-term band formula, one analytic expression on both sides of the arc.

    With H = -phi2_chord (the continuation from above) and
    bt = i ((z - z2)/(z - z1))^{1/4} (the continuation of beta from above),
        P_n ~ e^{n(V/2 - l)} [ e^{-nH} (bt + 1/bt)/2 + e^{nH} (bt - 1/bt)/(2i) ].
    Both ingredients are analytic across the arc inside the tube (the chord
    branch has its cut elsewhere), so the formula needs no side bookkeeping
    and can be evaluated on the arc itself.  For z within TUBE_WIDTH of it.
    """
    n11, n12 = _n_entries(1j * complex(_q4((z - Z2) / (z - Z1))))
    h = -complex(phi2_chord(z))
    val = np.exp(_v_half_minus_l(z, n)) * (np.exp(-n * h) * n11 + np.exp(n * h) * n12)
    return ensure_finite(val, "band formula")


def pn_airy(n: int, z: complex) -> complex:
    """Airy-type formula in the endpoint disks.

    In the right disk,
        P_n ~ sqrt(pi) e^{n(V/2 - l)} [ n^{1/6} f^{1/4} beta^{-1} Ai(n^{2/3} f)
                                       - n^{-1/6} f^{-1/4} beta Ai'(n^{2/3} f) ],
    continuous across the arc because f^{1/4} and beta jump by the same
    factor i, so it is evaluated on the arc too (no on-cut guard).  A point
    of the left disk only is evaluated by reflection; conformal_f raises
    OutsideDiskError for a point in neither disk.
    """
    z = complex(z)
    if abs(z - Z2) > AIRY_RADIUS and abs(z - Z1) <= AIRY_RADIUS:
        return (-1) ** n * np.conj(pn_airy(n, -np.conj(z)))
    f = conformal_f(z)
    # f is real negative exactly on the arc, so the cut of the principal
    # f^{1/4} falls on the arc with f^{1/4}_+ = i f^{1/4}_-, the jump of
    # beta: f^{1/4}/beta and beta/f^{1/4} are continuous across the arc.
    if f == 0:
        # z = z2, where f and beta vanish: f ~ FC (z - z2), so the removable
        # 0/0 f^{1/4}/beta has the limit (FC (z2 - z1))^{1/4}
        f14, b = complex(_q4(FC * (Z2 - Z1))), 1.0
    else:
        f14, b = complex(_q4(f)), beta(z)
    ai, aip = _airy(n ** (2.0 / 3.0) * f)
    val = (np.sqrt(np.pi) * np.exp(_v_half_minus_l(z, n))
           * (n ** (1.0 / 6.0) * f14 / b * ai
              - n ** (-1.0 / 6.0) * b / f14 * aip))
    return ensure_finite(val, "pn_airy")


def pn_asymptotic(n: int, z: complex) -> tuple[str, complex]:
    """Classify z once and evaluate the matching formula; returns (region, value)."""
    region = region_classify(z)
    if region in ("disk1", "disk2"):
        return region, pn_airy(n, z)
    if region == "band":
        return region, _band(n, complex(z))
    return region, pn_outer(n, z)


# ---------------------------------------------------------------------------
# Exact reference values
# ---------------------------------------------------------------------------

# Digits of the reference recurrence.  The string recursion runs at n +
# EXACT_DIGITS digits (it loses about one per step) and its rescaled
# coefficients are rounded to EXACT_DIGITS, at which exact_pn evaluates.
EXACT_DIGITS = 60


@functools.lru_cache(maxsize=64)
def _rescaled_recurrence(n: int) -> opq.RecurrenceCoefficients:
    """The recurrence of P_n from opq.cubic_string_recurrence, at EXACT_DIGITS.

    Measured against the Chebyshev route at opq.precision_schedule(n)
    (build_recurrence, rescaled): the largest relative deviation of any
    coefficient before rounding, and of exact_pn after it over 40 probes
    (14 at 2.6 <= |z| <= 4, 13 at 0.15..0.35 from z2, 13 within 0.1 of the
    arc at masses 0.3..0.7).

        n     schedule digits   coefficients   exact_pn
        20         92             1.5e-63       9.8e-60
        40        172             2.5e-64       1.1e-57
        80        332             6.4e-65       4.8e-54
        160       652             4.5e-65       7.1e-46

    At n + 40 digits the coefficients agree only to 2e-45 .. 8e-44.  With
    both sides evaluated by opq's integer kernel the exact_pn column does not
    move: on another draw of the 40 probes the kernel and the former mpmath
    loop both read 9.1e-60, 5.2e-58, 1.3e-53 and 7.9e-46.
    """
    rec = opq.cubic_string_recurrence(n, PrecisionContext(n + EXACT_DIGITS))
    rec = opq.rescale_to_Pn(rec, n, 3)
    ctx = PrecisionContext(EXACT_DIGITS)
    return opq.RecurrenceCoefficients(alpha=tuple(ctx.finalize(a) for a in rec.alpha),
                                      beta=tuple(ctx.finalize(b) for b in rec.beta), ctx=ctx)


def exact_pn(n: int, z: complex):
    """P_n(z) by the rescaled three-term recurrence at EXACT_DIGITS (_rescaled_recurrence)."""
    return opq.pi_eval(_rescaled_recurrence(n), complex(z))


def pn_relative_error(n: int, z: complex, phase: PhaseContext | None) -> tuple[str, float]:
    """(region, |formula - exact| / |exact|), compared in mpmath at any |P_n|.

    A formula value past the float range has already raised NonFiniteError.
    `phase` is not read: perfbench passes the contour, the library None.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    region, approx = pn_asymptotic(n, z)
    exact = exact_pn(n, z)
    return region, float(abs(mp.mpc(approx) - exact) / abs(exact))


# ---------------------------------------------------------------------------
# Zero distribution diagnostics
# ---------------------------------------------------------------------------

def zero_distribution_report(n: int) -> dict:
    """How closely the P_n zeros shadow the curve and its measure.

    The zeros are the nodes of the scheduled r = 3 rule, rescaled to P_n.
    Returns their max distance to gamma, the Kolmogorov-Smirnov statistic
    of their masses (both by _nearest_on_gamma) against uniform order
    statistics, and the worst mismatch of the zero set under z -> -conj(z).
    """
    rule = opq.build_rule(n, opq.WeightSpec(r=3))
    zs = np.array([complex(z) for z in opq.rescale_to_Pn(rule, n, 3).nodes])
    dists, masses = zip(*(_nearest_on_gamma(complex(z)) for z in zs))
    masses = np.sort(np.array(masses))
    ks = max(max((k + 1) / n - masses[k], masses[k] - k / n) for k in range(n))
    mirror = -np.conj(zs)
    pairing = float(max(np.min(np.abs(zs - m)) for m in mirror))
    return {
        "n": n,
        "max_distance": float(max(dists)),
        "ks_statistic": float(ks),
        "reflection_mismatch": pairing,
        "zeros": [complex(z) for z in zs],
    }


# ---------------------------------------------------------------------------
# Airy model problem: the Airy values and the matching estimate
# ---------------------------------------------------------------------------

def airy_model_matrix(zeta: complex) -> np.ndarray:
    """sqrt(2 pi) [[y0, -y2], [-i y0', i y2']] with y0 = Ai, y2 = w^2 Ai(w^2 .).

    Ai by ``_airy``; det = 1 by the Wronskian of the rotated Airy solutions.
    """
    zeta = complex(zeta)
    w = _OMEGA
    ai0, aip0 = _airy(zeta)
    ai2, aip2 = _airy(w ** 2 * zeta)
    y2, y2p = w ** 2 * ai2, w * aip2          # chain rule: d/dz w^2 Ai(w^2 z)
    return np.sqrt(2 * np.pi) * np.array([[ai0, -y2], [-1j * aip0, 1j * y2p]],
                                         dtype=complex)


def airy_model_residual() -> float:
    """max entrywise deviation of A(z) e^{(2/3) z^{3/2} sigma3} from its limit on |z| = 8.

    The limit matrix is z^{-sigma3/4} (1/sqrt2) [[1, i], [i, 1]].  The pair
    (y0, y2) solves the model problem in the Stokes sector arg z in
    (-pi/3, pi); the circle is sampled at 25 points comfortably inside that
    sector, where classical estimates give a deviation O(|z|^{-3/2}).
    """
    worst = 0.0
    for th in np.linspace(-0.7, 2.7, 25):
        zeta = 8.0 * np.exp(1j * th)
        a = airy_model_matrix(zeta)
        e = np.exp((2.0 / 3.0) * zeta ** 1.5)
        b = a @ np.diag([e, 1 / e])
        p, q = zeta ** -0.25, zeta ** 0.25
        pinf_inv = np.array([[q, -1j * p], [-1j * q, p]], dtype=complex) / np.sqrt(2)
        worst = max(worst, float(np.max(np.abs(b @ pinf_inv - np.eye(2)))))
    return worst


def airy_deviation(zeta: complex) -> float:
    """Larger relative deviation of Ai(zeta) and Ai'(zeta) by ``_airy``, which
    the formulas evaluate, from mp.airyai at 30 digits."""
    ai, aip = _airy(zeta)
    with PrecisionContext(30).working():
        z = mp.mpmathify(complex(zeta))
        refs = (mp.airyai(z), mp.airyai(z, derivative=1))
        return max(float(abs((mp.mpmathify(got) - ref) / ref))
                   for got, ref in zip((ai, aip), refs))
