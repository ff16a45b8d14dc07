"""The cubic-case contour: critical trajectory, equilibrium measure, phases.

For r = 3 the rescaled polynomials concentrate their zeros on an analytic
arc gamma joining z1 = -sqrt(2)+i and z2 = sqrt(2)+i, a critical
trajectory of the quadratic differential Q(z) dz^2 with

    Q(z) = -z^4/4 + i z - 3/4 = -(1/4) (z+i)^2 (z^2 - 2iz - 3).

This module carries the phase function

    phi2(z) = -(i/6) z (z+i) w - log(z - i + w) + (1/2) log 2,
    w^2 = z^2 - 2iz - 3,

(normalized so phi2(z2) = 0 and phi2'(z) = Q^{1/2}(z)), inverts it for
gamma (phi2_chord = i pi (1 - m) at equilibrium mass m) and its two
unbounded extensions (phi2_chord real, positive), and builds the
equilibrium measure |Q^{1/2}|/pi |dz| on gamma, one quadrature rule over it
(composite Gauss-Legendre in the mass variable, which near_quadrature
refines around a point of gamma), the potential U and the g-function, and
the equilibrium / S-property verification report.  Q is fixed: -i is its
double zero, and its zeros Z1, Z2 and constant C_CONST are module constants.

Two square-root branches are in play and kept strictly separate:

* the *chord branch* w_p (principal factor product, cut on the straight
  chord between z1 and z2) is analytic in a strip around the open arc and
  is what the contour's Newton solves and all on-curve evaluations use;
* the *curve branch* R = sign * w_p, cut along gamma itself, defines
  q_sqrt, phi2 and g off the curve.  The two branches differ only in the
  lens between gamma and the chord, so sign is -1 there and +1 elsewhere;
  _in_lens and the on-cut guard decide from Q alone, not the polyline.

The lens lies above gamma, so on gamma the curve branch has the fixed
boundary values -w_p from above and +w_p from below: one-sided limits
come from the chord branch with that sign.  It follows that
Im(phi2_+ + phi2_-) = 0 on gamma, the constant ELL_TILDE.

Q also fixes the contour, so nothing about it is a setting:
build_phase_context is memoised per process (one functools.cache entry) and
PhaseContext is frozen, so callers share the cached contour safely.  Its
polylines are an output: distances to gamma and masses come from phi2.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial.legendre import leggauss

import mpmath as mp

from . import geometry
from .errors import NonconvergenceError, NonFiniteError, OnCutError
from .precision import PrecisionContext, ensure_finite, panel_quad_vector

__all__ = [
    "Z1", "Z2", "C_CONST", "L_CONST", "ELL", "ELL_TILDE",
    "CurvePolyline", "PhaseContext",
    "q_eval", "q_prime", "critical_angles",
    "w_chord", "q_sqrt_chord", "phi2_chord",
    "trace_gamma", "trace_extension",
    "measure_quadrature", "curve_points_at_mass",
    "near_quadrature", "potential_quadrature", "g_quadrature_unwrapped",
    "build_phase_context", "q_sqrt", "phi2", "g_eval",
    "phi2_on_curve", "d_on_curve", "re_v", "phi2_path_integral",
    "verify_equilibrium", "sample_field_grid",
]

SQRT2 = math.sqrt(2.0)
Z1 = -SQRT2 + 1j
Z2 = SQRT2 + 1j
C_CONST = -0.75
L_CONST = 1.0 / 3.0 + 0.5 * math.log(2.0)   # phi2(z) = V/2 - log z - l + O(1/z)
ELL = 2.0 * L_CONST                          # equilibrium constant on gamma
ELL_TILDE = 0.0                              # Im(V - g_+ - g_-) on gamma

_CUT_GUARD = 2e-3       # width of the on-cut guard around the open arc gamma
_EXTENSION_PHI2 = 10.52  # phi2 at the far end of gamma2, at arc length 2.5 from z2
_EXTENSION_VERTICES = 1000  # vertices of gamma1 and gamma2
_NEWTON_TOL = 4e-15     # residual of _invert_phi2, relative to 1 + |target|
_NEWTON_STEPS = 20      # Newton steps _invert_phi2 allows
_GAMMA_IM_MIN = 0.637   # below gamma's lowest point, Im 0.63716 at Re z = 0
# composite Gauss-Legendre layout of the measure quadratures, in the mass variable
_MID_CELLS = 220        # cells per unit mass between the two end windows
_END_WINDOW = 0.08      # mass of each endpoint window
_END_CELLS = 40         # cells in u of each endpoint window m = w u^3
_GL_POINTS = 6          # Gauss points per cell
_NEAR_WINDOW = 0.02     # mass half-width that near_quadrature refines
_NEAR_FINEST = 1e-6     # finest mass scale near_quadrature resolves
_NEAR_GL_POINTS = 4     # Gauss points per near_quadrature cell
# panelled Gauss-Kronrod of phi2_path_integral (coarser grading loses digits)
_PATH_GL_POINTS = 16    # Gauss points per panel, of 33 Kronrod nodes
_PATH_MIN_PANEL = 0.02  # floor of the panel length (half the branch-point distance)
_PATH_MAX_U_PANEL = 0.25  # panel cap in u on the first segment, z = z2 + u^2 (b - z2)


@dataclass(frozen=True)
class CurvePolyline:
    """Contour polyline with per-vertex arc length, density and cdf (zero on the
    extensions, whose total_mass is NaN).  The arrays are made read-only on
    construction, so a cached contour cannot be changed in place by one of
    its callers."""

    points: np.ndarray           # complex vertices
    s: np.ndarray                # chordal arc length from the first vertex
    density: np.ndarray          # |Q^{1/2}|/pi at the vertices (gamma only)
    cdf: np.ndarray              # equilibrium mass of the initial arc (gamma only)
    total_mass: float = float("nan")

    def __post_init__(self):
        for arr in (self.points, self.s, self.density, self.cdf):
            arr.flags.writeable = False

    @property
    def total_length(self) -> float:
        return float(self.s[-1])

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class PhaseContext:
    """The contour: gamma (the cut of the curve branch) and its extensions.

    Only the outputs read it (the curve and measure tables, the equilibrium
    check): the phase and g evaluators, the on-cut guard, the region tubes
    and the grid masks are fixed by Q alone.
    """

    gamma: CurvePolyline
    gamma1: CurvePolyline
    gamma2: CurvePolyline


# ---------------------------------------------------------------------------
# Q and its chord-branch square root
# ---------------------------------------------------------------------------

def q_eval(z):
    """Q(z) = -z^4/4 + i z - 3/4 (complex scalar or ndarray)."""
    return -z ** 4 / 4 + 1j * z + C_CONST


def q_prime(z):
    """Q'(z) = -z^3 + i (complex scalar or ndarray)."""
    return -z ** 3 + 1j


def critical_angles(zero: str):
    """The three trajectory directions at the simple zero "z1" or "z2", in (-pi, pi].

    At z1 these are theta = -(1/3) arctan(2 sqrt 2) + 2k pi/3; at z2 the
    mirror image theta -> pi - theta (the curve arrives there at
    pi + 0.4103...).
    """
    qp = complex(q_prime({"z1": Z1, "z2": Z2}[zero]))
    base = (math.pi - math.atan2(qp.imag, qp.real)) / 3.0
    angles = []
    for k in range(3):
        a = base + 2.0 * math.pi * k / 3.0
        a = math.remainder(a, 2.0 * math.pi)  # to (-pi, pi]
        angles.append(a)
    return tuple(sorted(angles))


def w_chord(z):
    """Principal-branch sqrt((z-z1)(z-z2)), cut on the straight chord [z1, z2].

    The two per-factor principal cuts (horizontal leftward rays) cancel to
    the left of z1, leaving exactly the chord; the result is analytic in a
    neighbourhood of the open arc gamma and ~ z at infinity.
    """
    return np.sqrt(z - Z1) * np.sqrt(z - Z2)


def q_sqrt_chord(z):
    """Chord-branch Q^{1/2}(z) = -(i/2)(z+i) w_chord(z)."""
    return -0.5j * (z + 1j) * w_chord(z)


def _phi2_from_w(z, w):
    return -1j / 6.0 * z * (z + 1j) * w - np.log(z - 1j + w) + 0.5 * math.log(2.0)


def phi2_chord(z):
    """phi2 evaluated on the chord branch (smooth across the open arc gamma)."""
    return _phi2_from_w(z, w_chord(z))


# ---------------------------------------------------------------------------
# The contour as the inverse of phi2_chord
# ---------------------------------------------------------------------------

def _project(z: complex) -> complex:
    """Newton correction of z onto the zero set of Re phi2_chord, which holds
    gamma, along its gradient conj(Q^{1/2}): the step F conj(q)/|q|^2 = F/q."""
    for _ in range(4):
        F = phi2_chord(z).real
        q = q_sqrt_chord(z)
        if q == 0:
            break
        z = z - F / q
        if abs(F) <= 1e-13:
            break
    return z


def _invert_phi2(target, z) -> np.ndarray:
    """Solve phi2_chord(z) = target by Newton's method from the seeds z (vectorized).

    Steps z -= r / q_sqrt_chord(z), r = phi2_chord(z) - target, and returns
    after the first step taken from residuals all at most _NEWTON_TOL
    (1 + |target|): 8 steps from the seeds of gamma, 6 from those of gamma2;
    NonconvergenceError after _NEWTON_STEPS.
    """
    for _ in range(_NEWTON_STEPS):
        r = phi2_chord(z) - target
        z = z - r / q_sqrt_chord(z)
        if np.all(np.abs(r) <= _NEWTON_TOL * (1.0 + np.abs(target))):
            return z
    raise NonconvergenceError(f"phi2_chord inversion: residual {np.max(np.abs(r)):.3g}")


def curve_points_at_mass(m) -> np.ndarray:
    """Points z(m) of gamma at equilibrium masses m (vectorized).

    The mass of gamma's initial arc to z is 1 - Im phi2_chord(z)/pi, and
    Re phi2_chord = 0 on gamma, so z(m) solves phi2_chord(z) = i pi (1 - m),
    from the chord bent towards gamma, z1 + (z2 - z1) m - 0.3 i sin(pi m).
    m is clipped to [1e-13, 1 - 1e-13], off the zeros of Q^{1/2}.
    """
    m = np.clip(np.atleast_1d(np.asarray(m, dtype=float)), 1e-13, 1.0 - 1e-13)
    return _invert_phi2(1j * math.pi * (1.0 - m), Z1 + (Z2 - Z1) * m - 0.3j * np.sin(math.pi * m))


def trace_gamma() -> CurvePolyline:
    """gamma as a polyline: z1, the nodes of measure_quadrature and z2, with the
    density |Q^{1/2}|/pi of its equilibrium measure and the cdf (pi - Im
    phi2_chord)/pi, whose total checks the unit normalization of the measure.
    """
    points = np.concatenate([[Z1], measure_quadrature()[0], [Z2]])
    im = phi2_chord(points).imag
    # the exact endpoints sit on the log branch line of the closed form;
    # unwrap them by 2 pi onto the on-curve limit seen by their neighbours
    im[0] += 2.0 * math.pi * round((im[1] - im[0]) / (2.0 * math.pi))
    im[-1] += 2.0 * math.pi * round((im[-2] - im[-1]) / (2.0 * math.pi))
    cdf = (im[0] - im) / math.pi
    return CurvePolyline(points=points, s=geometry.cumulative_arclength(points),
                         density=np.abs(q_sqrt_chord(points)) / math.pi, cdf=cdf,
                         total_mass=float(cdf[-1]))


def trace_extension() -> CurvePolyline:
    """gamma2 out of z2 as a polyline, where phi2_chord = s is real, increasing.

    s = _EXTENSION_PHI2 t^{3/2} at equally spaced t, seeded by the leading
    term at z2, z2 + (1.5 s / |Q'(z2)|^{1/2})^{2/3} e^{i atan(2 sqrt 2)/3}.
    build_phase_context takes gamma1 as -conj(gamma2), by the z -> -conj(z)
    symmetry of Q, after which phi1 real increasing holds by reflection.
    """
    s = _EXTENSION_PHI2 * np.linspace(0.0, 1.0, _EXTENSION_VERTICES)[1:] ** 1.5
    seed = Z2 + (1.5 * s / abs(q_prime(Z2)) ** 0.5) ** (2 / 3) \
        * np.exp(1j * math.atan(2 * SQRT2) / 3)
    points = np.concatenate([[Z2], _invert_phi2(s, seed)])
    return CurvePolyline(points=points, s=geometry.cumulative_arclength(points),
                         density=np.zeros(len(points)), cdf=np.zeros(len(points)))


def _nearest_on_gamma(z: complex) -> tuple[float, float]:
    """(distance, mass 1 - Im phi2_chord(p)/pi) of the point p of gamma nearest z.

    p is _project(z) slid along gamma's tangent to the foot of the normal
    and projected again.  Unless it converged in gamma's box with 0 < Im
    phi2_chord(p) < pi (the other trajectories of Re phi2_chord = 0 fail
    that), or if an endpoint is nearer, that endpoint stands in.
    """
    end = min((abs(z - Z1), 0.0), (abs(z - Z2), 1.0))
    p = _project(z)
    q = q_sqrt_chord(p)
    if q != 0:
        t = 1j * q.conjugate() / abs(q)
        p = _project(p + ((z - p) * t.conjugate()).real * t)
    f = complex(phi2_chord(p))
    dist = abs(z - p)
    if abs(f.real) <= 1e-12 and _near_gamma_box(p, 0.0) and 0.0 < f.imag < math.pi \
            and end[0] > dist * (1.0 + 1e-9):
        return dist, 1.0 - f.imag / math.pi
    return end


# ---------------------------------------------------------------------------
# Equilibrium measure on gamma
# ---------------------------------------------------------------------------

def _gl_cells(edges: np.ndarray, npts: int):
    """Composite Gauss-Legendre nodes/weights on consecutive cells."""
    x, w = leggauss(npts)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    wts = (half[:, None] * w[None, :]).ravel()
    return nodes, wts


def _mass_rule(lo: float, hi: float):
    """(masses, weights) in increasing mass on [0, 1] less the window (lo, hi).

    Each end window has mass w_end = _END_WINDOW, or less where (lo, hi) reaches
    into it, and takes m = w_end u^3 (mirrored at 1): the map z(m) behaves like
    m^{2/3} at the endpoints and is smooth in u.  The rest gets _MID_CELLS
    cells per unit mass.  lo = hi = 1 - _END_WINDOW excludes nothing.
    """
    u, wu = _gl_cells(np.linspace(0.0, 1.0, _END_CELLS + 1), _GL_POINTS)
    b_left, b_right = min(_END_WINDOW, lo), 1.0 - max(1.0 - _END_WINDOW, hi)
    parts = [(b_left * u ** 3, 3.0 * b_left * u ** 2 * wu)]
    for a, b in ((_END_WINDOW, lo), (hi, 1.0 - _END_WINDOW)):
        if b - a > 1e-12:
            ncells = max(int(round(_MID_CELLS * (b - a))), 1)
            parts.append(_gl_cells(np.linspace(a, b, ncells + 1), _GL_POINTS))
    u, wu = u[::-1], wu[::-1]
    parts.append((1.0 - b_right * u ** 3, 3.0 * b_right * u ** 2 * wu))
    return tuple(np.concatenate(x) for x in zip(*parts))


def measure_quadrature():
    """Quadrature (points, masses) for integrals against the equilibrium measure.

    The rule of _mass_rule in the mass variable m, where the unit-mass
    measure is uniform, mapped onto gamma; nodes are sorted along the curve.
    """
    m, w = _mass_rule(1.0 - _END_WINDOW, 1.0 - _END_WINDOW)
    return curve_points_at_mass(m), w


def near_quadrature(m_center: float):
    """Measure quadrature resolving the curve down to mass scale _NEAR_FINEST
    around m_center in [0.03, 0.97] (else ValueError), for potentials
    evaluated close to the support.

    Cells halving towards m_center fill the window m_center +- w, _NEAR_WINDOW
    >= w >= 0.015; _mass_rule covers the rest.  Nodes are sorted along gamma.
    """
    if not (0.03 <= m_center <= 0.97):
        raise ValueError("near-field sample must sit away from the curve endpoints")
    w = min(_NEAR_WINDOW, 0.5 * m_center, 0.5 * (1.0 - m_center))
    edges = [w]
    while edges[-1] / 2.0 > _NEAR_FINEST:
        edges.append(edges[-1] / 2.0)
    edges = np.array(edges + [_NEAR_FINEST])
    m_near, w_near = _gl_cells(np.concatenate([m_center - edges, m_center + edges[::-1]]),
                               _NEAR_GL_POINTS)
    m_far, w_far = _mass_rule(m_center - w, m_center + w)
    k = np.searchsorted(m_far, m_center)
    return curve_points_at_mass(np.insert(m_far, k, m_near)), np.insert(w_far, k, w_near)


def potential_quadrature(z0: complex, zq: np.ndarray, wq: np.ndarray) -> float:
    """Logarithmic potential U(z0) = -sum w log|z0 - zq| from a measure quadrature."""
    return float(-np.sum(wq * np.log(np.abs(z0 - zq))))


def g_quadrature_unwrapped(z0: complex, zq: np.ndarray, wq: np.ndarray) -> complex:
    """g(z0) with the argument unwrapped along the (mass-sorted) node sequence.

    Summing principal logs can jump Im g by 2 pi when z0 - zq crosses the
    negative real axis mid-curve; unwrapping yields the branch of Im g
    continuous in the integration variable, anchored at the z1 end.
    """
    d = z0 - zq
    theta = np.unwrap(np.angle(d))
    return complex(np.sum(wq * np.log(np.abs(d))) + 1j * np.sum(wq * theta))


# ---------------------------------------------------------------------------
# Global (curve-cut) branch machinery and phases
# ---------------------------------------------------------------------------

def _branch_points_mp():
    """z1, z2 at the current mpmath working precision (not float-rounded)."""
    s = mp.sqrt(2)
    return -s + mp.mpc(0, 1), s + mp.mpc(0, 1)


def _in_lens(z: complex) -> bool:
    """True iff z lies strictly between gamma and the chord Im z = 1.

    Re phi2_chord vanishes on gamma, is positive above it up to the chord
    and negative below it down to Im z ~ -2.2 (hence the lower bound).  On
    its cut, the chord, the chord branch takes the limit from above: outside.
    """
    return abs(z.real) < SQRT2 and 1.0 - SQRT2 < z.imag < 1.0 and phi2_chord(z).real > 0


def _near_gamma_box(z: complex, margin: float) -> bool:
    """False iff z lies more than margin outside the box |Re z| <= sqrt 2,
    _GAMMA_IM_MIN <= Im z <= 1 around gamma, and so more than margin from it."""
    return abs(z.real) <= SQRT2 + margin and _GAMMA_IM_MIN - margin <= z.imag <= 1.0 + margin


def _require_off_cut(z: complex) -> None:
    """NonFiniteError for a non-finite z; OnCutError within _CUT_GUARD of the
    open arc gamma, nearer its interior than either endpoint (a branch *point*
    may be approached from outside).  The distance is that of _nearest_on_gamma.
    """
    zc = ensure_finite(complex(z), "complex(z)")
    if not _near_gamma_box(zc, _CUT_GUARD):
        return
    dist, mass = _nearest_on_gamma(zc)
    if dist <= _CUT_GUARD and 0.0 < mass < 1.0:
        raise OnCutError(f"point {zc} within {_CUT_GUARD:.2g} of the cut (distance {dist:.2g})")


def q_sqrt(z):
    """Q^{1/2}(z) with branch cut along gamma; ~ -i z^2/2 - 1/z at infinity."""
    _require_off_cut(z)
    zc = complex(z)
    with np.errstate(over="ignore", invalid="ignore"):   # ensure_finite raises instead
        return ensure_finite((-1 if _in_lens(zc) else 1) * q_sqrt_chord(zc), "q_sqrt")


def _phi2_off_cut(z: complex) -> complex:
    """Float phi2 at a z already known to lie off the cut."""
    return complex(_phi2_from_w(z, (-1 if _in_lens(z) else 1) * w_chord(z)))


def phi2(z, ctx: PrecisionContext | None = None):
    """Explicit phi2 with the curve-branch square root (cut along gamma).

    Float arithmetic, or mpmath at ctx when given.  Normalized so
    phi2(z2) = 0; the logarithm contributes an additional 2 pi i jump line
    on {Im z = 1, Re z < -sqrt 2} which is immaterial in e^{n phi2} and
    avoided by all built-in probe placements.  NonFiniteError for |z| past ~1e103.
    """
    _require_off_cut(z)
    if ctx is None:
        with np.errstate(over="ignore", invalid="ignore"):   # ensure_finite raises instead
            return ensure_finite(_phi2_off_cut(complex(z)), "phi2")
    sign = -1 if _in_lens(complex(z)) else 1
    with ctx.working():
        zm = mp.mpmathify(z)
        z1m, z2m = _branch_points_mp()
        w = sign * mp.sqrt(zm - z1m) * mp.sqrt(zm - z2m)
        val = -mp.mpc(0, 1) / 6 * zm * (zm + mp.mpc(0, 1)) * w \
            - mp.log(zm - mp.mpc(0, 1) + w) + mp.log(2) / 2
        return ctx.finalize(val)


def g_eval(z):
    """g(z) = V/2 - phi2 - l with V = -i z^3/3; behaves like log z at infinity."""
    zc = complex(z)
    try:
        return -1j * zc ** 3 / 6.0 - phi2(zc) - L_CONST
    except OverflowError:   # z^3 past the float range
        raise NonFiniteError(f"g_eval: z^3 overflows the float range at {zc}") from None


def phi2_on_curve(z_on_gamma, side: int):
    """One-sided boundary value of phi2 at a point of gamma.

    side=+1 is the limit from the left of the z1->z2 orientation (above the
    curve, inside the lens), where the curve branch is -w_chord; side=-1
    is the limit from below, +w_chord.
    """
    return _phi2_from_w(z_on_gamma, -side * w_chord(z_on_gamma))


def d_on_curve(z_on_gamma, side: int):
    """Boundary value on gamma of D = phi1/(pi i): +- the mass function.

    Here phi1(z) = conj(phi2(-conj z)), the z1-anchored phase.  The
    reflection z -> -conj(z) that defines phi1 preserves the geometric
    upper/lower side of the symmetric curve, so the same side is used for
    the phi2 boundary value; the limit from above (side=+1) is + cdf, the
    one from below is - cdf.
    """
    return np.conj(phi2_on_curve(-np.conj(z_on_gamma), side)) / (math.pi * 1j)


def re_v(z):
    """Re V with V(z) = -i z^3/3 (the external field of the weighted energy)."""
    return np.real(-1j * z ** 3 / 3.0)


def build_phase_context() -> PhaseContext:
    """Build gamma and gamma2, mirror gamma2 into gamma1, and freeze the three.

    NonconvergenceError if gamma's vertices are not a graph over Re z, as
    when a Newton solve settles on another trajectory of Re phi2_chord = 0.

    Memoised per process: every call returns the same frozen PhaseContext.
    """
    return _build_phase_context()


@functools.cache
def _build_phase_context() -> PhaseContext:
    gamma = trace_gamma()
    if not np.all(np.diff(gamma.points.real) > 0):
        raise NonconvergenceError("gamma is not a graph over Re z (Re z not "
                                  "strictly increasing from z1 to z2)")
    g2 = trace_extension()
    g1 = replace(g2, points=-np.conj(g2.points))
    return PhaseContext(gamma=gamma, gamma1=g1, gamma2=g2)


def _check_path(path: list) -> None:
    """ValueError unless every vertex after z2 is off the closed chord
    [z1, z2] and no segment passes through a branch point (other than the
    start z2 of the first segment)."""
    for v in path[1:]:
        if v.imag == 1.0 and abs(v.real) <= SQRT2:
            raise ValueError(f"path vertex {v} lies on the chord [z1, z2]")
    for i, (a, b) in enumerate(zip(path[:-1], path[1:])):
        d = b - a
        if d == 0:
            raise ValueError(f"path repeats the vertex {a}")
        for p in (Z1,) if i == 0 else (Z1, Z2):
            t = ((p - a) * d.conjugate()).real / abs(d) ** 2
            if 0.0 <= t <= 1.0 and abs(a + t * d - p) <= 1e-12:
                raise ValueError(f"path segment {a} -> {b} passes through the "
                                 f"branch point {p}")


def _panel_cuts(t0, t1, step) -> list:
    """Cuts from t0 to t1, each panel as long as step(its start) allows."""
    cuts = [t0]
    while cuts[-1] < t1:
        cuts.append(min(t1, cuts[-1] + step(cuts[-1])))
    return cuts


def _phi2_leg(a: complex, b: complex, sign, ctx: PrecisionContext):
    """(panel_quad_vector parts, sign at b) of the integral of Q^{1/2} along a -> b.

    sign is that of R = sign * sqrt(z - z1) sqrt(z - z2) at a, or None for
    the first leg, which leaves a = z2: its sign is then read from the
    curve branch (q_sqrt) at the leg's midpoint.  The parts are unfinalized
    ([value], [estimate]) pairs at ctx's working precision, one per piece of
    the leg between crossings of the open chord, where the sign flips.
    """
    first = sign is None
    if first:
        # a segment from z2 meets the line Im z = 1 only at z2 or runs along
        # it outside the chord, so the first leg never crosses the open chord
        mid = (a + b) / 2
        # both vanish only at the double zero -i, which lies outside the lens
        sign = -1 if (q_sqrt(mid) * q_sqrt_chord(mid).conjugate()).real < 0 else 1
    with ctx.working():
        z1, z2 = _branch_points_mp()
        i = mp.mpc(0, 1)
        if first:
            d0 = mp.mpmathify(b) - z2
            # z - z2 = u^2 d0, so sqrt(z - z2) = u sqrt(d0) and dz = 2 u d0 du
            c0 = -i * sign * mp.sqrt(d0) * d0

            def f(u):
                w = u * u
                z = z2 + w * d0
                return (c0 * w * (z + i) * mp.sqrt(z - z1),)

            def u_step(u):
                # the z-length of [u, v] is |d0| (v^2 - u^2)
                h = max(_PATH_MIN_PANEL, 0.5 * abs(complex(z2 + u * u * d0) - Z1))
                return min(_PATH_MAX_U_PANEL, mp.sqrt(u * u + h / abs(d0)) - u)

            return [panel_quad_vector(f, _panel_cuts(mp.mpf(0), 1, u_step), _PATH_GL_POINTS)], sign

        def panel_length(z):
            zc = complex(z)
            return max(_PATH_MIN_PANEL, 0.5 * min(abs(zc - Z1), abs(zc - Z2)))

        a, b = mp.mpmathify(a), mp.mpmathify(b)
        d = b - a
        pieces = [mp.mpf(0), 1]
        if (a.imag - 1) * (b.imag - 1) < 0:
            t = (1 - a.imag) / (b.imag - a.imag)
            if abs(a.real + t * d.real) < mp.sqrt(2):
                pieces.insert(1, t)
        parts = []
        for j, (t0, t1) in enumerate(zip(pieces[:-1], pieces[1:])):
            if j:
                sign = -sign            # crossed the open chord

            def g(t, c=-i / 2 * sign * d):
                z = a + t * d
                return (c * (z + i) * mp.sqrt(z - z1) * mp.sqrt(z - z2),)

            cuts = _panel_cuts(t0, t1, lambda t: panel_length(a + t * d) / abs(d))
            parts.append(panel_quad_vector(g, cuts, _PATH_GL_POINTS))
        return parts, sign


def phi2_path_integral(probes, ctx: PrecisionContext) -> list:
    """[(phi2(target), error_estimate), ...] by integrating Q^{1/2} from z2 along
    segments, one pair per (target, waypoints) probe.

    The independent oracle for the closed-form phi2.  `waypoints` are the
    successive segment endpoints after z2 and before `target`; the path must
    avoid the cut gamma.  Q^{1/2} = -(i/2)(z+i) R is continued analytically
    along the path: R = sign * sqrt(z - z1) sqrt(z - z2) (principal
    factors), whose product jumps only across the open chord Im z = 1,
    |Re z| < sqrt 2, so sign flips at every crossing of it.  The starting
    sign is read from the curve branch (q_sqrt, its lens rule and on-cut
    guard) at the first segment's midpoint: all it shares with phi2.  A
    path that crosses gamma continues onto the other sheet and disagrees.

    The first segment, leaving z2, is integrated in u with z = z2 + u^2 (b -
    z2), which removes the square-root singularity at z2.  Every piece gets
    the (G_16, K_33) Gauss-Kronrod pair (precision.panel_quad_vector) on panels
    at most half their start's distance to the nearest branch point (floor
    0.02), and at most 0.25 long in u; the estimate sums the pieces' estimates.

    Probes that share a path prefix share its legs: each distinct prefix
    is integrated once per call (_phi2_leg), so the curve branch is read
    once per distinct first segment, and a probe's value is the fsum of
    its legs' parts in path order.  Sharing goes by prefix, not by
    geometry: a leg that runs along part of another is integrated again,
    so probes routed as one tree (verify.PHI2_PROBES, where each stretch of
    the plane is one leg) integrate each stretch once.

    Raises ValueError if a vertex lies on the closed chord [z1, z2] or a
    segment passes through a branch point.
    """
    paths = [[Z2] + [complex(w) for w in waypoints] + [complex(target)]
             for target, waypoints in probes]
    for path in paths:
        _check_path(path)
    legs = {}   # path prefix -> (parts of its last leg, sign at its end)
    out = []
    for path in paths:
        parts, sign = [], None
        for j in range(1, len(path)):
            key = tuple(path[:j + 1])
            if key not in legs:
                legs[key] = _phi2_leg(path[j - 1], path[j], sign, ctx)
            leg, sign = legs[key]
            parts += leg
        with ctx.working():
            out.append((ctx.finalize(mp.fsum(v for (v,), _ in parts)),
                        ctx.finalize(mp.fsum(e for _, (e,) in parts))))
    return out


# ---------------------------------------------------------------------------
# Equilibrium verification
# ---------------------------------------------------------------------------

def verify_equilibrium(phase: PhaseContext) -> dict:
    """Numbers for the equilibrium equality, inequality, and S-property.

    (i)  max over 11 interior gamma samples (equally spaced in mass) of
         |Re(V - 2 g_+-) - ell| with the one-sided g from
         Richardson-extrapolated measure quadrature,
    (ii) min over gamma1/gamma2 samples of Re(V - 2g) - ell (positive),
    (iii) mismatch of the two one-sided normal derivatives of
         2 U^mu + Re V under h-refinement with its fitted order in h.
    Thresholds are applied by the acceptance suite, not here.
    """
    ms = np.linspace(0.0, 1.0, 13)[1:-1]
    zs = curve_points_at_mass(ms)
    eq_devs, tilde_devs = [], []
    s_h = np.geomspace(1e-3, 1e-2, 6)
    mismatches = np.zeros((len(ms), len(s_h)))
    mismatch_h4 = []
    for i, (m0, z0) in enumerate(zip(ms, zs)):
        z0 = complex(z0)
        q = q_sqrt_chord(z0)
        nrm = q.conjugate() / abs(q)       # left normal
        zq, wq = near_quadrature(float(m0))
        h = 1e-5
        gp = 2 * g_quadrature_unwrapped(z0 + 0.5 * h * nrm, zq, wq) \
            - g_quadrature_unwrapped(z0 + h * nrm, zq, wq)
        gm = 2 * g_quadrature_unwrapped(z0 - 0.5 * h * nrm, zq, wq) \
            - g_quadrature_unwrapped(z0 - h * nrm, zq, wq)
        v = -1j * z0 ** 3 / 3.0
        eq_devs.append(max(abs((v - 2 * gp).real - ELL), abs((v - 2 * gm).real - ELL)))
        tilde_devs.append(abs((v - gp - gm).imag - ELL_TILDE))

        def T(pt):
            return 2.0 * potential_quadrature(pt, zq, wq) + float(re_v(pt))

        for j, hh in enumerate(s_h):
            mismatches[i, j] = (T(z0 + hh * nrm) - T(z0 - hh * nrm)) / (2.0 * hh)
        mismatch_h4.append((T(z0 + 1e-4 * nrm) - T(z0 - 1e-4 * nrm)) / 2e-4)

    orders = []
    for i in range(len(ms)):
        y = np.log(np.abs(mismatches[i]) + 1e-300)
        slope = np.polyfit(np.log(s_h), y, 1)[0]
        orders.append(slope)

    # inequality on the extensions, sampled away from the endpoints
    zq, wq = measure_quadrature()
    ineq = []
    for ext in (phase.gamma1, phase.gamma2):
        for frac in (0.08, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95):
            idx = int(np.searchsorted(ext.s, frac * ext.total_length))
            idx = min(max(idx, 1), len(ext) - 1)
            ze = complex(ext.points[idx])
            # Re(V - 2g) = 2U + Re V
            ineq.append((2.0 * potential_quadrature(ze, zq, wq) + float(re_v(ze)) - ELL, ze))
    ineq_min, ineq_argmin = min(ineq, key=lambda t: t[0])

    return {
        "samples": len(ms),
        "equality_max_dev": float(max(eq_devs)),
        "ell": ELL,
        "ell_tilde": ELL_TILDE,
        "ell_tilde_max_dev": float(max(tilde_devs)),
        "inequality_min": float(ineq_min),
        "inequality_argmin": complex(ineq_argmin),
        "s_mismatch_h": [float(h) for h in s_h],
        "s_mismatch": [[float(v) for v in row] for row in mismatches],
        "s_order_min": float(min(orders)),
        "s_order_median": float(np.median(orders)),
        "s_mismatch_at_1e-4": float(np.max(np.abs(mismatch_h4))),
    }


# ---------------------------------------------------------------------------
# Field grids for external contour plotting
# ---------------------------------------------------------------------------

def sample_field_grid(which: str, grid_spec, phase: PhaseContext | None):
    """Evaluate a diagnostic field on a rectangular grid.

    which in {ReD, ImD, ReQ, ImQ, RePhi2}; grid_spec = (x0, x1, nx, y0, y1, ny).
    D(z) = conj(phi2(-conj z))/(pi i) is real on gamma with D(z2) = 1.
    Branch-dependent fields are not evaluated within 1.5 _CUT_GUARD of gamma
    (of its mirror image for D) by _nearest_on_gamma; those entries are NaN
    and flagged in the returned mask, so the others lie beyond phi2's on-cut
    guard.  `phase` is not read: perfbench passes the contour, the CLI None.
    NonFiniteError for an unmasked value past the float range.
    """
    if which not in ("ReD", "ImD", "ReQ", "ImQ", "RePhi2"):
        raise ValueError(f"unknown field {which!r}")
    x0, x1, nx, y0, y1, ny = grid_spec
    with np.errstate(over="ignore", invalid="ignore"):   # NonFiniteError below instead
        xs = np.linspace(x0, x1, int(nx))
        ys = np.linspace(y0, y1, int(ny))
        X, Y = np.meshgrid(xs, ys)
        Z = X + 1j * Y
        mask = np.zeros(Z.shape, dtype=bool)
        if which in ("ReQ", "ImQ"):
            Q = q_eval(Z)
            V = Q.real if which == "ReQ" else Q.imag
        else:
            V = np.full(Z.shape, np.nan)
            guard = 1.5 * _CUT_GUARD
            for idx in np.ndindex(Z.shape):
                z = complex(Z[idx])
                zz = -z.conjugate() if which in ("ReD", "ImD") else z
                if _near_gamma_box(zz, guard) and _nearest_on_gamma(zz)[0] <= guard:
                    mask[idx] = True
                    continue
                p = _phi2_off_cut(zz)
                if which == "RePhi2":
                    V[idx] = p.real
                else:
                    d = p.conjugate() / (math.pi * 1j)
                    V[idx] = d.real if which == "ReD" else d.imag
    if not np.isfinite(V[~mask]).all():
        raise NonFiniteError(f"field {which} leaves the float range on the grid {grid_spec}")
    return X, Y, V, mask
