"""Steepest-descent evaluation of int_a^b f(x) e^{i omega x^r} dx.

The integral is deformed onto three pieces: descent paths leaving the two
endpoints (handled by Gauss-Laguerre after the substitution that turns the
oscillator into e^{-t}), and the two-ray contour through the stationary
point at the origin (handled by the complex Gaussian rule built from the
pi_n zeros, rescaled by omega^{-1/r}):

    I[f] = F_a + M_omega[f] - F_b.

Along an endpoint path z(t)^r = x^r + i t / omega, so dz/dt = i/(r omega
z^{r-1}) needs no branch choice once z is known.  The module also carries
the measurement harness for the O(omega^{-(2n+1)/r}) error order of the
stationary rule and two independent oracles, both panelled Gauss-Legendre
(precision.panel_quad_vector) with a whole-vs-halved error estimate and with as
many points per panel as _panel_points gives the digits they run at: one
on the truncated rays of the stationary contour (the two-ray quadrature
the moment oracle of verify also runs), which serves a whole list of
frequencies in one pass, one on the real interval with a panel per
oscillation cycle, which serves a list of amplitudes in one pass.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import mpmath as mp
import numpy as np

from . import opq
from .errors import (
    AnalyticityBudgetError,
    NoiseFloorError,
    NonconvergenceError,
)
from .precision import (PrecisionContext, _is_finite_number, ensure_finite,
                        panel_quad_vector, ray_cuts)

__all__ = [
    "Amplitude",
    "amplitude",
    "AMPLITUDE_NAMES",
    "OscillatoryIntegralSpec",
    "laguerre_moment_sequence",
    "laguerre_rule",
    "stationary_rule",
    "evaluate_report",
    "stationary_oracle",
    "interval_oracle",
    "convergence_report",
]


# ---------------------------------------------------------------------------
# Amplitudes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Amplitude:
    """Complex -> complex amplitude with a declared analyticity radius.

    ``radius`` bounds the neighborhood of [a, b] (distance to the segment)
    in which the callback may be evaluated; math.inf marks entire functions.
    """

    fn: object
    radius: float = math.inf

    def __call__(self, z):
        return self.fn(z)


def _horner(coeffs, z):
    acc = mp.mpmathify(0)
    for c in reversed(coeffs):
        acc = acc * z + mp.mpmathify(c)
    return acc


# Amplitude families usable from the CLI and the parameters each accepts.
_AMPLITUDE_PARAMS = {"constant": ("value",), "monomial": ("k",),
                     "polynomial": ("coeffs",), "exp": ("scale",), "cos": ("scale",)}
AMPLITUDE_NAMES = tuple(_AMPLITUDE_PARAMS)


def _finite(key: str, v):
    """v, or ValueError naming amplitude parameter `key` if v is a bool or no finite number."""
    if isinstance(v, bool) or not _is_finite_number(v):
        raise ValueError(f"amplitude parameter {key!r} must be a finite number, got {v!r}")
    return v


def amplitude(name: str, **params) -> Amplitude:
    """Named amplitude families usable from the CLI (all entire).

    constant(value=1) | monomial(k=1) | polynomial(coeffs=...) |
    exp(scale=1) | cos(scale=1).  An unknown family or parameter name, or a
    value that is not a finite number (coeffs: a sequence of them; k: an
    integer >= 0, so 2.0 is 2), raises ValueError.
    """
    if name not in _AMPLITUDE_PARAMS:
        raise ValueError(f"unknown amplitude family {name!r}")
    unknown = sorted(set(params) - set(_AMPLITUDE_PARAMS[name]))
    if unknown:
        raise ValueError(f"amplitude {name!r} has no parameter {', '.join(unknown)}; "
                         f"it takes {', '.join(_AMPLITUDE_PARAMS[name])}")
    if name == "constant":
        v = _finite("value", params.get("value", 1))
        return Amplitude(lambda z, v=v: mp.mpmathify(v))
    if name == "monomial":
        k = _finite("k", params.get("k", 1))
        x = mp.mpmathify(k)
        if not (isinstance(x, mp.mpf) and mp.isint(x) and x >= 0):
            raise ValueError(f"amplitude parameter 'k' must be a non-negative integer, got {k!r}")
        k = k if isinstance(k, int) else int(x)   # an int keeps all its digits
        return Amplitude(lambda z, k=k: mp.mpmathify(z) ** k)
    if name == "polynomial":
        coeffs = params.get("coeffs", (1,))
        if not isinstance(coeffs, (list, tuple, np.ndarray)):
            raise ValueError(f"amplitude parameter 'coeffs' must be a sequence, got {coeffs!r}")
        coeffs = [_finite("coeffs", c) for c in coeffs]
        # a float converts exactly at any precision, so once; an int or a
        # decimal string converts at the precision of each call
        coeffs = tuple(mp.mpmathify(c) if isinstance(c, (float, complex)) else c
                       for c in coeffs)
        return Amplitude(lambda z, c=coeffs: _horner(c, mp.mpmathify(z)))
    s = _finite("scale", params.get("scale", 1))
    if name == "exp":
        return Amplitude(lambda z, s=s: mp.exp(mp.mpmathify(s) * mp.mpmathify(z)))
    return Amplitude(lambda z, s=s: mp.cos(mp.mpmathify(s) * mp.mpmathify(z)))


@dataclass(frozen=True)
class OscillatoryIntegralSpec:
    """I[f] = int_a^b f(x) e^{i omega x^r} dx with the stationary point at 0.

    The amplitude must be an Amplitude, so that its analyticity radius is
    declared and the descent paths are audited against it.
    """

    a: float
    b: float
    omega: float
    r: int
    amplitude: Amplitude

    def __post_init__(self):
        if not isinstance(self.amplitude, Amplitude):
            raise ValueError("amplitude must be an Amplitude (see oscillatory.amplitude)")
        for name in ("a", "b", "omega"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not (self.a < 0 < self.b):
            raise ValueError("need a < 0 < b so the stationary point is interior")
        if self.omega <= 0:
            raise ValueError("omega must be positive")
        if int(self.r) != self.r or self.r < 2:
            raise ValueError("r must be an integer >= 2")


# ---------------------------------------------------------------------------
# Endpoint rule (Gauss-Laguerre) from its closed-form recurrence
# ---------------------------------------------------------------------------

def laguerre_moment_sequence(k_max: int, ctx: PrecisionContext) -> opq.MomentSequence:
    """Moments of e^{-t} on [0, inf): M_k = k!."""
    with ctx.working():
        vals = tuple(ctx.finalize(mp.factorial(k)) for k in range(k_max + 1))
    return opq.MomentSequence(values=vals, ctx=ctx)


def laguerre_rule(n: int, ctx: PrecisionContext | None = None) -> opq.QuadratureRule:
    """n-point Gauss-Laguerre rule for int_0^infty p(t) e^{-t} dt.

    Built from the closed-form recurrence alpha_k = 2k+1, beta_k = k^2 by
    the same zeros -> Christoffel-weights path as the oscillatory rules and
    checked against the moments k! through degree 2n-1.  Nodes and weights
    are checked positive and sum(w) = 1 before delivery.  Rules are
    memoised per process like opq.build_rule.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    ctx = opq.precision_schedule(n) if ctx is None else ctx
    return _laguerre_rule(n, ctx.decimal_digits)


def _laguerre_recurrence(n: int, ctx: PrecisionContext) -> opq.RecurrenceCoefficients:
    """alpha_k = 2k+1, beta_k = k^2 of the monic Laguerre polynomials, degree n."""
    return opq.RecurrenceCoefficients(alpha=tuple(mp.mpf(2 * k + 1) for k in range(n)),
                                      beta=tuple(mp.mpf(k * k) for k in range(1, n)), ctx=ctx)


@functools.lru_cache(maxsize=64)
def _laguerre_rule(n: int, decimal_digits: int) -> opq.QuadratureRule:
    ctx = PrecisionContext(decimal_digits)
    rec = _laguerre_recurrence(n, ctx)
    roots = opq.zeros(rec, "real")
    weights = opq.christoffel_weights(rec, roots, laguerre_moment_sequence(2 * n - 1, ctx), "real")
    with ctx.working():
        tol = mp.mpf(10) ** (-ctx.decimal_digits // 2)
        nodes, ws = [], []
        for z, w in zip(roots, weights):
            if abs(mp.im(z)) > tol or mp.re(z) <= 0 or mp.re(mp.mpmathify(w)) <= 0:
                raise NonconvergenceError(
                    "Laguerre construction produced a non-real node or "
                    "non-positive node/weight")
            nodes.append(ctx.finalize(mp.re(z)))
            ws.append(ctx.finalize(mp.re(mp.mpmathify(w))))
        if abs(mp.fsum(ws) - 1) > tol:
            raise NonconvergenceError("Laguerre weights do not sum to 1")
    return opq.QuadratureRule(nodes=tuple(nodes), weights=tuple(ws), ctx=ctx)


# ---------------------------------------------------------------------------
# Stationary rule: pi_n zeros rescaled by omega^{-1/r}
# ---------------------------------------------------------------------------

def stationary_rule(n: int, r: int, omega) -> opq.QuadratureRule:
    """Gaussian rule for h -> int_Gamma h(z) e^{i omega z^r} dz.

    The substitution z -> omega^{-1/r} z maps the functional onto the
    omega = 1 contour, so nodes and weights are both the pi_n data scaled
    by omega^{-1/r}; exactness deg <= 2n-1 transfers verbatim.  The scaling
    runs at the precision of the scheduled pi_n rule, whose ctx it keeps.
    """
    base = opq.build_rule(n, opq.WeightSpec(r=r))
    ctx = base.ctx
    with ctx.working():
        s = mp.power(mp.mpf(omega), -mp.mpf(1) / r)
        nodes = tuple(ctx.finalize(z * s) for z in base.nodes)
        weights = tuple(ctx.finalize(mp.mpmathify(w) * s) for w in base.weights)
    return replace(base, nodes=nodes, weights=weights)


# ---------------------------------------------------------------------------
# Descent paths from the endpoints
# ---------------------------------------------------------------------------

def _descent_path(x, r: int, omega):
    """t -> z(t) on the endpoint descent path z(t)^r = x^r + i t/omega, z(0) = x.

    |x|^r and 1/r are taken once, at the ambient precision.
    """
    base, root = mp.mpf(abs(x)) ** r, mp.mpf(1) / r
    if x > 0:
        return lambda t: mp.power(base + 1j * t / omega, root)
    step = 1j if r % 2 == 0 else -1j
    return lambda t: -mp.power(base + step * t / omega, root)


def _segment_distance(z, a: float, b: float) -> float:
    x, y = float(mp.re(z)), float(mp.im(z))
    if x < a:
        return math.hypot(x - a, y)
    if x > b:
        return math.hypot(x - b, y)
    return abs(y)


def _check_path_in_region(points, spec: OscillatoryIntegralSpec, label: str):
    radius = spec.amplitude.radius
    if radius == math.inf:
        return
    for t, z in points:
        d = _segment_distance(z, spec.a, spec.b)
        if d > radius:
            raise AnalyticityBudgetError(
                f"{label} descent path leaves the declared analyticity "
                f"neighborhood (distance {d:.3g} > radius {radius:.3g} "
                f"at t = {float(t):.3g}) before the weight truncates")


def _endpoint_contribution(spec: OscillatoryIntegralSpec, x: float,
                           rule: opq.QuadratureRule, ctx: PrecisionContext):
    """F_x = e^{i omega x^r} int_0^inf f(z(t)) z'(t) e^{-t} dt by Laguerre."""
    r, omega, f = spec.r, spec.omega, spec.amplitude
    t_max = ctx.decimal_digits * math.log(10)
    path, label = _descent_path(x, r, omega), f"endpoint {x:g}"
    audited = f.radius != math.inf
    if audited:
        # analyticity audit along the continuous path, then the actual nodes
        audit = [mp.mpf(t) for t in np.geomspace(1e-3, t_max, 96)]
        _check_path_in_region(((t, path(t)) for t in audit), spec, label)
    acc = mp.mpc(0)
    for t, w in zip(rule.nodes, rule.weights):
        if t > t_max:
            continue  # weight below precision: truncated
        z = path(t)
        if audited:
            _check_path_in_region([(t, z)], spec, label)
        dz = 1j / (r * omega * z ** (r - 1))
        acc += w * f(z) * dz
    return mp.exp(1j * mp.mpf(omega) * mp.mpf(x) ** r) * acc


def evaluate_report(spec: OscillatoryIntegralSpec, n_endpoint: int,
                    n_stationary: int, ctx: PrecisionContext | None = None) -> dict:
    """I[f] = F_a + M - F_b with the per-path contributions broken out."""
    ctx = PrecisionContext() if ctx is None else ctx
    lag = laguerre_rule(n_endpoint)
    stat = stationary_rule(n_stationary, spec.r, spec.omega)
    with ctx.working():
        fa = _endpoint_contribution(spec, spec.a, lag, ctx)
        fb = _endpoint_contribution(spec, spec.b, lag, ctx)
        _check_path_in_region([(mp.mpf(0), z) for z in stat.nodes],
                              spec, "stationary")
        m = mp.fsum((w * spec.amplitude(z) for z, w in
                     zip(stat.nodes, stat.weights)), absolute=False)
        total = fa + m - fb
        ensure_finite(total, "evaluate_report")
        return {
            "value": ctx.finalize(total),
            "endpoint_a": ctx.finalize(fa),
            "endpoint_b": ctx.finalize(-fb),
            "stationary": ctx.finalize(m),
            "n_endpoint": n_endpoint,
            "n_stationary": n_stationary,
        }


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def _panel_points(ctx: PrecisionContext) -> int:
    """Gauss-Legendre points per panel for an oracle running at ctx.

    One rule for the ray and interval oracles: 2/3 of the digits carried
    (20 at the 30-digit floor, 40 at 60).  The panels are sized to the integrand
    (one decay quadrupling or one oscillation cycle each), so the points
    need not grow with omega or r; at the floor the estimates read about
    1e-26 on the rays and 1e-17 relative on the interval, each at least
    1e3 times below the gate that reads it.
    """
    return 2 * ctx.decimal_digits // 3


def _ray_quadrature(g, spec: opq.WeightSpec, ctx: PrecisionContext):
    """(dhi hi - dlo lo, est_hi + est_lo) per component of g(d, rho), unfinalized.

    hi and lo integrate g along the rays rho * d of spec by Gauss-Legendre
    with _panel_points(ctx) points on each panel of precision.ray_cuts, at
    the ambient precision (the caller enters ctx.working()); the contour
    runs in along the low ray and out along the high.
    """
    dhi, dlo = spec.ray_directions()
    cuts = ray_cuts(spec.r)
    (hi, est_hi), (lo, est_lo) = [
        panel_quad_vector(lambda rho: g(d, rho), cuts, _panel_points(ctx))
        for d in (dhi, dlo)]
    return ([dhi * a - dlo * b for a, b in zip(hi, lo)],
            [a + b for a, b in zip(est_hi, est_lo)])


def stationary_oracle(f, r: int, omegas, ctx: PrecisionContext) -> tuple:
    """((value, error_estimate), ...) for int_Gamma f(z) e^{i omega z^r} dz, one per omega.

    Independent of the Gaussian rule: integrates f(omega^{-1/r} rho d)
    e^{-rho^r} along both rays directly (_ray_quadrature) and multiplies
    by s = omega^{-1/r} last.  One pass serves the whole list: each ray
    node computes e^{-rho^r} once and gives one component per omega.  The
    estimate sums the two rays' whole-vs-halved panel differences.
    Memoised per process on (f, r, omegas, ctx), so f must be hashable.
    """
    return _stationary_oracle(f, r, tuple(omegas), ctx)


@functools.lru_cache(maxsize=16)
def _stationary_oracle(f, r: int, omegas: tuple, ctx: PrecisionContext) -> tuple:
    with ctx.working():
        scales = [mp.power(mp.mpf(w), -mp.mpf(1) / r) for w in omegas]

        def g(d, rho):
            e = mp.exp(-rho ** r)
            return [f(s * rho * d) * e for s in scales]

        values, ests = _ray_quadrature(g, opq.WeightSpec(r=r), ctx)
        return tuple((ctx.finalize(s * value), ctx.finalize(s * est))
                     for s, value, est in zip(scales, values, ests))


def _phase_breakpoints(spec: OscillatoryIntegralSpec) -> list:
    """Panel boundaries with at most ~one oscillation cycle per panel.

    ValueError, before any cut is built, past 100,000 cycles on the longer
    side, omega max(-a, b)^r / (2 pi).
    """
    if spec.omega * max(-spec.a, spec.b) ** spec.r / (2 * math.pi) > 100000:
        raise ValueError("oracle panel count exploded; omega beyond desk scale")
    cuts = {mp.mpf(spec.a), mp.mpf(0), mp.mpf(spec.b)}
    k = 1
    while True:
        x = (2 * mp.pi * k / spec.omega) ** (mp.mpf(1) / spec.r)
        if x >= max(-spec.a, spec.b):
            break
        if x < spec.b:
            cuts.add(x)
        if -x > spec.a:
            cuts.add(-x)
        k += 1
    return sorted(cuts)


def interval_oracle(specs, ctx: PrecisionContext) -> tuple:
    """((value, error_estimate), ...) for I[f] on the real interval at ctx, one per spec.

    The specs must share a, b, omega and r (ValueError otherwise); one pass
    serves them all: each node computes e^{i omega x^r} once and gives one
    component per amplitude.  Panels no wider than one oscillation cycle,
    each integrated by Gauss-Legendre with _panel_points(ctx) points, whole
    and halved (precision.panel_quad_vector); the difference is the
    reported error estimate.  The integrand is entire on every panel, so
    the rule converges geometrically.  Valid at desk scale (omega <= 1e4
    or so) and fully independent of the descent machinery.
    """
    specs = list(specs)
    shape = {(s.a, s.b, s.omega, s.r) for s in specs}
    if len(shape) != 1:
        raise ValueError("interval_oracle needs specs that share a, b, omega and r, "
                         f"got {len(shape)} distinct (a, b, omega, r)")
    omega, r = specs[0].omega, specs[0].r
    amplitudes = [s.amplitude for s in specs]
    with ctx.working():
        def g(x):
            e = mp.expj(mp.mpf(omega) * mp.mpf(x) ** r)
            return [f(x) * e for f in amplitudes]
        values, ests = panel_quad_vector(g, _phase_breakpoints(specs[0]), _panel_points(ctx))
        return tuple((ctx.finalize(v), ctx.finalize(e)) for v, e in zip(values, ests))


# ---------------------------------------------------------------------------
# Error-order measurement for the stationary rule
# ---------------------------------------------------------------------------

def convergence_report(f, n: int, r: int, omega_list) -> dict:
    """Fit log|M_rule - M_oracle| against log omega for the stationary piece.

    The oracle runs once for the whole omega list, at the 30-digit working
    floor, before the rule is evaluated at each omega.  Points at the
    precision floor (8 digits short of the oracle's or the rule's ctx,
    whichever is less) are excluded (and reported); if fewer than
    three informative points remain the measurement aborts with
    NoiseFloorError.  The oracle's own error estimate at every omega is
    reported alongside.  Expected slope: -(2n+1)/r.
    """
    octx = PrecisionContext()
    omegas = [float(w) for w in omega_list]
    if len(omegas) < 3 or max(omegas) / min(omegas) < 10 ** 1.5:
        raise ValueError("omega_list must span at least 1.5 decades with >= 3 points")
    errors, floors, estimates = [], [], []
    oracle = stationary_oracle(f, r, omegas, octx)
    for w, (exact, est) in zip(omegas, oracle):
        rule = stationary_rule(n, r, w)
        noise_digits = min(octx.decimal_digits, rule.ctx.decimal_digits) - 8
        estimates.append(float(est))
        with octx.working():
            approx = mp.fsum((wt * f(z) for z, wt in zip(rule.nodes, rule.weights)),
                             absolute=False)
            errors.append(float(abs(approx - exact)))
        floors.append(float(abs(exact)) * 10.0 ** (-noise_digits))
    keep = [i for i, (e, fl) in enumerate(zip(errors, floors)) if e > fl]
    if len(keep) < 3:
        raise NoiseFloorError(
            "stationary-rule errors sit at the oracle precision floor for "
            f"{len(omegas) - len(keep)} of {len(omegas)} frequencies; "
            "no slope can be fitted")
    lx = np.log10(np.array([omegas[i] for i in keep]))
    ly = np.log10(np.array([errors[i] for i in keep]))
    slope = np.polyfit(lx, ly, 1)[0]
    return {
        "errors": errors,
        "oracle_estimates": estimates,
        "excluded": [i for i in range(len(omegas)) if i not in keep],
        "slope": float(slope),
        "expected_slope": -(2 * n + 1) / r,
    }
