"""Steepest-descent evaluation of int_a^b f(x) e^{i omega x^r} dx.

The integral is deformed onto three pieces: descent paths leaving the two
endpoints (handled by Gauss-Laguerre after the substitution that turns the
oscillator into e^{-t}), and the two-ray contour through the stationary
point at the origin (handled by the complex Gaussian rule built from the
pi_n zeros, rescaled by omega^{-1/r}):

    I[f] = F_a + M_omega[f] - F_b.

The amplitude f is any callable: it is evaluated at the complex nodes of the
paths, so it must be analytic where they go, as every family of amplitude() is.
Along an endpoint path z(t)^r = x^r + i t / omega, so z'(t) = i z / (r (q + i t)),
q = omega x^r, needs no branch choice once z is known; it folds with e^{iq} into
the weights, and the integral is one complex Gaussian rule.  The module also carries
the measurement harness for the O(omega^{-(2n+1)/r}) error order of the
stationary rule and two independent oracles, both panelled Gauss-Kronrod
(precision.panel_quad_vector, its estimate |K_{2m+1} - G_m|) with the m that
_panel_points gives the digits they run at: one
on the truncated rays (_ray_quadrature, which the moment oracle uses too),
serving both rays and a whole list of frequencies in one pass, one on the
real interval, a panel per oscillation cycle, serving a list of amplitudes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import mpmath as mp

from . import opq
from .errors import NoiseFloorError
from .precision import (PrecisionContext, _is_finite_number, ensure_finite,
                        panel_quad_vector)

__all__ = [
    "amplitude",
    "AMPLITUDE_NAMES",
    "OscillatoryIntegralSpec",
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

def _horner(coeffs, z):
    acc = mp.mpmathify(coeffs[-1] if coeffs else 0)
    for c in reversed(coeffs[:-1]):
        acc = acc * z + mp.mpmathify(c)
    return acc


# The amplitude families usable from the CLI and the parameters each accepts.
_AMPLITUDE_PARAMS = {"constant": ("value",), "monomial": ("k",),
                     "polynomial": ("coeffs",), "exp": ("scale",), "cos": ("scale",)}
AMPLITUDE_NAMES = tuple(_AMPLITUDE_PARAMS)


def _finite(key: str, v):
    """v, or ValueError naming amplitude parameter `key` if v is a bool or no finite number."""
    if isinstance(v, bool) or not _is_finite_number(v):
        raise ValueError(f"amplitude parameter {key!r} must be a finite number, got {v!r}")
    return v


def amplitude(name: str, **params):
    """Named amplitude families usable from the CLI, each an entire callable z -> f(z).

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
        return lambda z, v=v: mp.mpmathify(v)
    if name == "monomial":
        k = _finite("k", params.get("k", 1))
        x = mp.mpmathify(k)
        if not (isinstance(x, mp.mpf) and mp.isint(x) and x >= 0):
            raise ValueError(f"amplitude parameter 'k' must be a non-negative integer, got {k!r}")
        k = k if isinstance(k, int) else int(x)   # an int keeps all its digits
        return lambda z, k=k: mp.mpmathify(z) ** k
    if name == "polynomial":
        coeffs = params.get("coeffs", (1,))
        if hasattr(coeffs, "tolist"):   # a numpy array, as a list of Python numbers
            coeffs = coeffs.tolist()
        if not isinstance(coeffs, (list, tuple)):
            raise ValueError(f"amplitude parameter 'coeffs' must be a sequence, got {coeffs!r}")
        coeffs = [_finite("coeffs", c) for c in coeffs]
        # a float converts exactly at any precision, so once; an int or a
        # decimal string converts at the precision of each call
        coeffs = tuple(mp.mpmathify(c) if isinstance(c, (float, complex)) else c
                       for c in coeffs)
        return lambda z, c=coeffs: _horner(c, mp.mpmathify(z))
    s = _finite("scale", params.get("scale", 1))
    if name == "exp":
        return lambda z, s=s: mp.exp(mp.mpmathify(s) * mp.mpmathify(z))
    return lambda z, s=s: mp.cos(mp.mpmathify(s) * mp.mpmathify(z))


@dataclass(frozen=True)
class OscillatoryIntegralSpec:
    """I[f] = int_a^b f(x) e^{i omega x^r} dx with the stationary point at 0.

    The amplitude f is any callable, evaluated at the complex nodes of the
    descent paths, so it must be analytic where they go; every family of
    amplitude() is entire.
    """

    a: float
    b: float
    omega: float
    r: int
    amplitude: object

    def __post_init__(self):
        if not callable(self.amplitude):
            raise ValueError(f"amplitude must be callable, got {self.amplitude!r}")
        for name in ("a", "b", "omega"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not (self.a < 0 < self.b):
            raise ValueError("need a < 0 < b so the stationary point is interior")
        if self.omega <= 0:
            raise ValueError("omega must be positive")
        object.__setattr__(self, "r", opq.WeightSpec(self.r).r)   # ValueError unless int >= 2


# ---------------------------------------------------------------------------
# Endpoint rule (Gauss-Laguerre), built by opq's one rule builder
# ---------------------------------------------------------------------------

def laguerre_rule(n: int, ctx: PrecisionContext | None = None) -> opq.QuadratureRule:
    """n-point Gauss-Laguerre rule for int_0^infty p(t) e^{-t} dt.

    opq's rule for the weight "laguerre" (alpha_k = 2k+1, beta_k = k^2,
    M_k = k!), built, checked and memoised like the oscillatory rules; its
    nodes and weights are real mpf numbers, checked positive.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    ctx = opq.precision_schedule(n) if ctx is None else ctx
    return opq._build_rule(n, "laguerre", ctx.decimal_digits)


# ---------------------------------------------------------------------------
# Stationary rule: pi_n zeros rescaled by omega^{-1/r}
# ---------------------------------------------------------------------------

def stationary_rule(n: int, r: int, omega) -> opq.QuadratureRule:
    """Gaussian rule for h -> int_Gamma h(z) e^{i omega z^r} dz.

    The substitution z -> omega^{-1/r} z maps the functional onto the
    omega = 1 contour, so nodes and weights are both the pi_n data scaled
    by omega^{-1/r}; exactness deg <= 2n-1 transfers verbatim.  The scaling
    runs at the precision of the scheduled pi_n rule, whose ctx it keeps.
    An omega that is not positive and finite raises ValueError.
    """
    if not 0 < omega < math.inf:
        raise ValueError(f"omega must be positive and finite, got {omega!r}")
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

    z is the principal r-th root of |x|^r + i t/omega, negated for x < 0 and
    conjugated too for odd r, so mirror endpoints give mirror nodes bit for bit;
    |x|^r is taken once, at the ambient precision.
    """
    base = mp.mpf(abs(x)) ** r

    def root(t):   # mp.root returns guard bits past the ambient precision: round them off
        return +mp.root(mp.mpc(base, t / omega), r)
    if x > 0:
        return root
    return (lambda t: -root(t)) if r % 2 == 0 else (lambda t: -mp.conj(root(t)))


def _endpoint_rule(spec: OscillatoryIntegralSpec, x: float,
                   rule: opq.QuadratureRule, ctx: PrecisionContext):
    """(Z, W) of the descent path from x, so that F_x = sum_k W_k f(Z_k).

    Z_k = z(t_k) at the Laguerre nodes t_k <= t_max (the weights past it are below precision);
    W_k = e^{iq} (i/r) lambda_k Z_k / (q + i t_k), q = omega x^r, as z'(t) = i z / (r (q + i t)).
    """
    t_max = ctx.decimal_digits * math.log(10)
    path = _descent_path(x, spec.r, spec.omega)
    q = mp.mpf(spec.omega) * mp.mpf(x) ** spec.r
    phase = 1j * mp.expj(q) / spec.r
    nodes, weights = [], []
    for t, w in zip(rule.nodes, rule.weights):
        if t <= t_max:
            nodes.append(path(t))
            weights.append(phase * w * nodes[-1] / mp.mpc(q, t))
    return nodes, weights


def evaluate_report(spec: OscillatoryIntegralSpec, n_endpoint: int,
                    n_stationary: int, ctx: PrecisionContext | None = None) -> dict:
    """I[f] = F_a + M - F_b, broken out; each piece is mp.fdot(weights, f(nodes))."""
    ctx = PrecisionContext() if ctx is None else ctx
    lag = laguerre_rule(n_endpoint)
    stat = stationary_rule(n_stationary, spec.r, spec.omega)
    with ctx.working():
        rule_a, rule_b = (_endpoint_rule(spec, x, lag, ctx) for x in (spec.a, spec.b))
        fa, fb, m = (mp.fdot(ws, [spec.amplitude(z) for z in zs])
                     for zs, ws in (rule_a, rule_b, (stat.nodes, stat.weights)))
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
    """Gauss points m per panel (2m+1 Kronrod nodes) for an oracle running at ctx.

    One rule for the ray and interval oracles: 2/3 of the digits carried
    (20 at the 30-digit floor, 40 at 60).  The panels are sized to the integrand
    (one decay quadrupling or one oscillation cycle each), so the points
    need not grow with omega or r; at the floor the estimates read about
    1e-26 on the rays and 1e-17 relative on the interval, each at least
    1e3 times below the gate that reads it.
    """
    return 2 * ctx.decimal_digits // 3


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


def _ray_quadrature(g, r: int, ctx: PrecisionContext):
    """(values, estimates) of int_0^oo g(rho, e^{-rho^r}) drho per component of g, unfinalized.

    The one ray integral of the oracles: one panel_quad_vector pass with
    _panel_points(ctx) points on each panel of ray_cuts(r), at the ambient
    precision (the caller enters ctx.working()); each node computes
    e^{-rho^r} once and hands it to g with rho.
    """
    return panel_quad_vector(lambda rho: g(rho, mp.exp(-rho ** r)), ray_cuts(r),
                             _panel_points(ctx))


def stationary_oracle(f, r: int, omegas, ctx: PrecisionContext) -> tuple:
    """((value, error_estimate), ...) for int_Gamma f(z) e^{i omega z^r} dz, one per omega.

    Independent of the Gaussian rule: one _ray_quadrature pass integrates
    f(omega^{-1/r} rho d) e^{-rho^r} along both rays d = d_hi, d_lo for every
    omega, d_hi hi - d_lo lo (in along the low ray, out along the high), times
    s = omega^{-1/r}; the estimate sums both rays' Kronrod-vs-Gauss differences.
    Memoised per process on (f, r, omegas, ctx), so f must be hashable.
    """
    return _stationary_oracle(f, r, tuple(omegas), ctx)


@functools.lru_cache(maxsize=16)
def _stationary_oracle(f, r: int, omegas: tuple, ctx: PrecisionContext) -> tuple:
    with ctx.working():
        dhi, dlo = opq.WeightSpec(r=r).ray_directions()   # ValueError unless r is an integer >= 2
        scales = [mp.power(mp.mpf(w), -mp.mpf(1) / r) for w in omegas]
        values, ests = _ray_quadrature(
            lambda rho, e: [f(s * rho * d) * e for d in (dhi, dlo) for s in scales], r, ctx)
        m = len(scales)
        return tuple((ctx.finalize(s * (dhi * hi - dlo * lo)), ctx.finalize(s * (est_hi + est_lo)))
                     for s, hi, lo, est_hi, est_lo
                     in zip(scales, values, values[m:], ests, ests[m:]))


def _phase_breakpoints(spec: OscillatoryIntegralSpec) -> list:
    """Panel boundaries with at most ~one oscillation cycle per panel.

    ValueError, before any cut is built, past 100,000 cycles on the longer
    side, omega max(-a, b)^r / (2 pi), compared in logarithms, which cannot overflow.
    """
    if math.log(spec.omega) + spec.r * math.log(max(-spec.a, spec.b)) > math.log(2e5 * math.pi):
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
    each integrated by the Gauss-Kronrod pair with m = _panel_points(ctx)
    (precision.panel_quad_vector), whose estimate is reported.  The integrand
    is entire on every panel, so the rule converges geometrically.  Valid at
    desk scale (omega <= 1e4 or so) and independent of the descent machinery.
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
    reported alongside.  Expected slope: -(2n+1)/r.  An omega that is not
    positive and finite raises ValueError before the oracle runs.
    """
    octx = PrecisionContext()
    omegas = [float(w) for w in omega_list]
    if not all(0 < w < math.inf for w in omegas):
        raise ValueError(f"every omega must be positive and finite, got {omegas!r}")
    if len(omegas) < 3 or max(omegas) / min(omegas) < 10 ** 1.5:
        raise ValueError("omega_list must span at least 1.5 decades with >= 3 points")
    errors, floors, estimates = [], [], []
    oracle = stationary_oracle(f, r, omegas, octx)
    for w, (exact, est) in zip(omegas, oracle):
        rule = stationary_rule(n, r, w)
        noise_digits = min(octx.decimal_digits, rule.ctx.decimal_digits) - 8
        estimates.append(float(est))
        with octx.working():
            approx = mp.fdot(rule.weights, [f(z) for z in rule.nodes])
            errors.append(float(abs(approx - exact)))
        floors.append(float(abs(exact)) * 10.0 ** (-noise_digits))
    keep = [i for i, (e, fl) in enumerate(zip(errors, floors)) if e > fl]
    if len(keep) < 3:
        raise NoiseFloorError(
            "stationary-rule errors sit at the oracle precision floor for "
            f"{len(omegas) - len(keep)} of {len(omegas)} frequencies; "
            "no slope can be fitted")
    import numpy as np   # the fit alone needs numpy; the rest of the module does not
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
