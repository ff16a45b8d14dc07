"""Verification suites: quantitative desk-scale checks of every headline claim.

Each criterion_* runner recomputes one advertised property of the toolkit
from scratch and returns a plain report dict: named checks with the
measured value, the bound it must satisfy, and a boolean verdict, plus
wall-clock timing against the runner's budget.  The verdict comes from
the printed bound: value < bound for a number, lo < value < hi for a
pair, and a check without a bound is reported only.  Only the gates a
printed scalar cannot orient (> 0, >= 1, == 0, a decreasing list) state
their verdict.  Seconds, a suite's and its runtime checks', sit only
under elapsed_seconds, the key the CLI drops.  A suite is declared once,
by decorating its criterion with _suite(name, budget_seconds), which
registers it under that name in definition order (SUITE_NAMES) and adds
the report, the timing and the runtime check.  The CLI's verify command
and the acceptance test suite both dispatch through run_suite, so the
numbers a release is judged on are the numbers a user can reproduce with
one shell command.

Where a check needs an independent oracle, the oracle shares no code path
with the implementation under test: moments are re-derived by panelled
Gauss-Kronrod quadrature of the one real integral that both truncated
contour rays reduce to (in one pass of the oscillatory module's ray
integral, the stationary oracle's own), the phase function phi2 by integrating
the analytic continuation of Q^{1/2} (sharing one branch-sign evaluation
with phi2) along explicit cut-avoiding polygonal paths from z2, routed as
one tree, and the oscillatory integrals by the oscillatory
module's ray and real-interval oracles.  All four oracles report their own
error estimates, and the order, consistency and endtoend suites gate each
at 1e-3 of the tolerance it is compared against.  The recurrences are
held to their string equations, which read no moment, and at r = 3 to the
recurrences those equations build from M_0 and M_1.
"""

from __future__ import annotations

import itertools
import math
import operator
import time

import numpy as np
from mpmath import mp

from . import asymptotics as asym
from . import opq, oscillatory, scurve
from .precision import PrecisionContext

__all__ = [
    "SUITE_NAMES",
    "criterion_curve",
    "criterion_measure",
    "criterion_zeros",
    "criterion_asymptotics",
    "criterion_quadrature_order",
    "criterion_consistency",
    "criterion_end_to_end",
    "run_suite",
]

# ---------------------------------------------------------------------------
# Frozen probe sets
# ---------------------------------------------------------------------------

OUTER_PROBES = (3.0 + 4.0j, -0.5 - 1.5j, -3.0 + 0.2j, 2.5 + 0.4j)
BAND_MASSES = (0.35, 0.5, 0.6)
BAND_OFFSETS = (0.1, -0.1, 0.0)        # multiples of the left normal; 0 = on curve
DISK_RADIUS = 0.25
DISK2_ANGLES = (0.41, 2.0, -1.2, 3.0)
DISK1_ANGLES = (2.73, 1.1, -1.9)
DETN_PROBES = (3.0 + 4.0j, -0.5 - 1.5j, -3.0 + 0.2j, 1.0 + 2.0j, 0.0 - 1.0j)
AIRY_ZETAS = (0.7 + 0.3j, -1.2 + 2.0j, 3.0 + 0.0j, -2.0 + 0.5j)
ZERO_DEGREES = (10, 20, 40)            # zeros suite: n of the rescaled P_n
# consistency suite: (r, n) of the string-equation checks, at the schedule; r = 3
# at ZERO_DEGREES are the recurrences of the zeros suite's rules, which are
# also held to exact_pn's (built from the string equations) at those n.
STRING_EQUATION_CASES = tuple((3, n) for n in ZERO_DEGREES) + ((2, 18), (4, 14), (5, 17))

# phi2 oracle probes: (target, waypoints after z2).  Every polygonal path
# starts at z2 and must stay off the cut (the arc gamma, which spans
# |Re z| <= sqrt(2) with Im between ~0.57 and 1); the paths below swing
# around the right endpoint and approach each target region from outside,
# entering the lens above gamma where required.  The paths form one tree
# from two first legs: each stretch of the plane is one leg, shared by
# every probe past it (trunks up Re z = 2, down Re z = 3, along Im z = -1,
# Im z = -2 and Im z = 1.3), so phi2_path_integral integrates it once.
PHI2_PROBES = (
    # far above the curve
    (3.0 + 4.0j, (2.0 + 1.2j, 2.0 + 2.5j, 2.0 + 3.0j, 2.0 + 4.0j)),
    (1.5 + 2.5j, (2.0 + 1.2j, 2.0 + 2.5j)),
    (-1.0 + 2.0j, (2.0 + 1.2j, 2.0 + 2.5j, 2.0 + 3.0j, 2.0 + 4.0j, -1.0 + 4.0j)),
    (4.0 + 2.0j, (2.0 + 1.2j, 2.5 + 0.5j, 3.0 + 0.5j, 4.0 + 1.0j)),
    (0.5 + 3.0j, (2.0 + 1.2j, 2.0 + 2.5j, 2.0 + 3.0j)),
    # right of the support
    (4.0 + 1.0j, (2.0 + 1.2j, 2.5 + 0.5j, 3.0 + 0.5j)),
    (3.0 + 0.5j, (2.0 + 1.2j, 2.5 + 0.5j)),
    (2.5 - 0.2j, (2.0 + 1.2j, 2.5 + 0.5j)),
    # below the curve
    (-0.5 - 1.5j, (2.2 + 1.3j, 3.0 + 1.3j, 3.0 - 0.5j, 3.0 - 1.0j, 3.0 - 1.5j)),
    (0.0 - 2.0j, (2.2 + 1.3j, 3.0 + 1.3j, 3.0 - 0.5j, 3.0 - 1.0j, 3.0 - 1.5j, 3.0 - 2.0j)),
    (1.0 - 1.0j, (2.2 + 1.3j, 3.0 + 1.3j, 3.0 - 0.5j, 3.0 - 1.0j)),
    (-2.0 - 1.0j, (2.2 + 1.3j, 3.0 + 1.3j, 3.0 - 0.5j, 3.0 - 1.0j, 1.0 - 1.0j)),
    (2.0 - 0.5j, (2.2 + 1.3j, 3.0 + 1.3j, 3.0 - 0.5j)),
    # left of the support
    (-2.5 + 0.2j, (2.2 + 1.3j, 3.0 + 1.3j, 3.0 - 0.5j, 3.0 - 1.0j, 3.0 - 1.5j, 3.0 - 2.0j,
                   0.0 - 2.0j, -2.2 - 2.0j, -2.5 - 2.0j)),
    (-3.0 + 0.5j, (2.2 + 1.3j, 3.0 + 1.3j, 3.0 - 0.5j, 3.0 - 1.0j, 3.0 - 1.5j, 3.0 - 2.0j,
                   0.0 - 2.0j, -2.2 - 2.0j, -2.5 - 2.0j, -3.0 - 2.0j)),
    (-2.2 - 0.5j, (2.2 + 1.3j, 3.0 + 1.3j, 3.0 - 0.5j, 3.0 - 1.0j, 3.0 - 1.5j, 3.0 - 2.0j,
                   0.0 - 2.0j, -2.2 - 2.0j)),
    # inside the lens, approached from above
    (0.0 + 0.8j, (2.2 + 1.3j, 0.5 + 1.3j, 0.2 + 1.3j, 0.0 + 1.3j)),
    (0.5 + 0.75j, (2.2 + 1.3j, 0.5 + 1.3j)),
    (-0.5 + 0.8j, (2.2 + 1.3j, 0.5 + 1.3j, 0.2 + 1.3j, 0.0 + 1.3j, -0.5 + 1.3j)),
    (0.2 + 0.9j, (2.2 + 1.3j, 0.5 + 1.3j, 0.2 + 1.3j)),
)


# ---------------------------------------------------------------------------
# Report plumbing
# ---------------------------------------------------------------------------

def _check(rep: dict, label: str, value, bound=None, *, ok=None,
           key: str = "value") -> None:
    """Record `value` under `key` with its bound and its verdict: ok when
    given, else value < bound, lo < value < hi for [lo, hi], true unbounded."""
    if ok is None:
        ok = bound is None or (bound[0] < value < bound[1] if isinstance(bound, list)
                               else value < bound)
    entry = {key: value, "ok": bool(ok)}
    if bound is not None:
        entry["bound"] = bound
    rep["checks"][label] = entry
    rep["passed"] = rep["passed"] and bool(ok)


_RUNNERS: dict = {}


def _suite(name: str, budget_seconds: float):
    """Register the decorated criterion, which fills the report it is handed,
    as suite `name`: its runner takes no arguments and creates, times and
    runtime-checks that report against budget_seconds."""
    def register(criterion):
        def runner() -> dict:
            rep = {"name": name, "passed": True, "budget_seconds": budget_seconds,
                   "checks": {}}
            t0 = time.perf_counter()
            criterion(rep)
            rep["elapsed_seconds"] = time.perf_counter() - t0
            _check(rep, "runtime", rep["elapsed_seconds"], budget_seconds,
                   key="elapsed_seconds")
            return rep
        runner.__name__ = runner.__qualname__ = criterion.__name__
        runner.__doc__ = criterion.__doc__
        _RUNNERS[name] = runner
        return runner
    return register


# ---------------------------------------------------------------------------
# 1. Curve existence
# ---------------------------------------------------------------------------

@_suite("curve", budget_seconds=10.0)
def criterion_curve(rep: dict) -> None:
    """Trajectory from z1 reaches z2; D is real on it; axis crossing in range."""
    pts = scurve.build_phase_context().gamma.points

    theta0 = -math.atan(2.0 * scurve.SQRT2) / 3.0
    ang_dev = min(abs(a - theta0) for a in scurve.critical_angles("z1"))
    _check(rep, "seed_angle_is_critical", ang_dev, 1e-12)
    tangent = np.angle(pts[1] - pts[0])
    _check(rep, "initial_tangent_deviation", float(abs(tangent - theta0)), 2e-2)

    # pts[-1] is z2 itself, so the honest terminal distance is from the
    # last vertex solved for, the one at mass 1 minus about 5e-11.
    _check(rep, "terminal_distance_to_z2", float(abs(pts[-2] - scurve.Z2)), 1e-6)

    ms = np.linspace(0.02, 0.98, 33)
    im_d = 0.0
    for z0 in scurve.curve_points_at_mass(ms):
        for side in (+1, -1):
            im_d = max(im_d, abs(complex(
                scurve.d_on_curve(complex(z0), side)).imag))
    _check(rep, "max_abs_im_D_on_curve", im_d, 1e-8)

    # gamma is symmetric under z -> -conj(z), so half its mass sits on the axis
    crossing = float(scurve.curve_points_at_mass(0.5)[0].imag)
    _check(rep, "imaginary_axis_crossing", crossing, [1.0 - scurve.SQRT2, 1.0])


# ---------------------------------------------------------------------------
# 2. Equilibrium measure
# ---------------------------------------------------------------------------

def _endpoint_exponent(curve: scurve.CurvePolyline, end: str) -> float:
    """Fitted local exponent of the density over the last 5% of arc length."""
    s, d = curve.s, curve.density
    t = s.copy() if end == "z1" else s[-1] - s
    keep = (t > 0) & (t < 0.05 * s[-1]) & (d > 0)
    return float(np.polyfit(np.log(t[keep]), np.log(d[keep]), 1)[0])


@_suite("measure", budget_seconds=60.0)
def criterion_measure(rep: dict) -> None:
    """Probability mass, positivity, edge exponents, equilibrium + S-property."""
    phase = scurve.build_phase_context()
    curve = phase.gamma

    _check(rep, "total_mass_dev", float(abs(curve.total_mass - 1.0)), 1e-10)

    interior_min = float(np.min(curve.density[1:-1]))
    _check(rep, "interior_density_min", interior_min, 0.0, ok=interior_min > 0.0)

    for end in ("z1", "z2"):
        expo = _endpoint_exponent(curve, end)
        _check(rep, f"endpoint_exponent_{end}", expo, [0.45, 0.55])

    _check(rep, "ell_constant_dev", float(abs(scurve.ELL - (2.0 / 3.0 + math.log(2.0)))), 1e-12)

    eq = scurve.verify_equilibrium(phase)
    _check(rep, "equality_max_dev", eq["equality_max_dev"], 1e-6)
    _check(rep, "ell_tilde_max_dev", eq["ell_tilde_max_dev"], 1e-6)
    _check(rep, "inequality_min", eq["inequality_min"], 0.0,
           ok=eq["inequality_min"] > 0.0)
    _check(rep, "s_property_order_min", eq["s_order_min"], 1.0,
           ok=eq["s_order_min"] >= 1.0)
    rep["equilibrium"] = eq


# ---------------------------------------------------------------------------
# 3. Zero accumulation
# ---------------------------------------------------------------------------

@_suite("zeros", budget_seconds=300.0)
def criterion_zeros(rep: dict) -> None:
    """Rescaled zeros approach gamma; counting measure approaches equilibrium."""
    reports = [asym.zero_distribution_report(n) for n in ZERO_DEGREES]
    dists = [r["max_distance"] for r in reports]
    kss = [r["ks_statistic"] for r in reports]
    for r in reports:
        _check(rep, f"max_distance_n{r['n']}", r["max_distance"])
        _check(rep, f"ks_n{r['n']}", r["ks_statistic"])
    _check(rep, "max_distance_strictly_decreasing", dists,
           ok=all(a > b for a, b in zip(dists, dists[1:])))
    _check(rep, "ks_contraction", kss[-1], kss[0] / 1.5)
    mirror = max(r["reflection_mismatch"] for r in reports)
    _check(rep, "reflection_symmetry", mirror, 1e-8)


# ---------------------------------------------------------------------------
# 4. Strong asymptotics
# ---------------------------------------------------------------------------

def _region_probes() -> dict:
    probes = {"outer": list(OUTER_PROBES), "band": [], "disk2": [], "disk1": []}
    for m in BAND_MASSES:
        z0 = complex(scurve.curve_points_at_mass(m)[0])
        q = scurve.q_sqrt_chord(z0)
        nrm = q.conjugate() / abs(q)
        for off in BAND_OFFSETS:
            probes["band"].append(z0 + off * nrm)
    for th in DISK2_ANGLES:
        probes["disk2"].append(scurve.Z2 + DISK_RADIUS * np.exp(1j * th))
    for th in DISK1_ANGLES:
        probes["disk1"].append(scurve.Z1 + DISK_RADIUS * np.exp(1j * th))
    return probes


@_suite("asymp", budget_seconds=300.0)
def criterion_asymptotics(rep: dict) -> None:
    """Per-region error of the three formulas shrinks at empirical rate ~1/n."""
    for region, probes in _region_probes().items():
        errs = {}
        misclass = 0
        for n in (20, 40):
            worst = 0.0
            for z in probes:
                got_region, err = asym.pn_relative_error(n, z, None)
                if got_region != region:
                    misclass += 1
                worst = max(worst, err)
            errs[n] = worst
        order = math.log2(errs[20] / errs[40])
        _check(rep, f"{region}_err_n20", errs[20])
        _check(rep, f"{region}_err_n40", errs[40])
        _check(rep, f"{region}_two_point_order", order, [0.7, 1.3])
        _check(rep, f"{region}_probes_classified", misclass, 0, ok=misclass == 0)

    _check(rep, "airy_matching_residual", asym.airy_model_residual(), 5.0 * 8.0 ** (-1.5))
    # |w - 1| for the winding number w of f around 0 (1 iff f is one-to-one)
    _check(rep, "conformal_f_winding", abs(asym.boundary_winding() - 1.0), 1e-9)


# ---------------------------------------------------------------------------
# 5. Oscillatory quadrature order
# ---------------------------------------------------------------------------

@_suite("order", budget_seconds=360.0)
def criterion_quadrature_order(rep: dict) -> None:
    """Stationary-point error slope vs omega matches -(2n+1)/r within 15%."""
    omegas = list(np.geomspace(10.0, 1000.0, 9))
    f = oscillatory.amplitude("exp")
    per_case_budget = 120.0
    for n, r in ((2, 3), (3, 3), (2, 2)):
        tc = time.perf_counter()
        case = oscillatory.convergence_report(f, n, r, omegas)
        dt = time.perf_counter() - tc
        expected = case["expected_slope"]
        _check(rep, f"slope_n{n}_r{r}", case["slope"], [expected * 1.15, expected * 0.85])
        kept = min(e for i, e in enumerate(case["errors"])
                   if i not in case["excluded"])
        _check(rep, f"oracle_estimate_n{n}_r{r}", max(case["oracle_estimates"]),
               1e-3 * kept)
        _check(rep, f"case_runtime_n{n}_r{r}", dt, per_case_budget, key="elapsed_seconds")
        _check(rep, f"points_used_n{n}_r{r}", len(case["errors"]))


# ---------------------------------------------------------------------------
# 6. Internal consistency oracles
# ---------------------------------------------------------------------------

def _moment_ray_quadrature(kmax: int, spec: opq.WeightSpec, ctx: PrecisionContext):
    """(values, estimates) of M_0..M_kmax by direct quadrature along the two rays.

    Independent of the Gamma-function closed form: on either ray z = t*d
    the integrand is d^k t^k exp(-t^r), so one pass of the stationary
    oracle's ray integral (oscillatory._ray_quadrature) computes every
    I_k = int_0^oo t^k exp(-t^r) dt, each t^k exp(-t^r) a running product
    from the node's exp(-t^r).  The contour runs in along the low ray d_lo
    and out along the high d_hi, so M_k = (d_hi^{k+1} - d_lo^{k+1}) I_k, and
    the estimate 2 est_k sums both rays' Kronrod-vs-Gauss differences.
    """
    with ctx.working():
        ints, ests = oscillatory._ray_quadrature(
            lambda t, e: list(itertools.accumulate([t] * kmax, operator.mul, initial=e)), spec.r, ctx)
        dhi, dlo = spec.ray_directions()
        phi, plo, values = dhi, dlo, []
        for integral in ints:
            values.append(ctx.finalize((phi - plo) * integral))
            phi, plo = phi * dhi, plo * dlo
        return values, [ctx.finalize(2 * e) for e in ests]


def _vandermonde_deviation(rule: opq.QuadratureRule, moments: opq.MomentSequence) -> float:
    """max |w_j - v_j| / max(1, |v_j|) against the weights v solving
    sum_j v_j z_j^k = M_k, k < n, by LU at the moments' working precision.

    Independent of the Christoffel numbers opq.build_rule delivers: v uses
    only the nodes and the moments.
    """
    n = len(rule.nodes)
    with moments.ctx.working():
        A = mp.matrix([[mp.mpmathify(z) ** k for z in rule.nodes] for k in range(n)])
        v = mp.lu_solve(A, mp.matrix([moments[k] for k in range(n)]))
        return max(float(abs(w - v[j])) / max(1.0, float(abs(v[j])))
                   for j, w in enumerate(rule.weights))


def _max_rel_dev(rec: opq.RecurrenceCoefficients, ref: opq.RecurrenceCoefficients) -> float:
    """max |x - y| / |y| over the coefficients x of rec and y of ref, at rec's precision."""
    with rec.ctx.working():
        return max(float(abs(x - y) / abs(y))
                   for x, y in zip(rec.alpha + rec.beta, ref.alpha + ref.beta))


@_suite("consistency", budget_seconds=300.0)
def criterion_consistency(rep: dict) -> None:
    """Dual-route agreement: moments, phi2, recurrences, weights, det N;
    string equations, the in-house Airy against mpmath's."""
    ctx = PrecisionContext()
    bar = 10.0 ** (-ctx.decimal_digits / 2.0)

    spec = opq.WeightSpec(r=3)
    closed = opq.moment_sequence(spec, 20, ctx)
    oracle, estimates = _moment_ray_quadrature(20, spec, ctx)
    with ctx.working():
        scales = [float(abs(mp.gamma(mp.mpf(k + 1) / 3) / 3)) for k in range(21)]
        worst = max(float(abs(closed[k] - oracle[k])) / scales[k] for k in range(21))
        worst_est = max(float(e) / s for e, s in zip(estimates, scales))
    _check(rep, "moments_vs_ray_quadrature", worst, bar)
    # the oracle must resolve the bar 1e3 times over
    _check(rep, "moments_ray_estimate", worst_est, 1e-3 * bar)

    worst = worst_est = 0.0
    paths = scurve.phi2_path_integral(PHI2_PROBES, ctx)
    for (target, _), (path, est) in zip(PHI2_PROBES, paths):
        direct = scurve.phi2(target, ctx)
        with ctx.working():
            dev = float(abs(direct - path) / max(1, abs(path)))
            worst_est = max(worst_est, float(est / max(1, abs(path))))
        worst = max(worst, dev)
    _check(rep, "phi2_vs_path_integral", worst, bar)
    _check(rep, "phi2_path_estimate", worst_est, 1e-3 * bar)

    worst = dual = 0.0
    for r, n in STRING_EQUATION_CASES:
        _, rec = opq._recurrence(n, r, opq.precision_schedule(n).decimal_digits)
        worst = max(worst, float(opq.string_equation_residual(rec, r)))
        if r == 3 and n in ZERO_DEGREES:
            rescaled = opq.rescale_to_Pn(rec, n, 3)
            dual = max(dual, _max_rel_dev(rescaled, asym._rescaled_recurrence(n)))
    _check(rep, "recurrence_string_residual", worst, bar)
    _check(rep, "recurrence_chebyshev_vs_string", dual, bar)

    worst = max(_vandermonde_deviation(opq.build_rule(n, spec, ctx), closed) for n in range(1, 9))
    _check(rep, "christoffel_vs_vandermonde", worst, bar)

    worst = max(abs(np.linalg.det(asym.n_matrix(z)) - 1.0) for z in DETN_PROBES)
    _check(rep, "det_N_minus_one", float(worst), 1e-12)
    _check(rep, "airy_vs_mpmath", max(asym.airy_deviation(z) for z in AIRY_ZETAS), 1e-12)


# ---------------------------------------------------------------------------
# 7. End-to-end oscillatory integral
# ---------------------------------------------------------------------------

@_suite("endtoend", budget_seconds=300.0)
def criterion_end_to_end(rep: dict) -> None:
    """evaluate_report() at omega=200, n=6 matches the real-interval oracle to 1e-8.

    One interval_oracle pass serves both amplitudes."""
    names = ("constant", "exp")
    specs = [oscillatory.OscillatoryIntegralSpec(a=-1.0, b=1.0, omega=200.0, r=3,
                                                 amplitude=oscillatory.amplitude(name))
             for name in names]
    ctx = PrecisionContext()
    oracles = oscillatory.interval_oracle(specs, ctx)
    for name, spec, (oracle, est) in zip(names, specs, oracles):
        out = oscillatory.evaluate_report(spec, 6, 6, ctx)
        with ctx.working():
            rel = float(abs(out["value"] - oracle) / abs(oracle))
            rel_est = float(est / abs(oracle))
        _check(rep, f"relative_error_{name}", rel, 1e-8)
        # the oracle must resolve the gate 1e3 times over
        _check(rep, f"oracle_estimate_{name}", rel_est, 1e-11)


# ---------------------------------------------------------------------------
# Suite dispatch
# ---------------------------------------------------------------------------

SUITE_NAMES = tuple(_RUNNERS)


def run_suite(names=None) -> dict:
    """Run the named criteria (default: all) and aggregate verdicts.

    The suites that need the contour share scurve.build_phase_context(),
    which is memoised, so the contour is built once per process.
    """
    names = list(names) if names else list(SUITE_NAMES)
    unknown = [nm for nm in names if nm not in _RUNNERS]
    if unknown:
        raise ValueError(f"unknown suite name(s): {', '.join(unknown)}; "
                         f"choose from {', '.join(SUITE_NAMES)}")
    t0 = time.perf_counter()
    suites = {}
    for nm in names:
        suites[nm] = _RUNNERS[nm]()
    return {
        "suites": suites,
        "passed": all(s["passed"] for s in suites.values()),
        "elapsed_seconds": time.perf_counter() - t0,
    }
