"""One run of one benchmark workload, in a fresh interpreter on one thread.

Usage (normally started by run.py, with PYTHONPATH pointing at src/):

    python3 perfbench/workloads.py --workload rules --seed 1 --seconds 16 [--trace-out FILE]

The run imports oscgauss cold, builds its inputs from the seed, issues the
timed calls as a closed loop with one caller (each call starts when the
previous one returns), then checks every answer against the references in
references.py outside the timed region.  The last line of standard output
is a JSON object with the measurements.  With --trace-out the library
layers are wrapped by tracing.py first and the spans are written to FILE.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import statistics
import sys
import time

import numpy as np

import clock
import references as ref

# ---------------------------------------------------------------------------
# Workload definitions
# ---------------------------------------------------------------------------

# rules -- why: the opq construction stages (moments, recurrence, Aberth
# zeros, Vandermonde weights) dominate, and no (n, r) key repeats, so a rule
# cache must show no gain here.
# The grid n = 8, 16, 24 (r = 2, 3, 4, 5), 32, 40 (r = 3) and Laguerre
# n = 10, 20, 30 is moved by a fixed jitter of at most 2 so no key sits on a
# round value; r = 3 at n = 40 and Laguerre at n = 20 stay exact because
# they are baseline rows.  The jitter is fixed rather than drawn from the
# seed: build time is not smooth in n (Laguerre n = 28 vs 32 differ 2x),
# so a seeded jitter would move wall time between seeds more than any bound.
RULES_STATIONARY = ((3, 10), (3, 15), (3, 26), (3, 31), (3, 40),
                    (2, 7), (2, 18), (2, 22),
                    (4, 9), (4, 14), (4, 25),
                    (5, 6), (5, 17), (5, 23))
RULES_LAGUERRE = (11, 20, 28)

# integrals -- why: every evaluate_report call rebuilds both rules (~96% of
# a call), so this stream shows rule caching, cheaper construction and,
# once rules are cheap, the descent-path evaluation itself.
INTEGRAL_KEYS = tuple((r, n) for r in (2, 3, 4) for n in (4, 6, 8))
INTEGRAL_MIN_BLOCKS = 12      # >= 108 calls, so >= 10 samples above p90
INTEGRAL_TOL = 1e-7

# cubic -- why: scurve, geometry and asymptotics do almost all the work
# here (curve, measure, strong asymptotics against the exact recurrence),
# and under 1% of any other workload.
CUBIC_NS = (20, 40, 80, 160)
CUBIC_REGIONS = ("outer", "band", "disk1", "disk2")
CUBIC_MIN_PROBES = 8          # per region
CUBIC_ORDER = (0.7, 1.3)      # two-point order bound of criterion_asymptotics
CUBIC_GRID = (61, 41)
Z1 = complex(-math.sqrt(2.0), 1.0)  # branch points of the cubic-case curve
Z2 = complex(math.sqrt(2.0), 1.0)

# verify -- why: the whole verification gate, the Tier-1 cost; its oracles
# (interval_oracle, stationary_oracle, phi2_path_integral) run in no other
# workload.  Its inputs are fixed: the seed is accepted and ignored.


class Stream:
    """Closed-loop caller: records each call's interval, counts attempts and failures.

    Intervals are raw perf_counter pairs; the run converts them to
    speed-corrected seconds (clock.py) once sampling has ended.
    """

    def __init__(self):
        self.calls: list[tuple] = []
        self.attempted = 0
        self.failed: set[int] = set()
        self.problems: list[str] = []
        self.span = (0.0, 0.0)

    def __enter__(self):
        self.span = (time.perf_counter(), 0.0)
        return self

    def __exit__(self, *exc):
        self.span = (self.span[0], time.perf_counter())
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def call(self, label, fn, *args, sample=True):
        """(call id, result) of fn(*args); a raising call is a failure with result None."""
        cid = self.attempted
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:  # any library error is a failed call, not a crash
            self.fail(cid, f"{label}: {type(exc).__name__}: {exc}")
            return cid, None
        if sample:
            self.calls.append((t0, time.perf_counter()))
        return cid, out

    def fail(self, cid, what):
        self.failed.add(cid)
        if len(self.problems) < 20:
            self.problems.append(what)

    def result(self, digits_min):
        return {"attempted": self.attempted, "failed": len(self.failed),
                "problems": self.problems, "span": self.span, "calls": self.calls,
                "digits_min": digits_min, "peak_rss_mb": self.peak_rss_mb}


def run_rules(og, seed: int, seconds: int) -> dict:
    rng = random.Random(f"rules:{seed}")
    jobs = [("stationary", n, r) for r, n in RULES_STATIONARY] + \
           [("laguerre", n, None) for n in RULES_LAGUERRE]
    rng.shuffle(jobs)
    specs = {r: og.opq.WeightSpec(r=r) for _, _, r in jobs if r}
    done = []
    with Stream() as st:
        for kind, n, r in jobs:
            if kind == "stationary":
                cid, rule = st.call(f"build_rule({n}, r={r})", og.opq.build_rule, n, specs[r])
            else:
                cid, rule = st.call(f"laguerre_rule({n})", og.oscillatory.laguerre_rule, n)
            done.append((cid, kind, n, r, rule))
    digits = []
    for cid, kind, n, r, rule in done:
        if rule is None:
            continue
        if kind == "stationary":
            d, problems = ref.check_stationary_rule(rule, n, r)
        else:
            d, problems = ref.check_laguerre_rule(rule, n)
        digits.append(d)
        for p in problems:
            st.fail(cid, f"{kind} n={n} r={r}: {p}")
    return st.result(min(digits, default=0.0))


def run_integrals(og, seed: int, seconds: int) -> dict:
    rng = random.Random(f"integrals:{seed}")
    osc = og.oscillatory
    calls = []
    for _ in range(max(INTEGRAL_MIN_BLOCKS, seconds)):
        block = list(INTEGRAL_KEYS)
        rng.shuffle(block)
        for r, n in block:
            omega = math.exp(rng.uniform(math.log(200.0), math.log(5000.0)))
            a, b = -rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5)
            coeffs = [rng.choice((-1, 1)) * rng.uniform(0.5, 1.0)] + \
                     [rng.uniform(-1.0, 1.0) for _ in range(rng.randint(0, 7))]
            spec = osc.OscillatoryIntegralSpec(
                a=a, b=b, omega=omega, r=r,
                amplitude=osc.amplitude("polynomial", coeffs=tuple(coeffs)))
            calls.append((n, spec, coeffs))
    done = []
    with Stream() as st:
        for n, spec, coeffs in calls:
            cid, rep = st.call(f"evaluate_report(r={spec.r}, n={n})",
                               osc.evaluate_report, spec, n, n)
            done.append((cid, spec, coeffs, rep))
    digits = {}
    for cid, spec, coeffs, rep in done:
        if rep is None:
            continue
        exact = ref.power_phase_integral(spec.a, spec.b, spec.omega, spec.r, coeffs)
        rel = abs(rep["value"] - exact) / abs(exact)
        digits.setdefault((spec.r, rep["n_endpoint"]), []).append(ref.digits(rel, 60))
        if not rel <= INTEGRAL_TOL:
            st.fail(cid, f"r={spec.r} omega={spec.omega:.1f} [{spec.a:.3f}, {spec.b:.3f}]: "
                         f"relative error {float(rel):.3g}")
    # Per key, the median call: the single worst call depends on its seeded
    # amplitude and moved between 11 and 14 digits from seed to seed.
    return st.result(min((statistics.median(d) for d in digits.values()), default=0.0))


def _band_probe(curve, mass_frac: float, offset: float) -> complex:
    """Point at equilibrium mass `mass_frac` on the traced curve, moved along its normal."""
    pts, cdf = curve.points, curve.cdf / curve.total_mass
    k = min(len(pts) - 2, int(np.searchsorted(cdf, mass_frac, side="right")) - 1)
    t = (mass_frac - cdf[k]) / (cdf[k + 1] - cdf[k])
    tangent = complex(pts[k + 1] - pts[k])
    return complex(pts[k] + t * tangent) + offset * 1j * tangent / abs(tangent)


def run_cubic(og, seed: int, seconds: int) -> dict:
    rng = random.Random(f"cubic:{seed}")
    scurve, asym = og.scurve, og.asymptotics
    per_region = max(CUBIC_MIN_PROBES, 4 * seconds)

    def polar(center, lo, hi):
        rho, th = rng.uniform(lo, hi), rng.uniform(-math.pi, math.pi)
        return center + rho * complex(math.cos(th), math.sin(th))

    draws = []
    for _ in range(per_region):
        draws.append(("outer", polar(0j, 2.6, 4.0)))
        draws.append(("disk1", polar(Z1, 0.15, 0.35)))
        draws.append(("disk2", polar(Z2, 0.15, 0.35)))
        draws.append(("band", (rng.uniform(0.3, 0.7), rng.uniform(-0.1, 0.1))))
    rng.shuffle(draws)
    x0, y0 = rng.uniform(-2.5, -1.5), rng.uniform(-1.5, -0.5)
    grid = (x0, x0 + rng.uniform(3.0, 4.0), CUBIC_GRID[0],
            y0, y0 + rng.uniform(2.5, 3.0), CUBIC_GRID[1])

    scored, eq, field = [], None, None
    with Stream() as st:
        cid_phase, phase = st.call("build_phase_context", scurve.build_phase_context, sample=False)
        if phase is not None:
            cid_eq, eq = st.call("verify_equilibrium", scurve.verify_equilibrium, phase,
                                 sample=False)
            # One latency sample per probe, scored at all of CUBIC_NS: per single
            # call the four n make four equal latency groups, and the median
            # fell on the edge between two of them (14% spread between seeds).
            for region, where in draws:
                z = _band_probe(phase.gamma, *where) if region == "band" else where
                t0 = time.perf_counter()
                for n in CUBIC_NS:
                    cid, out = st.call(f"pn_relative_error({n}, {z:.4f})",
                                       asym.pn_relative_error, n, z, phase, sample=False)
                    scored.append((cid, region, n, z, out))
                st.calls.append((t0, time.perf_counter()))
            cid_grid, field = st.call("sample_field_grid", scurve.sample_field_grid,
                                      "RePhi2", grid, phase, sample=False)
    if phase is None:
        return st.result(0.0)

    if not abs(phase.gamma.total_mass - 1.0) <= 1e-10:
        st.fail(cid_phase, f"curve mass {phase.gamma.total_mass!r} is not 1")
    if eq is not None and not (eq["equality_max_dev"] <= 1e-6 and eq["inequality_min"] > 0):
        st.fail(cid_eq, f"equilibrium conditions fail: {eq['equality_max_dev']:.3g}, "
                        f"{eq['inequality_min']:.3g}")
    if field is not None:
        values, mask = field[2], field[3]
        bad = int(np.count_nonzero(~np.isfinite(values[~mask])))
        if bad or mask.mean() > 0.1:
            st.fail(cid_grid, f"RePhi2 grid: {bad} non-finite values, masked share {mask.mean():.3f}")

    errors = {(reg, n): [] for reg in CUBIC_REGIONS for n in CUBIC_NS}
    for cid, region, n, z, out in scored:
        if out is None:
            continue
        got, err = out
        if got != region:
            st.fail(cid, f"{z:.4f} drawn in {region} classified {got}")
        elif not (math.isfinite(err) and err > 0):
            st.fail(cid, f"{z:.4f} relative error {err!r}")
        else:
            errors[region, n].append(err)
    digits = []
    for region in CUBIC_REGIONS:
        if not all(errors[region, n] for n in CUBIC_NS):
            continue
        med = [statistics.median(errors[region, n]) for n in CUBIC_NS]
        orders = [math.log2(e1 / e2) for e1, e2 in zip(med, med[1:])]
        if not all(CUBIC_ORDER[0] <= o <= CUBIC_ORDER[1] for o in orders):
            cids = [cid for cid, reg, *_ in scored if reg == region]
            st.fail(cids[0], f"{region}: two-point orders {[round(o, 3) for o in orders]}")
            st.failed.update(cids)
        digits.append(-math.log10(med[-1]))
    return st.result(min(digits, default=0.0))


def run_verify(og, seed: int, seconds: int) -> dict:
    with Stream() as st:
        _, report = st.call("run_suite", og.verify.run_suite, sample=False)
    if report is None:
        return st.result(0.0)
    # run_suite runs the suites back to back from the start of the call, so
    # their intervals follow from the elapsed seconds each one reports.
    st.attempted, st.calls = len(report["suites"]), []
    start = st.span[0]
    for i, (name, suite) in enumerate(report["suites"].items()):
        st.calls.append((start, start + suite["elapsed_seconds"]))
        start += suite["elapsed_seconds"]
        if not suite["passed"]:
            bad = [k for k, c in suite["checks"].items() if not c["ok"]]
            st.fail(i, f"suite {name} failed: {', '.join(bad)}")
    e2e = report["suites"].get("endtoend", {}).get("checks", {})
    digits = [ref.digits(c["value"], 60) for k, c in e2e.items() if k.startswith("relative_error")]
    return st.result(min(digits, default=0.0))


WORKLOADS = {"rules": run_rules, "integrals": run_integrals,
             "cubic": run_cubic, "verify": run_verify}


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics and the baseline cross-check
# ---------------------------------------------------------------------------

# Span metrics reported per layer: (span name, field).
LAYER_SPANS = (
    ("opq.zeros", "self_s"), ("opq.gauss_weights", "self_s"),
    ("opq.rule_exactness_residual", "self_s"), ("opq.moment_sequence", "self_s"),
    ("opq.build_recurrence", "self_s"),
    ("opq.build_rule", "calls"), ("oscillatory.laguerre_rule", "calls"),
    ("oscillatory.stationary_rule", "calls"),
    ("oscillatory.evaluate_report", "self_s"),
    ("oscillatory.interval_oracle", "s"), ("oscillatory.stationary_oracle", "s"),
    ("oscillatory.convergence_report", "s"), ("scurve.phi2_path_integral", "s"),
    ("scurve.q_sqrt", "calls"), ("scurve.q_sqrt", "self_s"),
    ("geometry.branch_parity", "calls"), ("geometry.branch_parity", "self_s"),
    *((f"verify.{s}", "s") for s in ("curve", "measure", "zeros", "asymp", "order",
                                     "consistency", "endtoend")),
    ("asymptotics.exact_pn", "s"), ("opq.pi_eval", "calls"), ("opq.pi_eval", "self_s"),
    ("asymptotics.pn_asymptotic", "self_s"), ("scurve.phi2", "calls"),
    ("scurve.phi2", "self_s"), ("geometry.nearest_on_polyline", "calls"),
    ("geometry.nearest_on_polyline", "self_s"), ("scurve.build_phase_context", "s"),
    ("scurve.verify_equilibrium", "s"), ("scurve.sample_field_grid", "s"),
    ("asymptotics.zero_distribution_report", "s"),
)

# One-off timings recorded in ROADMAP.md (2 cores, Python 3.11, mpmath on its
# pure-Python backend) that a traced run can reproduce: (row, seconds).
BASELINE = {
    "build_rule(40, r=3)": 4.7,
    "laguerre_rule(20)": 0.50,
    "evaluate_report(r=3, n=6)": 0.058,
    "interval_oracle per call": 12.0,
    "build_phase_context": 0.10,
    "verify.curve": 0.0, "verify.measure": 0.17, "verify.zeros": 6.7,
    "verify.asymp": 0.13, "verify.order": 6.7, "verify.consistency": 8.6,
    "verify.endtoend": 24.4,
}


def layer_metrics(tracer) -> dict:
    table = tracer.summary()
    out = {}
    for name, field in LAYER_SPANS:
        out[f"{name}.{field}"] = table.get(name, {}).get(field, 0)
    rules = tracer.keyed_calls("opq.build_rule")
    out["opq.build_rule.distinct_ratio"] = (
        len({k for k, _ in rules}) / len(rules) if rules else 0.0)
    out["opq.build_rule.attempts"] = (
        tracer.children_named("opq.build_rule", "opq.moment_sequence") / len(rules)
        if rules else 0.0)
    return out


def baseline_rows(tracer) -> list:
    """[(row, measured seconds, baseline seconds)] for the rows this run covers."""
    table = tracer.summary()

    def keyed(name, key):
        secs = [sec for k, sec in tracer.keyed_calls(name) if k == key]
        return statistics.median(secs) if secs else None

    def per_call(name):
        row = table.get(name)
        return row["s"] / row["calls"] if row else None

    measured = {
        "build_rule(40, r=3)": keyed("opq.build_rule", (40, 3, None)),
        "laguerre_rule(20)": keyed("oscillatory.laguerre_rule", (20,)),
        "evaluate_report(r=3, n=6)": keyed("oscillatory.evaluate_report", (3, 6, 6)),
        "interval_oracle per call": per_call("oscillatory.interval_oracle"),
        "build_phase_context": per_call("scurve.build_phase_context"),
        **{k: per_call(k) for k in BASELINE if k.startswith("verify.")},
    }
    return [(k, measured[k], BASELINE[k]) for k in BASELINE if measured[k] is not None]


def machine_block() -> dict:
    import mpmath
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "mpmath": mpmath.__version__, "mpmath_backend": mpmath.libmp.BACKEND,
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace-out", help="trace the library layers and write the spans here")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    import oscgauss
    import_s = time.perf_counter() - t0

    tracer = None
    if args.trace_out:
        import tracing
        tracer = tracing.Tracer(f"{args.workload}-{args.seed}-{os.getpid()}-{time.time_ns()}")
        tracing.install(tracer, oscgauss)

    with clock.SpeedClock() as clk:
        out = WORKLOADS[args.workload](oscgauss, args.seed, args.seconds)
    span, calls = out.pop("span"), out.pop("calls")
    out.update(workload=args.workload, seed=args.seed, import_s=import_s,
               oscgauss=os.path.dirname(oscgauss.__file__), machine=machine_block(),
               wall_s=clk.corrected(*span), raw_wall_s=clk.raw(*span),
               call_ms=[clk.corrected(a, b) * 1e3 for a, b in calls],
               raw_call_ms=[clk.raw(a, b) * 1e3 for a, b in calls], speed=clk.speed())
    if tracer is not None:
        tracer.duration = clk.corrected
        out["layers"] = layer_metrics(tracer)
        out["baseline"] = baseline_rows(tracer)
        tracer.write(args.trace_out, {"workload": args.workload, "seed": args.seed,
                                      "layers": out["layers"], "baseline": out["baseline"]})
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
