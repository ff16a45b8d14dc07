"""Benchmark of the oscgauss library, run from the root of a checkout.

    python3 perfbench/run.py --workload {rules,integrals,cubic,verify} \
        --seed N --seconds S --trace {0,1}

Workloads (defined in workloads.py, each with the reason it was chosen):

    rules      cold rule construction, every (n, r) key distinct
    integrals  a seeded stream of evaluate_report calls with repeating keys
    cubic      curve, measure and strong asymptotics of the r = 3 case
    verify     the seven verification suites through verify.run_suite()

--trace 0 measures set-up (a fresh interpreter importing oscgauss, several
times, median) and then runs the workload once in another fresh
interpreter with the library untouched; it reports every end-to-end metric
named in BENCHMARK.json.  --trace 1 runs the workload untraced and then
traced (library layers wrapped by tracing.py) and reports every per-layer
metric, the import-time breakdown and the tracing overhead; the spans are
written to perfbench/out/.  --seconds sizes the seeded call streams of
integrals and cubic, so the work of a run is fixed by its arguments and a
faster library finishes sooner; rules and verify are fixed lists.

Every answer is checked against the independent references in
references.py.  The last line of standard output is the result:
{"correct", "attempted", "failed", "metrics"}; the line before it holds the
machine and run block.  Without src/oscgauss in the working directory the
command exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("rules", "integrals", "cubic", "verify")
SETUP_RUNS = 7
RUN_BUDGET_S = 175.0   # every run must end within 180 s
PIN_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def child_env(src: str) -> dict:
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0")
    env.update({k: "1" for k in PIN_THREADS})
    return env


def run_child(cmd, env, deadline, what) -> subprocess.CompletedProcess:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError(f"out of time before {what}")
    try:
        # run() kills the child and waits for it when the timeout expires.
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=left)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{what} did not finish within the run budget") from None
    if proc.returncode != 0:
        raise BenchError(f"{what} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc


def setup_runs(env, deadline) -> list:
    """SETUP_RUNS fresh interpreters, each timing its own `import oscgauss` (setup_probe.py)."""
    probe = [sys.executable, os.path.join(HERE, "setup_probe.py")]
    return [json.loads(run_child(probe, env, deadline, "set-up probe").stdout.splitlines()[-1])
            for _ in range(SETUP_RUNS)]


def import_breakdown(env, deadline) -> dict:
    """Cumulative import seconds of oscgauss and its heavy dependencies (-X importtime).

    Each package family is charged where it is first imported: the
    cumulative time of every entry of the family whose enclosing import
    belongs to another family.
    """
    proc = run_child([sys.executable, "-X", "importtime", "-c", "import oscgauss"],
                     env, deadline, "import breakdown")
    rows = []
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cum, name = line[len("import time:"):].split("|")
        level = (len(name) - len(name.lstrip()) - 1) // 2
        rows.append((int(cum), level, name.strip().split(".")[0]))
    out = {fam: 0.0 for fam in ("oscgauss", "scipy", "numpy", "mpmath")}
    for i, (cum, level, fam) in enumerate(rows):
        # output is post-order: the enclosing import is the next shallower row
        parent = next((r[2] for r in rows[i + 1:] if r[1] < level), None)
        if fam in out and parent != fam:
            out[fam] += cum / 1e6
    return {f"import.{fam}_s": sec for fam, sec in out.items()}


def workload_run(args, env, deadline, trace_out=None) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    proc = run_child(cmd, env, deadline, f"{args.workload} run")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def call_stats(call_ms) -> dict:
    if len(call_ms) < 2:  # only when calls failed; the run is then reported incorrect
        p50 = p90 = call_ms[0] if call_ms else 0.0
    else:
        p50 = statistics.median(call_ms)
        p90 = statistics.quantiles(call_ms, n=10, method="inclusive")[-1]
    return {"call_p50_ms": p50, "call_p90_ms": p90,
            "call_samples": len(call_ms), "above_p90": sum(1 for x in call_ms if x > p90)}


def load_spec(root) -> dict:
    path = os.path.join(root, "BENCHMARK.json")
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from None


def select(values: dict, declared: list) -> dict:
    """{name: {value, unit}} for exactly the declared metrics."""
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {', '.join(missing)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="oscgauss benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "oscgauss", "__init__.py")):
        raise BenchError(f"no oscgauss sources under {src}; run from the root of a checkout")
    spec = load_spec(root)
    env = child_env(src)

    runs, values, info = [], {}, {}
    if args.trace:
        values.update(import_breakdown(env, deadline))
        plain = workload_run(args, env, deadline)
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        trace_path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}.trace.json")
        traced = workload_run(args, env, deadline, trace_path)
        runs = [plain, traced]
        values.update(traced["layers"])
        values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        info.update(trace_file=os.path.relpath(trace_path, root),
                    untraced_wall_s=plain["wall_s"], traced_wall_s=traced["wall_s"],
                    baseline=traced["baseline"])
        metrics = select(values, spec["per_layer"])
    else:
        setup = setup_runs(env, deadline)
        res = workload_run(args, env, deadline)
        runs = [res]
        stats = call_stats(res["call_ms"])
        values.update(setup_s=statistics.median(r["setup_s"] for r in setup),
                      wall_s=res["wall_s"],
                      call_p50_ms=stats["call_p50_ms"], call_p90_ms=stats["call_p90_ms"],
                      ok_frac=(res["attempted"] - res["failed"]) / res["attempted"],
                      digits_min=res["digits_min"], peak_rss_mb=res["peak_rss_mb"])
        info.update(call_samples=stats["call_samples"], above_p90=stats["above_p90"],
                    raw_setup_s=statistics.median(r["raw_setup_s"] for r in setup),
                    raw_wall_s=res["raw_wall_s"],
                    raw_call_p50_ms=statistics.median(res["raw_call_ms"]))
        metrics = select(values, spec["end_to_end"])

    for res in runs:
        if os.path.realpath(res["oscgauss"]) != os.path.realpath(os.path.join(src, "oscgauss")):
            raise BenchError(f"imported oscgauss from {res['oscgauss']}, not from {src}")
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    info.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                trace=args.trace, machine_speed=[r["speed"] for r in runs],
                import_s=runs[-1]["import_s"],
                problems=[p for r in runs for p in r["problems"]])
    if args.workload == "verify":
        info["seed_note"] = "verify inputs are fixed; the seed is recorded and ignored"
    for row, measured, base in info.get("baseline", []):
        if base:
            ratio = measured / base
            verdict = f"{ratio:.2f}x" + ("  DIFFERS BY MORE THAN 2x" if not 0.5 <= ratio <= 2 else "")
        else:
            verdict = "the baseline rounds to 0"
        print(f"baseline {row}: measured {measured:.4g} s, ROADMAP {base:.4g} s ({verdict})")
    print(json.dumps({"machine": runs[-1]["machine"], "run": info}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
