"""Command-line surface: every toolkit product as a deterministic text artifact.

Subcommands mirror the library layer one-to-one: moments and quadrature
rules as CSV, curves as JSON, the equilibrium measure as a density/CDF
table, asymptotic probe comparisons, oscillatory integral evaluation,
diagnostic field grids, and the verification suites.  All numeric output
is decimal strings, so a fixed configuration yields byte-identical bytes
run to run (the verify reports drop wall-clock values for the same
reason; the pass/fail verdicts against the runtime budgets remain).

Exit codes: 0 success, 2 numerical tolerance failure (a verify suite
reported red), 3 construction failure (degenerate functional, diverged
trace, a rule failing its residual checks, invalid parameters), 4 I/O failure.

An optional --config FILE supplies defaults as a flat JSON object whose
keys mirror the flag names; explicit flags win over the file, the file
wins over built-in defaults.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import asymptotics as asym
from . import opq, oscillatory, scurve, serialize, verify
from .errors import ToolkitError
from .precision import PrecisionContext

__all__ = ["RunConfig", "main"]

_DEFAULTS = {
    "precision": 30,
    "r": 3,
    "kmax": 20,
    "n": None,
    "step_tolerance": 1e-7,
    "extension_length": 2.5,
    "samples": None,
    "curve_json": None,
    "probes": None,
    "a": -1.0,
    "b": 1.0,
    "omega": 50.0,
    "amplitude": "constant",
    "amplitude_params": None,
    "n_endpoint": None,
    "n_stationary": None,
    "which": "ReD",
    "grid": "-3,3,61,-3,3,61",
    "suite": "all",
    "rescaled": False,
    "out": None,
}


@dataclass(frozen=True)
class RunConfig:
    """Shared plumbing for one CLI invocation: precision floor and output."""

    precision: int = 30
    out: str | None = None

    def __post_init__(self):
        if self.precision < 30:
            raise ValueError("precision must be at least 30 decimal digits")


# ---------------------------------------------------------------------------
# Flag / config-file resolution
# ---------------------------------------------------------------------------

def _load_config(path: str) -> dict:
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("config file must be a flat JSON object")
    for key, val in doc.items():
        if isinstance(val, (dict, list)):
            raise ValueError(f"config value for {key!r} must be a scalar")
    return doc


def _resolve(args: argparse.Namespace, config: dict, name: str):
    """Explicit flag > config-file entry > built-in default."""
    val = getattr(args, name, None)
    if val is None:
        val = config.get(name, config.get(name.replace("_", "-")))
    if val is None:
        val = _DEFAULTS[name]
    return val


def _int_or(args, config, name: str, default: int) -> int:
    """An integer setting; only an unset (None) value takes `default`, so 0 stays 0."""
    val = _resolve(args, config, name)
    return default if val is None else int(val)


def _run_config(args, config) -> RunConfig:
    return RunConfig(precision=int(_resolve(args, config, "precision")),
                     out=_resolve(args, config, "out"))


def _scheduled_ctx(n: int, floor: int) -> PrecisionContext:
    sched = opq.precision_schedule(n)
    if sched.decimal_digits >= floor:
        return sched
    return PrecisionContext(floor)


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (text, exit_code)
# ---------------------------------------------------------------------------

def _cmd_moments(args, config, rc: RunConfig):
    r = int(_resolve(args, config, "r"))
    kmax = int(_resolve(args, config, "kmax"))
    ms = opq.moment_sequence(opq.WeightSpec(r=r), kmax,
                             PrecisionContext(rc.precision))
    return serialize.moments_csv(ms, digits=rc.precision), 0


def _cmd_opq(args, config, rc: RunConfig):
    r = int(_resolve(args, config, "r"))
    n = _resolve(args, config, "n")
    if n is None:
        raise ValueError("opq requires --n (or an 'n' config entry)")
    n = int(n)
    rule = opq.build_rule(n, opq.WeightSpec(r=r), _scheduled_ctx(n, rc.precision))
    if _resolve(args, config, "rescaled"):
        rule = opq.rescale_to_Pn(rule, n, r)
    return serialize.rule_csv(rule, digits=rc.precision), 0


def _phase_for(args, config) -> scurve.PhaseContext:
    step = float(_resolve(args, config, "step_tolerance"))
    ext = float(_resolve(args, config, "extension_length"))
    return scurve.build_phase_context(step, ext)


def _cmd_curve(args, config, rc: RunConfig):
    phase = _phase_for(args, config)
    doc = serialize.curve_json_dict({"gamma": phase.gamma,
                                     "gamma1": phase.gamma1,
                                     "gamma2": phase.gamma2})
    return serialize.report_json(doc), 0


def _cmd_measure(args, config, rc: RunConfig):
    path = _resolve(args, config, "curve_json")
    if path:
        with open(path) as fh:
            doc = json.load(fh)
        meas = scurve.equilibrium_measure(serialize.curve_from_json_dict(doc))
    else:
        step = float(_resolve(args, config, "step_tolerance"))
        meas = scurve.equilibrium_measure(scurve.trace_gamma(step_tolerance=step))
    samples = _resolve(args, config, "samples")
    if samples is not None:
        ss = np.linspace(0.0, float(meas.s[-1]), int(samples))
        pts = np.interp(ss, meas.s, meas.points.real) \
            + 1j * np.interp(ss, meas.s, meas.points.imag)
        meas = scurve.CurvePolyline(
            kind=meas.kind, points=pts, s=ss,
            density=np.interp(ss, meas.s, meas.density),
            cdf=np.interp(ss, meas.s, meas.cdf),
            total_mass=meas.total_mass)
    return serialize.measure_csv(meas), 0


def _load_probes(path: str) -> list:
    with open(path) as fh:
        doc = json.load(fh)
    return [complex(float(p[0]), float(p[1])) for p in doc]


def _cmd_asymp(args, config, rc: RunConfig):
    n = _int_or(args, config, "n", 20)
    phase = scurve.build_phase_context()
    path = _resolve(args, config, "probes")
    if path:
        probes = _load_probes(path)
    else:
        probes = [z for zs in verify._region_probes(phase).values() for z in zs]
    rows = []
    for z in probes:
        region, err = asym.pn_relative_error(n, complex(z), phase)
        rows.append({"re": float(z.real), "im": float(z.imag),
                     "region": region, "relative_error": err})
    return serialize.report_json({"n": n, "probes": rows}), 0


def _cmd_quad(args, config, rc: RunConfig):
    params_raw = _resolve(args, config, "amplitude_params")
    params = json.loads(params_raw) if params_raw else {}
    amp = oscillatory.amplitude(str(_resolve(args, config, "amplitude")), **params)
    spec = oscillatory.OscillatoryIntegralSpec(
        a=float(_resolve(args, config, "a")),
        b=float(_resolve(args, config, "b")),
        omega=float(_resolve(args, config, "omega")),
        r=int(_resolve(args, config, "r")),
        amplitude=amp)
    n = _int_or(args, config, "n", 4)
    ne = _int_or(args, config, "n_endpoint", n)
    ns = _int_or(args, config, "n_stationary", n)
    rep = oscillatory.evaluate_report(spec, ne, ns, PrecisionContext(rc.precision))
    d = rc.precision
    vre, vim = serialize.fmt_complex(rep["value"], d)
    doc = {
        "value_re": vre,
        "value_im": vim,
        "contributions": {},
        "n_endpoint": ne,
        "n_stationary": ns,
    }
    for key in ("endpoint_a", "endpoint_b", "stationary"):
        re_s, im_s = serialize.fmt_complex(rep[key], d)
        doc["contributions"][key] = {"re": re_s, "im": im_s}
    return serialize.report_json(doc), 0


def _cmd_fields(args, config, rc: RunConfig):
    which = str(_resolve(args, config, "which"))
    raw = str(_resolve(args, config, "grid")).split(",")
    if len(raw) != 6:
        raise ValueError("grid must be 'x0,x1,nx,y0,y1,ny'")
    grid = (float(raw[0]), float(raw[1]), int(raw[2]),
            float(raw[3]), float(raw[4]), int(raw[5]))
    X, Y, V, mask = scurve.sample_field_grid(which, grid,
                                             scurve.build_phase_context())
    doc = {
        "which": which,
        "x": X[0, :], "y": Y[:, 0],
        "values": V,
        "masked": mask,
    }
    return serialize.report_json(doc), 0


def _strip_timing(node):
    """Drop wall-clock values so verify output is byte-stable across runs."""
    if isinstance(node, dict):
        out = {}
        for key, val in node.items():
            if key == "elapsed_seconds":
                continue
            if "runtime" in key and isinstance(val, dict):
                out[key] = {k: v for k, v in val.items() if k != "value"}
            else:
                out[key] = _strip_timing(val)
        return out
    if isinstance(node, list):
        return [_strip_timing(x) for x in node]
    return node


def _cmd_verify(args, config, rc: RunConfig):
    suite = str(_resolve(args, config, "suite"))
    names = list(verify.SUITE_NAMES) if suite == "all" else [suite]
    result = verify.run_suite(names)
    text = serialize.report_json(_strip_timing(result))
    return text, 0 if result["passed"] else 2


_HANDLERS = {
    "moments": _cmd_moments,
    "opq": _cmd_opq,
    "curve": _cmd_curve,
    "measure": _cmd_measure,
    "asymp": _cmd_asymp,
    "quad": _cmd_quad,
    "fields": _cmd_fields,
    "verify": _cmd_verify,
}


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--precision", type=int, default=None,
                        help="working decimal digits (>= 30; default 30)")
    common.add_argument("--config", default=None,
                        help="flat JSON file of flag defaults")
    common.add_argument("--out", default=None,
                        help="output file (default: stdout)")

    parser = argparse.ArgumentParser(
        prog="oscgauss",
        description="Complex Gaussian quadrature for oscillatory integrals: "
                    "moments, orthogonal polynomials, the cubic-weight curve "
                    "and measure, strong asymptotics, and verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("moments", parents=[common],
                       help="modified moments M_k as CSV")
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--kmax", type=int, default=None)

    p = sub.add_parser("opq", parents=[common],
                       help="n-point quadrature rule (nodes/weights CSV)")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--rescaled", action="store_true", default=None,
                   help="emit the P_n-scale rule (nodes on the limit curve)")

    p = sub.add_parser("curve", parents=[common],
                       help="gamma, gamma1, gamma2 polylines as JSON")
    p.add_argument("--step-tolerance", type=float, default=None,
                   dest="step_tolerance")
    p.add_argument("--extension-length", type=float, default=None,
                   dest="extension_length")

    p = sub.add_parser("measure", parents=[common],
                       help="equilibrium density/CDF table as CSV")
    p.add_argument("--curve-json", default=None, dest="curve_json",
                   help="re-annotate a previously exported curve JSON")
    p.add_argument("--samples", type=int, default=None,
                   help="resample to this many equal-arclength rows")
    p.add_argument("--step-tolerance", type=float, default=None,
                   dest="step_tolerance")

    p = sub.add_parser("asymp", parents=[common],
                       help="formula-vs-recurrence probe comparison JSON")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--probes", default=None,
                   help="JSON file [[re, im], ...] overriding built-in probes")

    p = sub.add_parser("quad", parents=[common],
                       help="evaluate an oscillatory integral")
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--b", type=float, default=None)
    p.add_argument("--omega", type=float, default=None)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--n", type=int, default=None,
                   help="points per path (endpoint and stationary)")
    p.add_argument("--n-endpoint", type=int, default=None, dest="n_endpoint")
    p.add_argument("--n-stationary", type=int, default=None, dest="n_stationary")
    p.add_argument("--amplitude", default=None,
                   choices=list(oscillatory.AMPLITUDE_NAMES))
    p.add_argument("--amplitude-params", default=None, dest="amplitude_params",
                   help='JSON object of amplitude parameters, e.g. {"scale": 2}')

    p = sub.add_parser("fields", parents=[common],
                       help="diagnostic scalar field on a grid as JSON")
    p.add_argument("--which", default=None,
                   choices=["ReD", "ImD", "ReQ", "ImQ", "RePhi2"])
    p.add_argument("--grid", default=None, help="x0,x1,nx,y0,y1,ny")

    p = sub.add_parser("verify", parents=[common],
                       help="run verification suites; nonzero exit on failure")
    p.add_argument("--suite", default=None,
                   choices=["all", *verify.SUITE_NAMES])

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args.config) if args.config else {}
    except OSError as exc:
        print(f"oscgauss: cannot read config: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"oscgauss: bad config: {exc}", file=sys.stderr)
        return 4

    try:
        rc = _run_config(args, config)
        text, code = _HANDLERS[args.command](args, config, rc)
    except OSError as exc:
        print(f"oscgauss: i/o failure: {exc}", file=sys.stderr)
        return 4
    except (ToolkitError, ValueError) as exc:
        print(f"oscgauss: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3

    try:
        if rc.out:
            with open(rc.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except OSError as exc:
        print(f"oscgauss: i/o failure: {exc}", file=sys.stderr)
        return 4
    return code


if __name__ == "__main__":
    sys.exit(main())
