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
trace, a rule failing its residual checks, invalid parameters, malformed
flags or input files), 4 I/O failure.

moments, opq and quad run without numpy: the layers that need it (scurve,
asymptotics, verify) are imported by the handlers that use them.

Every default lives in build_parser.  An optional --config FILE is a flat
JSON object keyed by flag name ('-' or '_'); each entry becomes the default
of the subcommand's flag of that name, converted like the flag's own value,
before a second parse, so explicit flag > config > built-in default.  A
switch takes only true or false, a valued flag no boolean, and an integer
flag no fraction.  Keys the subcommand has no flag for are ignored.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace

from . import opq, oscillatory, serialize
from .errors import ToolkitError
from .precision import PrecisionContext

__all__ = ["main"]


def _load_config(path: str) -> dict:
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("config file must be a flat JSON object")
    for key, val in doc.items():
        if isinstance(val, (dict, list)):
            raise ValueError(f"config value for {key!r} must be a scalar")
    return doc


def _config_value(action: argparse.Action, val):
    """A config entry converted for its flag: a switch (nargs 0) takes only a
    JSON boolean; a valued flag takes no boolean and converts like its
    command-line string, so 4, 4.0 and "4" all give --kmax 4 but 3.7 fails."""
    if action.nargs == 0:
        if not isinstance(val, bool):
            raise ValueError(f"expected true or false, got {val!r}")
        return val
    if isinstance(val, bool):
        raise ValueError(f"expected a value, not the boolean {val!r}")
    if action.type is int and isinstance(val, float) and not val.is_integer():
        raise ValueError(f"expected an integer, got {val!r}")
    return (action.type or str)(val)


def _apply_config(flags: dict, config: dict) -> None:
    """Make each config entry the default of the flag it names (null entries are skipped)."""
    for dest, action in flags.items():
        val = config.get(dest, config.get(dest.replace("_", "-")))
        if val is not None:
            try:
                action.default = _config_value(action, val)
            except (OverflowError, ValueError) as exc:
                raise ValueError(f"config value for {dest!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (text, exit_code)
# ---------------------------------------------------------------------------

def _cmd_moments(args):
    ms = opq.moment_sequence(opq.WeightSpec(r=args.r), args.kmax,
                             PrecisionContext(args.precision))
    return serialize.moments_csv(ms, digits=args.precision), 0


def _cmd_opq(args):
    if args.n is None:
        raise ValueError("opq requires --n (or an 'n' config entry)")
    floor = PrecisionContext(args.precision)   # rejects fewer than 30 digits
    ctx = PrecisionContext(max(opq.precision_schedule(args.n).decimal_digits,
                               floor.decimal_digits))
    rule = opq.build_rule(args.n, opq.WeightSpec(r=args.r), ctx)
    if args.rescaled:
        rule = opq.rescale_to_Pn(rule, args.n, args.r)
    return serialize.rule_csv(rule, digits=args.precision), 0


def _cmd_curve(args):
    from . import scurve
    phase = scurve.build_phase_context()
    doc = serialize.curve_json_dict({"gamma": phase.gamma,
                                     "gamma1": phase.gamma1,
                                     "gamma2": phase.gamma2})
    return serialize.report_json(doc), 0


def _cmd_measure(args):
    import numpy as np

    from . import scurve
    meas = scurve.build_phase_context().gamma
    if args.samples is not None:
        if args.samples < 2:
            raise ValueError("--samples must be >= 2")
        ss = np.linspace(0.0, float(meas.s[-1]), args.samples)
        pts = np.interp(ss, meas.s, meas.points.real) \
            + 1j * np.interp(ss, meas.s, meas.points.imag)
        meas = replace(meas, points=pts, s=ss,
                       density=np.interp(ss, meas.s, meas.density),
                       cdf=np.interp(ss, meas.s, meas.cdf))
    return serialize.measure_csv(meas), 0


def _load_probes(path: str) -> list:
    with open(path) as fh:
        doc = json.load(fh)
    # pairs of JSON numbers: the type of true and false is bool, not int
    if not (isinstance(doc, list) and all(isinstance(p, list) and len(p) == 2
                                          and {type(x) for x in p} <= {int, float} for p in doc)):
        raise ValueError("probes must be a JSON list of [re, im] pairs of numbers")
    try:
        return [complex(float(re), float(im)) for re, im in doc]
    except OverflowError as exc:   # an integer past the float range
        raise ValueError(f"probes must be a JSON list of [re, im] pairs: {exc}") from exc


def _cmd_asymp(args):
    from . import asymptotics as asym
    from . import verify
    if args.probes:
        probes = _load_probes(args.probes)
    else:
        probes = [z for zs in verify._region_probes().values() for z in zs]
    rows = []
    for z in probes:
        region, err = asym.pn_relative_error(args.n, complex(z), None)
        rows.append({"re": float(z.real), "im": float(z.imag),
                     "region": region, "relative_error": err})
    return serialize.report_json({"n": args.n, "probes": rows}), 0


def _cmd_quad(args):
    params = json.loads(args.amplitude_params) if args.amplitude_params else {}
    if not isinstance(params, dict):
        raise ValueError("--amplitude-params must be a JSON object")
    spec = oscillatory.OscillatoryIntegralSpec(
        a=args.a, b=args.b, omega=args.omega, r=args.r,
        amplitude=oscillatory.amplitude(args.amplitude, **params))
    ne = args.n if args.n_endpoint is None else args.n_endpoint
    ns = args.n if args.n_stationary is None else args.n_stationary
    rep = oscillatory.evaluate_report(spec, ne, ns, PrecisionContext(args.precision))
    d = args.precision
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


def _cmd_fields(args):
    raw = args.grid.split(",")
    if len(raw) != 6:
        raise ValueError("grid must be 'x0,x1,nx,y0,y1,ny'")
    grid = (float(raw[0]), float(raw[1]), int(raw[2]),
            float(raw[3]), float(raw[4]), int(raw[5]))
    if grid[2] < 1 or grid[5] < 1:
        raise ValueError("grid point counts nx and ny must be >= 1")
    if not all(math.isfinite(v) for v in (grid[0], grid[1], grid[3], grid[4])):
        raise ValueError("grid bounds x0, x1, y0 and y1 must be finite")
    from . import scurve
    X, Y, V, mask = scurve.sample_field_grid(args.which, grid, None)
    doc = {
        "which": args.which,
        "x": X[0, :], "y": Y[:, 0],
        "values": V,
        "masked": mask,
    }
    return serialize.report_json(doc), 0


def _strip_timing(node):
    """Drop every elapsed_seconds key, where the verify report keeps all its
    wall-clock values, so verify output is byte-stable across runs."""
    if isinstance(node, dict):
        return {k: _strip_timing(v) for k, v in node.items() if k != "elapsed_seconds"}
    if isinstance(node, list):
        return [_strip_timing(x) for x in node]
    return node


def _cmd_verify(args):
    from . import verify
    result = verify.run_suite(None if args.suite == "all" else [args.suite])
    text = serialize.report_json(_strip_timing(result))
    return text, 0 if result["passed"] else 2


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # invalid input, exit 3 (argparse itself exits 2)
        raise ValueError(message)


class _SuiteChoices:
    """The --suite choices, "all" and verify.SUITE_NAMES, read from verify only
    when argparse checks or prints them: verify loads numpy."""

    def __iter__(self):   # `in` iterates too
        from . import verify
        return iter(("all", *verify.SUITE_NAMES))


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The `oscgauss` parser and, per subcommand, its flag actions by dest."""
    parser = _Parser(
        prog="oscgauss",
        description="Complex Gaussian quadrature for oscillatory integrals: "
                    "moments, orthogonal polynomials, the cubic-weight curve "
                    "and measure, strong asymptotics, and verification.")
    sub = parser.add_subparsers(dest="command", required=True)
    flags: dict[str, dict[str, argparse.Action]] = {}

    def command(name: str, handler, help: str):
        """Add a subcommand with --config and --out; returns its add-flag function."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        actions = flags[name] = {}

        def arg(*names, **kwargs):
            action = p.add_argument(*names, **kwargs)
            actions[action.dest] = action

        arg("--config", help="flat JSON file of flag defaults")
        arg("--out", help="output file (default: stdout)")
        return arg

    arg = command("moments", _cmd_moments, "modified moments M_k as CSV")
    arg("--r", type=int, default=3)
    arg("--kmax", type=int, default=20)
    arg("--precision", type=int, default=30,
        help="decimal digits computed and printed (>= 30; default 30)")

    arg = command("opq", _cmd_opq, "n-point quadrature rule (nodes/weights CSV)")
    arg("--n", type=int)
    arg("--r", type=int, default=3)
    arg("--rescaled", action="store_true",
        help="emit the P_n-scale rule (nodes on the limit curve)")
    arg("--precision", type=int, default=30,
        help="decimal digits printed (>= 30; default 30); the rule is built at "
             "this many or at its precision schedule, whichever is more")

    command("curve", _cmd_curve, "gamma, gamma1, gamma2 polylines as JSON")

    arg = command("measure", _cmd_measure, "equilibrium density/CDF table as CSV")
    arg("--samples", type=int,
        help="resample to this many (>= 2) equal-arclength rows")

    arg = command("asymp", _cmd_asymp, "formula-vs-recurrence probe comparison JSON")
    arg("--n", type=int, default=20)
    arg("--probes", help="JSON file [[re, im], ...] overriding built-in probes")

    arg = command("quad", _cmd_quad, "evaluate an oscillatory integral")
    arg("--a", type=float, default=-1.0)
    arg("--b", type=float, default=1.0)
    arg("--omega", type=float, default=50.0)
    arg("--r", type=int, default=3)
    arg("--n", type=int, default=4,
        help="points per path (endpoint and stationary)")
    arg("--n-endpoint", type=int, help="endpoint-path points (default: --n)")
    arg("--n-stationary", type=int, help="stationary-path points (default: --n)")
    arg("--amplitude", default="constant",
        choices=list(oscillatory.AMPLITUDE_NAMES))
    arg("--amplitude-params",
        help='JSON object of amplitude parameters, e.g. {"scale": 2}')
    arg("--precision", type=int, default=30,
        help="working decimal digits of the evaluation, also printed (>= 30; default 30)")

    arg = command("fields", _cmd_fields, "diagnostic scalar field on a grid as JSON")
    arg("--which", default="ReD",
        choices=["ReD", "ImD", "ReQ", "ImQ", "RePhi2"])
    arg("--grid", default="-3,3,61,-3,3,61", help="x0,x1,nx,y0,y1,ny")

    arg = command("verify", _cmd_verify, "run verification suites; nonzero exit on failure")
    arg("--suite", default="all")
    # set after add_argument, which formats (so iterates) any choices it is given
    flags["verify"]["suite"].choices = _SuiteChoices()

    return parser, flags


def main(argv=None) -> int:
    parser, flags = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            try:
                config = _load_config(args.config)
            except (OSError, ValueError) as exc:
                print(f"oscgauss: bad config: {exc}", file=sys.stderr)
                return 4
            _apply_config(flags[args.command], config)
            args = parser.parse_args(argv)
        text, code = args.handler(args)
    except OSError as exc:
        print(f"oscgauss: i/o failure: {exc}", file=sys.stderr)
        return 4
    except (ToolkitError, ValueError) as exc:
        print(f"oscgauss: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3

    try:
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except OSError as exc:
        print(f"oscgauss: i/o failure: {exc}", file=sys.stderr)
        return 4
    return code


if __name__ == "__main__":
    sys.exit(main())
