"""Every module of the package compiles with warnings raised as errors,
every name it exports in __all__ exists, no module calls mpmath's adaptive
quadrature, every optional parameter of a public function is set by some
library or benchmark call, every public function is referred to by some
library or benchmark code, every library name the benchmark tracer
rebinds or the benchmark workloads call exists, no evaluator of the
curve branch takes the contour, no function takes a contour it does not
read, only the measure check and the writers read the total mass, no
distance to gamma reads its polyline, every panelled oracle sizes its
panels by one rule, every flag the README names is a flag of the command
line, and no module imports scipy, nor does importing the package load it."""

import ast
import importlib
import importlib.util
import inspect
import os
import pathlib
import re
import subprocess
import sys
import warnings

import pytest

import oscgauss
from oscgauss import cli

SOURCES = sorted(pathlib.Path(oscgauss.__file__).parent.glob("*.py"))
README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
MODULES = ["oscgauss"] + [f"oscgauss.{p.stem}" for p in SOURCES if p.stem != "__init__"]
PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"
WORKLOADS = PERFBENCH / "workloads.py"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_compiles_without_warnings(path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile(path.read_text(), str(path), "exec")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_no_adaptive_mpmath_quadrature():
    # The oracles integrate by precision.panel_quad_vector, which reports its own
    # error estimate; mp.quad (tanh-sinh / Gauss-Legendre) reports none.
    calls = [f"{path.name}:{node.lineno}"
             for path in SOURCES for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute) and node.attr.startswith("quad")
             and isinstance(node.value, ast.Name) and node.value.id in ("mp", "mpmath")]
    assert calls == []


def _defaulted_parameters():
    """{(module, function, parameter): position or None} for every parameter
    with a default of a public module-level function in the package."""
    out = {}
    for path in SOURCES:
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            for i, a in enumerate(positional):
                if i >= len(positional) - len(args.defaults):
                    out[path.stem, node.name, a.arg] = i
            for a, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    out[path.stem, node.name, a.arg] = None
    return out


def test_every_optional_parameter_has_a_caller():
    # An optional parameter that no library or benchmark call sets is an
    # option nobody uses: its value belongs where it is used.  Tests do not
    # count as callers.
    optional = _defaulted_parameters()
    calls = [node for path in SOURCES + sorted(PERFBENCH.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call)]

    def sets(call, function, name, position):
        # by keyword, by position, or possibly through **kwargs / *args
        callee = getattr(call.func, "id", getattr(call.func, "attr", None))
        return callee == function and (
            any(kw.arg in (name, None) for kw in call.keywords)
            or any(isinstance(a, ast.Starred) for a in call.args)
            or (position is not None and len(call.args) > position))

    unset = {f"{module}.{function}.{name}"
             for (module, function, name), position in optional.items()
             if not any(sets(call, function, name, position) for call in calls)}
    assert unset == {
        # the console-script entry point reads sys.argv; tests pass argv
        "cli.main.argv",
        # the benchmark tracer's KEYS entry pins laguerre_rule's parameter
        # list (test_traced_keys_match_signatures), and the benchmark
        # harness stays fixed while the library changes under it
        "oscillatory.laguerre_rule.ctx",
    }


def _references(tree, skip=None) -> set:
    """Names a module refers to, by name or as an attribute, outside the
    body of its top-level function `skip`."""
    out = set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) and stmt.name == skip:
            continue
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
    return out


def test_every_public_function_has_a_caller():
    # A public function that no library code or benchmark refers to is
    # reached only from tests: it is promoted into a verification check or
    # deleted.  Tests do not count as callers; a decorated function counts
    # as reached, because its decorator registers it.
    trees = {path.stem: ast.parse(path.read_text()) for path in SOURCES}
    bench = set().union(*(_references(ast.parse(path.read_text()))
                          for path in sorted(PERFBENCH.glob("*.py"))))
    unreached = []
    for stem, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_") \
                    or node.decorator_list:
                continue
            if node.name in bench or any(
                    node.name in _references(other, node.name if name == stem else None)
                    for name, other in trees.items()):
                continue
            unreached.append(f"{stem}.{node.name}")
    assert unreached == []


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_imported_bindings_resolve():
    # The tracer rebinds these names in the importing module; a rename or
    # deletion in the library would otherwise break only the traced benchmark.
    tracing = _tracing()
    missing = [f"{short}.{name}" for short, names in tracing.IMPORTED_BINDINGS.items()
               for name in names
               if not hasattr(importlib.import_module(f"oscgauss.{short}"), name)]
    assert missing == []


def test_traced_keys_match_signatures():
    # Each KEYS lambda is called with the traced function's arguments; a
    # signature edit would otherwise break only the traced benchmark.
    keys = _tracing().KEYS
    assert set(keys) == {"opq.build_rule", "oscillatory.laguerre_rule",
                         "oscillatory.evaluate_report"}
    for span, key in keys.items():
        short, name = span.split(".")
        fn = getattr(importlib.import_module(f"oscgauss.{short}"), name)
        assert list(inspect.signature(key).parameters) == \
            list(inspect.signature(fn).parameters), span


def _workload_paths(tree):
    """(aliases, calls): dotted oscgauss paths the workloads reach.

    Each workload receives the package as `og` and may bind submodules to
    local names (`osc = og.oscillatory`); an alias path only has to
    resolve, every other path is an attribute the workload calls.
    """
    roots = {"og": ()}

    def path(node):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id in roots:
            return roots[node.id] + tuple(reversed(parts))
        return None

    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
            pairs = (zip(target.elts, value.elts) if isinstance(target, ast.Tuple)
                     and isinstance(value, ast.Tuple) else [(target, value)])
            for t, v in pairs:
                if isinstance(t, ast.Name) and path(v):
                    roots[t.id] = path(v)
                    aliases.add(path(v))
    inner = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    reached = {path(node) for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and id(node) not in inner}
    reached.discard(None)
    return aliases, reached - aliases


def test_workload_calls_resolve():
    # A deleted or renamed library name would make every call of a
    # workload fail and silently zero the benchmark's ok_frac.
    aliases, calls = _workload_paths(ast.parse(WORKLOADS.read_text()))
    assert {("opq", "build_rule"), ("oscillatory", "evaluate_report"),
            ("scurve", "verify_equilibrium"), ("asymptotics", "pn_relative_error"),
            ("verify", "run_suite")} <= calls

    def resolve(dotted):
        obj = oscgauss
        for name in dotted:
            obj = getattr(obj, name, None)
        return obj

    assert [".".join(p) for p in sorted(aliases) if resolve(p) is None] == []
    assert [".".join(p) for p in sorted(calls) if not callable(resolve(p))] == []


# The sheet of Q^{1/2} on either side of gamma is a property of Q (gamma
# has the S-property), so these decide it from z alone.
CURVE_BRANCH_EVALUATORS = {
    "q_sqrt", "phi2", "g_eval", "beta", "n_matrix", "pn_outer", "pn_airy",
    "phi2_path_integral", "_phi2_leg", "_in_lens", "_require_off_cut", "_phi2_off_cut",
}


CONTOUR_TYPES = {"PhaseContext", "CurvePolyline"}
CONTOUR_PARAMS = {"phase", "curve"}
CONTOUR_NAMES = CONTOUR_TYPES | {"build_phase_context", "_build_phase_context"}
CONTOUR_ATTRS = {"gamma", "gamma1", "gamma2"} | CONTOUR_NAMES


def test_curve_branch_evaluators_take_no_contour():
    """No evaluator takes the contour as a parameter (by annotation or by
    name) or reaches it in its body (building it, or reading .gamma)."""
    found, contour = set(), []
    for path in SOURCES:
        for node in ast.parse(path.read_text()).body:
            if not (isinstance(node, ast.FunctionDef) and node.name in CURVE_BRANCH_EVALUATORS):
                continue
            found.add(node.name)
            where = f"{path.stem}.{node.name}"
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs + [
                a for a in (args.vararg, args.kwarg) if a is not None]
            for a in params:
                annotation = ast.unparse(a.annotation) if a.annotation is not None else ""
                if a.arg in CONTOUR_PARAMS or any(t in annotation for t in CONTOUR_TYPES):
                    contour.append(f"{where}({a.arg})")
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and sub.id in CONTOUR_NAMES:
                    contour.append(f"{where}: {sub.id}")
                elif isinstance(sub, ast.Attribute) and sub.attr in CONTOUR_ATTRS:
                    contour.append(f"{where}: .{sub.attr}")
    assert found == CURVE_BRANCH_EVALUATORS
    assert contour == []


# Only these take a contour they do not read: the perfbench cubic workload
# passes them the contour positionally.
UNREAD_CONTOUR_ALLOWED = {"asymptotics.pn_relative_error", "scurve.sample_field_grid"}


def _top_level_functions():
    for path in SOURCES:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                yield path.stem, node


def test_no_function_takes_a_contour_it_does_not_read():
    unread = set()
    for stem, node in _top_level_functions():
        args = node.args
        for a in args.posonlyargs + args.args + args.kwonlyargs:
            annotation = ast.unparse(a.annotation) if a.annotation is not None else ""
            if a.arg not in CONTOUR_PARAMS | {"meas"} \
                    and not any(t in annotation for t in CONTOUR_TYPES):
                continue
            if not any(isinstance(sub, ast.Name) and sub.id == a.arg
                       for stmt in node.body for sub in ast.walk(stmt)):
                unread.add(f"{stem}.{node.name}")
    assert unread == UNREAD_CONTOUR_ALLOWED


def test_total_mass_is_read_only_by_the_measure_check_and_the_writers():
    # the measure has unit mass, so nothing computes with its traced total;
    # the measure suite checks it and the curve and measure tables print it
    readers = {f"{stem}.{node.name}" for stem, node in _top_level_functions()
               for sub in ast.walk(node)
               if isinstance(sub, ast.Attribute) and sub.attr == "total_mass"}
    assert readers and {r for r in readers if not r.startswith("serialize.")} == \
        {"verify.criterion_measure"}


# Distances to gamma and masses on it come from phi2 (the Newton projection
# of scurve._nearest_on_gamma), so the polyline stays an output.
POLYLINE_FREE = {"region_classify", "zero_distribution_report", "sample_field_grid",
                 "_require_off_cut", "_nearest_on_gamma", "measure_quadrature",
                 "near_quadrature", "pn_asymptotic"}
POLYLINE_ARRAYS = {"points", "cdf", "s", "density"}


def test_distances_to_gamma_read_no_polyline():
    found, reads = set(), []
    for path in SOURCES:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and node.name in POLYLINE_FREE:
                found.add(node.name)
                reads += [f"{path.stem}.{node.name}: .{sub.attr}" for sub in ast.walk(node)
                          if isinstance(sub, ast.Attribute) and sub.attr in POLYLINE_ARRAYS]
    assert found == POLYLINE_FREE
    assert reads == []


def _calls_by_function(path):
    """(function name, call, callee name) for every call inside a top-level function."""
    for fn in ast.parse(path.read_text()).body:
        if isinstance(fn, ast.FunctionDef):
            for call in ast.walk(fn):
                if isinstance(call, ast.Call):
                    yield fn.name, call, getattr(call.func, "id",
                                                 getattr(call.func, "attr", None))


def test_oracles_size_panels_by_one_rule():
    # An oracle's panel size follows from the digits it runs at, by
    # oscillatory._panel_points; neither the digits nor the points are
    # fixed where an oracle is called.  phi2_path_integral's legs grade their
    # panels to the branch points and keep their fixed count.
    literal_ctx, counts = [], {}
    for path in SOURCES:
        for fn, call, callee in _calls_by_function(path):
            args = call.args + [kw.value for kw in call.keywords]
            if callee == "PrecisionContext" and path.stem in ("oscillatory", "verify") \
                    and any(isinstance(a, ast.Constant) for a in args):
                literal_ctx.append(f"{path.stem}.{fn}: {ast.unparse(call)}")
            if callee == "panel_quad_vector":
                counts.setdefault(f"{path.stem}.{fn}", set()).add(ast.unparse(args[2]))
    assert literal_ctx == []
    assert counts == {
        "oscillatory._ray_quadrature": {"_panel_points(ctx)"},
        "oscillatory.interval_oracle": {"_panel_points(ctx)"},
        "scurve._phi2_leg": {"_PATH_GL_POINTS"},
    }


def test_readme_flags_exist():
    # A flag deleted from the command line must not linger in the docs.
    _, flags = cli.build_parser()
    known = {opt for actions in flags.values() for action in actions.values()
             for opt in action.option_strings}
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", README.read_text()))
    assert named - known - {"--no-build-isolation"} == set()   # pip's, in the install line


def test_no_module_imports_scipy():
    # Ai and Ai' are computed in-house (asymptotics._airy), so the package's
    # only runtime dependencies are numpy and mpmath
    def modules(node):
        if isinstance(node, ast.Import):
            return [a.name for a in node.names]
        return [node.module or ""] if isinstance(node, ast.ImportFrom) else []
    imports = [f"{path.name}:{node.lineno}"
               for path in SOURCES for node in ast.walk(ast.parse(path.read_text()))
               if any(m.split(".")[0] == "scipy" for m in modules(node))]
    assert imports == []
    src = str(pathlib.Path(oscgauss.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    proc = subprocess.run(
        [sys.executable, "-c", "import oscgauss, sys; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.strip() == "[]"
