"""Outside-in span tracing of the oscgauss layers.

The tracer replaces public functions of the library modules with wrappers
that record one span per call: (name, start, end, parent, outermost).
Calls the library makes through module attributes (``opq.zeros(...)``
inside ``build_rule``, ``geometry.branch_parity`` inside ``scurve``,
``asym.pn_relative_error`` inside ``verify``) therefore show up as child
spans without any change to the library.  Names bound with
``from .scurve import ...`` are wrapped again in the importing module.

Spans stay in memory and are written once, when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict

# Layers whose work the benchmark attributes; precision, serialize and cli
# do negligible work on the workloads and are left unwrapped.
TRACED_MODULES = ("opq", "oscillatory", "scurve", "asymptotics", "geometry", "verify")

# Leaf primitives left unwrapped: each runs thousands of times per
# branch-sign or cut-distance evaluation, and its time belongs to the self
# time of the caller the per-layer metrics name (branch_parity,
# nearest_on_polyline, q_sqrt, phi2_chord).
UNTRACED = {"geometry.as_complex_array", "geometry.segment_polyline_crossings",
            "geometry.segment_leftray_crossings", "geometry.cumulative_arclength",
            "geometry.max_segment_length", "scurve.w_chord", "scurve.q_sqrt_chord"}

# asymptotics binds these with ``from .scurve import ...``.
IMPORTED_BINDINGS = {"asymptotics": ("g_eval", "phi2_chord", "_require_off_cut")}


class Tracer:
    """Span recorder shared by every wrapper of one run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.spans: list = []          # (name_id, t0, t1, parent, outermost)
        self.keys: dict[int, tuple] = {}  # span index -> call key, for keyed spans
        self._stack: list[int] = []
        self._depth: list[int] = []    # per name id: active spans of that name
        # Converts a raw (start, end) pair to seconds; the run installs the
        # speed-corrected clock here once sampling has ended.
        self.duration = lambda t0, t1: t1 - t0

    def wrap(self, name: str, fn, key=None):
        """Return fn wrapped to record a span called `name`; key(*args) labels calls."""
        nid = len(self.names)
        self.names.append(name)
        self._depth.append(0)
        spans, stack, depth, keys = self.spans, self._stack, self._depth, self.keys
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            outermost = depth[nid] == 0
            if key is not None:
                keys[idx] = key(*args, **kwargs)
            stack.append(idx)
            depth[nid] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                depth[nid] -= 1
                stack.pop()
                spans[idx] = (nid, t0, t1, parent, outermost)

        return traced

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds s (outermost spans only) and self_s."""
        dur = [self.duration(t0, t1) for _, t0, t1, _, _ in self.spans]
        child = [0.0] * len(self.spans)
        for idx, (_, _, _, parent, _) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += dur[idx]
        table = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for idx, (nid, _, _, _, outermost) in enumerate(self.spans):
            row = table[self.names[nid]]
            row["calls"] += 1
            row["self_s"] += dur[idx] - child[idx]
            if outermost:
                row["s"] += dur[idx]
        return dict(table)

    def children_named(self, parent_name: str, child_name: str) -> int:
        """Number of `child_name` spans whose direct parent is a `parent_name` span."""
        ids = {n: i for i, n in enumerate(self.names)}
        p, c = ids.get(parent_name), ids.get(child_name)
        return sum(1 for nid, _, _, parent, _ in self.spans
                   if nid == c and parent >= 0 and self.spans[parent][0] == p)

    def keyed_calls(self, name: str) -> list:
        """[(key, seconds)] for the spans of `name` recorded with a key."""
        return [(self.keys[i], self.duration(self.spans[i][1], self.spans[i][2]))
                for i in sorted(self.keys) if self.names[self.spans[i][0]] == name]

    def write(self, path, extra: dict) -> None:
        """Dump every span plus the summary as one JSON document."""
        doc = {"run_id": self.run_id, "names": self.names,
               "spans": [list(s) for s in self.spans],
               "summary": self.summary(), **extra}
        with open(path, "w") as fh:
            json.dump(doc, fh)


# Spans that also record a key per call, for distinct-key ratios and the
# baseline cross-check.
KEYS = {
    "opq.build_rule": lambda n, spec, ctx=None: (
        n, spec.r, None if ctx is None else ctx.decimal_digits),
    "oscillatory.laguerre_rule": lambda n, ctx=None: (n,),
    "oscillatory.evaluate_report": lambda spec, n_endpoint, n_stationary, ctx=None: (
        spec.r, n_endpoint, n_stationary),
}


def install(tracer: Tracer, package) -> None:
    """Wrap the public functions of the traced layers of an imported oscgauss."""
    wrapped = {}
    for short in TRACED_MODULES:
        module = getattr(package, short)
        for name, fn in list(vars(module).items()):
            if name.startswith("_") or not inspect.isfunction(fn) \
                    or fn.__module__ != module.__name__:
                continue
            span = f"{short}.{name}"
            if span in UNTRACED:
                continue
            wrapped[fn] = tracer.wrap(span, fn, KEYS.get(span))
            setattr(module, name, wrapped[fn])
    for short, names in IMPORTED_BINDINGS.items():
        module = getattr(package, short)
        for name in names:
            fn = getattr(module, name)
            if fn not in wrapped:
                wrapped[fn] = tracer.wrap(f"{fn.__module__.rsplit('.', 1)[-1]}.{name}", fn)
            setattr(module, name, wrapped[fn])
    # run_suite dispatches through this table, not through module attributes.
    runners = package.verify._RUNNERS
    for suite, fn in list(runners.items()):
        runners[suite] = tracer.wrap(f"verify.{suite}", fn)
