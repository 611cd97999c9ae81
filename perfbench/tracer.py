"""Spans around the public functions of each algebroid module.

`Tracer.install()` replaces every public function of the package modules,
in every module namespace that imported it, and the hot class methods
(`Expression.eval_raw`, `MetricField.eval`, `AlgebroidChart.eval_anchor`,
`AlgebroidChart.eval_bracket`, `APath.eval`) with wrappers that record one
span per call: name, parent span, task id, start, end, leading batch size
and whether an exception escaped.  `uninstall()` puts the originals back.

Spans live in flat typed arrays while the run lasts; `save()` writes them
out at the end.  A span's self time is its duration minus the durations of
its direct children (single thread, so children never overlap).

The private RK4 core `paths._rk4` gets a counting wrapper instead of a
span: it counts steps (attributed to the span that called it) and
right-hand-side evaluations, so the geodesic/transport/Jacobi spans keep
the integrator arithmetic in their own self time.
"""

from __future__ import annotations

import collections
import importlib
import inspect
import math
import sys
import time
from array import array

import numpy as np

# Modules whose public functions become spans.  `sampling` stays untraced:
# it only draws inputs and is charged to its caller.
MODULES = (
    "expressions",
    "charts",
    "metric",
    "paths",
    "variations",
    "splitting",
    "hamiltonian",
    "catalog",
    "chartfile",
    "cli",
)

# (module, class, method, span name); the batch is the first argument
METHODS = (
    ("expressions", "Expression", "eval_raw", "expressions.eval_raw"),
    ("metric", "MetricField", "eval", "metric.MetricField.eval"),
    ("charts", "AlgebroidChart", "eval_anchor", "charts.eval_anchor"),
    ("charts", "AlgebroidChart", "eval_bracket", "charts.eval_bracket"),
    ("paths", "APath", "eval", "paths.APath.eval"),
)

# module-level functions whose batch size is worth recording
BATCH_ARG = {
    "metric.christoffel": 2,
    "metric.curvature": 2,
    "metric.fiber_inner": 1,
    "paths.geodesic_rhs": 2,
}

# constructors whose result size is counted: mesh nodes (eps rows x times)
MESH_RESULT = ("variations.make_geodesic_pencil", "variations.make_fixed_endpoint_homotopy")

TASK = "task"


def _leading(a):
    """Number of points in a (..., n) batch (1 for a single point)."""
    return math.prod(np.shape(a)[:-1])


def _count(a):
    """Number of times in a scalar or array of times."""
    return int(np.size(a))


class Tracer:
    def __init__(self):
        self.names = [TASK]
        self._ids = {TASK: 0}
        self.name = array("i")
        self.parent = array("i")
        self.task = array("i")
        self.start = array("d")
        self.end = array("d")
        self.points = array("q")
        self.raised = array("b")
        self.counters = collections.Counter()
        self.rk4_steps_at = collections.Counter()  # span index -> RK4 steps
        self._stack = [-1]
        self._task = -1
        self._restore = []

    # -- recording ----------------------------------------------------------

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid, points):
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.task.append(self._task)
        self.points.append(points)
        self.start.append(0.0)
        self.end.append(0.0)
        self.raised.append(0)
        self._stack.append(idx)
        return idx

    def _close(self, idx, t0, raised):
        self.end[idx] = time.perf_counter()
        self.start[idx] = t0
        self.raised[idx] = raised
        self._stack.pop()

    def begin_task(self, task_id):
        """Open the root span of one task; returns its span index."""
        self._task = task_id
        idx = self._open(0, 1)
        self.start[idx] = time.perf_counter()
        return idx

    def end_task(self, idx, failed):
        self._close(idx, self.start[idx], 1 if failed else 0)
        self._task = -1

    def _wrap(self, fn, name, points_of=None, on_call=None, on_result=None):
        nid = self._name_id(name)
        tracer = self

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            idx = tracer._open(nid, points_of(args) if points_of else 0)
            t0 = time.perf_counter()
            raised = 1
            try:
                result = fn(*args, **kwargs)
                raised = 0
            finally:
                tracer._close(idx, t0, raised)
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def _wrap_rk4(self, fn):
        tracer = self
        counters = self.counters

        def counted_rk4(f, ts, y0, on_node=None):
            steps = len(ts) - 1
            counters["paths.rk4_steps"] += steps
            tracer.rk4_steps_at[tracer._stack[-1]] += steps

            def rhs(t, y):
                counters["paths.rhs_evals"] += 1
                return f(t, y)

            return fn(rhs, ts, y0, on_node)

        counted_rk4.__wrapped__ = fn
        return counted_rk4

    def _count_order2(self, args, kwargs):
        order = kwargs.get("order", args[2] if len(args) > 2 else 0)
        if order >= 2:
            self.counters["expressions.eval_raw.order2_calls"] += 1

    def _count_mesh(self, grid):
        self.counters["variations.mesh_points"] += grid.x.shape[0] * grid.x.shape[1]

    # -- installation -------------------------------------------------------

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every public function in every namespace that holds it."""
        package = importlib.import_module("algebroid")
        mods = {m: importlib.import_module(f"algebroid.{m}") for m in MODULES}
        namespaces = [package] + [
            mod for key, mod in sorted(sys.modules.items())
            if key.startswith("algebroid.") and mod is not None
        ]
        replace = {}
        for short, mod in mods.items():
            for attr, fn in vars(mod).items():
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    name = f"{short}.{attr}"
                    arg = BATCH_ARG.get(name)
                    points_of = (lambda a, i=arg: _leading(a[i])) if arg else None
                    on_result = self._count_mesh if name in MESH_RESULT else None
                    replace[id(fn)] = (fn, self._wrap(fn, name, points_of, on_result=on_result))
        rk4 = mods["paths"]._rk4
        replace[id(rk4)] = (rk4, self._wrap_rk4(rk4))
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(ns, attr, hit[1])
        for short, cls_name, meth, name in METHODS:
            cls = getattr(mods[short], cls_name)
            measure = _count if name == "paths.APath.eval" else _leading
            on_call = self._count_order2 if name == "expressions.eval_raw" else None
            wrapped = self._wrap(cls.__dict__[meth], name, lambda a, m=measure: m(a[1]), on_call)
            self._set(cls, meth, wrapped)

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- analysis -----------------------------------------------------------

    def arrays(self):
        """The spans as numpy columns, plus derived duration and self time."""
        cols = {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "task": np.frombuffer(self.task, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "points": np.frombuffer(self.points, dtype=np.int64).copy(),
            "raised": np.frombuffer(self.raised, dtype=np.int8).copy(),
        }
        dur = cols["end"] - cols["start"]
        child = np.zeros_like(dur)
        has_parent = cols["parent"] >= 0
        np.add.at(child, cols["parent"][has_parent], dur[has_parent])
        cols["duration"] = dur
        cols["self"] = dur - child
        steps = np.zeros(len(dur), dtype=np.int64)
        for idx, count in self.rk4_steps_at.items():
            if idx >= 0:
                steps[idx] = count
        cols["rk4_steps"] = steps
        return cols

    def save(self, path, **extra):
        np.savez_compressed(path, names=np.array(self.names), **self.arrays(), **extra)


def layer_metrics(cols, names, counters, ntasks):
    """Per-task layer figures from the spans of `ntasks` traced tasks.

    For every span name S: `S.calls`, `S.points`, `S.self_s` (per task),
    `S.points_per_call` and `S.us_per_point` (inclusive time per point).
    Per module M: `M.self_s` and `M.errors`, the exceptions that escaped
    a span of M into a caller outside M.  Counters and the ratios the
    benchmark names come on top; a ratio with a zero base reads 0.
    """
    k = len(names)
    name = cols["name"]
    calls = np.bincount(name, minlength=k).astype(float)
    points = np.bincount(name, weights=cols["points"], minlength=k)
    self_s = np.bincount(name, weights=cols["self"], minlength=k)
    incl = np.bincount(name, weights=cols["duration"], minlength=k)

    def ratio(a, b):
        return float(a / b) if b else 0.0

    out = {}
    for i, span in enumerate(names):
        out[f"{span}.calls"] = calls[i] / ntasks
        out[f"{span}.points"] = points[i] / ntasks
        out[f"{span}.self_s"] = self_s[i] / ntasks
        out[f"{span}.points_per_call"] = ratio(points[i], calls[i])
        out[f"{span}.us_per_point"] = 1e6 * ratio(incl[i], points[i])

    module = np.array([n.split(".")[0] for n in names])
    span_mod = module[name]
    parent = cols["parent"]
    parent_mod = np.where(parent >= 0, span_mod[np.maximum(parent, 0)], "")
    escaped = (cols["raised"] == 1) & (parent_mod != span_mod)
    for short in MODULES:
        mine = span_mod == short
        out[f"{short}.self_s"] = float(cols["self"][mine].sum()) / ntasks
        out[f"{short}.errors"] = float(np.count_nonzero(escaped & mine)) / ntasks

    steps = counters["paths.rk4_steps"]
    out["paths.rk4_steps"] = steps / ntasks
    out["paths.rhs_evals_per_step"] = ratio(counters["paths.rhs_evals"], steps)
    for key in ("expressions.eval_raw.order2_calls", "variations.mesh_points"):
        out[key] = counters[key] / ntasks

    ids = {n: i for i, n in enumerate(names)}
    ch = name == ids["metric.christoffel"]
    out["metric.christoffel.calls_per_step"] = ratio(np.count_nonzero(ch), steps)
    for label, mask in (("single", ch & (cols["points"] == 1)), ("batched", ch & (cols["points"] > 1))):
        out[f"metric.christoffel.us_per_point_{label}"] = 1e6 * ratio(
            cols["duration"][mask].sum(), cols["points"][mask].sum()
        )
    geo = name == ids["paths.geodesic_integrate"]
    out["paths.geodesic_integrate.ms_per_step"] = 1e3 * ratio(
        cols["duration"][geo].sum(), cols["rk4_steps"][geo].sum()
    )
    return out
