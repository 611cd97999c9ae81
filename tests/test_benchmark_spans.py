"""Every per-layer figure of BENCHMARK.json named `<module>.<function>.<stat>`
needs a span of that function.  The traced benchmark run aborts with
"benchmark computes no value" when a traced public function is renamed or
made private; this test catches that in the default suite, and the calls
the workloads make into the package are bound against its signatures."""

import ast
import importlib.util
import inspect
import json
from pathlib import Path

import numpy as np

from algebroid import catalog, chartfile, cli, paths, sampling, variations
from algebroid import metric as geometry

ROOT = Path(__file__).resolve().parents[1]


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_per_layer_function_has_a_span():
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    wanted = {m["name"].rsplit(".", 1)[0] for m in per_layer if m["name"].count(".") >= 2}
    assert "splitting.oneill_curvature_check" in wanted
    tracer = _tracer_module().Tracer()
    tracer.install()
    try:
        spans = set(tracer.names)
    finally:
        tracer.uninstall()
    assert sorted(wanted - spans) == []


def test_benchmark_calls_bind_to_the_package():
    """Every call the benchmark workloads make into the package, read from
    their source without importing it, binds to the current signature: a
    dropped parameter or a renamed keyword fails here, not in the run."""
    modules = {
        "paths": paths,
        "variations": variations,
        "geometry": geometry,
        "sampling": sampling,
        "catalog": catalog,
        "chartfile": chartfile,
        "cli": cli,
    }
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text(encoding="utf-8"))
    seen = 0
    for node in ast.walk(tree):
        func = getattr(node, "func", None)
        if not (
            isinstance(node, ast.Call)
            and isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in modules
        ):
            continue
        assert not any(isinstance(a, ast.Starred) for a in node.args), ast.unparse(node)
        assert all(k.arg is not None for k in node.keywords), ast.unparse(node)
        fn = getattr(modules[func.value.id], func.attr)
        signature = inspect.signature(fn)
        try:
            signature.bind(*node.args, **{k.arg: k.value for k in node.keywords})
        except TypeError as exc:
            raise AssertionError(f"line {node.lineno}: {ast.unparse(node)}: {exc}") from None
        seen += 1
    assert seen >= 20


def test_the_rk4_hook_the_tracer_wraps_keeps_its_parameters():
    """The tracer swaps the private RK4 core `paths._rk4` for a counting
    wrapper that forwards (f, ts, y0, on_node) by position; a renamed,
    reordered or dropped parameter would break every traced run that
    reaches it, and only then."""
    rk4 = paths._rk4
    assert list(inspect.signature(rk4).parameters) == ["f", "ts", "y0", "on_node"]
    ts, y0 = np.linspace(0.0, 1.0, 3), np.array([1.0, -0.5])
    nodes = []
    tracer = _tracer_module().Tracer()
    tracer.install()
    try:
        assert paths._rk4 is not rk4 and paths._rk4.__wrapped__ is rk4
        traced = paths._rk4(lambda j, y: -y, ts, y0, lambda k, *_: nodes.append(k))
    finally:
        tracer.uninstall()
    assert paths._rk4 is rk4
    for got, want in zip(traced, rk4(lambda j, y: -y, ts, y0)):
        np.testing.assert_array_equal(got, want)
    assert nodes == [0, 1, 2]
    assert tracer.counters["paths.rk4_steps"] == 2 and tracer.counters["paths.rhs_evals"] == 9
