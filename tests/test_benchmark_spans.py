"""Every per-layer figure of BENCHMARK.json named `<module>.<function>.<stat>`
needs a span of that function.  The traced benchmark run aborts with
"benchmark computes no value" when a traced public function is renamed or
made private; this test catches that in the default suite."""

import importlib.util
import json
from pathlib import Path

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
