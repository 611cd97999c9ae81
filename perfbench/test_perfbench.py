"""Self-tests of the benchmark: traced counts, digests, span bookkeeping.

    python3 -m pytest perfbench -q

Each test runs `perfbench/run.py` in a subprocess for a second or two, so
the suite takes about a minute.  Counts are compared exactly; times are
only checked for consistency with each other.
"""

import importlib.util
import json
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
OUT = ROOT / ".perfbench_out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNT_UNITS = ("calls/task", "points/task", "steps/task", "errors/task", "calls/step", "evals/step", "points/call")

_runs = {}


def bench(workload, seed, trace, seconds=1, repeat=0):
    """Run the benchmark once (memoized); returns (result line, summary file, spans)."""
    key = (workload, seed, trace, seconds, repeat)
    if key not in _runs:
        cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        summary = json.loads((OUT / f"result-{workload}-trace{trace}.json").read_text())
        spans = None
        if trace:
            with np.load(OUT / f"spans-{workload}.npz") as data:
                spans = {k: data[k] for k in data.files}
        _runs[key] = (result, summary, spans)
    return _runs[key]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_and_digest_repeat(workload):
    first, s1, _ = bench(workload, 11, 1, repeat=0)
    second, s2, _ = bench(workload, 11, 1, repeat=1)
    assert first["correct"] and second["correct"]
    assert first["failed"] == 0
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    counts = [k for k, v in first["metrics"].items() if v["unit"] in COUNT_UNITS]
    assert counts
    for k in counts:
        assert first["metrics"][k]["value"] == second["metrics"][k]["value"], k
    assert s1["digest"] == s2["digest"]


def test_untraced_digest_repeats_and_reports_end_to_end():
    first, s1, _ = bench("pointwise_checks", 5, 0)
    second, s2, _ = bench("pointwise_checks", 5, 0, repeat=1)
    assert first["correct"] and second["correct"]
    assert s1["digest"] == s2["digest"]
    assert set(first["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in first["metrics"].values())
    # the untraced digest covers the same tasks as the traced one
    _, traced, _ = bench("pointwise_checks", 5, 1)
    assert traced["digest"] == s1["digest"]


def test_counts_match_the_stated_sizes():
    result, _, _ = bench("geodesic_fan", 11, 1)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["paths.rk4_steps"] == 200
    assert m["paths.rhs_evals_per_step"] == pytest.approx(4.005)
    assert 3.9 < m["metric.christoffel.calls_per_step"] < 4.1
    assert m["metric.christoffel.points_per_call"] == 1

    result, _, spans = bench("variation_mesh", 11, 1)
    # per cycle: three 21 x 21 pencils and six 5 x 100 homotopies
    assert result["metrics"]["variations.mesh_points"]["value"] == pytest.approx((3 * 441 + 6 * 500) / 9)
    names = list(spans["names"])
    parent = spans["parent"]
    ccr = names.index("variations.curvature_commutation_residual")

    def under_ccr(i):
        while i >= 0:
            if spans["name"][i] == ccr:
                return True
            i = parent[i]
        return False

    for label in ("metric.christoffel", "metric.curvature"):
        idx = [i for i in np.nonzero(spans["name"] == names.index(label))[0] if under_ccr(parent[i])]
        assert idx, label
        assert set(spans["points"][idx]) == {441}, label


def test_self_times_add_up_to_task_wall_time():
    _, _, spans = bench("path_flows", 11, 1)
    root = spans["name"] == 0
    per_task = np.bincount(spans["task"], weights=spans["self"])
    assert per_task == pytest.approx(spans["duration"][root], rel=1e-9)
    # the root span sits inside the task's own clock; the gap is bookkeeping
    gap = spans["task_wall"] - spans["duration"][root]
    assert np.all(gap >= 0)
    assert np.all(gap < 0.02 * spans["task_wall"])


def test_raising_and_warning_tasks_count_as_failed():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    from workloads import Task

    def raises():
        raise ZeroDivisionError("boom")

    def warns():
        warnings.warn("mesh too coarse")
        return [np.zeros(2)], []

    _, failed, _ = run.execute(np, Task("k", "c", raises))
    assert failed == ["raised ZeroDivisionError: boom"]
    _, failed, _ = run.execute(np, Task("k", "c", warns))
    assert failed == ["warned: mesh too coarse"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for f in (ROOT / "perfbench").glob("*.py"):
        shutil.copy(f, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "geodesic_fan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
