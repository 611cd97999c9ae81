"""Closed-loop benchmark of the algebroid package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/`.  One process, one client: each task starts when the previous one
has finished.  The workloads, their metrics and the bounds live in
BENCHMARK.json; `perfbench/NOTES.md` explains them.

Times are calibrated for the speed of the shared host: a fixed reference
computation (`probe.py`) is timed between consecutive tasks (and around
each set-up), and a task's wall time is multiplied by PROBE_REF_S over the
mean probe time on either side of it.  The uncalibrated wall-clock figures
are printed too and kept in the result file.

--trace 0 reports the end-to-end metrics.  --trace 1 spends the first half
of the run untraced and the second half with a span around every public
function of the package, then reports the per-layer metrics (per task),
the tracing overhead and a per-chart cross-check, and writes the spans to
`.perfbench_out/spans-<workload>.npz`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  A task fails when its
oracle check fails, when it raises or when it warns; `correct` is false
when any task failed or when the determinism digest of the first cycles
differs from an earlier run of the same code and seed in this checkout.
"""

import time

T_PROCESS = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

# one process and no extra threads: pin the BLAS pools before numpy loads
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

from probe import speed, warm_probe  # noqa: E402  (perfbench/ is on sys.path)

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3  # set-up is repeated and its median reported
DIGEST_CYCLES = 2  # every phase runs at least this many whole cycles
MIN_SAMPLES = 100  # fewer task times than this leave p90 with < 10 beyond it


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def source_files():
    files = sorted((ROOT / "src" / "algebroid").glob("*.py"))
    return files + sorted((ROOT / "perfbench").glob("*.py"))


def code_id():
    h = hashlib.sha256()
    for f in source_files():
        h.update(f.relative_to(ROOT).as_posix().encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def process_threads():
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("Threads:"):
            return int(line.split()[1])
    return -1


def provenance(np, seed):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "process_threads": process_threads(),
        "seed": seed,
        "git_commit": git_commit(),
        "code_sha256": code_id(),
    }


def hash_outputs(np, task, failed, outputs):
    h = hashlib.sha256(f"{task.kind}|{task.chart}|{sorted(failed)}".encode())
    for item in outputs:
        if isinstance(item, Path):  # CLI task: the CSV bytes
            for f in sorted(item.glob("*.csv")):
                h.update(f.name.encode() + b"\0" + f.read_bytes())
        else:
            a = np.ascontiguousarray(item, dtype=float)
            h.update(repr(a.shape).encode() + a.tobytes())
    return h.hexdigest()


def execute(np, task, tracer=None, task_id=-1):
    """Run one task; returns (seconds, failed checks, output hash)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        span = tracer.begin_task(task_id) if tracer else None
        try:
            outputs, failed = task.run()
        except Exception as exc:  # every raise is a failed task, never a crash
            outputs, failed = [], [f"raised {type(exc).__name__}: {exc}"]
        if tracer:
            tracer.end_task(span, failed or caught)
        dt = time.perf_counter() - t0
    failed = list(failed) + [f"warned: {w.message}" for w in caught]
    return dt, failed, hash_outputs(np, task, failed, outputs)


def run_phase(np, workload, state, seconds, tracer=None):
    """Whole cycles of tasks until `seconds` have passed (and at least
    DIGEST_CYCLES cycles); one record per task.  A warm probe runs between
    consecutive tasks, and each task's host speed comes from the probes on
    either side of it."""
    records = []
    probes = [warm_probe()]
    t_start = time.perf_counter()
    cycle = 0
    while cycle < DIGEST_CYCLES or time.perf_counter() - t_start < seconds:
        for slot, task in enumerate(workload.tasks(state, cycle)):
            dt, failed, digest = execute(np, task, tracer, len(records))
            probes.append(warm_probe())
            records.append({
                "cycle": cycle, "slot": slot, "kind": task.kind, "chart": task.chart,
                "seconds": dt, "failed": failed, "hash": digest,
            })
        cycle += 1
    for r, before, after in zip(records, probes, probes[1:]):
        r["speed"] = speed(before, after)
    return records


def digest_of(records):
    h = hashlib.sha256()
    for r in records:
        if r["cycle"] < DIGEST_CYCLES:
            h.update(r["hash"].encode())
    return h.hexdigest()


def check_digest(workload, seed, code, digest):
    """Compare with the digest an earlier run of the same code and seed
    stored in this checkout; store it when there is none."""
    store = OUT / "digests.json"
    known = json.loads(store.read_text()) if store.is_file() else {}
    key = f"{workload}/seed={seed}/code={code[:16]}"
    previous = known.get(key)
    if previous is None:
        known[key] = digest
        tmp = store.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
        os.replace(tmp, store)
        return True
    return previous == digest


def by_type(np, records):
    groups = {}
    for r in records:
        groups.setdefault(f"{r['kind']}/{r['chart']}", []).append(r["seconds"])
    return {k: {"n": len(v), "p50_s": float(np.median(v))} for k, v in sorted(groups.items())}


def chart_breakdown(np, cols, names, records):
    """Per-chart figures for the cross-check against the ROADMAP baseline
    (times include the tracing overhead)."""
    ids = {n: i for i, n in enumerate(names)}
    chart_of_task = np.array([r["chart"] for r in records])
    task = cols["task"]
    out = {}
    for chart in sorted(set(chart_of_task)):
        in_chart = np.isin(task, np.nonzero(chart_of_task == chart)[0])
        row = {}
        geo = in_chart & (cols["name"] == ids["paths.geodesic_integrate"])
        if cols["rk4_steps"][geo].sum():
            row["geodesic_ms_per_rk4_step"] = 1e3 * cols["duration"][geo].sum() / cols["rk4_steps"][geo].sum()
        for span in ("metric.christoffel", "metric.curvature"):
            mine = in_chart & (cols["name"] == ids[span])
            for label, mask in (("single", mine & (cols["points"] == 1)), ("batched", mine & (cols["points"] > 1))):
                if mask.any():
                    row[f"{span}.us_per_point_{label}"] = 1e6 * cols["duration"][mask].sum() / cols["points"][mask].sum()
                    row[f"{span}.calls_{label}"] = int(np.count_nonzero(mask))
        out[chart] = row
    return out


def main(argv=None):
    args = parse_args(argv)
    package = ROOT / "src" / "algebroid" / "__init__.py"
    spec_file = ROOT / "BENCHMARK.json"
    if not package.is_file() or not spec_file.is_file():
        sys.stderr.write(f"error: run from a source checkout; {package} or {spec_file} is missing\n")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import algebroid
    from tracer import Tracer, layer_metrics
    from workloads import WORKLOADS

    if Path(algebroid.__file__).resolve() != package.resolve():
        sys.stderr.write(f"error: imported {algebroid.__file__}, not {package}\n")
        return 2
    if args.workload not in WORKLOADS:
        sys.stderr.write(f"error: unknown workload {args.workload!r}; have {', '.join(WORKLOADS)}\n")
        return 2
    spec = json.loads(spec_file.read_text())
    import_s = time.perf_counter() - T_PROCESS

    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    problems = []
    try:
        setups, setup_speeds = [], []
        probes = [warm_probe()]
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir()
            t0 = time.perf_counter()
            state = workload.build(args.seed, workdir)
            _, failed, _ = execute(np, workload.tasks(state, 0)[0])  # warm-up
            setups.append(time.perf_counter() - t0)
            probes.append(warm_probe())
            setup_speeds.append(speed(probes[-2], probes[-1]))
            problems += [f"warm-up: {f}" for f in failed]
        setup_wall = import_s + float(np.median(setups))
        setup_s = import_s * speed(probes[0], probes[0]) + float(np.median(np.multiply(setups, setup_speeds)))

        seconds = args.seconds / 2 if args.trace else args.seconds
        records = run_phase(np, workload, state, seconds)
        extra = {}
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_phase(np, workload, state, seconds, tracer)
            finally:
                tracer.uninstall()
            untraced_by_slot = {(r["cycle"], r["slot"]): r["hash"] for r in records}
            for r in traced:
                h = untraced_by_slot.get((r["cycle"], r["slot"]))
                if h is not None and h != r["hash"]:
                    problems.append(f"traced output differs: cycle {r['cycle']} {r['kind']}/{r['chart']}")
            cols = tracer.arrays()
            metrics = layer_metrics(cols, tracer.names, tracer.counters, len(traced))
            tps_plain, tps_traced = (
                len(recs) / sum(r["seconds"] * r["speed"] for r in recs) for recs in (records, traced)
            )
            metrics["trace.tasks"] = float(len(traced))
            metrics["trace.tasks_per_s_untraced"] = tps_plain
            metrics["trace.tasks_per_s_traced"] = tps_traced
            metrics["trace.overhead_pct"] = 100.0 * (1.0 - tps_traced / tps_plain)
            wall = np.array([r["seconds"] for r in traced])
            metrics["trace.unattributed_s"] = metrics["task.self_s"]
            metrics["trace.self_sum_gap_pct"] = 100.0 * abs(cols["self"].sum() - wall.sum()) / wall.sum()
            extra["chart_breakdown"] = chart_breakdown(np, cols, tracer.names, traced)
            tracer.save(
                OUT / f"spans-{args.workload}.npz",
                task_kind=np.array([r["kind"] for r in traced]),
                task_chart=np.array([r["chart"] for r in traced]),
                task_wall=wall,
            )
            all_records = records + traced
        else:
            wall = np.array([r["seconds"] for r in records])
            times = wall * np.array([r["speed"] for r in records])
            passed = sum(1 for r in records if not r["failed"])
            metrics = {
                "setup_s": setup_s,
                "task_s.p50": float(np.percentile(times, 50)),
                "task_s.p90": float(np.percentile(times, 90)),
                "tasks_per_s": len(records) / float(times.sum()),
                "pass_ratio": passed / len(records),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            extra["wall_clock"] = {
                "setup_s": setup_wall,
                "task_s.p50": float(np.percentile(wall, 50)),
                "task_s.p90": float(np.percentile(wall, 90)),
                "tasks_per_s": len(records) / float(wall.sum()),
                "host_speed.p50": float(np.median([r["speed"] for r in records])),
            }
            all_records = records
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    prov = provenance(np, args.seed)
    if prov["blas_threads"] > prov["nproc"] or prov["process_threads"] != 1:
        problems.append(f"load is not one thread: {prov['blas_threads']} BLAS, {prov['process_threads']} in process")
    digest = digest_of(records)
    if not check_digest(args.workload, args.seed, prov["code_sha256"], digest):
        problems.append("determinism digest differs from an earlier run of this code and seed")
    failed_tasks = [r for r in all_records if r["failed"]]
    for r in failed_tasks[:20]:
        problems.append(f"task {r['kind']}/{r['chart']} cycle {r['cycle']}: {'; '.join(r['failed'])}")

    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise RuntimeError(f"benchmark computes no value for {missing}")
    reported = {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()}

    summary = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "samples": len(records) if not args.trace else len(traced),
        "digest": digest,
        "provenance": prov,
        "by_type": by_type(np, records if not args.trace else traced),
        "task_seconds": [r["seconds"] for r in (records if not args.trace else traced)],
        "host_speed": [r["speed"] for r in (records if not args.trace else traced)],
        "problems": problems,
        "metrics": reported,
        **extra,
    }
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(json.dumps(summary, indent=1))

    print(f"provenance: {json.dumps(prov, sort_keys=True)}")
    print(f"workload={args.workload} seed={args.seed} samples={summary['samples']} digest={digest}")
    for k, v in summary["by_type"].items():
        print(f"  task {k}: n={v['n']} p50={v['p50_s'] * 1e3:.3f} ms")
    for chart, row in extra.get("chart_breakdown", {}).items():
        print(f"  trace {chart}: " + ", ".join(f"{k}={v:.6g}" for k, v in row.items()))
    for k, v in reported.items():
        print(f"  {k} = {v['value']:.6g} {v['unit']}")
    print(f"  fail_ratio = {len(failed_tasks)}/{len(all_records)} tasks")
    for k, v in extra.get("wall_clock", {}).items():
        print(f"  wall clock, uncalibrated: {k} = {v:.6g}")
    if not args.trace and summary["samples"] < MIN_SAMPLES:
        sys.stderr.write(f"warning: only {summary['samples']} task times; p90 needs {MIN_SAMPLES}\n")
    for p in problems:
        sys.stderr.write(f"problem: {p}\n")
    result = {
        "correct": not problems,
        "attempted": len(all_records),
        "failed": len(failed_tasks),
        "metrics": reported,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
