"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1,2,3] [--seconds S]

Runs `perfbench/run.py --trace 0` once per (workload, seed), one after the
other, and prints for every end-to-end metric the median over seeds and
the spread: the distance between the first and third quartile
(`statistics.quantiles(values, n=4)`) as a share of the median.  A spread
is flagged when it is not below a third of the metric's bound in
BENCHMARK.json (setup_s is held to its bound on the median instead, so it
is only printed).  The raw values go to `.perfbench_out/spread.json`.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = p.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {}
    ok = True
    for workload in args.workloads.split(","):
        rows = values.setdefault(workload, {})
        for seed in seeds:
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            if result is None or not result["correct"]:
                ok = False
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                continue
            for name, m in result["metrics"].items():
                rows.setdefault(name, []).append(m["value"])
            print(f"{workload} seed={seed} attempted={result['attempted']} " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        for name, vals in rows.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            limit = bounds[name] / 3
            flag = "" if name == "setup_s" or spread < limit else "  <-- not below bound/3"
            ok = ok and bool(name == "setup_s" or spread < limit)
            print(f"  {workload} {name}: median={med:.6g} spread={spread:.4f} bound/3={limit:.4f}{flag}")
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    (out / "spread.json").write_text(json.dumps({"seeds": seeds, "seconds": args.seconds, "values": values}, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
