"""Save and compare the CLI's outputs at default argv.

    PYTHONPATH=src python tools/outputs.py --save DIR
    python tools/outputs.py --diff A B

`--save` runs the ten verbs on the six catalog charts and on
`algebroid.catalog.twisted` (written to DIR as a chart file), all in one
process.  Each run gets the directory DIR/VERB/CHART with the files the
CLI wrote, `report.txt` without its `wall_time_s` line, what the run
wrote to stderr, and its exit code in `exit`.  The runs go through
`algebroid.cli.main` from inside DIR, so no path of the machine reaches
the files.

`--diff` prints one line per file of A or B: identical, the largest
|difference| of a numeric file (absolute, and relative to the largest
|value| of that column in A), a shape change, a changed exit code, or a
file on one side only.  It exits 0 iff every file is identical.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import math
import os
import sys
import warnings
from pathlib import Path

VERBS = (
    "validate", "geodesic", "exp", "transport", "jacobi",
    "curvature", "oneill", "divergence", "hamcheck", "variation-check",
)
TWISTED = "twisted"


def save(out, charts=None, verbs=VERBS):
    """Run every verb of `verbs` on every chart name of `charts` (default:
    the catalog and the twisted chart) and write the runs under `out`."""
    from algebroid import catalog, cli
    from algebroid.chartfile import dumps_chart

    charts = list(catalog.names()) + [TWISTED] if charts is None else charts
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    if TWISTED in charts:
        entry = catalog.twisted()
        text = dumps_chart(entry.chart, entry.metric)
        (out / f"{TWISTED}.chart").write_text(text, encoding="utf-8")
    here = os.getcwd()
    os.chdir(out)
    try:
        for verb in verbs:
            for name in charts:
                source = ["--chart", f"{TWISTED}.chart"] if name == TWISTED else ["--catalog", name]
                run_dir = Path(verb, name)
                err = io.StringIO()
                # a fresh filter list per run, so each run shows its warnings
                # as it would in a process of its own
                with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(err):
                    warnings.simplefilter("default")
                    code = cli.main([verb, *source, "--out", str(run_dir)])
                report = run_dir / "report.txt"
                if report.exists():
                    lines = report.read_text(encoding="utf-8").splitlines(keepends=True)
                    report.write_text(
                        "".join(l for l in lines if not l.startswith("wall_time_s=")), encoding="utf-8"
                    )
                (run_dir / "stderr.txt").write_text(err.getvalue(), encoding="utf-8")
                (run_dir / "exit").write_text(f"{code}\n", encoding="utf-8")
    finally:
        os.chdir(here)


def _table(text, name):
    """(column names, rows) of a CSV, or of a report's key=value lines as
    one row; None for any other file."""
    lines = text.splitlines()
    if name.endswith(".csv") and lines:
        return lines[0].split(","), [line.split(",") for line in lines[1:]]
    if name == "report.txt":
        pairs = [line.partition("=") for line in lines]
        return [k for k, _, _ in pairs], [[v for _, _, v in pairs]]
    return None


def _number(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def compare(a_text, b_text, name):
    """One line on how the file `name` moved from a_text to b_text."""
    if a_text == b_text:
        return "identical"
    if name == "exit":
        return f"exit code {a_text.strip()} -> {b_text.strip()}"
    a, b = _table(a_text, name), _table(b_text, name)
    if a is None or b is None:
        return "text differs"
    (ha, ra), (hb, rb) = a, b
    if ha != hb or len(ra) != len(rb) or any(len(x) != len(y) for x, y in zip(ra, rb)):
        return f"shape change: {len(ha)}x{len(ra)} -> {len(hb)}x{len(rb)}"
    worst, worst_rel, where, texts = 0.0, 0.0, None, 0
    for col, column in enumerate(ha):
        pairs = [(_number(x[col]), _number(y[col]), x[col], y[col]) for x, y in zip(ra, rb)]
        scale = max((abs(u) for u, _, _, _ in pairs if u is not None and math.isfinite(u)), default=0.0)
        for u, v, s, t in pairs:
            if s == t:
                continue
            if u is None or v is None:
                texts += 1
                continue
            d = abs(u - v) if math.isfinite(u) and math.isfinite(v) else math.inf
            rel = d / scale if scale > 0 else math.inf
            if d > worst or (d == worst and rel > worst_rel):
                worst, worst_rel, where = d, rel, column
    parts = [f"max |d| {worst:.3g} (rel {worst_rel:.3g}, column {where})"] if where is not None else []
    if texts:
        parts.append(f"{texts} text cells differ")
    return "; ".join(parts)


def diff(a, b, stream=None):
    """Print how every file under a moved in b; True iff all are identical."""
    a, b, stream = Path(a), Path(b), stream or sys.stdout
    files = sorted({p.relative_to(root) for root in (a, b) for p in root.rglob("*") if p.is_file()})
    same = True
    for rel in files:
        pa, pb = a / rel, b / rel
        if not pa.exists() or not pb.exists():
            line = f"only in {a if pa.exists() else b}"
        else:
            line = compare(pa.read_text(encoding="utf-8"), pb.read_text(encoding="utf-8"), rel.name)
        same = same and line == "identical"
        stream.write(f"{rel.as_posix()}: {line}\n")
    stream.write(f"{len(files)} files, {'all identical' if same else 'some moved'}\n")
    return same


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--save", metavar="DIR", help="run every verb on every chart into DIR")
    group.add_argument("--diff", nargs=2, metavar=("A", "B"), help="compare two saved directories")
    args = parser.parse_args(argv)
    if args.save:
        save(args.save)
        return 0
    return 0 if diff(*args.diff) else 1


if __name__ == "__main__":
    raise SystemExit(main())
