"""Save and compare the CLI's outputs at default argv.

    PYTHONPATH=src python tools/outputs.py --save DIR
    python tools/outputs.py --diff A B
    PYTHONPATH=src python tools/outputs.py --fingerprint FILE

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

`--fingerprint` runs the same save into a temporary directory and writes
FILE, a JSON summary of every file, small enough to commit: the exit
code, the text of stderr and of the chart file, every key of
`report.txt`, and for a CSV its header, its row count and per column
either max |v| and sum |v| (a numeric column) or the cells (any other).
`matches` compares a summary with a committed one: index columns and
text exactly, numbers within `RTOL` and `ATOL`.  A Tier-1 test
(`tests/test_outputs_tool.py`) runs it over the 70 runs, and

    PYTHONPATH=src python tools/outputs.py --fingerprint tests/outputs_fingerprint.json

rewrites the committed file after a change that moves an output.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import sys
import tempfile
import warnings
from pathlib import Path

VERBS = (
    "validate", "geodesic", "exp", "transport", "jacobi",
    "curvature", "oneill", "divergence", "hamcheck", "variation-check",
)
TWISTED = "twisted"
# a fingerprint number moves by at most RTOL of its own size plus ATOL (per
# cell summed): the largest moves that earlier changes recorded were a few
# ulps of O(1) values and 2.2e-15 on a residual of 1.6e-5, while a column
# scaled by 1 + 1e-8 moves 1e4 times RTOL
RTOL, ATOL = 1e-12, 1e-14
INDEX = ("i", "j", "k", "l", "level")  # CSV columns of tensor indices and mesh levels: exact


def _to_stderr(message, category, filename, lineno, file=None, line=None):
    sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))


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
                    # stderr gets the warnings also where a caller records them
                    warnings.showwarning = _to_stderr
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


def _column(cells):
    """The fingerprint of one CSV column: [max |v|, sum |v|] where every
    cell is a finite number, else the cells themselves."""
    values = [_number(c) for c in cells]
    if None in values or not all(map(math.isfinite, values)):
        return cells
    return [max(map(abs, values), default=0.0), math.fsum(map(abs, values))]


def fingerprint(root):
    """The fingerprint of every file under a `save` directory, keyed by its
    path there."""
    root, out = Path(root), {}
    for p in sorted(root.rglob("*")):
        if not p.is_file():
            continue
        text, name = p.read_text(encoding="utf-8"), p.name
        if name == "exit":
            entry = int(text)
        elif name == "report.txt":
            entry = dict(line.split("=", 1) for line in text.splitlines())
        elif name.endswith(".csv"):
            header, rows = _table(text, name)
            entry = {"header": header, "rows": len(rows),
                     "columns": [_column([row[k] for row in rows]) for k in range(len(header))]}
        else:
            entry = text
        out[p.relative_to(root).as_posix()] = entry
    return out


def _close(a, b, cells=1):
    return abs(a - b) <= RTOL * abs(a) + ATOL * cells


def _same_value(a, b):
    """Whether two report values agree: numbers within the tolerance, item
    by item in a comma list, any other text exactly."""
    a, b = a.split(","), b.split(",")
    if len(a) != len(b):
        return False
    for s, t in zip(a, b):
        u, v = _number(s), _number(t)
        if s != t and (u is None or v is None or not _close(u, v)):
            return False
    return True


def _same_column(name, u, v, rows):
    """Whether two column fingerprints agree: numbers within the tolerance,
    an index column or cells exactly."""
    if name in INDEX or not u or isinstance(u[0], str):
        return u == v
    return isinstance(v[0], float) and _close(u[0], v[0]) and _close(u[1], v[1], rows)


def _same_entry(a, b):
    if isinstance(a, dict) and "columns" in a:
        return (isinstance(b, dict) and (a["header"], a["rows"]) == (b.get("header"), b.get("rows"))
                and all(map(_same_column, a["header"], a["columns"], b["columns"], [a["rows"]] * len(a["header"]))))
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(_same_value(a[k], b[k]) for k in a)
    return a == b


def matches(reference, got):
    """The paths whose fingerprint in `got` differs from `reference` beyond
    the tolerance, or is on one side only; empty where all agree."""
    keys = sorted(reference.keys() | got.keys())
    return [k for k in keys if k not in reference or k not in got or not _same_entry(reference[k], got[k])]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--save", metavar="DIR", help="run every verb on every chart into DIR")
    group.add_argument("--diff", nargs=2, metavar=("A", "B"), help="compare two saved directories")
    group.add_argument("--fingerprint", metavar="FILE", help="write the fingerprint of a save to FILE")
    args = parser.parse_args(argv)
    if args.save:
        save(args.save)
        return 0
    if args.fingerprint:
        with tempfile.TemporaryDirectory() as tmp:
            save(tmp)
            prints = fingerprint(tmp)
        # one line a file, so a rewrite diffs file by file
        lines = (f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in prints.items())
        Path(args.fingerprint).write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
        return 0
    return 0 if diff(*args.diff) else 1


if __name__ == "__main__":
    raise SystemExit(main())
