"""Sectioned text format for chart + metric data.

The format is a minimal line-based key-value document (see
docs/chart_format.md for the grammar)::

    # comment
    [algebroid]
    n = 2
    r = 3
    domain = -2,2 ; -2,2
    b = 1, 0 ; 0, 1 ; 0, 0
    C 1,2,3 = 1
    [metric]
    g 1,1 = 1
    g 2,2 = 1
    g 3,3 = 1

`b` lists r rows of n comma-separated expressions; `C` entries require
s < t (the rest is filled by antisymmetry) and default to zero; `g`
entries are the upper triangle (off-diagonal defaults to zero, every
diagonal entry is required).  Expressions never contain ',' or ';', so
the separators are unambiguous.  Loader errors carry 1-based line numbers.
"""

from __future__ import annotations

import re

from .charts import AlgebroidChart
from .errors import InputError
from .metric import MetricField

__all__ = ["ChartFileError", "load_chart_file", "loads_chart", "dumps_chart"]


class ChartFileError(InputError):
    def __init__(self, message, line=None):
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{where}")
        self.line = line


_ENTRY_RE = re.compile(r"^(?P<key>[A-Za-z_]+)(?:\s+(?P<idx>[\d,\s]+?))?\s*=\s*(?P<val>.*)$")


def loads_chart(text):
    """Parse chart-file text; returns (AlgebroidChart, MetricField)."""
    section = None
    scalars = {}
    c_entries = {}
    g_entries = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if line not in ("[algebroid]", "[metric]"):
                raise ChartFileError(f"unknown section {line!r}", lineno)
            section = line[1:-1]
            continue
        if section is None:
            raise ChartFileError("content before any section header", lineno)
        m = _ENTRY_RE.match(line)
        if m is None:
            raise ChartFileError(f"cannot parse entry {line!r}", lineno)
        key, idx, val = m.group("key"), m.group("idx"), m.group("val").strip()
        if section == "algebroid":
            if key in ("n", "r", "domain", "b"):
                if idx is not None:
                    raise ChartFileError(f"{key!r} takes no indices", lineno)
                if key in scalars:
                    raise ChartFileError(f"duplicate {key!r}", lineno)
                if key in ("n", "r"):
                    _parse_int(val, lineno, key)
                scalars[key] = (val, lineno)
            elif key == "C":
                ids = _parse_indices(idx, 3, lineno, "C")
                if ids in c_entries:
                    raise ChartFileError(f"duplicate C {ids}", lineno)
                c_entries[ids] = (val, lineno)
            else:
                raise ChartFileError(f"unknown algebroid key {key!r}", lineno)
        else:
            if key != "g":
                raise ChartFileError(f"unknown metric key {key!r}", lineno)
            ids = _parse_indices(idx, 2, lineno, "g")
            if ids in g_entries:
                raise ChartFileError(f"duplicate g {ids}", lineno)
            g_entries[ids] = (val, lineno)

    for required in ("n", "r", "domain", "b"):
        if required not in scalars:
            raise ChartFileError(f"missing [algebroid] entry {required!r}")
    n = _parse_int(*scalars["n"], name="n")
    r = _parse_int(*scalars["r"], name="r")

    dom_text, dom_line = scalars["domain"]
    pairs = [p.strip() for p in dom_text.split(";")]
    if len(pairs) != n:
        raise ChartFileError(f"domain needs {n} 'lo,hi' pairs, got {len(pairs)}", dom_line)
    domain = []
    for p in pairs:
        try:
            lo, hi = map(float, p.split(","))
        except ValueError:
            raise ChartFileError(f"bad domain pair {p!r}", dom_line) from None
        domain.append((lo, hi))

    b_text, b_line = scalars["b"]
    rows = [row.strip() for row in b_text.split(";")]
    if len(rows) != r:
        raise ChartFileError(f"b needs {r} rows, got {len(rows)}", b_line)
    b = []
    for row in rows:
        cells = [c.strip() for c in row.split(",")]
        if len(cells) != n:
            raise ChartFileError(f"b row {row!r} needs {n} entries", b_line)
        b.append(cells)

    try:
        chart = AlgebroidChart(
            n=n,
            r=r,
            b=b,
            c_upper={k: v for k, (v, _) in c_entries.items()},
            domain=domain,
        )
    except InputError as exc:
        raise ChartFileError(f"bad algebroid data: {exc}") from exc

    if not g_entries:
        raise ChartFileError("missing [metric] section with g entries")
    try:
        metric = MetricField({k: v for k, (v, _) in g_entries.items()}, r=r, n=n)
    except InputError as exc:
        raise ChartFileError(f"bad metric data: {exc}") from exc
    return chart, metric


def _parse_indices(idx, count, lineno, key):
    parts = [] if idx is None else [p.strip() for p in idx.split(",")]
    if len(parts) != count:
        raise ChartFileError(f"{key} entry needs {count} indices", lineno)
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise ChartFileError(f"bad indices {idx!r}", lineno) from None


def _parse_int(text, lineno, name):
    try:
        value = int(text)
    except ValueError:
        raise ChartFileError(f"{name} must be an integer, got {text!r}", lineno) from None
    if value < 1:
        raise ChartFileError(f"{name} must be >= 1", lineno)
    return value


def load_chart_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return loads_chart(fh.read())


def dumps_chart(chart, metric):
    """Canonical chart-file text for a chart/metric pair."""
    lines = ["[algebroid]", f"n = {chart.n}", f"r = {chart.r}"]
    dom = " ; ".join(f"{lo:.17g},{hi:.17g}" for lo, hi in chart.domain)
    lines.append(f"domain = {dom}")
    rows = " ; ".join(", ".join(str(e) for e in row) for row in chart.b)
    lines.append(f"b = {rows}")
    for (s, t, u) in sorted(chart.c_upper):
        lines.append(f"C {s + 1},{t + 1},{u + 1} = {chart.c_upper[(s, t, u)]}")
    lines.append("[metric]")
    for (i, j) in sorted(metric.entries):
        lines.append(f"g {i + 1},{j + 1} = {metric.entries[(i, j)]}")
    return "\n".join(lines) + "\n"
