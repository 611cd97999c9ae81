"""`tools/outputs.py`: two saves of the same runs are byte-identical,
`--diff` reports a moved value and a changed exit code, and the CLI's
outputs at default argv match their committed fingerprint.

The 70 runs of the tool (ten verbs on the six catalog charts and the
twisted chart) are saved in process and summarized as in
`tests/outputs_fingerprint.json`: a CSV column that moves beyond the
tool's tolerance fails here even where every check still passes.  After
a change that moves an output on purpose, rewrite the file with

    PYTHONPATH=src python tools/outputs.py --fingerprint tests/outputs_fingerprint.json
"""

import importlib.util
import json
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def load_tool():
    spec = importlib.util.spec_from_file_location("outputs_tool", ROOT / "tools" / "outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def files_under(root):
    return sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file())


def test_two_saves_are_byte_identical_and_moves_are_reported(tmp_path, capsys):
    tool = load_tool()
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        tool.save(out, charts=["twisted"], verbs=["validate", "oneill"])
    assert files_under(a) == files_under(b)
    assert {p.parts[0] for p in files_under(a)} == {"twisted.chart", "validate", "oneill"}
    for rel in files_under(a):
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel
    report = (a / "oneill" / "twisted" / "report.txt").read_text()
    assert "chart=twisted.chart\n" in report and "wall_time_s" not in report
    assert (a / "oneill" / "twisted" / "exit").read_text() == "0\n"
    assert tool.diff(a, b)
    assert capsys.readouterr().out.endswith("all identical\n")

    csv = b / "validate" / "twisted" / "validate.csv"
    header, first, *rest = csv.read_text().splitlines()
    cells = first.split(",")
    col = header.split(",").index("residual")
    cells[col] = repr(float(cells[col]) + 0.5)
    csv.write_text("\n".join([header, ",".join(cells), *rest]) + "\n")
    (b / "oneill" / "twisted" / "exit").write_text("1\n")
    assert not tool.diff(a, b)
    lines = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines()[:-1])
    assert lines["validate/twisted/validate.csv"].startswith("max |d| 0.5 (rel ")
    assert lines["validate/twisted/validate.csv"].endswith("column residual)")
    assert lines["oneill/twisted/exit"] == "exit code 0 -> 1"
    assert lines["oneill/twisted/report.txt"] == "identical"


FINGERPRINT = ROOT / "tests" / "outputs_fingerprint.json"


def rewrite_column(csv, column, move):
    """Apply move(values) to one column of a saved CSV, cells as repr."""
    header, *rows = (line.split(",") for line in csv.read_text().splitlines())
    col = header.index(column)
    values = move(np.array([float(row[col]) for row in rows]))
    for row, v in zip(rows, values):
        row[col] = repr(float(v))
    csv.write_text("".join(",".join(row) + "\n" for row in [header, *rows]))


def test_default_runs_match_the_committed_fingerprint(tmp_path):
    tool = load_tool()
    tool.save(tmp_path)
    got = tool.fingerprint(tmp_path)
    assert len(got) == 288
    assert tool.matches(json.loads(FINGERPRINT.read_text()), got) == []

    # the tolerance lets a one-ulp move of a cell through, not a column
    # scaled by 1 + 1e-8
    csv = tmp_path / "jacobi" / "sphere_chart" / "jacobi.csv"
    rewrite_column(csv, "beta1", lambda v: np.where(v == v.max(), np.nextafter(v, np.inf), v))
    assert tool.matches(got, tool.fingerprint(tmp_path)) == []
    rewrite_column(csv, "beta2", lambda v: v * (1 + 1e-8))
    assert tool.matches(got, tool.fingerprint(tmp_path)) == ["jacobi/sphere_chart/jacobi.csv"]
