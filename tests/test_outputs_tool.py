"""`tools/outputs.py`: two saves of the same runs are byte-identical, and
`--diff` reports a moved value and a changed exit code."""

import importlib.util
from pathlib import Path

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
