import numpy as np
import pytest

from algebroid import catalog
from algebroid.chartfile import (
    ChartFileError,
    dumps_chart,
    load_chart_file,
    loads_chart,
)
from algebroid.sampling import sample_box

GOOD = """
# central extension over the plane
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
"""


def test_loads_good_file():
    chart, metric = loads_chart(GOOD)
    assert chart.n == 2 and chart.r == 3
    C, _ = chart.eval_bracket(np.zeros(2))
    assert C[0, 1, 2] == 1.0 and C[1, 0, 2] == -1.0
    G, _, _ = metric.eval(np.zeros(2))
    np.testing.assert_array_equal(G, np.eye(3))


@pytest.mark.parametrize("name", catalog.names())
def test_round_trip_catalog(name, tmp_path):
    entry = catalog.get(name)
    text = dumps_chart(entry.chart, entry.metric)
    path = tmp_path / f"{name}.chart"
    path.write_text(text)
    chart, metric = load_chart_file(path)
    pts = sample_box(entry.chart.domain, 20, seed=1)
    B0, _ = entry.chart.eval_anchor(pts)
    B1, _ = chart.eval_anchor(pts)
    np.testing.assert_array_equal(B0, B1)
    C0, _ = entry.chart.eval_bracket(pts)
    C1, _ = chart.eval_bracket(pts)
    np.testing.assert_array_equal(C0, C1)
    G0, _, _ = entry.metric.eval(pts)
    G1, _, _ = metric.eval(pts)
    np.testing.assert_array_equal(G0, G1)
    np.testing.assert_array_equal(chart.domain, entry.chart.domain)


@pytest.mark.parametrize(
    "mutation,line,message",
    [
        (("n = 2", "n = nope"), 4, "integer"),
        (("domain = -2,2 ; -2,2", "domain = -2,2"), 6, "pairs"),
        (("C 1,2,3 = 1", "C 2,1,3 = 1"), None, "s < t"),
        (("g 1,1 = 1", "q 1,1 = 1"), 10, "unknown metric key"),
        (("b = 1, 0 ; 0, 1 ; 0, 0", "b = 1, 0 ; 0, 1"), 7, "rows"),
        (("C 1,2,3 = 1", "C 1,2,3 = 1\nC 1,2,3 = 2"), 9, "duplicate"),
        (("g 3,3 = 1", "g 3,3 = si(x1)"), None, "unknown identifier"),
        (("[metric]", "[metrics]"), 9, "unknown section"),
        (("r = 3", "r 3"), 5, "cannot parse entry"),
        (("n = 2", "n 1 = 2"), 4, "'n' takes no indices"),
        (("r = 3", "r = 3\nr = 3"), 6, "duplicate 'r'"),
        (("C 1,2,3 = 1", "D 1,2,3 = 1"), 8, "unknown algebroid key 'D'"),
        (("g 3,3 = 1", "g 3,3 = 1\ng 3,3 = 2"), 13, r"duplicate g \(3, 3\)"),
        (("b = 1, 0 ; 0, 1 ; 0, 0\n", ""), None, "missing \\[algebroid\\] entry 'b'"),
        (("domain = -2,2 ; -2,2", "domain = -2,2 ; -2"), 6, "bad domain pair '-2'"),
        (("b = 1, 0 ; 0, 1 ; 0, 0", "b = 1, 0 ; 0, 1 ; 0"), 7, "b row '0' needs 2 entries"),
        (("C 1,2,3 = 1", "C 1,2 = 1"), 8, "C entry needs 3 indices"),
        (("C 1,2,3 = 1", "C 1,,3 = 1"), 8, "bad indices '1,,3'"),
        (("n = 2", "n = 0"), 4, "n must be >= 1"),
    ],
)
def test_errors_carry_line_numbers(mutation, line, message):
    bad = GOOD.replace(*mutation)
    with pytest.raises(ChartFileError, match=message) as err:
        loads_chart(bad)
    assert err.value.line == line


def test_missing_metric_rejected():
    bad = GOOD.split("[metric]")[0]
    with pytest.raises(ChartFileError, match="metric"):
        loads_chart(bad)


def test_missing_diagonal_rejected():
    bad = GOOD.replace("g 2,2 = 1\n", "")
    with pytest.raises(ChartFileError, match="diagonal"):
        loads_chart(bad)


def test_content_before_section_rejected():
    with pytest.raises(ChartFileError, match="before any section"):
        loads_chart("n = 2\n" + GOOD)
