import numpy as np
import pytest

from algebroid import catalog
from algebroid.chartfile import dumps_chart
from algebroid.charts import validate
from algebroid.expressions import Program
from conftest import perfbench_workloads


def test_names_are_stable():
    assert catalog.names() == [
        "aff2",
        "euclidean2",
        "foliation_xy",
        "heisenberg_central",
        "so3_biinv",
        "sphere_chart",
    ]


def test_unknown_name_lists_alternatives():
    with pytest.raises(KeyError, match="aff2"):
        catalog.get("nope")


def test_twisted_is_an_entry_outside_names_and_get():
    entry = catalog.twisted()
    assert entry.name == "twisted" and entry.name not in catalog.names()
    with pytest.raises(KeyError):
        catalog.get("twisted")
    chart_prog = Program.of(entry.chart)
    assert chart_prog.constant(0) is None and chart_prog.constant(1) is None
    assert Program.of(entry.metric).constant(0) is not None
    report = validate(entry.chart, samples=200, seed=7)
    assert report.passed and max(c.residual for c in report.checks) < 1e-12


def test_perfbench_twisted_is_the_package_twisted():
    # the benchmark keeps a frozen copy; the chart file text pins it
    entry = catalog.twisted()
    frozen = perfbench_workloads().twisted_chart()
    assert dumps_chart(*frozen) == dumps_chart(entry.chart, entry.metric)


@pytest.mark.parametrize("name", catalog.names())
def test_every_entry_validates_tightly(name):
    entry = catalog.get(name)
    report = validate(entry.chart, samples=200, seed=7)
    assert report.passed
    assert max(c.residual for c in report.checks) < 1e-12
    assert entry.metric.spd_margin(entry.chart)[0] > 1e-10
    assert entry.notes


@pytest.mark.parametrize("name", ["so3_biinv", "aff2"])
def test_lie_algebra_encoding(name):
    entry = catalog.get(name)
    assert entry.chart.n == 1
    assert entry.chart.has_zero_anchor


def test_foliation_anchor_is_injective():
    entry = catalog.get("foliation_xy")
    B, _ = entry.chart.eval_anchor(np.zeros(3))
    assert np.linalg.matrix_rank(B) == 2


def test_mutants_fail_validation():
    for name, chart in catalog.mutants().items():
        report = validate(chart, samples=100, seed=7)
        assert not report.passed, name
