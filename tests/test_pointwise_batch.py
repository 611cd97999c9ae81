"""Batched pointwise oracles: every row of a batch equals the single-point
call bit for bit, and the hamcheck/divergence verbs write what a
sample-by-sample loop over the single-point API writes."""

import numpy as np
import pytest

from algebroid import catalog
from algebroid.chartfile import dumps_chart, load_chart_file
from algebroid.charts import AVector, AlgebroidChart
from algebroid.cli import main
from algebroid.hamiltonian import (
    DualPoint,
    euler_identity_residual,
    hamiltonian_field,
    poisson_matrix,
)
from algebroid.metric import MetricField, christoffel
from algebroid.paths import geodesic_rhs
from algebroid.sampling import sample_box, sample_fiber
from algebroid.splitting import (
    SplitError,
    _frames,
    divergence_fd_lie_algebra,
    divergence_terms,
    split,
)

CHARTS = catalog.names() + ["twisted"]

LINE_CHART = """[algebroid]
n = 1
r = 1
domain = -1,1
b = x1
[metric]
g 1,1 = 1
"""


def _pair(name):
    entry = catalog.twisted() if name == "twisted" else catalog.get(name)
    return entry.chart, entry.metric


def _states(chart, count=40, seed=3):
    return (
        sample_box(chart.domain, count, seed, shrink=0.25),
        sample_fiber(chart.r, count, seed),
    )


def _line_chart(tmp_path):
    path = tmp_path / "line.chart"
    path.write_text(LINE_CHART)
    return path


def _assert_frames_match_split(chart, metric, xs):
    seen = []
    for rows, frames in _frames(chart, metric, xs):
        for k, i in enumerate(rows):
            single = split(chart, metric, xs[i])
            for field in ("vertical", "horizontal", "B", "C", "G", "gamma"):
                np.testing.assert_array_equal(getattr(frames, field)[k], getattr(single, field))
            assert bool(frames.warning[k]) is single.warning
            # the frame carries the direct evaluations at its point
            np.testing.assert_array_equal(single.B, chart.eval_anchor(xs[i])[0])
            np.testing.assert_array_equal(single.C, chart.eval_bracket(xs[i])[0])
            np.testing.assert_array_equal(
                single.gamma, christoffel(chart, metric, xs[i]).gamma
            )
        seen.extend(rows)
    assert sorted(seen) == list(range(len(xs)))


class TestRowsEqualSinglePoints:
    @pytest.mark.parametrize("name", CHARTS)
    def test_hamiltonian_side(self, name):
        chart, metric = _pair(name)
        xs, mus = _states(chart)
        dx, dmu = hamiltonian_field(chart, metric, AVector(xs, mus))
        hom = euler_identity_residual(chart, metric, AVector(xs, mus))
        for i in range(len(xs)):
            one = AVector(xs[i], mus[i])
            sx, smu = hamiltonian_field(chart, metric, one)
            np.testing.assert_array_equal(dx[i], sx)
            np.testing.assert_array_equal(dmu[i], smu)
            assert hom[i] == euler_identity_residual(chart, metric, one)
        G, _, _ = metric.eval(xs)
        xis = (G @ mus[..., None])[..., 0]  # xi = g mu
        pis = poisson_matrix(chart, DualPoint(xs, xis))
        for i in range(len(xs)):
            np.testing.assert_array_equal(pis[i], poisson_matrix(chart, DualPoint(xs[i], xis[i])))
        # two leading axes give the same rows again
        grid = AVector(xs.reshape(4, 10, -1), mus.reshape(4, 10, -1))
        gx, gmu = hamiltonian_field(chart, metric, grid)
        np.testing.assert_array_equal(gx.reshape(dx.shape), dx)
        np.testing.assert_array_equal(gmu.reshape(dmu.shape), dmu)
        np.testing.assert_array_equal(
            euler_identity_residual(chart, metric, grid).ravel(), hom
        )

    @pytest.mark.parametrize("name", CHARTS)
    def test_split_frames(self, name):
        chart, metric = _pair(name)
        xs, _ = _states(chart)
        _assert_frames_match_split(chart, metric, xs)

    @pytest.mark.parametrize("name", CHARTS)
    def test_divergence_terms(self, name):
        chart, metric = _pair(name)
        xs, mus = _states(chart)
        trace, mean_curv = divergence_terms(chart, metric, AVector(xs, mus))
        assert trace.shape == mean_curv.shape == (len(xs),)
        for i in range(len(xs)):
            tr, mc = divergence_terms(chart, metric, AVector(xs[i], mus[i]))
            assert isinstance(tr, float) and isinstance(mc, float)
            assert (trace[i], mean_curv[i]) == (tr, mc)

    @pytest.mark.parametrize("name", ["aff2", "so3_biinv"])
    def test_divergence_fd_lie_algebra(self, name):
        chart, metric = _pair(name)
        xs, mus = _states(chart)
        fd = divergence_fd_lie_algebra(chart, metric, AVector(xs, mus))
        for i in range(len(xs)):
            one = divergence_fd_lie_algebra(chart, metric, AVector(xs[i], mus[i]))
            assert isinstance(one, float)
            assert fd[i] == one

    def test_mixed_rank_batch(self, tmp_path):
        chart, metric = load_chart_file(_line_chart(tmp_path))
        xs, mus = _states(chart, 20)
        xs = np.vstack([[[0.0]], xs])  # the anchor b = x1 vanishes at x1 = 0
        mus = np.vstack([[[0.7]], mus])
        groups = _frames(chart, metric, xs)
        assert [(f.q, list(rows[:1])) for rows, f in groups] == [(0, [0]), (1, [1])]
        _assert_frames_match_split(chart, metric, xs)
        trace, mean_curv = divergence_terms(chart, metric, AVector(xs, mus))
        for i in range(len(xs)):
            assert (trace[i], mean_curv[i]) == divergence_terms(
                chart, metric, AVector(xs[i], mus[i])
            )


def _leaky_chart():
    """a2, a3 span the kernel, but [a2, a3] = x1 a1 has anchor x1 d/dx1:
    the kernel is not closed under the bracket except at x1 = 0."""
    chart = AlgebroidChart(
        n=1, r=3, b=[["1"], ["0"], ["0"]], c_upper={(2, 3, 1): "x1"}
    )
    return chart, MetricField.identity(3, 1)


class TestErrorParity:
    def test_split_error_names_the_lowest_failing_point(self):
        chart, metric = _leaky_chart()
        xs = np.array([[0.0], [0.0], [0.5], [-0.3], [0.0], [0.9]])
        mus = np.array(
            [[0, 1, 1], [0, 2, -1], [0, 1, 2], [0, 3, 1], [1, 1, 1], [0, 1, 1]], float
        )

        def loop_error(xs, mus):  # what the verb's former per-sample loop raised
            for x, mu in zip(xs, mus):
                try:
                    divergence_terms(chart, metric, AVector(x, mu))
                except SplitError as exc:
                    return str(exc)
            return None

        messages = set()
        for start in (0, 3, 4):
            expected = loop_error(xs[start:], mus[start:])
            assert "left the kernel" in expected
            with pytest.raises(SplitError) as info:
                divergence_terms(chart, metric, AVector(xs[start:], mus[start:]))
            assert str(info.value) == expected
            messages.add(expected)
        assert len(messages) == 3  # three different first failures

    def test_split_error_exit_code(self, tmp_path, capsys):
        chart, metric = _leaky_chart()
        path = tmp_path / "leaky.chart"
        path.write_text(dumps_chart(chart, metric))
        rc = main(["divergence", "--chart", str(path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("check failed: bracket of kernel vectors left the kernel")

    @pytest.mark.parametrize("verb", ["hamcheck", "divergence"])
    def test_non_spd_metric_exits_1(self, verb, tmp_path, capsys):
        path = tmp_path / "bad.chart"
        path.write_text(LINE_CHART.replace("g 1,1 = 1", "g 1,1 = x1"))
        rc = main([verb, "--chart", str(path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("check failed: metric not positive definite at x=")


def _fmt(v):
    return f"{float(v):.17g}"


def _reference_csv(header, rows):
    return (",".join(header) + "\n" + "".join(",".join(map(_fmt, r)) + "\n" for r in rows)).encode()


class TestVerbsMatchSampleLoop:
    @pytest.mark.parametrize("name", ["sphere_chart", "heisenberg_central", "aff2", "twisted"])
    def test_hamcheck_csv(self, name, tmp_path, capsys):
        chart, metric = _pair(name)
        src = ["--catalog", name]
        if name == "twisted":
            (tmp_path / "t.chart").write_text(dumps_chart(chart, metric))
            src = ["--chart", str(tmp_path / "t.chart")]
        assert main(["hamcheck", *src, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        xs = sample_box(chart.domain, 100, 42, shrink=0.25)
        mus = sample_fiber(chart.r, 100, 42)
        rows = []
        for x, mu in zip(xs, mus):
            v = AVector(x, mu)
            dx_h, dmu_h = hamiltonian_field(chart, metric, v)
            dx_g, dmu_g = geodesic_rhs(chart, metric, x, mu)
            eq = max(float(np.max(np.abs(dx_h - dx_g))), float(np.max(np.abs(dmu_h - dmu_g))))
            rows.append([*x, *mu, eq, euler_identity_residual(chart, metric, v)])
        header = [f"x{i + 1}" for i in range(chart.n)] + [f"mu{i + 1}" for i in range(chart.r)]
        expected = _reference_csv(header + ["equivalence_residual", "homogeneity_residual"], rows)
        assert (tmp_path / "hamcheck.csv").read_bytes() == expected
        assert "samples=100" in (tmp_path / "report.txt").read_text().splitlines()

    @pytest.mark.parametrize("name", ["sphere_chart", "heisenberg_central", "aff2", "twisted"])
    def test_divergence_csv(self, name, tmp_path, capsys):
        chart, metric = _pair(name)
        src = ["--catalog", name]
        if name == "twisted":
            (tmp_path / "t.chart").write_text(dumps_chart(chart, metric))
            src = ["--chart", str(tmp_path / "t.chart")]
        assert main(["divergence", *src, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        xs = sample_box(chart.domain, 50, 42, shrink=0.25)
        mus = sample_fiber(chart.r, 50, 42)
        rows = []
        for x, mu in zip(xs, mus):
            tr, mc = divergence_terms(chart, metric, AVector(x, mu))
            rows.append([*x, *mu, tr, mc, tr + mc])
        header = [f"x{i + 1}" for i in range(chart.n)] + [f"mu{i + 1}" for i in range(chart.r)]
        expected = _reference_csv(header + ["trace_term", "mean_curvature_term", "total"], rows)
        assert (tmp_path / "divergence.csv").read_bytes() == expected
        assert "samples=50" in (tmp_path / "report.txt").read_text().splitlines()


def _report(out):
    return dict(line.split("=", 1) for line in (out / "report.txt").read_text().splitlines())


class TestDivergenceRankPerSample:
    def test_line_chart_checks_the_injective_samples(self, tmp_path, capsys):
        # rank 0 at the centre x1 = 0, rank 1 at every sample: the samples
        # are checked although the centre has a kernel
        path = _line_chart(tmp_path)
        assert main(["divergence", "--chart", str(path), "--out", str(tmp_path / "a")]) == 0
        capsys.readouterr()
        report = _report(tmp_path / "a")
        assert report["check.liouville_zero.pass"] == "true"
        assert float(report["check.liouville_zero.residual"]) == 0.0

    def test_pinned_kernel_row_is_left_out(self, tmp_path, capsys):
        path = _line_chart(tmp_path)
        out = tmp_path / "b"
        argv = ["divergence", "--chart", str(path), "--x", "0", "--mu", "0.5", "--out", str(out)]
        assert main(argv) == 0
        capsys.readouterr()
        report = _report(out)
        assert report["samples"] == "51"
        assert report["check.liouville_zero.pass"] == "true"

    def test_kernel_everywhere_is_not_applicable(self, tmp_path, capsys):
        out = tmp_path / "c"
        assert main(["divergence", "--catalog", "heisenberg_central", "--out", str(out)]) == 0
        capsys.readouterr()
        report = _report(out)
        assert report["liouville_zero"] == "not_applicable"
        assert "check.liouville_zero.pass" not in report
