import argparse
import csv
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from algebroid import catalog, variations
from algebroid.chartfile import dumps_chart
from algebroid.cli import _VERBS, CHECKS, _xcols, main
from algebroid.metric import MetricField
from algebroid.sampling import sample_box, sample_fiber


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def read_report(out_dir):
    report = {}
    for line in (out_dir / "report.txt").read_text().splitlines():
        key, _, value = line.partition("=")
        report[key] = value
    return report


def assert_table_tolerances(verb, out_dir, tol=None):
    """Every check of the report has a row of the verb's check table, and its
    tolerance is the row's, or `tol` (--tol) where the row says --tol
    replaces it.  Returns the names of the checks --tol replaced."""
    report = read_report(out_dir)
    replaced = set()
    for key, value in report.items():
        if key.startswith("check.") and key.endswith(".tolerance"):
            name = key[len("check."):-len(".tolerance")]
            assert name in CHECKS[verb], (verb, name)
            tolerance, by_tol = CHECKS[verb][name]
            if by_tol and tol is not None:
                tolerance = tol
                replaced.add(name)
            assert float(value) == tolerance, (verb, name)
    return replaced


class TestWriteCsv:
    def test_float_rows_print_the_bytes_of_fmt(self, tmp_path):
        from algebroid.cli import _fmt, write_csv

        special = [-0.0, 0.0, float("nan"), float("inf"), -float("inf"), 5e-324,
                   -2.2250738585072014e-308, 1e-310, 0.1, 1 / 3, 1e22, 1.7976931348623157e308]
        rows = [
            special,
            [np.float64(v) for v in special],
            np.array([special, special[::-1]]),
            [1.5, np.int64(3), True, np.bool_(False), 7, -0.0, "name"],
            [np.int32(-4), np.float64(2.5)],
            [],
        ]
        for k, row in enumerate(rows):
            path = tmp_path / f"{k}.csv"
            write_csv(path, ["h"], row if isinstance(row, np.ndarray) else [row])
            lines = row.tolist() if isinstance(row, np.ndarray) else [row]
            want = "h\n" + "".join(",".join(_fmt(v) for v in r) + "\n" for r in lines)
            assert path.read_bytes() == want.encode()
        assert (tmp_path / "3.csv").read_text().splitlines()[1] == "1.5,3,true,false,7,-0,name"


class TestValidateVerb:
    def test_catalog_entry_passes(self, tmp_path, capsys):
        rc = main(["validate", "--catalog", "so3_biinv", "--out", str(tmp_path)])
        capsys.readouterr()
        assert rc == 0
        rows = read_csv(tmp_path / "validate.csv")
        axioms = {r["axiom"]: float(r["residual"]) for r in rows}
        assert axioms["antisymmetry"] < 1e-12
        assert axioms["anchor_morphism"] < 1e-12
        assert axioms["jacobi"] < 1e-12

    def test_mutants_fail_with_unit_residual(self, tmp_path, capsys):
        metric = MetricField.identity(3, 2)
        for name, chart in catalog.mutants().items():
            f = tmp_path / f"{name}.chart"
            f.write_text(dumps_chart(chart, metric))
            out = tmp_path / name
            rc = main(["validate", "--chart", str(f), "--out", str(out)])
            capsys.readouterr()
            assert rc == 1
            report = read_report(out)
            assert report["overall_pass"] == "false"
            assert float(report["check.anchor_morphism.residual"]) >= 0.9
        bad_bracket_report = read_report(tmp_path / "bad_bracket")
        assert float(bad_bracket_report["check.jacobi.residual"]) >= 0.9

    @pytest.mark.parametrize(
        "g11", ["exp(800*x1) - exp(800*x1) + 1", "cosh(800*x1)", "1 + 1/cosh(800*x1)"]
    )
    def test_non_finite_metric_fails_metric_spd(self, g11, tmp_path, capsys):
        # g is NaN (inf - inf) or inf near the right end of the box, or g is
        # finite there and its derivatives are not
        f = tmp_path / "overflow.chart"
        f.write_text(f"[algebroid]\nn = 1\nr = 1\ndomain = -1,1\nb = 1\n[metric]\ng 1,1 = {g11}\n")
        with np.errstate(over="ignore", invalid="ignore"):
            rc = main(["validate", "--chart", str(f), "--out", str(tmp_path / "o")])
        capsys.readouterr()
        assert rc == 1
        report = read_report(tmp_path / "o")
        assert report["metric_spd_margin"] == "-inf"
        assert report["check.metric_spd.pass"] == "false"

    def test_a_metric_at_the_floor_fails_every_verb(self, tmp_path, capsys):
        # validate judges g by the rule of the flows: smallest eigenvalue above
        # SPD_EIGENVALUE_FLOOR = 1e-10, with no slack
        f = tmp_path / "floor.chart"
        f.write_text("[algebroid]\nn = 1\nr = 1\ndomain = -1,1\nb = 1\n[metric]\ng 1,1 = 1e-10\n")
        rc = main(["validate", "--chart", str(f), "--out", str(tmp_path / "validate")])
        capsys.readouterr()
        assert rc == 1
        report = read_report(tmp_path / "validate")
        assert report["check.metric_spd.pass"] == "false"
        assert float(report["check.metric_spd.residual"]) == 1.0
        for verb in ("geodesic", "curvature", "hamcheck"):
            rc = main([verb, "--chart", str(f), "--out", str(tmp_path / verb)])
            err = capsys.readouterr().err
            assert rc == 1, verb
            assert err.startswith("check failed: metric not positive definite at x=")
            assert err.endswith("(smallest eigenvalue 1.000e-10, floor 1e-10)\n")

    def test_a_metric_above_the_floor_passes(self, tmp_path, capsys):
        f = tmp_path / "above.chart"
        f.write_text("[algebroid]\nn = 1\nr = 1\ndomain = -1,1\nb = 1\n[metric]\ng 1,1 = 2e-10\n")
        for verb in ("validate", "geodesic"):
            rc = main([verb, "--chart", str(f), "--out", str(tmp_path / verb)])
            capsys.readouterr()
            assert rc == 0, verb
        report = read_report(tmp_path / "validate")
        assert float(report["check.metric_spd.residual"]) == pytest.approx(0.5, rel=1e-15)
        assert report["check.metric_spd.pass"] == "true"

    @pytest.mark.parametrize("name", catalog.names())
    def test_metric_spd_names_the_sample_of_the_margin(self, name, tmp_path, capsys):
        rc = main(["validate", "--catalog", name, "--out", str(tmp_path)])
        capsys.readouterr()
        assert rc == 0
        entry = catalog.get(name)
        [row] = [r for r in read_csv(tmp_path / "validate.csv") if r["axiom"] == "metric_spd"]
        x = np.array([float(row[c]) for c in _xcols(entry.chart.n)])
        assert entry.chart.contains(x)
        pts = sample_box(entry.chart.domain, 200, 42)
        smallest = np.linalg.eigvalsh(entry.metric.eval(pts)[0])[:, 0]
        assert x.tolist() == pts[np.argmin(smallest)].tolist()
        assert float(read_report(tmp_path)["metric_spd_margin"]) == smallest.min()

    def test_csv_has_one_row_per_check(self, tmp_path, capsys):
        rc = main(["validate", "--catalog", "heisenberg_central", "--samples", "50",
                   "--out", str(tmp_path)])
        capsys.readouterr()
        assert rc == 0
        lines = (tmp_path / "validate.csv").read_text().splitlines()
        assert lines[0] == "axiom,i,j,k,residual,tolerance,passed,x1,x2"
        rows = read_csv(tmp_path / "validate.csv")
        assert [r["axiom"] for r in rows] == ["antisymmetry", "anchor_morphism", "jacobi", "metric_spd"]
        assert all(r["passed"] == "true" for r in rows)
        report = read_report(tmp_path)
        for r in rows:
            assert r["residual"] == report[f"check.{r['axiom']}.residual"]
            assert r["tolerance"] == report[f"check.{r['axiom']}.tolerance"]

    def test_malformed_chart_exits_2(self, tmp_path, capsys):
        f = tmp_path / "bad.chart"
        f.write_text("[algebroid]\nn = 2\nr = oops\n")
        rc = main(["validate", "--chart", str(f), "--out", str(tmp_path / "o")])
        captured = capsys.readouterr()
        assert rc == 2
        assert "line 3" in captured.err

    @pytest.mark.parametrize("domain", ["nan,1", "-inf,inf", "0,inf"])
    def test_non_finite_domain_exits_2(self, domain, tmp_path, capsys):
        f = tmp_path / "box.chart"
        f.write_text(f"[algebroid]\nn = 1\nr = 1\ndomain = {domain}\nb = 1\n[metric]\ng 1,1 = 1\n")
        rc = main(["validate", "--chart", str(f), "--out", str(tmp_path / "o")])
        captured = capsys.readouterr()
        assert rc == 2
        assert "finite lo < hi" in captured.err

    def test_overflowing_anchor_product_is_named(self, tmp_path, capsys):
        # finite anchor, commuting anchor fields, b db overflows
        f = tmp_path / "overflow.chart"
        f.write_text(
            "[algebroid]\nn = 2\nr = 2\ndomain = -1,1 ; -1,1\nb = 1, 0 ; 0, (x2 / 1e-6) * 1e150\n"
            "[metric]\ng 1,1 = 1\ng 2,2 = 1\n"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["validate", "--chart", str(f), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("check failed: anchor product b db not finite at x=[")
        assert "Warning" not in err

    def test_requires_exactly_one_source(self, tmp_path, capsys):
        rc = main(["validate", "--out", str(tmp_path)])
        capsys.readouterr()
        assert rc == 2


class TestGeodesicVerb:
    def test_flat_line(self, tmp_path, capsys):
        rc = main(
            ["geodesic", "--catalog", "euclidean2", "--x", "0,0", "--mu", "1,2",
             "--out", str(tmp_path)]
        )
        capsys.readouterr()
        assert rc == 0
        rows = read_csv(tmp_path / "geodesic.csv")
        last = rows[-1]
        assert float(last["x1"]) == pytest.approx(1.0, abs=1e-10)
        assert float(last["x2"]) == pytest.approx(2.0, abs=1e-10)

    def test_domain_exit_exits_1_keeps_partial_csv(self, tmp_path, capsys):
        rc = main(
            ["geodesic", "--catalog", "euclidean2", "--x", "0,0", "--mu", "10,0",
             "--out", str(tmp_path)]
        )
        capsys.readouterr()
        assert rc == 1
        rows = read_csv(tmp_path / "geodesic.csv")
        assert 0 < len(rows) < 1001
        report = read_report(tmp_path)
        assert "domain_exit_time" in report


    @pytest.mark.parametrize(
        "argv",
        [
            ["--catalog", "aff2", "--mu", "1e200,1e200"],
            ["--catalog", "aff2", "--mu", "10,10", "--step", "1", "--t1", "20"],
        ],
    )
    def test_non_finite_state_is_a_failed_check(self, argv, tmp_path, capsys):
        with np.errstate(over="ignore", invalid="ignore"):
            rc = main(["geodesic", *argv, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("check failed: trajectory reached a non-finite state")

    def test_a_domain_error_mid_run_under_a_varying_metric_exits_2(self, tmp_path, capsys):
        # g = 1 + 0*x1 varies by its expression, its partials vanish; the
        # anchor's sqrt fails once x1 reaches 0.5
        f = tmp_path / "c.chart"
        f.write_text("[algebroid]\nn = 1\nr = 1\ndomain = -2,2\nb = 1 + 0*sqrt(0.5 - x1)\n"
                     "[metric]\ng 1,1 = 1 + 0*x1\n")
        rc = main(["geodesic", "--chart", str(f), "--x", "0", "--mu", "1", "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: sqrt of a non-positive value in subexpression 'sqrt(0.5 - x1)'\n"
        )


class TestHamcheckVerb:
    def test_affine_algebra(self, tmp_path, capsys):
        rc = main(
            ["hamcheck", "--catalog", "aff2", "--samples", "100", "--out", str(tmp_path)]
        )
        capsys.readouterr()
        assert rc == 0
        rows = read_csv(tmp_path / "hamcheck.csv")
        assert len(rows) == 100
        assert max(float(r["equivalence_residual"]) for r in rows) < 1e-8

    def test_determinism_byte_identical(self, tmp_path, capsys):
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        for out in (a, b):
            rc = main(["hamcheck", "--catalog", "sphere_chart", "--samples", "30",
                       "--seed", "5", "--out", str(out)])
            assert rc == 0
        rc = main(["hamcheck", "--catalog", "sphere_chart", "--samples", "30",
                   "--seed", "6", "--out", str(c)])
        capsys.readouterr()
        assert rc == 0
        assert (a / "hamcheck.csv").read_bytes() == (b / "hamcheck.csv").read_bytes()
        assert (a / "hamcheck.csv").read_bytes() != (c / "hamcheck.csv").read_bytes()


class TestDivergenceVerb:
    def test_affine_algebra_pinned_point(self, tmp_path, capsys):
        rc = main(
            ["divergence", "--catalog", "aff2", "--samples", "50", "--mu", "1,0",
             "--out", str(tmp_path)]
        )
        capsys.readouterr()
        assert rc == 0
        rows = read_csv(tmp_path / "divergence.csv")
        assert len(rows) == 51  # pinned point plus samples
        assert float(rows[0]["total"]) == pytest.approx(1.0, abs=1e-6)

    def test_rotation_algebra_divergence_free(self, tmp_path, capsys):
        rc = main(["divergence", "--catalog", "so3_biinv", "--samples", "50",
                   "--out", str(tmp_path)])
        capsys.readouterr()
        assert rc == 0
        rows = read_csv(tmp_path / "divergence.csv")
        assert max(abs(float(r["total"])) for r in rows) < 1e-9


class TestOtherVerbs:
    def test_transport(self, tmp_path, capsys):
        rc = main(["transport", "--catalog", "sphere_chart", "--x", "1.5707963267948966,0.2",
                   "--mu", "0,1", "--s0", "1,0", "--out", str(tmp_path)])
        capsys.readouterr()
        assert rc == 0
        rows = read_csv(tmp_path / "transport.csv")
        assert float(rows[-1]["s1"]) == pytest.approx(1.0, abs=1e-8)

    def test_jacobi(self, tmp_path, capsys):
        rc = main(["jacobi", "--catalog", "sphere_chart", "--x", "1.5707963267948966,0.2",
                   "--mu", "0,1", "--dbeta0", "1,0", "--out", str(tmp_path)])
        capsys.readouterr()
        assert rc == 0
        report = read_report(tmp_path)
        assert report["check.scaling_solution.pass"] == "true"
        assert report["check.dexp_vs_fd.pass"] == "true"

    def test_jacobi_on_a_coarse_path_fails_the_geodesic_check(self, tmp_path, capsys):
        # at step 0.1 the sphere path from the seed's unscaled mu misses the
        # geodesic tolerance: the verb reports the failed check and writes an
        # empty CSV
        mu = ",".join("%.17g" % v for v in sample_fiber(2, 1, 42, scale=0.5)[0])
        rc = main(["jacobi", "--catalog", "sphere_chart", f"--mu={mu}", "--step", "0.1", "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == ""
        report = read_report(tmp_path)
        assert report["check.geodesic_residual.pass"] == "false"
        assert float(report["check.geodesic_residual.residual"]) > 1e-6
        assert report["overall_pass"] == "false"
        assert "check.scaling_solution.pass" not in report
        assert (tmp_path / "jacobi.csv").read_text() == "t,beta1,beta2\n"

    @pytest.mark.parametrize("t1", [1.0, 0.5, -1.0])
    def test_jacobi_integrates_its_geodesic_once(self, t1, tmp_path, capsys, monkeypatch):
        # the verb integrates its geodesic over (0, t1) once and solves along
        # it once: its field, the scaling solution and the dexp check's field
        # are the three columns of one Jacobi solve, and the dexp check reads
        # d(exp) at t1 off that path, with no time-1 geodesic of its own.
        # One connection call spans the path: the solve's track on its 2N - 1
        # half-grid points, whose nodes give the reported geodesic_residual
        from algebroid import cli, paths

        spans, solves, batches = [], [], []
        integrate, solve, christoffel = paths.geodesic_integrate, cli._jacobi, paths.christoffel

        def counted(chart, metric, start, t_span=(0.0, 1.0), step=1e-3):
            spans.append(tuple(t_span))
            return integrate(chart, metric, start, t_span, step)

        def counted_solve(*args):
            solves.append(np.shape(args[-1]))
            return solve(*args)

        def counted_christoffel(chart, metric, x, *rest):
            batches.append(np.shape(x)[:-1])
            return christoffel(chart, metric, x, *rest)

        monkeypatch.setattr(paths, "geodesic_integrate", counted)
        monkeypatch.setattr(cli, "geodesic_integrate", counted)
        monkeypatch.setattr(cli, "_jacobi", counted_solve)
        monkeypatch.setattr(paths, "christoffel", counted_christoffel)
        rc = main(["jacobi", "--catalog", "sphere_chart", "--t1", str(t1), "--out", str(tmp_path)])
        capsys.readouterr()
        assert rc == 0
        assert read_report(tmp_path)["check.dexp_vs_fd.pass"] == "true"
        assert spans == [(0.0, t1)]
        assert solves == [(2, 3)]
        # the other calls are the RK4 stages of one geodesic and of the two
        # rows of the dexp check's pencil
        N = round(abs(t1) / 1e-3) + 1
        assert sorted(b for b in batches if b not in {(), (2,)}) == [(2 * N - 1,)]

    @pytest.mark.parametrize("t1", ["0.5", "-1", "2"])
    def test_jacobi_checks_dexp_along_its_own_path(self, t1, tmp_path, capsys):
        for name in ("sphere_chart", "heisenberg_central", "euclidean2", "twisted"):
            source = twisted_source(tmp_path) if name == "twisted" else ["--catalog", name]
            rc = main(["jacobi", *source, "--t1", t1, "--out", str(tmp_path / name)])
            capsys.readouterr()
            assert rc == 0, name
            assert read_report(tmp_path / name)["check.dexp_vs_fd.pass"] == "true", name

    def test_curvature(self, tmp_path, capsys):
        rc = main(["curvature", "--catalog", "heisenberg_central", "--out", str(tmp_path)])
        capsys.readouterr()
        assert rc == 0
        rows = read_csv(tmp_path / "curvature.csv")
        table = {
            (r["i"], r["j"], r["k"], r["l"]): float(r["value"]) for r in rows
        }
        assert table[("1", "2", "1", "2")] == pytest.approx(0.75)
        gam = read_csv(tmp_path / "christoffel.csv")
        gtab = {(r["i"], r["j"], r["k"]): float(r["value"]) for r in gam}
        assert gtab[("1", "2", "3")] == pytest.approx(0.5)

    def test_curvature_names_a_non_finite_metric_derivative(self, tmp_path, capsys):
        # g = 1 at x1 = 0.95, but its derivatives there are inf/inf
        f = tmp_path / "steep.chart"
        f.write_text("[algebroid]\nn = 1\nr = 1\ndomain = -1,1\nb = 1\n[metric]\n"
                     "g 1,1 = 1 + 1/cosh(800*x1)\n")
        with np.errstate(over="ignore", invalid="ignore"):
            rc = main(["curvature", "--chart", str(f), "--x", "0.95", "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err == "check failed: metric derivative not finite at x=[0.95]\n"

    def test_oneill(self, tmp_path, capsys):
        rc = main(["oneill", "--catalog", "heisenberg_central", "--out", str(tmp_path)])
        capsys.readouterr()
        assert rc == 0
        report = read_report(tmp_path)
        assert report["check.curvature_horizontal.pass"] == "true"
        assert report["anchor_rank"] == "2"

    def test_oneill_sphere_off_centre(self, tmp_path, capsys):
        # the round sphere satisfies the horizontal identity exactly; the
        # leaf-curvature oracle must resolve it away from the default point
        rc = main(["oneill", "--catalog", "sphere_chart", "--x", "0.7,1.3", "--out", str(tmp_path)])
        capsys.readouterr()
        assert rc == 0
        assert float(read_report(tmp_path)["check.curvature_horizontal.residual"]) < 1e-8

    def test_pointwise_verbs_build_no_geodesic_field(self, tmp_path, capsys, monkeypatch):
        # every CLI run builds its chart anew: the geodesic program is built
        # on the first geodesic use of a pair, which these verbs never make;
        # hamcheck makes one and is stopped by the second patch.  Its step
        # phase is built on the first single geodesic, which no pointwise
        # verb integrates.  Nor does any of them compile a program.
        from algebroid import metric
        from algebroid.expressions import Program

        build = metric._Connection._build_geodesic

        def field_only(self, chart, m, increment=None):
            if increment is not None:
                raise AssertionError("the step phase was built")
            return build(self, chart, m)

        def refused(*args):
            raise AssertionError("the geodesic field was built")

        def not_compiled(*args):
            raise AssertionError("a program was compiled")

        monkeypatch.setattr(metric._Connection, "_build_geodesic", field_only)
        monkeypatch.setattr(Program, "compile", not_compiled)
        for name in catalog.names():
            for verb in ("validate", "curvature", "oneill", "divergence", "hamcheck"):
                out = tmp_path / "step" / verb / name
                assert main([verb, "--catalog", name, "--out", str(out)]) == 0, (verb, name)
        monkeypatch.setattr(metric._Connection, "_build_geodesic", refused)
        for name in catalog.names():
            for verb in ("validate", "curvature", "oneill"):
                assert main([verb, "--catalog", name, "--out", str(tmp_path / verb / name)]) == 0, (verb, name)
        with pytest.raises(AssertionError, match="geodesic field was built"):
            main(["hamcheck", "--catalog", "sphere_chart", "--out", str(tmp_path / "hamcheck")])
        capsys.readouterr()

    def test_oneill_evaluates_its_point_once(self, tmp_path, capsys, monkeypatch):
        # one split frame at x serves the tensors and both checks, and its
        # connection record forms dGamma (for R) once, only where an identity
        # applies (none does on foliation_xy) and the pair's R is not settled
        # once (on heisenberg_central and so3_biinv it is, so no record forms
        # dGamma).  The second connection call on heisenberg_central makes
        # the frames at the mixed identity's 2n difference points.
        from algebroid import metric, splitting

        frames, calls = [], {}
        split = splitting.split

        def counted_split(chart, metric_field, x):
            frames.append(np.array(x, dtype=float))
            return split(chart, metric_field, x)

        def counted(method):
            fn = getattr(metric._Connection, method)

            def wrapper(*args):
                calls[method] += 1
                return fn(*args)

            monkeypatch.setattr(metric._Connection, method, wrapper)

        monkeypatch.setattr(splitting, "split", counted_split)
        counted("christoffel")
        counted("_dgamma")
        for name, connection_calls, dgamma_runs in [
            ("heisenberg_central", 2, 0),
            ("sphere_chart", 1, 1),
            ("so3_biinv", 1, 0),
            ("foliation_xy", 1, 0),
        ]:
            frames.clear()
            calls.update(christoffel=0, _dgamma=0)
            rc = main(["oneill", "--catalog", name, "--out", str(tmp_path / name)])
            capsys.readouterr()
            assert rc == 0, name
            x = catalog.get(name).chart.center()
            assert len(frames) == 1 and np.array_equal(frames[0], x), name
            assert calls == {"christoffel": connection_calls, "_dgamma": dgamma_runs}, name

    def test_exp(self, tmp_path, capsys):
        rc = main(["exp", "--catalog", "euclidean2", "--x", "0,0", "--mu", "1,2",
                   "--out", str(tmp_path)])
        capsys.readouterr()
        assert rc == 0
        rows = read_csv(tmp_path / "exp.csv")
        assert float(rows[0]["exp1"]) == pytest.approx(1.0, abs=1e-10)

    def test_catalog_verb_writes_loadable_chart(self, tmp_path, capsys):
        rc = main(["catalog", "--name", "heisenberg_central", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "sphere_chart" in out
        from algebroid.chartfile import load_chart_file

        chart, metric = load_chart_file(tmp_path / "heisenberg_central.chart")
        assert chart.r == 3

    def test_jacobi_notes_a_skipped_dexp_check(self, tmp_path, capsys):
        # the check's geodesics run over the verb's own span: to t1 = 0.5
        # they stay in the box with the path
        rc = main(["jacobi", "--catalog", "euclidean2", "--x", "0,0", "--mu", "4,0",
                   "--t1", "0.5", "--out", str(tmp_path / "inside")])
        capsys.readouterr()
        assert rc == 0
        report = read_report(tmp_path / "inside")
        assert "dexp_vs_fd" not in report and report["check.dexp_vs_fd.pass"] == "true"
        # at step 0.375 every RK4 increment of the flat path is exact: it ends
        # at x1 = 3 on the face of the box, which the geodesic from mu1 + eps u1
        # (u1 > 0 at the default seed) passes
        rc = main(["jacobi", "--catalog", "euclidean2", "--x", "0,0", "--mu", "2,0",
                   "--t1", "1.5", "--step", "0.375", "--out", str(tmp_path / "face")])
        capsys.readouterr()
        assert rc == 0
        report = read_report(tmp_path / "face")
        assert report["check.stayed_in_domain.pass"] == "true"
        assert report["dexp_vs_fd"] == "skipped: perturbed geodesic left the domain"
        assert "check.dexp_vs_fd.pass" not in report

    def test_jacobi_notes_dexp_vs_fd_where_the_chart_is_not_transitive(self, tmp_path, capsys):
        # the anchor rank is below n on the first three, n on the sphere
        for name in ("so3_biinv", "aff2", "foliation_xy", "sphere_chart"):
            rc = main(["jacobi", "--catalog", name, "--out", str(tmp_path / name)])
            capsys.readouterr()
            assert rc == 0
            report = read_report(tmp_path / name)
            if name == "sphere_chart":
                assert "dexp_vs_fd" not in report and report["check.dexp_vs_fd.pass"] == "true"
            else:
                assert report["dexp_vs_fd"] == "not_applicable", name
                assert "check.dexp_vs_fd.pass" not in report

    def test_oneill_notes_skipped_curvature_identities(self, tmp_path, capsys):
        # the leaf stencil around x1 = 0.004 (step 2e-3, two steps each way)
        # reaches x1 = 0, where the anchor diag(x1, 1) drops rank
        f = tmp_path / "leaf.chart"
        f.write_text("[algebroid]\nn = 2\nr = 2\ndomain = -1,1 ; -1,1\nb = x1, 0 ; 0, 1\n"
                     "[metric]\ng 1,1 = 1\ng 2,2 = 1\n")
        rc = main(["oneill", "--chart", str(f), "--x", "0.004,0", "--out", str(tmp_path / "o")])
        capsys.readouterr()
        assert rc == 0
        report = read_report(tmp_path / "o")
        assert report["anchor_rank"] == "2"
        assert report["curvature_identities"] == "skipped: leaf metric matrix needs a transitive chart"
        assert not any(key.startswith("check.curvature_") for key in report)

    def test_variation_check_flat(self, tmp_path, capsys):
        rc = main(["variation-check", "--catalog", "euclidean2", "--out", str(tmp_path)])
        capsys.readouterr()
        assert rc == 0
        rows = read_csv(tmp_path / "variation-check.csv")
        checks = {r["check"] for r in rows}
        assert "pencil_vs_jacobi_ode" in checks
        assert "commutation_residual" in checks


@pytest.mark.parametrize(
    "argv",
    [
        ["geodesic", "--step", "0"],
        ["geodesic", "--step", "-0.5"],
        ["geodesic", "--step", "nan"],
        ["validate", "--tol", "0"],
        ["geodesic", "--tol", "-1", "--mu", "10,0"],  # rejected before the domain exit
        ["divergence", "--samples", "-3"],
        ["geodesic", "--t1", "0"],
        ["geodesic", "--x", "nan,0"],
        ["geodesic", "--mu", "0.5,inf"],
        ["transport", "--s0", "1,-inf"],
        ["jacobi", "--beta0", "0,nan"],
        ["jacobi", "--dbeta0", "inf,0"],
    ],
)
def test_bad_numeric_flag_exits_2(argv, tmp_path, capsys):
    rc = main([*argv, "--catalog", "euclidean2", "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith(f"error: {argv[1]} must be finite")
    assert not (tmp_path / "report.txt").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["geodesic", "--x", "-0.5,0.3", "--mu", "0.1,0.1"],
        ["geodesic", "--mu", "-1e-3,0.2"],
        ["geodesic", "--t1", "-1e-7"],
        ["geodesic", "--step", "-1e-3"],
        ["transport", "--s0", "-0.5,0.3"],
        ["jacobi", "--beta0", "-1e-7,0", "--dbeta0", "-0.2,0.1"],
    ],
)
def test_a_negative_value_reads_as_its_equals_form(argv, tmp_path, capsys):
    # argparse alone takes -1 and -0.5 for values, but not -0.5,0.3 or -1e-3
    verb, pairs = argv[0], list(zip(argv[1::2], argv[2::2]))
    forms = {"apart": argv[1:], "equals": [f"{flag}={value}" for flag, value in pairs]}
    runs = {}
    for name, flags in forms.items():
        rc = main([verb, *flags, "--catalog", "euclidean2", "--out", str(tmp_path / name)])
        csv_file = tmp_path / name / f"{verb}.csv"
        runs[name] = rc, capsys.readouterr().err, csv_file.read_bytes() if csv_file.exists() else None
    assert runs["apart"] == runs["equals"]
    rc, err, written = runs["apart"]
    if "--step" in argv:
        assert (rc, written) == (2, None)
        assert err == "error: --step must be finite and positive, got -0.001\n"
    else:
        assert rc == 0 and written


@pytest.mark.parametrize(
    "argv, error",
    [
        ("geodesic --catalog euclidean2 --x 1,a", "cannot parse --x '1,a' as comma-separated reals"),
        ("geodesic --catalog euclidean2 --x 1", "--x needs 2 components, got 1"),
        ("validate --catalog nope", "unknown catalog entry 'nope'; available: " + ", ".join(catalog.names())),
        ("validate --chart missing.chart", "chart file not found: missing.chart"),
        ("catalog --name nope", "unknown catalog entry 'nope'; available: " + ", ".join(catalog.names())),
        # an --out that names an existing file
        ("validate --catalog euclidean2 --out a_file", "--out a_file: cannot make the directory (File exists)"),
    ],
)
def test_a_bad_point_or_source_exits_2(argv, error, tmp_path, capsys, monkeypatch):
    # exit 2 leaves no file behind: none in --out, and a_file as it was
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a_file").write_text("kept\n")
    words = argv.split()
    rc = main(words if "--out" in words else [*words, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {error}\n"
    assert [p for p in tmp_path.rglob("*") if not p.is_dir()] == [tmp_path / "a_file"]
    assert (tmp_path / "a_file").read_text() == "kept\n"


@pytest.mark.parametrize(
    "argv, error",
    [
        ("geodesic --t1 1e12", "a time grid of 1e+15 steps (0.001 over [0, 1e+12]); at most 100000 are supported"),
        ("variation-check --step 1e-12", "a time grid of 1e+12 steps (1e-12 over [0, 1]); at most 100000 are supported"),
        ("hamcheck --samples 1000000000000", "point sampling supports at most 500000 points, got 1000000000000"),
        ("validate --samples 1000000000000", "point sampling supports at most 500000 points, got 1000000000000"),
    ],
)
def test_a_size_beyond_its_bound_exits_2(argv, error, tmp_path, capsys):
    rc = main([*argv.split(), "--catalog", "euclidean2", "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {error}\n"
    assert not (tmp_path / "report.txt").exists()


@pytest.mark.parametrize("seed", ["-5", str(2**40)])
def test_any_integer_seeds_variation_check(seed, tmp_path, capsys):
    # the test field's frequencies come from a RandomState, seeded in [0, 2**32)
    rc = main(["variation-check", "--catalog", "euclidean2", "--seed", seed, "--out", str(tmp_path)])
    capsys.readouterr()
    assert rc == 0


def test_the_step_bound_admits_its_own_count():
    from algebroid.paths import MAX_GRID_STEPS, _grid
    from algebroid.errors import InputError

    assert len(_grid((0.0, 1.0), 1.0 / MAX_GRID_STEPS)) == MAX_GRID_STEPS + 1
    with pytest.raises(InputError, match="at most 100000"):
        _grid((0.0, 1.0), 1.0 / (MAX_GRID_STEPS + 1))


class TestApathRoundoffFloor:
    """apath_residual reads a Hermite derivative whose roundoff is about
    eps max|x| / h: a residual up to 50 times that passes as roundoff."""

    @pytest.mark.parametrize("argv", ["--step 1e-7 --t1 1e-4", "--step 1e-8 --t1 1e-5", "--t1 1e-9"])
    def test_a_small_step_on_a_flat_chart_passes(self, argv, tmp_path, capsys):
        rc = main(["geodesic", "--catalog", "euclidean2", *argv.split(), "--out", str(tmp_path)])
        capsys.readouterr()
        assert rc == 0
        report = read_report(tmp_path)
        assert float(report["apath_roundoff_floor"]) > 1e-9
        assert report["check.apath_residual.residual"] == "0"

    def test_the_floor_is_noted_only_where_it_decides(self, tmp_path, capsys):
        rc = main(["geodesic", "--catalog", "euclidean2", "--out", str(tmp_path)])
        capsys.readouterr()
        assert rc == 0
        assert "apath_roundoff_floor" not in read_report(tmp_path)

    @pytest.mark.parametrize("argv", ["", "--step 1e-7 --t1 1e-4"])
    def test_a_base_velocity_off_by_1e_5_still_fails(self, argv, tmp_path, capsys, monkeypatch):
        from algebroid import metric as metric_module

        field = metric_module._Connection.geodesic

        def skewed(ev, y, keep):
            dy = field(ev, y, keep)
            dy[..., : ev.n] *= 1 + 1e-5
            return dy

        monkeypatch.setattr(metric_module._Connection, "geodesic", skewed)
        rc = main(["geodesic", "--catalog", "euclidean2", *argv.split(), "--out", str(tmp_path)])
        capsys.readouterr()
        report = read_report(tmp_path)
        assert rc == 1
        assert report["check.apath_residual.pass"] == "false"
        assert "apath_roundoff_floor" not in report


def _wide_chart(n, r):
    """Anchor a1 = d/dx1 and zeros, identity metric, box [-1, 1]^n."""
    rows = " ; ".join(", ".join(["1" if s == i == 0 else "0" for i in range(n)]) for s in range(r))
    diagonal = "".join(f"g {s},{s} = 1\n" for s in range(1, r + 1))
    return f"[algebroid]\nn = {n}\nr = {r}\ndomain = {' ; '.join(['-1,1'] * n)}\nb = {rows}\n[metric]\n{diagonal}"


@pytest.mark.parametrize(
    "n, r, argv, code",
    [(31, 1, verb, 2) for verb in ("validate", "divergence", "hamcheck", "geodesic")]
    + [(1, 31, verb, 2) for verb in ("divergence", "hamcheck", "geodesic")]
    # samples only the 1-dimensional base; one sample keeps the suite
    # fast, as the default 200 take about 2.4 s at r = 31
    + [(1, 31, "validate --samples 1", 0)],
)
def test_a_chart_beyond_the_samplers_dimensions_exits_2(n, r, argv, code, tmp_path, capsys):
    f = tmp_path / "wide.chart"
    f.write_text(_wide_chart(n, r))
    rc = main([*argv.split(), "--chart", str(f), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == code
    if code == 2:
        assert err == "error: point sampling supports at most 30 dimensions, got 31\n"


def test_console_script_help():
    out = subprocess.run(
        [sys.executable, "-m", "algebroid.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    for verb in _VERBS:
        assert verb in out.stdout


def test_the_parser_is_built_once_and_keeps_no_flag(tmp_path, capsys, monkeypatch):
    added = []
    add_argument = argparse.ArgumentParser.add_argument
    monkeypatch.setattr(
        argparse.ArgumentParser, "add_argument", lambda self, *a, **k: added.append(a) or add_argument(self, *a, **k)
    )
    argv = ["validate", "--catalog", "euclidean2", "--samples", "8"]
    assert main([*argv, "--tol", "1e-300", "--out", str(tmp_path / "a")]) == 0
    assert main([*argv, "--out", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    assert added == []
    assert float(read_report(tmp_path / "a")["check.jacobi.tolerance"]) == 1e-300
    assert float(read_report(tmp_path / "b")["check.jacobi.tolerance"]) == CHECKS["validate"]["jacobi"][0]


@pytest.mark.parametrize("name", catalog.names())
def test_variation_check_passes_on_every_catalog_chart(name, tmp_path, capsys):
    rc = main(["variation-check", "--catalog", name, "--out", str(tmp_path)])
    capsys.readouterr()
    assert rc == 0
    assert_table_tolerances("variation-check", tmp_path)


@pytest.mark.parametrize("name, factor", [("sphere_chart", 0.0), ("heisenberg_central", 0.5)])
def test_variation_check_catches_a_broken_curvature(name, factor, tmp_path, capsys, monkeypatch):
    # R zeroed or halved in the commutation identity's connection record:
    # the residual stops converging, and only the convergence check fails
    import algebroid.variations as variations

    exact = variations.christoffel

    def broken(*args):
        ch = exact(*args)
        ch.R = factor * ch.R
        return ch

    monkeypatch.setattr(variations, "christoffel", broken)
    rc = main(["variation-check", "--catalog", name, "--out", str(tmp_path)])
    capsys.readouterr()
    assert rc == 1
    report = read_report(tmp_path)
    failed = {k for k, v in report.items() if k.endswith(".pass") and v == "false"}
    assert failed == {"check.commutation_convergence_order.pass"}
    orders = [float(o) for o in report["commutation_orders"].split(",")]
    assert max(orders) < 0.1


def test_variation_check_makes_one_connection_record_per_commutation_mesh(tmp_path, capsys, monkeypatch):
    # the residual reads R off the record that gives it Gamma
    import algebroid.cli as cli
    import algebroid.metric as metric_module

    def refuse(*args):
        raise AssertionError("curvature called")

    shapes = []
    record = metric_module._Connection.christoffel

    def counting(ev, x):
        shapes.append(np.shape(x)[:-1])
        return record(ev, x)

    monkeypatch.setattr(metric_module, "curvature", refuse)
    monkeypatch.setattr(metric_module._Connection, "christoffel", counting)
    rc = main(["variation-check", "--catalog", "sphere_chart", "--out", str(tmp_path)])
    capsys.readouterr()
    assert rc == 0
    assert [shapes.count((N, N)) for N in cli.COMMUTATION_LADDER] == [1] * len(cli.COMMUTATION_LADDER)


def test_variation_check_flat_cutoff_scales_with_the_mesh(tmp_path, capsys, monkeypatch):
    # on a flat chart the residual is roundoff growing like N^2; at N = 321
    # it is above any fixed cutoff of 1e-10 and still counts as flat
    import algebroid.cli as cli

    monkeypatch.setattr(cli, "COMMUTATION_LADDER", (161, 321))
    rc = main(["variation-check", "--catalog", "foliation_xy", "--out", str(tmp_path)])
    capsys.readouterr()
    assert rc == 0
    rows = read_csv(tmp_path / "variation-check.csv")
    rows = [r for r in rows if r["check"] == "commutation_residual"]
    assert [r["level"] for r in rows] == ["161", "321"]
    assert float(rows[-1]["value"]) > 1e-10
    assert "commutation_orders" not in read_report(tmp_path)


def test_variation_check_integrates_one_family_per_job(tmp_path, capsys, monkeypatch):
    # one five-row pencil serves the geodesic precondition, the Jacobi
    # comparison and the defect; the commutation ladder adds one pencil per
    # rung, and each pencil gets one transverse solve
    import algebroid.cli as cli
    import algebroid.variations as variations

    rows, solves = [], []

    def counted_geodesics(chart, metric, x0, mu0, *rest):
        rows.append(len(mu0))
        return geodesics(chart, metric, x0, mu0, *rest)

    def counted_solve(chart, metric, grid, beta0):
        solves.append(len(grid.eps))
        return solve(chart, metric, grid, beta0)

    geodesics, solve = variations._geodesics, variations.solve_transverse
    monkeypatch.setattr(variations, "_geodesics", counted_geodesics)
    monkeypatch.setattr(variations, "solve_transverse", counted_solve)
    monkeypatch.setattr(cli, "solve_transverse", counted_solve)
    rc = main(["variation-check", "--catalog", "sphere_chart", "--out", str(tmp_path)])
    capsys.readouterr()
    assert rc == 0
    assert rows == [5, *cli.COMMUTATION_LADDER]
    assert solves == [5, *cli.COMMUTATION_LADDER]


FLOW_VERBS = ["geodesic", "exp", "transport", "jacobi"]


def twisted_source(tmp_path):
    entry = catalog.twisted()
    path = tmp_path / "twisted.chart"
    path.write_text(dumps_chart(entry.chart, entry.metric))
    return ["--chart", str(path)]


def test_variation_check_leaving_the_box_exits_1(tmp_path, capsys):
    # the default start fits the small box of the twisted chart; a given
    # --mu is not rescaled, and this one's pencil leaves the box: the
    # domain exit is reported as a failed check, not a crash
    source = twisted_source(tmp_path)
    rc = main(["variation-check", *source, "--out", str(tmp_path / "seed")])
    assert rc == 0
    assert "overall_pass=true" in capsys.readouterr().out.splitlines()
    rc = main(["variation-check", *source, "--mu", "1,0.5,0", "--out", str(tmp_path / "given")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("check failed: trajectory left the chart domain")


@pytest.mark.parametrize("verb", FLOW_VERBS)
def test_a_given_mu_is_never_rescaled(verb, tmp_path, capsys):
    # at the default seed the twisted chart scales the default mu by 0.15;
    # the same mu given with --mu runs as given and leaves the box
    source = twisted_source(tmp_path)
    rc = main([verb, *source, "--out", str(tmp_path / "default")])
    capsys.readouterr()
    assert rc == 0
    assert float(read_report(tmp_path / "default")["default_mu_scale"]) < 0.2
    mu = ",".join("%.17g" % v for v in sample_fiber(3, 1, 42, scale=0.5)[0])
    rc = main([verb, *source, f"--mu={mu}", "--out", str(tmp_path / "given")])
    capsys.readouterr()
    assert rc == 1
    report = read_report(tmp_path / "given")
    assert "default_mu_scale" not in report and "domain_exit_time" in report
    if verb == "geodesic":
        assert report["mu0"] == mu


# connection records of path length per flow verb at default argv: each
# verb's path has N nodes, and a solve's track has 2N - 1 half-grid points.
# transport's second track is the round trip's reversed path
PATH_RECORDS = {"geodesic": [], "exp": [], "transport": ["track", "track"],
                "jacobi": ["track"], "variation-check": ["track"]}


@pytest.mark.parametrize("name", ["sphere_chart", "twisted"])
def test_flow_verbs_make_their_ledger_of_path_records(name, tmp_path, capsys, monkeypatch):
    # the default start is fitted to the box from one metric evaluation,
    # on its ball of 1 + BALL_SAMPLES points; the start alone is not evaluated
    from algebroid import paths
    from algebroid.sampling import BALL_SAMPLES

    batches, evaluated = [], []
    christoffel, evaluate = paths.christoffel, MetricField.eval

    def counted_christoffel(chart, metric, x, *rest):
        batches.append(np.shape(x)[:-1])
        return christoffel(chart, metric, x, *rest)

    def counted_eval(self, points, *rest, **kwargs):
        evaluated.append(np.shape(points))
        return evaluate(self, points, *rest, **kwargs)

    monkeypatch.setattr(paths, "christoffel", counted_christoffel)
    monkeypatch.setattr(MetricField, "eval", counted_eval)
    source = twisted_source(tmp_path) if name == "twisted" else ["--catalog", name]
    n = catalog.twisted().chart.n if name == "twisted" else catalog.get(name).chart.n
    for verb, records in PATH_RECORDS.items():
        batches.clear()
        evaluated.clear()
        rc = main([verb, *source, "--out", str(tmp_path / verb)])
        capsys.readouterr()
        assert rc == 0, verb
        N = 501 if verb == "variation-check" else 1001  # default --step 2e-3 / 1e-3 over [0, 1]
        sizes = {"nodes": (N,), "track": (2 * N - 1,)}
        assert [b for b in batches if b in sizes.values()] == [sizes[k] for k in records], verb
        assert (1, n) not in evaluated and (1, 1 + BALL_SAMPLES, n) in evaluated, verb
        if verb == "variation-check":  # the homotopy's row energies, evaluated once
            assert evaluated.count((len(variations.HOMOTOPY_EPS), N, n)) == 1


@pytest.mark.parametrize("verb", FLOW_VERBS + ["variation-check"])
@pytest.mark.parametrize("name, x", [("sphere_chart", "0.1,1"), ("euclidean2", "3,0")])
def test_a_default_start_on_a_face_exits_2(verb, name, x, tmp_path, capsys):
    # on a face of the box no default mu fits: it would scale to 0
    rc = main([verb, "--catalog", name, "--x", x, "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: no default mu fits the box at x=[") and err.endswith(": give --mu\n")
    assert not (tmp_path / "report.txt").exists()


def test_a_start_outside_the_box_keeps_the_drawn_mu(tmp_path, capsys):
    # there is no room to fit a mu into: the run exits the domain at its
    # first node, and the CSV shows the mu drawn from the seed
    rc = main(["exp", "--catalog", "sphere_chart", "--x", "5,0", "--out", str(tmp_path)])
    capsys.readouterr()
    assert rc == 1
    report = read_report(tmp_path)
    assert report["domain_exit_time"] == "0" and "default_mu_scale" not in report
    row = read_csv(tmp_path / "exp.csv")[0]
    assert [float(row["a1"]), float(row["a2"])] == sample_fiber(2, 1, 42, scale=0.5)[0].tolist()


POINTWISE_VERBS = ["validate", "curvature", "oneill", "divergence", "hamcheck"]


# every verb on every catalog chart and on the twisted chart, whose small
# box the flow verbs' default start fits
@pytest.mark.parametrize(
    "verb, name",
    [(v, n) for v in sorted(POINTWISE_VERBS + FLOW_VERBS) for n in catalog.names() + ["twisted"]],
)
def test_pointwise_verbs_pass_on_every_chart(verb, name, tmp_path, capsys):
    source = twisted_source(tmp_path) if name == "twisted" else ["--catalog", name]
    rc = main([verb, *source, "--out", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "overall_pass=true" in out.splitlines()
    assert_table_tolerances(verb, tmp_path / "out")


# a negative end time integrates backwards on a decreasing grid: the
# transport, reverse transport and Jacobi tracks read the path there too
@pytest.mark.parametrize(
    "verb, name", [(v, n) for v in ["geodesic", "transport", "jacobi"] for n in catalog.names()]
)
def test_backward_flows_pass_on_every_catalog_chart(verb, name, tmp_path, capsys):
    rc = main([verb, "--catalog", name, "--t1", "-1", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "overall_pass=true" in out.splitlines()
    rows = read_csv(tmp_path / f"{verb}.csv")
    assert float(rows[-1]["t"]) == -1.0


def test_tol_replaces_the_marked_checks(tmp_path, capsys):
    # aff2 has a zero anchor, so the divergence verb reports its fd check
    replaced = set()
    for verb in CHECKS:
        rc = main([verb, "--catalog", "aff2", "--tol", "1e-3", "--out", str(tmp_path / verb)])
        capsys.readouterr()
        assert rc == 0, verb
        replaced |= assert_table_tolerances(verb, tmp_path / verb, tol=1e-3)
    assert replaced == {c for rows in CHECKS.values() for c, (_, by_tol) in rows.items() if by_tol}


def test_docs_check_table_matches_the_code():
    text = (Path(__file__).resolve().parents[1] / "docs" / "chart_format.md").read_text()
    section = text.split("### Checks and tolerances", 1)[1].split("\n#", 1)[0]
    documented = {}
    for line in section.splitlines():
        if line.startswith("| `"):
            verb, check, tolerance, by_tol = (c.strip().strip("`") for c in line.strip("|").split("|"))
            assert by_tol in ("yes", "no"), line
            documented[verb, check] = (float(tolerance), by_tol == "yes")
    code = {(verb, c): row for verb, rows in CHECKS.items() for c, row in rows.items()}
    assert documented == code


def test_docs_input_table_matches_the_parser():
    # every flag read as a number (INT, REAL) or as comma-separated reals
    # (REALS) has a row of the input table, and every row names such a flag
    import re

    from algebroid.cli import _PARSER

    text = (Path(__file__).resolve().parents[1] / "docs" / "chart_format.md").read_text()
    table = text.split("| flag | rejected values |", 1)[1].split("\n\n", 1)[0]
    documented = set()
    for line in table.splitlines()[2:]:
        documented |= set(re.findall(r"`--([a-z0-9]+)`", line.strip("|").split("|")[0]))
    metavars = dict(re.findall(r"\[--([a-z0-9]+) ([A-Z]+)\]", _PARSER.format_usage()))
    assert set(metavars) == set(vars(_PARSER.parse_args(["catalog"]))) - {"verb"}
    read = {flag: vars(_PARSER.parse_args(["catalog", f"--{flag}", "1"]))[flag] for flag in metavars}
    numeric = {flag for flag, value in read.items() if isinstance(value, (int, float))}
    assert numeric == {flag for flag, m in metavars.items() if m in ("INT", "REAL")}
    assert documented == numeric | {flag for flag, m in metavars.items() if m == "REALS"}


@pytest.mark.parametrize("argv", [[], ["--catalog", "euclidean2"], ["frobnicate"]])
def test_missing_or_unknown_verb_exits_2(argv, tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        main([*argv, "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert info.value.code == 2
    assert err.startswith("usage: algebroid")
    assert not (tmp_path / "report.txt").exists()


# charts whose anchor (A) or bracket (B) overflows at every point of the box
# but the box's edge: the split frame names the array before its SVD
_SPLIT_FRAME_CHARTS = {
    "anchor": "[algebroid]\nn = 1\nr = 2\ndomain = 0.2,1.5\nb = 0 ; cosh(1e150 * x1)\n"
              "[metric]\ng 1,1 = 1\ng 2,2 = 1\n",
    "bracket": "[algebroid]\nn = 2\nr = 2\ndomain = 0.2,1.5 ; 0.2,1.5\nb = 1, 1 ; -2, 1\n"
               "C 1,2,2 = sinh(1e150 * x2)\n[metric]\ng 1,1 = 1\ng 2,2 = 1\n",
}


@pytest.mark.parametrize("array", sorted(_SPLIT_FRAME_CHARTS))
@pytest.mark.parametrize("verb", ["divergence", "oneill"])
def test_a_non_finite_split_frame_is_named(verb, array, tmp_path, capsys):
    f = tmp_path / "overflow.chart"
    f.write_text(_SPLIT_FRAME_CHARTS[array])
    rc = main([verb, "--chart", str(f), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"check failed: {array} not finite at x=[")
    assert err.count("\n") == 1


def test_an_overflowing_literal_exits_2(tmp_path, capsys):
    f = tmp_path / "literal.chart"
    f.write_text("[algebroid]\nn = 1\nr = 1\ndomain = -1,1\nb = x1 + 1e999\n[metric]\ng 1,1 = 1\n")
    rc = main(["validate", "--chart", str(f), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: malformed chart file: ")
    assert "number '1e999' out of range (at position 5)" in err


def test_an_internal_fault_propagates(tmp_path, capsys, monkeypatch):
    # numpy's broadcasting error is a ValueError, but neither an input error
    # nor a failed check: main lets it out with its traceback, no report
    import algebroid.cli as cli

    def broken(chart, metric, x):
        return np.ones(2) + np.ones(3)

    monkeypatch.setattr(cli, "koszul_rhs", broken)
    with pytest.raises(ValueError, match="operands could not be broadcast"):
        main(["curvature", "--catalog", "sphere_chart", "--out", str(tmp_path)])
    assert capsys.readouterr().err == ""
    assert not (tmp_path / "report.txt").exists()


@pytest.mark.parametrize("step", ["1", "0.6667"])
def test_variation_check_on_a_too_coarse_mesh_exits_2(step, tmp_path, capsys, monkeypatch):
    # a step above 2/3 leaves fewer than 3 time nodes on [0, 1]; it is
    # rejected before any flow runs
    import algebroid.cli as cli

    def no_flow(*args, **kwargs):
        raise AssertionError("a flow ran")

    monkeypatch.setattr(cli, "make_geodesic_pencil", no_flow)
    monkeypatch.setattr(cli, "_jacobi", no_flow)
    rc = main(["variation-check", "--catalog", "sphere_chart", "--step", step, "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err == "error: mesh too coarse: need at least 3 nodes per direction\n"
    assert not (tmp_path / "report.txt").exists()


def test_variation_check_on_a_non_geodesic_pencil_exits_1(tmp_path, capsys):
    # at step 0.6 the pencil's middle row misses the geodesic tolerance: the
    # verb reports that check, as jacobi does, and runs no further flow
    rc = main(["variation-check", "--catalog", "sphere_chart", "--step", "0.6", "--out", str(tmp_path)])
    assert capsys.readouterr().err == ""
    assert rc == 1
    report = read_report(tmp_path)
    assert report["check.geodesic_residual.pass"] == "false"
    assert float(report["check.geodesic_residual.tolerance"]) == CHECKS["variation-check"]["geodesic_residual"][0]
    assert [k for k in report if k.startswith("check.")] == [
        f"check.geodesic_residual.{key}" for key in ("residual", "tolerance", "pass")
    ]
    rows = read_csv(tmp_path / "variation-check.csv")
    assert rows == [{"check": "geodesic_residual", "level": "0", "value": report["check.geodesic_residual.residual"]}]


# g overflows at every point of the box
_COSH_METRIC = ("[algebroid]\nn = 2\nr = 2\ndomain = 1,2 ; -1,1\nb = 1, 0 ; 0, 1\n"
                "[metric]\ng 1,1 = 1\ng 2,2 = cosh(1000 * x1)\n")


@pytest.mark.parametrize("verb", ["validate", "curvature", "oneill", "divergence", "hamcheck", "geodesic"])
def test_no_numpy_warning_reaches_stderr(verb, tmp_path, capsys):
    f = tmp_path / "cosh.chart"
    f.write_text(_COSH_METRIC)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main([verb, "--chart", str(f), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 1
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    if verb == "validate":  # reported as a failed check, not raised
        assert err == ""
        assert read_report(tmp_path / "o")["check.metric_spd.pass"] == "false"
    else:
        assert err.startswith("check failed: metric not finite at x=[")
        assert err.count("\n") == 1


# A seeded fuzz of the chart input: random expressions over the grammar,
# fixed generator and seed.  Overflowing constants, poles, branch points
# and indefinite metrics all occur; a case that breaks a rule below is a
# bug to mend, never one to leave out.
_FUZZ_CONSTANTS = ("0", "0.5", "2", "3", "1e-6", "1e150", "1e300")
_FUZZ_FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt", "sinh", "cosh")


def _fuzz_expression(rng, n, depth=3):
    if depth == 0 or rng.rand() < 0.3:
        if rng.rand() < 0.6:
            return f"x{rng.randint(1, n + 1)}"
        return _FUZZ_CONSTANTS[rng.randint(len(_FUZZ_CONSTANTS))]
    a = _fuzz_expression(rng, n, depth - 1)
    kind = rng.randint(3)
    if kind == 0:
        return f"{_FUZZ_FUNCTIONS[rng.randint(len(_FUZZ_FUNCTIONS))]}({a})"
    if kind == 1:
        return f"({a} {'+-*/'[rng.randint(4)]} {_fuzz_expression(rng, n, depth - 1)})"
    return f"({a})^{('2', '3', '-1')[rng.randint(3)]}"


def _fuzz_chart(rng):
    """n, r in 1..3 over a random box; anchor entries 0, 1 or random, each
    bracket entry random with probability 0.3, each metric diagonal entry 1
    or (probability 0.3) random."""
    n, r = rng.randint(1, 4), rng.randint(1, 4)
    lo = np.round(rng.uniform(-2.0, 1.0, n), 2)
    hi = np.round(lo + rng.uniform(0.2, 2.0, n), 2)
    entry = lambda: _fuzz_expression(rng, n) if rng.rand() < 0.5 else "01"[rng.randint(2)]
    lines = ["[algebroid]", f"n = {n}", f"r = {r}",
             "domain = " + " ; ".join(f"{a},{b}" for a, b in zip(lo, hi)),
             "b = " + " ; ".join(", ".join(entry() for _ in range(n)) for _ in range(r))]
    lines += [f"C {s},{t},{u} = {_fuzz_expression(rng, n)}" for s in range(1, r + 1)
              for t in range(s + 1, r + 1) for u in range(1, r + 1) if rng.rand() < 0.3]
    lines.append("[metric]")
    lines += [f"g {s},{s} = {_fuzz_expression(rng, n) if rng.rand() < 0.3 else '1'}" for s in range(1, r + 1)]
    return "\n".join(lines) + "\n"


_FUZZ_RNG = np.random.RandomState(20261019)
_FUZZ_CHARTS = {
    **{f"random{k:02d}": _fuzz_chart(_FUZZ_RNG) for k in range(40)},
    **{f"non_finite_{array}": text for array, text in _SPLIT_FRAME_CHARTS.items()},
    "cosh_metric": _COSH_METRIC,
}


@pytest.mark.parametrize("name", sorted(_FUZZ_CHARTS))
def test_fuzzed_charts_exit_cleanly(name, tmp_path, capsys):
    # every run exits 0, 1 or 2 with no exception and no numpy warning; an
    # input error says `error: `, a failed check says `check failed: ` or
    # nothing (the failed check is in report.txt); a run that passes wrote
    # no nan or inf CSV cell.  The flows take a coarse step to stay fast.
    f = tmp_path / "fuzz.chart"
    f.write_text(_FUZZ_CHARTS[name])
    for verb in POINTWISE_VERBS + FLOW_VERBS:
        out = tmp_path / verb
        extra = ["--samples", "20"] if verb in POINTWISE_VERBS else ["--step", "0.01"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main([verb, "--chart", str(f), "--out", str(out), *extra])
        err = capsys.readouterr().err
        assert rc in (0, 1, 2), (verb, rc)
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == [], (verb, err)
        if rc == 2:
            assert err.startswith("error: "), (verb, err)
        if rc == 1:
            assert err == "" or err.startswith("check failed: "), (verb, err)
            assert (err == "") == (out / "report.txt").exists(), (verb, err)
        if rc == 0:
            cells = {cell for path in out.glob("*.csv") for row in read_csv(path) for cell in row.values()}
            assert not cells & {"nan", "inf", "-inf"}, verb
