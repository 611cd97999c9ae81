import argparse
import csv
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from algebroid import catalog
from algebroid.chartfile import dumps_chart
from algebroid.cli import _VERBS, CHECKS, main
from algebroid.metric import MetricField
from algebroid.sampling import sample_fiber


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

    def test_jacobi_integrates_its_geodesic_once(self, tmp_path, capsys, monkeypatch):
        # at the default t1 = 1 the dexp check reuses the verb's own path
        from algebroid import cli, paths

        spans = []
        integrate = paths.geodesic_integrate

        def counted(chart, metric, start, t_span=(0.0, 1.0), step=1e-3):
            spans.append(tuple(t_span))
            return integrate(chart, metric, start, t_span, step)

        monkeypatch.setattr(paths, "geodesic_integrate", counted)
        monkeypatch.setattr(cli, "geodesic_integrate", counted)
        rc = main(["jacobi", "--catalog", "sphere_chart", "--out", str(tmp_path)])
        capsys.readouterr()
        assert rc == 0
        assert read_report(tmp_path)["check.dexp_vs_fd.pass"] == "true"
        assert spans == [(0.0, 1.0)]

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

    def test_oneill_evaluates_its_point_once(self, tmp_path, capsys, monkeypatch):
        # one split frame at x serves the tensors and both checks, and its
        # connection record forms dGamma (for R) once, only where an identity
        # applies: none does on foliation_xy.  The second connection call on
        # heisenberg_central makes the frames at the mixed identity's 2n
        # difference points.
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
            ("heisenberg_central", 2, 1),
            ("sphere_chart", 1, 1),
            ("so3_biinv", 1, 1),
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
        # the path to t1 = 0.5 stays in the box, the time-1 geodesics of the
        # dexp check leave it
        rc = main(["jacobi", "--catalog", "euclidean2", "--x", "0,0", "--mu", "4,0",
                   "--t1", "0.5", "--out", str(tmp_path)])
        capsys.readouterr()
        assert rc == 0
        report = read_report(tmp_path)
        assert report["dexp_vs_fd"] == "skipped: perturbed geodesic left the domain"

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


def _wide_chart(n, r):
    """Anchor a1 = d/dx1 and zeros, identity metric, box [-1, 1]^n."""
    rows = " ; ".join(", ".join(["1" if s == i == 0 else "0" for i in range(n)]) for s in range(r))
    diagonal = "".join(f"g {s},{s} = 1\n" for s in range(1, r + 1))
    return f"[algebroid]\nn = {n}\nr = {r}\ndomain = {' ; '.join(['-1,1'] * n)}\nb = {rows}\n[metric]\n{diagonal}"


@pytest.mark.parametrize(
    "n, r, argv, code",
    [(31, 1, verb, 2) for verb in ("validate", "divergence", "hamcheck", "geodesic")]
    + [(1, 31, verb, 2) for verb in ("divergence", "hamcheck", "geodesic")]
    # samples only the 1-dimensional base; one sample keeps the r^4
    # Jacobi array small
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
    # R zeroed or halved in the commutation identity: the residual stops
    # converging, and only the convergence check fails
    import algebroid.variations as variations

    exact = variations.curvature
    monkeypatch.setattr(variations, "curvature", lambda *a: factor * exact(*a))
    rc = main(["variation-check", "--catalog", name, "--out", str(tmp_path)])
    capsys.readouterr()
    assert rc == 1
    report = read_report(tmp_path)
    failed = {k for k, v in report.items() if k.endswith(".pass") and v == "false"}
    assert failed == {"check.commutation_convergence_order.pass"}
    orders = [float(o) for o in report["commutation_orders"].split(",")]
    assert max(orders) < 0.1


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


@pytest.mark.parametrize("argv", [[], ["--catalog", "euclidean2"], ["frobnicate"]])
def test_missing_or_unknown_verb_exits_2(argv, tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        main([*argv, "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert info.value.code == 2
    assert err.startswith("usage: algebroid")
    assert not (tmp_path / "report.txt").exists()
