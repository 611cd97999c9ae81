import gc
import weakref

import numpy as np
import pytest

from algebroid import catalog
from algebroid.charts import AlgebroidChart, AVector, SectionField
from algebroid.expressions import parse
from algebroid.paths import geodesic_integrate, geodesic_rhs
from algebroid.metric import (
    MetricError,
    MetricField,
    christoffel,
    covariant_derivative,
    curvature,
    fiber_inner,
    koszul_rhs,
    sectional_curvature,
)
from algebroid.sampling import sample_box, sample_fiber


def gauss_curvature_diagonal(E_expr, G_expr, x):
    """Classical Gauss curvature of a diagonal 2D metric diag(E, G).

    K = -1/(2 sqrt(EG)) [ d1( d1 G / sqrt(EG) ) + d2( d2 E / sqrt(EG) ) ],
    assembled from exact first/second derivatives of E and G.  Independent
    of the connection machinery.
    """
    re = E_expr.evaluate(x)
    rg = G_expr.evaluate(x)
    E, G = re.value, rg.value
    dE, dG = re.gradient, rg.gradient
    hE, hG = re.hessian, rg.hessian
    W = np.sqrt(E * G)
    dW = (dE * G + E * dG) / (2.0 * W)
    term1 = (hG[0, 0] * W - dG[0] * dW[0]) / (W * W)
    term2 = (hE[1, 1] * W - dE[1] * dW[1]) / (W * W)
    return -(term1 + term2) / (2.0 * W)


# hand-expanded Koszul table for the central-extension chart (identity
# metric, [a1,a2] = a3): D_{a1}a2 = a3/2, D_{a2}a1 = -a3/2,
# D_{a1}a3 = D_{a3}a1 = -a2/2, D_{a2}a3 = D_{a3}a2 = a1/2, rest zero.
HEISENBERG_D = {
    (0, 1): np.array([0.0, 0.0, 0.5]),
    (1, 0): np.array([0.0, 0.0, -0.5]),
    (0, 2): np.array([0.0, -0.5, 0.0]),
    (2, 0): np.array([0.0, -0.5, 0.0]),
    (1, 2): np.array([0.5, 0.0, 0.0]),
    (2, 1): np.array([0.5, 0.0, 0.0]),
}


def heisenberg_curvature_bruteforce(i, j, k):
    """R(a_i,a_j)a_k from the constant product table above."""

    def D(i, vec):
        out = np.zeros(3)
        for t in range(3):
            if vec[t] != 0 and (i, t) in HEISENBERG_D:
                out = out + vec[t] * HEISENBERG_D[(i, t)]
        return out

    ek = np.eye(3)[k]
    first = D(i, D(j, ek)) - D(j, D(i, ek))
    bracket = np.zeros(3)
    if (i, j) == (0, 1):
        bracket = np.eye(3)[2]
    elif (i, j) == (1, 0):
        bracket = -np.eye(3)[2]
    correction = np.zeros(3)
    for t in range(3):
        if bracket[t] != 0:
            correction = correction + bracket[t] * D(t, ek)
    return first - correction


class TestChristoffel:
    def test_biinvariant_half_structure_constants(self, so3):
        x = np.array([0.0])
        ch = christoffel(so3.chart, so3.metric, x)
        C, _ = so3.chart.eval_bracket(x)
        assert np.max(np.abs(ch.gamma - 0.5 * C)) < 1e-14

    def test_flat_chart_zero(self, euclidean2):
        ch = christoffel(euclidean2.chart, euclidean2.metric, np.array([0.5, -0.5]))
        assert np.max(np.abs(ch.gamma)) == 0.0
        assert np.max(np.abs(ch.dgamma)) == 0.0

    def test_affine_algebra_table(self, aff2):
        # Koszul by hand: only D_{e2}e1 = -e2 and D_{e2}e2 = e1 survive
        ch = christoffel(aff2.chart, aff2.metric, np.array([0.0]))
        expected = np.zeros((2, 2, 2))
        expected[1, 0, 1] = -1.0
        expected[1, 1, 0] = 1.0
        np.testing.assert_allclose(ch.gamma, expected, atol=1e-15)

    @pytest.mark.parametrize("name", catalog.names())
    def test_koszul_consistency(self, name):
        # Gamma from the closed form against the six-term right side,
        # independently assembled (no inverse metric on that route)
        entry = catalog.get(name)
        pts = sample_box(entry.chart.domain, 25, seed=3, shrink=0.05)
        ch = christoffel(entry.chart, entry.metric, pts)
        G, _, _ = entry.metric.eval(pts)
        lhs = 2.0 * np.einsum("...ijl,...lk->...ijk", ch.gamma, G)
        rhs = koszul_rhs(entry.chart, entry.metric, pts)
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_dgamma_matches_finite_differences(self, sphere):
        x = np.array([1.1, 2.0])
        ch = christoffel(sphere.chart, sphere.metric, x)
        h = 1e-6
        for m in range(2):
            e = np.zeros(2)
            e[m] = h
            gp = christoffel(sphere.chart, sphere.metric, x + e).gamma
            gm = christoffel(sphere.chart, sphere.metric, x - e).gamma
            fd = (gp - gm) / (2 * h)
            np.testing.assert_allclose(ch.dgamma[..., m], fd, atol=1e-8)

    def test_constant_chart_memo_keeps_charts_apart(self):
        # many short-lived constant charts share one metric; each must get
        # its own coefficients even when a new chart reuses a freed address
        metric = MetricField.identity(3, 1)
        x = np.array([0.0])
        wrong = 0
        for k in range(399):
            c = str(1.0 + 0.01 * k)
            chart = AlgebroidChart(
                n=1,
                r=3,
                b=[["0"], ["0"], ["0"]],
                c_upper={(1, 2, 3): c, (2, 3, 1): c, (1, 3, 2): "-" + c},
            )
            fresh = MetricField.identity(3, 1)
            got = christoffel(chart, metric, x)
            want = christoffel(chart, fresh, x)
            wrong += not np.array_equal(got.gamma, want.gamma)
            wrong += not np.array_equal(got.dgamma, want.dgamma)
        assert wrong == 0


class TestConnectionEvaluator:
    def test_cache_releases_its_charts(self):
        metric = MetricField.identity(3, 2)
        charts = [catalog.twisted().chart, catalog.get("heisenberg_central").chart]
        for chart in charts:
            christoffel(chart, metric, np.array([0.8, 1.1]))
        assert len(metric._cache) == 2
        refs = [weakref.ref(chart) for chart in charts]
        del chart, charts
        gc.collect()
        assert all(ref() is None for ref in refs)
        assert len(metric._cache) == 0

    @pytest.mark.parametrize(
        "b,c",
        [
            # action algebroid of the affine group on the line: the anchor
            # varies, the bracket is constant and nonzero
            ([["1"], ["x1"]], {(1, 2, 1): "1"}),
            # a bracket linear in x1: C varies, dC is constant
            ([["1"], ["0"]], {(1, 2, 2): "x1"}),
        ],
    )
    def test_constant_metric_over_a_varying_chart(self, b, c, tmp_path, capsys):
        from algebroid.charts import validate
        from algebroid.chartfile import dumps_chart
        from algebroid.cli import main
        from algebroid.paths import jacobi_solve, parallel_transport
        from algebroid.splitting import divergence_terms

        chart = AlgebroidChart(n=1, r=2, b=b, c_upper=c, domain=[(-1.0, 1.0)])
        metric = MetricField.identity(2, 1)
        assert validate(chart).passed
        xs = sample_box(chart.domain, 7, seed=3)
        batch = christoffel(chart, metric, xs)
        assert batch.gamma.shape == (7, 2, 2, 2)
        assert batch.dgamma.shape == (7, 2, 2, 2, 1)
        for k, x in enumerate(xs):
            one = christoffel(chart, metric, x)
            assert one.gamma.tobytes() == np.ascontiguousarray(batch.gamma[k]).tobytes()
            assert one.dgamma.tobytes() == np.ascontiguousarray(batch.dgamma[k]).tobytes()
        R = curvature(chart, metric, xs)
        for k, x in enumerate(xs):
            assert curvature(chart, metric, x).tobytes() == R[k].tobytes()

        path = geodesic_integrate(chart, metric, AVector([0.1], [0.3, -0.2]), (0.0, 0.5), 1e-3)
        assert np.all(np.isfinite(parallel_transport(chart, metric, path, [1.0, 0.0]).values))
        assert np.all(np.isfinite(jacobi_solve(chart, metric, path, [0.0, 0.0], [0.1, 0.2]).values))
        mus = sample_box([(-1.0, 1.0)] * 2, 7, seed=5)
        trace, mean_curv = divergence_terms(chart, metric, AVector(xs, mus))
        assert trace.shape == mean_curv.shape == (7,)
        for k in (0, 6):
            one = divergence_terms(chart, metric, AVector(xs[k], mus[k]))
            assert one == (trace[k], mean_curv[k])

        chart_file = tmp_path / "action.chart"
        chart_file.write_text(dumps_chart(chart, metric))
        for verb in ("transport", "jacobi", "divergence"):
            argv = [verb, "--chart", str(chart_file), "--out", str(tmp_path / verb)]
            assert main(argv + ["--x", "0.1", "--mu", "0.3,-0.2"]) == 0, verb
        capsys.readouterr()

    @pytest.mark.parametrize("anchor", ["1", "x1"])
    def test_constant_metric_that_is_not_spd_raises_on_every_use(self, anchor):
        chart = AlgebroidChart(n=1, r=1, b=[[anchor]], domain=[(0.5, 1.5)])
        metric = MetricField({(1, 1): "-1"}, r=1, n=1)
        for x in (np.array([1.0]), np.array([[0.9], [1.1]])):
            with pytest.raises(MetricError, match="positive definite"):
                christoffel(chart, metric, x)
        with pytest.raises(MetricError, match="positive definite"):
            geodesic_integrate(chart, metric, AVector([1.0], [0.1]), (0.0, 0.1), 1e-2)

    @pytest.mark.parametrize(
        "name,runs", [("sphere_chart", [(1,)]), ("heisenberg_central", []), ("twisted", [(0, 0)])]
    )
    def test_program_runs_per_geodesic_rhs(self, name, runs, twisted_chart, monkeypatch):
        # sphere: the metric program only (the anchor is constant, the
        # bracket zero); heisenberg: Gamma and B are held by the evaluator;
        # twisted (identity metric): B and C in one chart run at order 0
        from algebroid import expressions
        from algebroid.paths import geodesic_rhs

        if name == "twisted":
            chart, metric = twisted_chart, MetricField.identity(3, 2)
        else:
            chart, metric = catalog.get(name).chart, catalog.get(name).metric
        x, mu = chart.center(), np.linspace(0.2, 0.4, chart.r)
        geodesic_rhs(chart, metric, x, mu)
        seen, run = [], expressions.Program.run

        def counted(prog, points, orders):
            seen.append(orders)
            return run(prog, points, orders)

        monkeypatch.setattr(expressions.Program, "run", counted)
        geodesic_rhs(chart, metric, x, mu)
        assert seen == runs

    @pytest.mark.parametrize(
        "name,keys",
        [
            ("heisenberg_central", ("gamma", "dgamma", "B", "C", "G")),
            # the anchor is the identity, the bracket zero; g varies
            ("sphere_chart", ("B", "C")),
        ],
    )
    def test_shared_constants_are_read_only(self, name, keys):
        chart, metric = catalog.get(name).chart, catalog.get(name).metric
        pts = sample_box(chart.domain, 3, seed=4)
        for x in (pts[0], pts):
            ch = christoffel(chart, metric, x)
            before = {key: getattr(ch, key).tobytes() for key in keys}
            for key in keys:
                with pytest.raises(ValueError, match="read-only"):
                    getattr(ch, key)[...] = 0.0
            again = christoffel(chart, metric, x)
            assert {key: getattr(again, key).tobytes() for key in keys} == before

    def test_a_checked_constant_anchor_is_run(self):
        # log(x1)^0 folds to the constant 1 but keeps its domain check
        from algebroid.expressions import EvalDomainError

        chart = AlgebroidChart(n=1, r=1, b=[["log(x1)^0"]], domain=[(-1.0, 1.0)])
        metric = MetricField.identity(1, 1)
        assert christoffel(chart, metric, np.array([0.5])).B.tolist() == [[1.0]]
        for x in (np.array([-0.5]), np.array([[0.5], [-0.5]])):
            with pytest.raises(EvalDomainError, match=r"log\(x1\)"):
                christoffel(chart, metric, x)

    @pytest.mark.parametrize("name", ["sphere_chart", "heisenberg_central", "twisted"])
    def test_oracles_do_not_read_the_connection(self, name, twisted_chart, monkeypatch):
        from algebroid import charts, hamiltonian, metric as metric_module, splitting

        if name == "twisted":
            chart, metric = twisted_chart, MetricField.identity(3, 2)
        else:
            chart, metric = catalog.get(name).chart, catalog.get(name).metric

        def refuse(*args):
            raise AssertionError("the connection evaluator was called")

        monkeypatch.setattr(metric_module._Connection, "christoffel", refuse)
        x = chart.center()
        with pytest.raises(AssertionError, match="evaluator was called"):
            christoffel(chart, metric, x)
        koszul_rhs(chart, metric, x)
        hamiltonian.hamiltonian_field(chart, metric, AVector(x, np.linspace(0.2, 0.4, chart.r)))
        # all three charts are transitive
        splitting.leaf_metric_matrix(chart, metric, x)
        splitting._classical_leaf_curvature(chart, metric, x)
        charts.validate(chart, samples=8)

    def test_varying_metric_is_checked_at_every_point(self):
        chart = AlgebroidChart(n=1, r=2, b=[["1"], ["0"]], domain=[(-1.0, 1.0)])
        metric = MetricField({(1, 1): "x1", (2, 2): "1"}, r=2, n=1)
        christoffel(chart, metric, np.array([0.5]))
        with pytest.raises(MetricError, match="positive definite"):
            christoffel(chart, metric, np.array([[0.5], [-0.5]]))


def structure_case(name, twisted_chart):
    """Chart, metric and a geodesic start: a catalog entry or the twisted chart."""
    if name == "twisted":
        return twisted_chart, MetricField.identity(3, 2), AVector([1.0, 0.9], [0.3, -0.2, 0.4])
    entry = catalog.get(name)
    return entry.chart, entry.metric, AVector([1.1, 0.4], [0.5, 0.3])


def record_runs(monkeypatch):
    """Wrap Program.run; returns the list of (program, orders) it is called with."""
    from algebroid.expressions import Program

    runs, run = [], Program.run

    def recorded(prog, points, orders):
        runs.append((prog, orders))
        return run(prog, points, orders)

    monkeypatch.setattr(Program, "run", recorded)
    return runs


class TestDerivativeOnRequest:
    @pytest.mark.parametrize("name", ["sphere_chart", "twisted"])
    def test_R_read_twice_runs_the_derivative_programs_once(self, name, twisted_chart, monkeypatch):
        chart, metric, _ = structure_case(name, twisted_chart)
        runs = record_runs(monkeypatch)
        for x in (chart.center(), sample_box(chart.domain, 4, seed=2)):
            ch = christoffel(chart, metric, x)
            before = len(runs)
            R = ch.R
            assert len(runs) == before + 1
            assert ch.R is R and ch.dgamma is ch.dgamma
            assert len(runs) == before + 1

    @pytest.mark.parametrize("name", ["sphere_chart", "twisted"])
    def test_gamma_only_callers_run_no_derivative_orders(self, name, twisted_chart, monkeypatch):
        from algebroid.paths import geodesic_rhs, parallel_transport, transport_frame
        from algebroid.variations import (
            make_fixed_endpoint_homotopy,
            make_geodesic_pencil,
            solve_transverse,
        )

        chart, metric, start = structure_case(name, twisted_chart)
        eps = [-1e-2, 0.0, 1e-2]
        path = geodesic_integrate(chart, metric, start, (0.0, 0.5), 1e-2)
        u = 0.1 * np.ones(chart.r)
        grid = make_geodesic_pencil(chart, metric, start, u, eps, (0.0, 0.5), 1e-2)
        runs = record_runs(monkeypatch)
        ch = christoffel(chart, metric, start.x)
        del runs[:]
        ch.dgamma
        [(prog, derivative_orders)] = runs  # the dGamma run
        del runs[:]
        geodesic_rhs(chart, metric, start.x, start.mu)
        parallel_transport(chart, metric, path, start.mu)
        transport_frame(chart, metric, path)
        solve_transverse(chart, metric, grid, np.zeros((len(eps), chart.r)))
        make_fixed_endpoint_homotopy(chart, metric, path, u)
        assert any(p is prog for p, _ in runs)
        for p, orders in runs:
            if p is prog:
                below = (d is None or o is None or o < d for o, d in zip(orders, derivative_orders))
                assert all(below), orders

    @pytest.mark.parametrize("name", [*catalog.names(), "twisted"])
    def test_curvature_is_the_record_R(self, name, twisted_chart):
        chart, metric, _ = structure_case(name, twisted_chart)
        pts = sample_box(chart.domain, 4, seed=6)
        for x in (pts[0], pts, pts.reshape(2, 2, -1)):
            R = christoffel(chart, metric, x).R
            assert curvature(chart, metric, x).tobytes() == R.tobytes()


SPRAY_CASES = [*catalog.names(), "twisted", "aff2_varying", "abelian_varying"]


def spray_case(name, twisted_chart):
    """Chart and metric of a spray case: a catalog entry, the twisted chart,
    or a varying metric over a zero anchor, with the aff2 bracket or with
    none (Gamma = 0)."""
    if name in ("aff2_varying", "abelian_varying"):
        metric = MetricField({(1, 1): "2 + x1", (1, 2): "x1/4", (2, 2): "1 + x1^2"}, r=2, n=1)
        if name == "aff2_varying":
            return catalog.get("aff2").chart, metric
        return AlgebroidChart(n=1, r=2, b=[["0"], ["0"]], domain=[(-1.0, 1.0)]), metric
    return structure_case(name, twisted_chart)[:2]


class TestSpray:
    """The geodesic spray -Gamma(mu, mu) is contracted from the Koszul form
    without forming Gamma; these tests compare it with Gamma itself."""

    @pytest.mark.parametrize("name", SPRAY_CASES)
    def test_equals_minus_gamma_mu_mu(self, name, twisted_chart):
        chart, metric = spray_case(name, twisted_chart)
        xs, mus = sample_box(chart.domain, 12, seed=8), sample_fiber(chart.r, 12, seed=9)
        gamma = christoffel(chart, metric, xs).gamma
        ref = -np.einsum("ti,tj,tijk->tk", mus, mus, gamma)
        # relative to |Gamma| |mu|^2, as Gamma(mu, mu) may vanish (so3_biinv)
        scale = np.max(np.abs(gamma), axis=(1, 2, 3)) * np.sum(mus * mus, axis=1)
        batch = christoffel(chart, metric, xs).spray(mus)
        _, dmu = geodesic_rhs(chart, metric, xs, mus)
        assert dmu.tobytes() == batch.tobytes()
        assert np.all(np.abs(batch - ref) <= 1e-14 * scale[:, None])
        for k in range(len(xs)):
            one = christoffel(chart, metric, xs[k]).spray(mus[k])
            assert one.tobytes() == batch[k].tobytes()
            assert geodesic_rhs(chart, metric, xs[k], mus[k])[1].tobytes() == one.tobytes()

    @pytest.mark.parametrize("name", sorted(set(catalog.names()) - {"sphere_chart"}))
    def test_constant_gamma_is_contracted_symmetrized(self, name):
        # the sum over mu_s mu_u (Gamma_su + Gamma_us) / 2: bi-invariant
        # fibers stay constant to the bit, and the numbers are those of
        # contracting Gamma itself in this form
        entry = catalog.get(name)
        chart, metric, r = entry.chart, entry.metric, entry.chart.r
        xs, mus = sample_box(chart.domain, 20, seed=1), sample_fiber(r, 20, seed=2)
        gamma = christoffel(chart, metric, xs).gamma
        mumu = (mus[:, :, None] * mus[:, None, :]).reshape(-1, 1, r * r)
        gsum = (gamma + gamma.swapaxes(-3, -2)).reshape(-1, r * r, r)
        ref = -0.5 * (mumu @ gsum)[:, 0, :]
        assert christoffel(chart, metric, xs).spray(mus).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("name", SPRAY_CASES)
    def test_one_point_with_a_batch_of_fiber_vectors(self, name, twisted_chart):
        chart, metric = spray_case(name, twisted_chart)
        x, mus = sample_box(chart.domain, 1, seed=3)[0], sample_fiber(chart.r, 4, seed=4)
        dx, dmu = geodesic_rhs(chart, metric, x, mus)
        assert dx.shape == dmu.shape[:-1] + (chart.n,) and dmu.shape == (4, chart.r)
        for k in range(4):
            one_dx, one_dmu = geodesic_rhs(chart, metric, x, mus[k])
            assert (one_dx.tobytes(), one_dmu.tobytes()) == (dx[k].tobytes(), dmu[k].tobytes())

    @pytest.mark.parametrize("name", ["sphere_chart", "twisted"])
    def test_geodesic_rhs_forms_no_koszul_sum(self, name, twisted_chart, monkeypatch):
        from algebroid import metric as metric_module
        chart, metric = spray_case(name, twisted_chart)
        calls, koszul = [], metric_module._Connection._koszul

        def counted(*args):
            calls.append(args)
            return koszul(*args)

        monkeypatch.setattr(metric_module._Connection, "_koszul", counted)
        pts, mus = sample_box(chart.domain, 3, seed=5), sample_fiber(chart.r, 3, seed=6)
        for x, mu in ((pts[0], mus[0]), (pts, mus)):
            geodesic_rhs(chart, metric, x, mu)
            assert calls == []
            ch = christoffel(chart, metric, x)
            gamma = ch.gamma
            assert len(calls) == 1
            assert ch.gamma is gamma
            ch.dgamma
            assert len(calls) == 1
            del calls[:]


def reference_structure(chart, metric, pts, order):
    """B, dB, C, dC, G, dG, d2G filled entry by entry from the expressions."""
    r, n = chart.r, chart.n
    base = pts.shape[:-1]
    B, dB = np.zeros(base + (r, n)), np.zeros(base + (r, n, n))
    for s in range(r):
        for i in range(n):
            t = chart.b[s][i].eval_raw(pts, order=1)
            B[..., s, i], dB[..., s, i, :] = t.v, t.g
    C, dC = np.zeros(base + (r, r, r)), np.zeros(base + (r, r, r, n))
    for (s, t, u), expr in chart.c_upper.items():
        e = expr.eval_raw(pts, order=1)
        C[..., s, t, u], C[..., t, s, u] = e.v, -e.v
        dC[..., s, t, u, :], dC[..., t, s, u, :] = e.g, -e.g
    G, dG, d2G = np.zeros(base + (r, r)), np.zeros(base + (r, r, n)), np.zeros(base + (r, r, n, n))
    for (i, j), expr in metric.entries.items():
        e = expr.eval_raw(pts, order=2)
        for a, b in {(i, j), (j, i)}:
            G[..., a, b], dG[..., a, b, :], d2G[..., a, b, :, :] = e.v, e.g, e.h
    return {
        "anchor": (B, dB if order >= 1 else None),
        "bracket": (C, dC if order >= 1 else None),
        "metric": (G, dG if order >= 1 else None, d2G if order >= 2 else None),
    }


class TestTemplatedEvaluation:
    @pytest.mark.parametrize("order", [0, 1, 2])
    @pytest.mark.parametrize("name", ["sphere_chart", "heisenberg_central", "twisted"])
    def test_matches_entry_by_entry_reference(self, name, order, twisted_chart):
        if name == "twisted":
            chart = twisted_chart
            metric = MetricField({(1, 1): "2 + x1*x2", (1, 3): "0.1*x2", (2, 2): "1.5", (3, 3): "exp(x1)"}, 3, 2)
        else:
            chart, metric = catalog.get(name).chart, catalog.get(name).metric
        pts = sample_box(chart.domain, 6, seed=8)
        for x in (pts[0], pts, pts.reshape(2, 3, -1)):
            want = reference_structure(chart, metric, x, order)
            got = {
                "anchor": chart.eval_anchor(x, order=order),
                "bracket": chart.eval_bracket(x, order=order),
                "metric": metric.eval(x, order=order),
            }
            for key, arrays in want.items():
                for w, g in zip(arrays, got[key]):
                    assert (w is None and g is None) or np.array_equal(w, g), key
            # the connection record carries the values it was formed from,
            # before and after it forms dGamma and R
            ch = christoffel(chart, metric, x)
            for _ in range(2):
                for key, g in (("anchor", ch.B), ("bracket", ch.C), ("metric", ch.G)):
                    assert g.shape == want[key][0].shape and np.array_equal(want[key][0], g), key
                ch.R


class TestCovariantDerivative:
    def test_basis_sections_give_gamma_column(self, heisenberg):
        chart, metric = heisenberg.chart, heisenberg.metric
        x = np.array([0.2, 0.8])
        ch = christoffel(chart, metric, x)
        for i in range(3):
            for j in range(3):
                out = covariant_derivative(
                    chart,
                    metric,
                    SectionField.basis(i + 1, 3, 2),
                    SectionField.basis(j + 1, 3, 2),
                    x,
                )
                np.testing.assert_allclose(out, ch.gamma[i, j], atol=1e-15)

    @pytest.mark.parametrize("name", ["sphere_chart", "heisenberg_central", "aff2"])
    def test_torsion_free(self, name, rng):
        entry = catalog.get(name)
        chart, metric = entry.chart, entry.metric
        n = chart.n
        f = SectionField([_poly(rng, n) for _ in range(chart.r)], n)
        g = SectionField([_poly(rng, n) for _ in range(chart.r)], n)
        from algebroid.charts import bracket_sections

        for _ in range(5):
            x = sample_box(chart.domain, 1, seed=rng.randint(10**6), shrink=0.1)[0]
            lhs = covariant_derivative(chart, metric, f, g, x) - covariant_derivative(
                chart, metric, g, f, x
            )
            rhs = bracket_sections(chart, f, g, x)
            np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    @pytest.mark.parametrize("name", [*catalog.names(), "twisted", "twisted_varying_metric"])
    def test_antisymmetric_part_is_the_bracket(self, name, twisted_chart):
        # torsion-free: Gamma_ij^k - Gamma_ji^k = C_ij^k, the identity that
        # lets the defect of a variation read C in place of Gamma
        if name == "twisted":
            chart, metric = twisted_chart, MetricField.identity(3, 2)
        elif name == "twisted_varying_metric":
            entries = {(1, 1): "2 + x1", (1, 2): "0.1*x2", (2, 2): "1 + x2^2", (3, 3): "1.5"}
            chart, metric = twisted_chart, MetricField(entries, 3, 2)
        else:
            chart, metric = catalog.get(name).chart, catalog.get(name).metric
        pts = sample_box(chart.domain, 300, seed=17)
        gamma = christoffel(chart, metric, pts).gamma
        C, _ = chart.eval_bracket(pts)
        torsion = gamma - np.swapaxes(gamma, -3, -2) - C
        assert np.max(np.abs(torsion)) <= 1e-14 * max(1.0, np.max(np.abs(C)))

    @pytest.mark.parametrize("name", ["sphere_chart", "heisenberg_central"])
    def test_metric_compatibility(self, name, rng):
        # #(f)<g,h> = <D_f g, h> + <g, D_f h>
        entry = catalog.get(name)
        chart, metric = entry.chart, entry.metric
        n, r = chart.n, chart.r
        f = SectionField([_poly(rng, n) for _ in range(r)], n)
        g = SectionField([_poly(rng, n) for _ in range(r)], n)
        h = SectionField([_poly(rng, n) for _ in range(r)], n)
        for _ in range(5):
            x = sample_box(chart.domain, 1, seed=rng.randint(10**6), shrink=0.1)[0]
            G, dG, _ = metric.eval(x, order=1)
            fv, _ = f.eval_raw(x)
            gv, gg = g.eval_raw(x, order=1)
            hv, hg = h.eval_raw(x, order=1)
            B, _ = chart.eval_anchor(x)
            direction = fv @ B  # tangent components of #(f)
            # chain rule for d<g,h> along the base
            dgh = (
                np.einsum("u,uvm,v->m", gv, dG, hv)
                + np.einsum("um,uv,v->m", gg, G, hv)
                + np.einsum("u,uv,vm->m", gv, G, hg)
            )
            lhs = direction @ dgh
            Dg = covariant_derivative(chart, metric, f, g, x)
            Dh = covariant_derivative(chart, metric, f, h, x)
            rhs = Dg @ G @ hv + gv @ G @ Dh
            assert abs(lhs - rhs) < 1e-10


def _poly(rng, n):
    vars_ = " + ".join(
        f"{rng.uniform(-1, 1):.4f}*x{i + 1}" for i in range(n)
    )
    return f"{rng.uniform(-1, 1):.4f} + {vars_}"


class TestCurvature:
    def test_flat_chart_zero(self, euclidean2):
        R = curvature(euclidean2.chart, euclidean2.metric, np.array([1.0, 1.0]))
        assert np.max(np.abs(R)) == 0.0

    def test_sphere_matches_classical_gauss_oracle(self, sphere):
        chart, metric = sphere.chart, sphere.metric
        E = parse("1", 2)
        G = parse("sin(x1)^2", 2)
        pts = sample_box(chart.domain, 10, seed=9, shrink=0.05)
        for x in pts:
            K_oracle = gauss_curvature_diagonal(E, G, x)
            K = sectional_curvature(chart, metric, x, [1.0, 0.0], [0.0, 1.0])
            assert K == pytest.approx(K_oracle, abs=1e-10)
            assert K_oracle == pytest.approx(1.0, abs=1e-12)

    def test_central_extension_bruteforce(self, heisenberg):
        chart, metric = heisenberg.chart, heisenberg.metric
        x = np.array([0.3, -0.7])
        R = curvature(chart, metric, x)
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    np.testing.assert_allclose(
                        R[i, j, k],
                        heisenberg_curvature_bruteforce(i, j, k),
                        atol=1e-14,
                    )
        # <R(a1,a2)a1, a2> = 3/4 from the product table
        assert R[0, 1, 0, 1] == pytest.approx(0.75, abs=1e-14)

    @pytest.mark.parametrize("name", [*catalog.names(), "twisted"])
    def test_matmul_assembly_matches_five_term_einsum(self, name, twisted_chart):
        """R from the three matmuls of `Christoffel.R` against the five
        broadcast einsums of R(a,b)s = D_a D_b s - D_b D_a s - D_{[a,b]} s."""
        chart, metric, _ = structure_case(name, twisted_chart)
        pts = sample_box(chart.domain, 7, seed=8, shrink=0.05)
        for x in (pts[0], pts):
            ch = christoffel(chart, metric, x)
            B, C, gamma, dgamma = ch.B, ch.C, ch.gamma, ch.dgamma
            oracle = (
                np.einsum("...im,...jklm->...ijkl", B, dgamma)
                - np.einsum("...jm,...iklm->...ijkl", B, dgamma)
                + np.einsum("...jkm,...iml->...ijkl", gamma, gamma)
                - np.einsum("...ikm,...jml->...ijkl", gamma, gamma)
                - np.einsum("...ijm,...mkl->...ijkl", C, gamma)
            )
            assert ch.R.shape == oracle.shape
            scale = max(1.0, float(np.max(np.abs(oracle))))
            assert np.max(np.abs(ch.R - oracle)) <= 1e-12 * scale

    @pytest.mark.parametrize("name", catalog.names())
    def test_curvature_antisymmetries(self, name):
        entry = catalog.get(name)
        pts = sample_box(entry.chart.domain, 10, seed=5, shrink=0.05)
        R = curvature(entry.chart, entry.metric, pts)
        G, _, _ = entry.metric.eval(pts)
        low = np.einsum("...ijkl,...lm->...ijkm", R, G)
        assert np.max(np.abs(low + np.swapaxes(low, -4, -3))) < 1e-9
        assert np.max(np.abs(low + np.swapaxes(low, -2, -1))) < 1e-9


class TestSectionalCurvature:
    def test_sphere_is_unit(self, sphere):
        pts = sample_box(sphere.chart.domain, 20, seed=21, shrink=0.02)
        rng = np.random.RandomState(0)
        for x in pts:
            a = rng.randn(2)
            b = rng.randn(2)
            K = sectional_curvature(sphere.chart, sphere.metric, x, a, b)
            assert K == pytest.approx(1.0, abs=1e-8)

    def test_flat_zero(self, euclidean2):
        K = sectional_curvature(
            euclidean2.chart, euclidean2.metric, [0.0, 0.0], [1.0, 0.2], [0.3, 1.0]
        )
        assert K == pytest.approx(0.0, abs=1e-15)

    def test_central_extension_value(self, heisenberg):
        K = sectional_curvature(
            heisenberg.chart, heisenberg.metric, [0.1, 0.2], [1, 0, 0], [0, 1, 0]
        )
        assert K == pytest.approx(-0.75, abs=1e-12)

    def test_invariance_under_plane_basis_change(self, sphere, rng):
        x = np.array([1.3, 0.9])
        a, b = rng.randn(2), rng.randn(2)
        K0 = sectional_curvature(sphere.chart, sphere.metric, x, a, b)
        for _ in range(10):
            m = rng.randn(2, 2)
            if abs(np.linalg.det(m)) < 0.1:
                continue
            K1 = sectional_curvature(
                sphere.chart, sphere.metric, x, m[0, 0] * a + m[0, 1] * b, m[1, 0] * a + m[1, 1] * b
            )
            assert abs(K1 - K0) / max(1.0, abs(K0)) < 1e-9

    def test_degenerate_pair_rejected(self, sphere):
        with pytest.raises(ValueError, match="Gram"):
            sectional_curvature(
                sphere.chart, sphere.metric, [1.0, 1.0], [1.0, 2.0], [2.0, 4.0]
            )

    def test_gram_floor_is_relative_to_the_lengths(self, heisenberg):
        # the floor bounds sin^2 of the angle, not the Gram determinant:
        # short orthogonal vectors are fine, long nearly parallel ones are not
        e1, e2 = np.eye(3)[0], np.eye(3)[1]
        K = sectional_curvature(heisenberg.chart, heisenberg.metric, [0.1, 0.2], 1e-3 * e1, 1e-3 * e2)
        assert K == pytest.approx(-0.75, abs=1e-12)
        with pytest.raises(ValueError, match="Gram"):
            sectional_curvature(
                heisenberg.chart, heisenberg.metric, [0.1, 0.2], 1e3 * e1, 1e3 * e1 + 1e-4 * e2
            )

    @pytest.mark.parametrize(
        "name,x,a,b,message",
        [
            (
                "sphere_chart",
                [1.0, 1.0],
                [1.0, 2.0],
                [2.0, 4.0],
                "0.000e+00, <a,a><b,b> = 5.875e+01",
            ),
            (
                "heisenberg_central",
                [0.1, 0.2],
                [1e3, 0, 0],
                [1e3, 1e-4, 0],
                "1.001e-02, <a,a><b,b> = 1.000e+12",
            ),
        ],
    )
    def test_dependent_pair_rejected_before_R(self, name, x, a, b, message, monkeypatch):
        from algebroid import metric as metric_module

        def refuse(*args):
            raise AssertionError("dGamma was formed")

        monkeypatch.setattr(metric_module._Connection, "_dgamma", refuse)
        entry = catalog.get(name)
        want = f"sectional curvature of a (nearly) dependent pair (Gram determinant {message})"
        with pytest.raises(ValueError) as exc:
            sectional_curvature(entry.chart, entry.metric, x, a, b)
        assert str(exc.value) == want


class TestMetricField:
    def test_positive_definiteness_enforced(self):
        metric = MetricField({(1, 1): "x1", (2, 2): "1"}, r=2, n=1)
        with pytest.raises(MetricError, match="positive definite"):
            metric.eval(np.array([-1.0]))

    @pytest.mark.parametrize("g11", ["exp(800*x1) - exp(800*x1) + 1", "cosh(800*x1)"])
    def test_non_finite_metric_is_not_spd(self, g11):
        # NaN (inf - inf) or inf near x1 = 1: Cholesky alone does not raise there
        chart = AlgebroidChart(n=1, r=1, b=[["1"]], domain=[(-1.0, 1.0)])
        metric = MetricField({(1, 1): g11}, r=1, n=1)
        with np.errstate(over="ignore", invalid="ignore"):
            for x in (np.array([0.95]), np.array([[0.1], [0.95]])):
                with pytest.raises(MetricError, match=r"metric not finite at x=\[0.95\]"):
                    metric.eval(x)
                with pytest.raises(MetricError, match=r"metric not finite at x=\[0.95\]"):
                    christoffel(chart, metric, x)
            assert metric.spd_margin(chart) == -np.inf

    def test_non_finite_metric_derivative_raises(self):
        # g = 1 + 1/cosh(800 x1) is finite everywhere; at x1 = 0.95 its
        # derivatives are inf/inf, at x1 = 0.6 only the second one is
        chart = AlgebroidChart(n=1, r=1, b=[["1"]], domain=[(-1.0, 1.0)])
        metric = MetricField({(1, 1): "1 + 1/cosh(800*x1)"}, r=1, n=1)
        at = lambda x: rf"^metric derivative not finite at x=\[{x}\]$"
        with np.errstate(over="ignore", invalid="ignore"):
            for x in (np.array([0.95]), np.array([[0.1], [0.95]])):
                assert np.all(metric.eval(x)[0] == 1.0)
                with pytest.raises(MetricError, match=at(0.95)):
                    metric.eval(x, order=1)
                with pytest.raises(MetricError, match=at(0.95)):
                    christoffel(chart, metric, x)
            metric.eval(np.array([0.6]), order=1)
            with pytest.raises(MetricError, match=at(0.6)):
                metric.eval(np.array([0.6]), order=2)
            ch = christoffel(chart, metric, np.array([[0.1], [0.6]]))
            assert np.isfinite(ch.gamma).all()
            with pytest.raises(MetricError, match=at(0.6)):
                ch.dgamma
            assert metric.spd_margin(chart) == -np.inf

    def test_symmetric_storage(self, sphere):
        G, _, _ = sphere.metric.eval(np.array([1.2, 0.3]))
        assert np.array_equal(G, G.T)

    def test_missing_diagonal_rejected(self):
        with pytest.raises(MetricError, match="diagonal"):
            MetricField({(1, 2): "1", (1, 1): "1"}, r=2, n=1)

    def test_fiber_inner_batch(self, sphere):
        pts = sample_box(sphere.chart.domain, 5, seed=2)
        u = np.ones((5, 2))
        vals = fiber_inner(sphere.metric, pts, u, u)
        assert vals.shape == (5,)
        np.testing.assert_allclose(vals, 1.0 + np.sin(pts[:, 0]) ** 2)
