import numpy as np
import pytest

from algebroid import catalog
from algebroid.charts import AlgebroidChart, AVector
from algebroid.metric import MetricField, sectional_curvature
from algebroid.paths import geodesic_integrate, geodesic_rhs
from algebroid.sampling import sample_box, sample_fiber
from algebroid.splitting import (
    SplitError,
    connector,
    divergence_fd_lie_algebra,
    divergence_terms,
    divergence_XE,
    horizontal_lift,
    leaf_metric,
    leaf_metric_matrix,
    oneill_curvature_check,
    oneill_H_apply,
    oneill_identity_residuals,
    oneill_tensors,
    split,
)

TRANSITIVE = ["euclidean2", "sphere_chart", "heisenberg_central"]
LIE_ALGEBRAS = ["so3_biinv", "aff2"]


def _leaf_pair(name):
    """A catalog chart with its metric; "twisted" is the twisted chart with
    the identity metric, "twisted_g" the same chart with a varying metric."""
    if name == "twisted":
        entry = catalog.twisted()
        return entry.chart, entry.metric
    if name == "twisted_g":
        entries = {(1, 1): "2 + x1", (1, 2): "0.3*x2", (2, 2): "1 + x2^2", (3, 3): "1"}
        return catalog.twisted().chart, MetricField(entries, r=3, n=2)
    entry = catalog.get(name)
    return entry.chart, entry.metric


class TestSplit:
    def test_central_extension_kernel(self, heisenberg):
        frame = split(heisenberg.chart, heisenberg.metric, [0.3, 0.4])
        assert frame.q == 2
        assert frame.vertical_dim == 1
        np.testing.assert_allclose(np.abs(frame.vertical[0]), [0, 0, 1], atol=1e-12)
        B, _ = heisenberg.chart.eval_anchor(np.array([0.3, 0.4]))
        assert np.max(np.abs(frame.vertical[0] @ B)) < 1e-9

    def test_injective_anchor_no_vertical(self, euclidean2):
        frame = split(euclidean2.chart, euclidean2.metric, [0.0, 0.0])
        assert frame.q == 2
        assert frame.vertical_dim == 0

    def test_zero_anchor_all_vertical(self, aff2):
        frame = split(aff2.chart, aff2.metric, [0.0])
        assert frame.q == 0
        assert frame.vertical_dim == 2

    @pytest.mark.parametrize("name", catalog.names())
    def test_frames_are_g_orthonormal(self, name):
        entry = catalog.get(name)
        x = sample_box(entry.chart.domain, 1, seed=5, shrink=0.1)[0]
        frame = split(entry.chart, entry.metric, x)
        basis = np.vstack([frame.vertical, frame.horizontal])
        gram = basis @ frame.G @ basis.T
        assert np.max(np.abs(gram - np.eye(entry.chart.r))) < 1e-10
        # anchor annihilates the vertical rows
        B, _ = entry.chart.eval_anchor(x)
        if frame.vertical_dim:
            assert np.max(np.abs(frame.vertical @ B)) < 1e-9


class TestOneillTensors:
    def test_central_extension_H(self, heisenberg):
        x = np.array([0.2, -0.1])
        out = oneill_H_apply(heisenberg.chart, heisenberg.metric, x, [1, 0, 0], [0, 1, 0])
        np.testing.assert_allclose(out, [0, 0, 0.5], atol=1e-12)

    def test_central_extension_T_vanishes(self, heisenberg):
        x = np.array([0.2, -0.1])
        # T on every pair of frame vectors, a basis of the fiber
        T = oneill_tensors(heisenberg.chart, heisenberg.metric, x).T
        assert np.max(np.abs(T)) < 1e-14

    def test_flat_chart_both_vanish(self, euclidean2):
        tensors = oneill_tensors(euclidean2.chart, euclidean2.metric, [0.1, 0.1])
        assert np.max(np.abs(tensors.T)) == 0.0
        assert np.max(np.abs(tensors.H)) == 0.0

    @pytest.mark.parametrize("name", catalog.names())
    def test_algebraic_identities(self, name):
        entry = catalog.get(name)
        pts = sample_box(entry.chart.domain, 5, seed=11, shrink=0.1)
        for x in pts:
            residuals = oneill_identity_residuals(oneill_tensors(entry.chart, entry.metric, x))
            worst = max(residuals.values())
            assert worst < 1e-9, residuals

    def test_identities_on_nonconstant_chart(self):
        entry = catalog.twisted()
        chart, metric = entry.chart, entry.metric
        x = np.array([0.9, 1.1])
        residuals = oneill_identity_residuals(oneill_tensors(chart, metric, x))
        assert max(residuals.values()) < 1e-9, residuals


class TestDivergence:
    def test_affine_algebra_at_first_basis_vector(self, aff2):
        total = divergence_XE(aff2.chart, aff2.metric, AVector([0.0], [1.0, 0.0]))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_rotation_algebra_divergence_free(self, so3, rng):
        for _ in range(10):
            v = AVector([0.0], rng.randn(3))
            assert abs(divergence_XE(so3.chart, so3.metric, v)) < 1e-12

    def test_central_extension_zero(self, heisenberg, rng):
        for _ in range(10):
            x = sample_box(heisenberg.chart.domain, 1, seed=rng.randint(10**6), shrink=0.1)[0]
            v = AVector(x, rng.randn(3))
            assert abs(divergence_XE(heisenberg.chart, heisenberg.metric, v)) < 1e-12

    @pytest.mark.parametrize("name", LIE_ALGEBRAS)
    def test_agrees_with_fd_oracle(self, name):
        entry = catalog.get(name)
        mus = sample_fiber(entry.chart.r, 50, seed=23)
        for mu in mus:
            v = AVector([0.0], mu)
            lhs = divergence_XE(entry.chart, entry.metric, v)
            rhs = divergence_fd_lie_algebra(entry.chart, entry.metric, v)
            assert abs(lhs - rhs) < 1e-5

    @pytest.mark.parametrize("name", ["euclidean2", "sphere_chart", "foliation_xy"])
    def test_injective_anchor_recovers_volume_preservation(self, name):
        entry = catalog.get(name)
        xs = sample_box(entry.chart.domain, 10, seed=31, shrink=0.1)
        mus = sample_fiber(entry.chart.r, 10, seed=31)
        for x, mu in zip(xs, mus):
            assert abs(divergence_XE(entry.chart, entry.metric, AVector(x, mu))) < 1e-9

    def test_terms_split(self, aff2):
        tr, mc = divergence_terms(aff2.chart, aff2.metric, AVector([0.0], [2.0, -1.0]))
        assert mc == 0.0  # no horizontal directions
        assert tr == pytest.approx(2.0, abs=1e-12)  # trace is linear in mu1


class TestConnector:
    def test_vertical_tangent_is_identity(self, heisenberg, rng):
        chart, metric = heisenberg.chart, heisenberg.metric
        a = AVector([0.3, 0.4], rng.randn(3))
        dmu = rng.randn(3)
        out = connector(chart, metric, a, (np.zeros(2), dmu))
        np.testing.assert_allclose(out, dmu, atol=1e-12)

    @pytest.mark.parametrize("name", TRANSITIVE)
    def test_geodesic_field_identity(self, name):
        # K(X_E(a)) = -D_{a^v} a at 100 seeded fiber points
        entry = catalog.get(name)
        chart, metric = entry.chart, entry.metric
        xs = sample_box(chart.domain, 100, seed=42, shrink=0.1)
        mus = sample_fiber(chart.r, 100, seed=42)
        from algebroid.metric import christoffel

        for x, mu in zip(xs, mus):
            dx, dmu = geodesic_rhs(chart, metric, x, mu)
            K = connector(chart, metric, AVector(x, mu), (dx, dmu))
            frame = split(chart, metric, x)
            av = frame.project_vertical(mu)
            gamma = christoffel(chart, metric, x).gamma
            expected = -np.einsum("s,t,stu->u", av, mu, gamma)
            assert np.max(np.abs(K - expected)) < 1e-9

    def test_central_extension_value(self, heisenberg):
        chart, metric = heisenberg.chart, heisenberg.metric
        x = np.array([0.5, 0.7])
        mu = np.array([1.0, 0.0, 1.0])  # a1 + a3
        dx, dmu = geodesic_rhs(chart, metric, x, mu)
        K = connector(chart, metric, AVector(x, mu), (dx, dmu))
        np.testing.assert_allclose(K, [0.0, 0.5, 0.0], atol=1e-12)

    def test_rejects_base_vector_outside_leaf(self, foliation):
        a = AVector([0.0, 0.0, 0.0], [1.0, 0.0])
        with pytest.raises(SplitError, match="anchor image"):
            connector(foliation.chart, foliation.metric, a, (np.array([0.0, 0.0, 1.0]), np.zeros(2)))

    @pytest.mark.parametrize("name", TRANSITIVE)
    def test_tangent_reconstruction(self, name, rng):
        # Z is recovered from (dp Z, K(Z)) via horizontal lift + vertical injection
        entry = catalog.get(name)
        chart, metric = entry.chart, entry.metric
        from algebroid.metric import christoffel

        for _ in range(10):
            x = sample_box(chart.domain, 1, seed=rng.randint(10**6), shrink=0.1)[0]
            mu = rng.randn(chart.r)
            dx = rng.randn(chart.n)
            dmu = rng.randn(chart.r)
            K = connector(chart, metric, AVector(x, mu), (dx, dmu))
            alpha = horizontal_lift(chart, metric, x, dx)
            gamma = christoffel(chart, metric, x).gamma
            rebuilt = K - np.einsum("i,j,ijl->l", alpha, mu, gamma)
            assert np.max(np.abs(rebuilt - dmu)) < 1e-9


class TestLeafMetric:
    def test_central_extension_identity(self, heisenberg):
        x = np.array([0.4, 0.9])
        M = leaf_metric_matrix(heisenberg.chart, heisenberg.metric, x)
        np.testing.assert_allclose(M, np.eye(2), atol=1e-12)

    def test_flat_chart_recovers_metric(self, euclidean2):
        assert leaf_metric(
            euclidean2.chart, euclidean2.metric, [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]
        ) == pytest.approx(0.0, abs=1e-14)
        assert leaf_metric(
            euclidean2.chart, euclidean2.metric, [0.0, 0.0], [2.0, 0.0], [2.0, 0.0]
        ) == pytest.approx(4.0, abs=1e-12)

    def test_foliation_identity_on_leaf_directions(self, foliation):
        x = np.zeros(3)
        assert leaf_metric(
            foliation.chart, foliation.metric, x, [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]
        ) == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(SplitError, match="anchor image"):
            leaf_metric(foliation.chart, foliation.metric, x, [0.0, 0.0, 1.0], [1.0, 0.0, 0.0])

    def test_sphere_leaf_metric_is_the_metric(self, sphere):
        x = np.array([1.1, 2.2])
        M = leaf_metric_matrix(sphere.chart, sphere.metric, x)
        G, _, _ = sphere.metric.eval(x)
        np.testing.assert_allclose(M, G, atol=1e-12)

    @pytest.mark.parametrize("name", ["sphere_chart", "heisenberg_central", "twisted", "twisted_g"])
    def test_closed_form_matches_the_lift_route(self, name):
        chart, metric = _leaf_pair(name)
        rng = np.random.RandomState(3)
        for x in sample_box(chart.domain, 5, seed=11, shrink=0.1):
            M = leaf_metric_matrix(chart, metric, x)
            for _ in range(3):
                u, v = rng.randn(2, chart.n)
                lifted = leaf_metric(chart, metric, x, u, v)
                scale = np.sqrt((u @ M @ u) * (v @ M @ v))
                assert abs(lifted - u @ M @ v) <= 1e-12 * scale

    @pytest.mark.parametrize("name", ["sphere_chart", "heisenberg_central", "twisted_g"])
    def test_batched_call_matches_single_points(self, name):
        chart, metric = _leaf_pair(name)
        xs = sample_box(chart.domain, 12, seed=4, shrink=0.1).reshape(3, 4, chart.n)
        batch = leaf_metric_matrix(chart, metric, xs)
        assert batch.shape == (3, 4, chart.n, chart.n)
        for idx in np.ndindex(3, 4):
            np.testing.assert_array_equal(batch[idx], leaf_metric_matrix(chart, metric, xs[idx]))

    def test_rejects_charts_that_are_not_transitive(self, foliation, aff2):
        with pytest.raises(SplitError, match="needs a transitive chart"):
            leaf_metric_matrix(foliation.chart, foliation.metric, np.zeros(3))
        with pytest.raises(SplitError, match="needs a transitive chart"):
            leaf_metric_matrix(aff2.chart, aff2.metric, [0.0])
        line = AlgebroidChart(n=1, r=1, b=[["x1"]], c_upper={}, domain=[(-1.0, 1.0)])
        metric = MetricField.identity(1, 1)
        assert leaf_metric_matrix(line, metric, [[0.5], [-0.25]]).shape == (2, 1, 1)
        with pytest.raises(SplitError, match="needs a transitive chart"):
            leaf_metric_matrix(line, metric, [[0.5], [0.0], [-0.25]])


def _curvature_check(chart, metric, x):
    return oneill_curvature_check(chart, metric, oneill_tensors(chart, metric, x))


class TestCurvatureIdentities:
    def test_residual_keys_are_the_cli_check_rows(self, heisenberg):
        from algebroid.cli import CHECKS

        tensors = oneill_tensors(heisenberg.chart, heisenberg.metric, [0.25, -0.6])
        identities = oneill_identity_residuals(tensors)
        chk = oneill_curvature_check(heisenberg.chart, heisenberg.metric, tensors)
        rows = [name for name in CHECKS["oneill"] if name != "rank_stability"]
        assert list(identities) + list(chk) == rows

    def test_central_extension_horizontal_identity(self, heisenberg):
        # K(a1,a2) = Kleaf - 3|H|^2 = 0 - 3/4
        x = np.array([0.25, -0.6])
        chk = _curvature_check(heisenberg.chart, heisenberg.metric, x)
        assert chk["curvature_vertical"] is None  # only one vertical direction
        assert chk["curvature_mixed"] is not None and chk["curvature_mixed"] < 1e-8
        assert chk["curvature_horizontal"] is not None and chk["curvature_horizontal"] < 1e-8
        K = sectional_curvature(heisenberg.chart, heisenberg.metric, x, [1, 0, 0], [0, 1, 0])
        H12 = oneill_H_apply(heisenberg.chart, heisenberg.metric, x, [1, 0, 0], [0, 1, 0])
        G, _, _ = heisenberg.metric.eval(x)
        assert K == pytest.approx(0.0 - 3.0 * float(H12 @ G @ H12), abs=1e-12)

    def test_flat_chart_all_zero(self, euclidean2):
        chk = _curvature_check(euclidean2.chart, euclidean2.metric, [0.2, 0.2])
        assert chk["curvature_horizontal"] == pytest.approx(0.0, abs=1e-12)
        assert chk["curvature_vertical"] is None and chk["curvature_mixed"] is None

    def test_sphere_horizontal_identity(self, sphere):
        chk = _curvature_check(sphere.chart, sphere.metric, [1.2, 1.0])
        assert chk["curvature_horizontal"] is not None and chk["curvature_horizontal"] < 1e-8

    @pytest.mark.parametrize("name", ["sphere_chart", "twisted"])
    def test_horizontal_identity_holds_across_the_box(self, name):
        # the identity holds exactly on a transitive chart; the classical
        # leaf route must resolve it below the CLI's 1e-8 at every point
        chart, metric = _leaf_pair(name)
        pts = np.vstack([chart.center(), sample_box(chart.domain, 40, seed=7, shrink=0.1)])
        worst = max(_curvature_check(chart, metric, x)["curvature_horizontal"] for x in pts)
        assert worst < 1e-8

    @pytest.mark.parametrize("name", ["twisted", "twisted_g"])
    def test_mixed_identity_holds_across_the_box(self, name):
        # T does not vanish on the twisted chart (on heisenberg T = 0), so the
        # T terms of the mixed identity are exercised here
        chart, metric = _leaf_pair(name)
        pts = np.vstack([chart.center(), sample_box(chart.domain, 40, seed=7, shrink=0.1)])
        tensors = [oneill_tensors(chart, metric, x) for x in pts]
        assert max(np.max(np.abs(t.T)) for t in tensors) > 1.0
        worst = max(oneill_curvature_check(chart, metric, t)["curvature_mixed"] for t in tensors)
        assert worst < 1e-8

    def test_rotation_algebra_vertical_identity(self, so3):
        chk = _curvature_check(so3.chart, so3.metric, [0.0])
        assert chk["curvature_vertical"] is not None and chk["curvature_vertical"] < 1e-10
        assert chk["curvature_horizontal"] is None

    def test_affine_algebra_vertical_identity(self, aff2):
        chk = _curvature_check(aff2.chart, aff2.metric, [0.0])
        assert chk["curvature_vertical"] is not None and chk["curvature_vertical"] < 1e-10


class TestLeafGeodesicCorrespondence:
    def test_central_extension_horizontal_geodesics_are_straight(self, heisenberg):
        # horizontal start: the base path must follow the leaf geodesic,
        # a straight line of the flat induced metric
        chart, metric = heisenberg.chart, heisenberg.metric
        start = AVector([-0.5, 0.3], [0.6, 0.8, 0.0])
        path = geodesic_integrate(chart, metric, start, (0.0, 1.0), 1e-3)
        straight = start.x[None, :] + path.ts[:, None] * np.array([0.6, 0.8])[None, :]
        assert np.max(np.abs(path.xs - straight)) < 1e-7
        # and the fiber part stays horizontal
        assert np.max(np.abs(path.mus[:, 2])) < 1e-12
