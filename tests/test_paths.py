import collections
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from algebroid import catalog, paths, variations
from algebroid import metric as metric_module
from algebroid.charts import AlgebroidChart, AVector, SectionField
from algebroid.expressions import EvalDomainError
from algebroid.metric import MetricError, MetricField, christoffel, covariant_derivative, curvature, fiber_inner
from algebroid.paths import (
    APath,
    DomainExitError,
    FiberCurve,
    NonFiniteError,
    NonGeodesicError,
    derivative_along,
    dexp,
    energy_along,
    exp_map,
    geodesic_integrate,
    geodesic_residual,
    jacobi_solve,
    parallel_transport,
    _half_grid,
    _increment,
    _linear_flow,
    _rk4,
    transport_frame,
)
from algebroid.sampling import sample_box, sample_fiber


class TestGeodesics:
    def test_flat_straight_line(self, euclidean2):
        path = geodesic_integrate(
            euclidean2.chart, euclidean2.metric, AVector([0, 0], [1, 2]), (0, 1), 1e-3
        )
        np.testing.assert_allclose(path.xs[-1], [1.0, 2.0], atol=1e-12)
        np.testing.assert_allclose(path.mus[-1], [1.0, 2.0], atol=1e-13)

    def test_biinvariant_fiber_constant(self, so3):
        start = AVector([0.0], [0.4, -0.7, 0.2])
        path = geodesic_integrate(so3.chart, so3.metric, start, (0, 10), 1e-3)
        drift = np.max(np.abs(path.mus - start.mu))
        assert drift < 1e-12

    def test_sphere_equatorial_circle(self, sphere):
        start = AVector([np.pi / 2, 0.2], [0.0, 1.0])
        path = geodesic_integrate(sphere.chart, sphere.metric, start, (0, 1), 1e-3)
        np.testing.assert_allclose(path.xs[-1], [np.pi / 2, 1.2], atol=1e-8)

    @pytest.mark.parametrize("name", catalog.names())
    def test_energy_conservation(self, name):
        entry = catalog.get(name)
        xs = sample_box(entry.chart.domain, 2, seed=8, shrink=0.35)
        mus = sample_fiber(entry.chart.r, 2, seed=8, scale=0.5)
        for x, mu in zip(xs, mus):
            path = geodesic_integrate(entry.chart, entry.metric, AVector(x, mu), (0, 1), 2e-3)
            E = energy_along(entry.chart, entry.metric, path)
            assert np.max(np.abs(E - E[0])) / abs(E[0]) < 1e-8

    @pytest.mark.parametrize("name", catalog.names())
    def test_apath_constraint(self, name):
        entry = catalog.get(name)
        x = sample_box(entry.chart.domain, 1, seed=4, shrink=0.35)[0]
        mu = sample_fiber(entry.chart.r, 1, seed=4, scale=0.5)[0]
        path = geodesic_integrate(entry.chart, entry.metric, AVector(x, mu), (0, 1), 1e-3)
        assert path.constraint_residual(entry.chart) < 1e-9

    def test_scaling_reparameterization(self, sphere):
        # base of the flow of c*a over [0, t] matches the flow of a over [0, ct]
        a = AVector([1.2, 1.0], [0.3, 0.4])
        c = 2.0
        p1 = geodesic_integrate(sphere.chart, sphere.metric, AVector(a.x, c * a.mu), (0, 0.5), 1e-3)
        p2 = geodesic_integrate(sphere.chart, sphere.metric, a, (0, 1.0), 2e-3)
        np.testing.assert_allclose(p1.xs, p2.xs, atol=1e-8)

    def test_domain_exit_reports_time_and_partial_path(self, euclidean2):
        with pytest.raises(DomainExitError) as err:
            geodesic_integrate(
                euclidean2.chart, euclidean2.metric, AVector([0, 0], [10.0, 0.0]), (0, 1), 1e-3
            )
        exc = err.value
        assert 0.29 < exc.time < 0.31  # leaves |x1| < 3 at t = 0.3
        assert len(exc.path.ts) > 100
        assert np.all(np.abs(exc.path.xs[:, 0]) <= 3.0)

    @pytest.mark.parametrize("name", ["euclidean2", "sphere_chart", "heisenberg_central"])
    def test_non_finite_start_is_not_a_domain_exit(self, name):
        entry = catalog.get(name)
        x = entry.chart.center()
        x[0] = np.nan
        with pytest.raises(NonFiniteError) as err:
            geodesic_integrate(entry.chart, entry.metric, AVector(x, np.full(entry.chart.r, 0.1)))
        assert err.value.time == 0.0
        assert len(err.value.path.ts) == 0

    def test_blow_up_reports_time_and_partial_path(self, aff2):
        # a step far too large for |mu| = 14: RK4 overflows within three steps
        # while the base point stays inside the box (aff2 has zero anchor)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteError) as err:
                geodesic_integrate(aff2.chart, aff2.metric, AVector([0.0], [10.0, 10.0]), (0, 20), 1.0)
        exc = err.value
        assert exc.time == 3.0
        assert len(exc.path.ts) == 3
        assert np.all(np.isfinite(exc.path.xs)) and np.all(np.isfinite(exc.path.mus))

    @pytest.mark.parametrize("step", [-1e-3, 0.0, np.inf, -np.inf, np.nan])
    def test_step_must_be_finite_and_positive(self, sphere, step):
        from algebroid.variations import make_geodesic_pencil

        chart, metric, start = sphere.chart, sphere.metric, AVector([1.0, 1.0], [0.2, 0.3])
        match = "step must be finite and positive"
        with pytest.raises(ValueError, match=match):
            geodesic_integrate(chart, metric, start, (0.0, 1.0), step)
        with pytest.raises(ValueError, match=match):
            exp_map(chart, metric, start.x, [start.mu, -start.mu], step=step)
        with pytest.raises(ValueError, match=match):
            make_geodesic_pencil(chart, metric, start, [0.1, 0.0], [0.0, 0.1], (0.0, 1.0), step)

    def test_geodesic_residual_detects_non_geodesic(self, sphere):
        path = geodesic_integrate(
            sphere.chart, sphere.metric, AVector([1.0, 1.0], [0.2, 0.3]), (0, 1), 2e-3
        )
        assert geodesic_residual(sphere.chart, sphere.metric, path) < 1e-9
        bent = FiberCurve(path.ts, path.mus + 0.1 * np.sin(path.ts)[:, None])
        # feed a perturbed fiber curve back as if it were the path's own speed
        from dataclasses import replace

        fake = replace(path, ys=np.hstack([path.xs, bent.values]))
        assert geodesic_residual(sphere.chart, sphere.metric, fake) > 1e-3


class TestExpMap:
    def test_flat(self, euclidean2):
        np.testing.assert_allclose(
            exp_map(euclidean2.chart, euclidean2.metric, [0, 0], [1, 2]), [1, 2], atol=1e-12
        )

    def test_zero_anchor_is_constant(self, aff2, rng):
        for _ in range(5):
            a = rng.randn(2)
            out = exp_map(aff2.chart, aff2.metric, [0.0], a)
            np.testing.assert_allclose(out, [0.0], atol=1e-15)

    def test_sphere_great_circle(self, sphere):
        out = exp_map(sphere.chart, sphere.metric, [np.pi / 2, 0.2], [0.0, 1.0])
        np.testing.assert_allclose(out, [np.pi / 2, 1.2], atol=1e-8)


class TestBatchedExpMap:
    @pytest.mark.parametrize("name", ["sphere_chart", "heisenberg_central", "so3_biinv"])
    def test_matches_one_at_a_time(self, name):
        entry = catalog.get(name)
        chart, metric = entry.chart, entry.metric
        x = sample_box(chart.domain, 1, seed=21, shrink=0.35)[0]
        a = sample_fiber(chart.r, 6, seed=21, scale=0.4).reshape(2, 3, chart.r)
        out = exp_map(chart, metric, x, a, step=1e-2)
        assert out.shape == (2, 3, chart.n)
        for idx in np.ndindex(2, 3):
            np.testing.assert_array_equal(out[idx], exp_map(chart, metric, x, a[idx], step=1e-2))

    def test_base_points_per_row(self, sphere):
        xs = sample_box(sphere.chart.domain, 4, seed=22, shrink=0.35)
        a = sample_fiber(2, 4, seed=22, scale=0.4)
        out = exp_map(sphere.chart, sphere.metric, xs, a, step=1e-2)
        for x, ai, o in zip(xs, a, out):
            np.testing.assert_array_equal(o, exp_map(sphere.chart, sphere.metric, x, ai, step=1e-2))

    def test_lowest_failing_row_wins(self, euclidean2):
        chart, metric = euclidean2.chart, euclidean2.metric
        with pytest.raises(DomainExitError) as err:
            exp_map(chart, metric, [0.0, 0.0], [[0.5, 0.0], [5.0, 0.0], [10.0, 0.0]])
        with pytest.raises(DomainExitError) as single:
            exp_map(chart, metric, [0.0, 0.0], [5.0, 0.0])
        assert err.value.time == single.value.time
        np.testing.assert_array_equal(err.value.path.xs, single.value.path.xs)


class TestParallelTransport:
    def test_flat_transport_constant(self, euclidean2):
        path = geodesic_integrate(
            euclidean2.chart, euclidean2.metric, AVector([0, 0], [0.5, 0.3]), (0, 1), 1e-3
        )
        curve = parallel_transport(euclidean2.chart, euclidean2.metric, path, [1.0, -2.0])
        assert np.max(np.abs(curve.values - np.array([1.0, -2.0]))) < 1e-14

    @pytest.mark.parametrize("name", catalog.names())
    def test_norm_preserved(self, name):
        entry = catalog.get(name)
        x = sample_box(entry.chart.domain, 1, seed=6, shrink=0.35)[0]
        mu = sample_fiber(entry.chart.r, 1, seed=6, scale=0.5)[0]
        path = geodesic_integrate(entry.chart, entry.metric, AVector(x, mu), (0, 1), 2e-3)
        s0 = sample_fiber(entry.chart.r, 1, seed=60)[0]
        curve = parallel_transport(entry.chart, entry.metric, path, s0)
        norms = fiber_inner(entry.metric, path.xs, curve.values, curve.values)
        assert np.max(np.abs(norms - norms[0])) < 1e-8

    def test_sphere_equator_normal_field_parallel(self, sphere):
        # the equator is a geodesic; the colatitude direction stays put
        path = geodesic_integrate(
            sphere.chart, sphere.metric, AVector([np.pi / 2, 0.2], [0.0, 1.0]), (0, 1), 1e-3
        )
        curve = parallel_transport(sphere.chart, sphere.metric, path, [1.0, 0.0])
        assert np.max(np.abs(curve.values - np.array([1.0, 0.0]))) < 1e-10

    def test_linear_and_invertible(self, sphere, rng):
        path = geodesic_integrate(
            sphere.chart, sphere.metric, AVector([1.2, 2.0], [0.3, 0.4]), (0, 1), 2e-3
        )
        s0, s1 = rng.randn(2), rng.randn(2)
        a, b = 1.7, -0.6
        combined = parallel_transport(sphere.chart, sphere.metric, path, a * s0 + b * s1)
        separate = a * parallel_transport(
            sphere.chart, sphere.metric, path, s0
        ).values + b * parallel_transport(sphere.chart, sphere.metric, path, s1).values
        assert np.max(np.abs(combined.values - separate)) < 1e-12
        # inverse: transport back along the reversed path
        forward = parallel_transport(sphere.chart, sphere.metric, path, s0)
        back = parallel_transport(
            sphere.chart, sphere.metric, path.reversed(), forward.values[-1]
        )
        assert np.max(np.abs(back.values[-1] - s0)) < 1e-8


class TestDerivativeAlong:
    def test_transport_output_is_parallel(self, sphere):
        path = geodesic_integrate(
            sphere.chart, sphere.metric, AVector([1.0, 1.5], [0.4, 0.2]), (0, 1), 1e-3
        )
        curve = parallel_transport(sphere.chart, sphere.metric, path, [0.8, -0.1])
        deriv = derivative_along(sphere.chart, sphere.metric, path, curve)
        assert np.max(np.abs(deriv.values)) < 1e-7

    def test_geodesic_speed_is_parallel(self, sphere):
        path = geodesic_integrate(
            sphere.chart, sphere.metric, AVector([1.0, 1.5], [0.4, 0.2]), (0, 1), 1e-3
        )
        curve = FiberCurve(path.ts, path.mus)
        deriv = derivative_along(sphere.chart, sphere.metric, path, curve)
        assert np.max(np.abs(deriv.values)) < 1e-7

    @pytest.mark.parametrize("name", ["sphere_chart", "heisenberg_central"])
    def test_transport_characterizes_covariant_derivative(self, name):
        # pull a section back with inverse transport; its rate at t = 0 is
        # the covariant derivative (second-order one-sided difference)
        entry = catalog.get(name)
        chart, metric = entry.chart, entry.metric
        x0 = sample_box(chart.domain, 1, seed=13, shrink=0.3)[0]
        a = sample_fiber(chart.r, 1, seed=13, scale=0.5)[0]
        stexts = ["0.3 + 0.2*x1", "0.1 - 0.4*x1", "0.5*x1"][: chart.r]
        if chart.n >= 2:
            stexts = [t + " + 0.3*x2" for t in stexts]
        section = SectionField(stexts, chart.n)
        h = 1e-3
        path = geodesic_integrate(chart, metric, AVector(x0, a), (0.0, 2 * h), h)
        frames = transport_frame(chart, metric, path)
        F = []
        for k in range(3):
            sv, _ = section.eval_raw(path.xs[k])
            F.append(np.linalg.solve(frames[k], sv))
        rate = (-3.0 * F[0] + 4.0 * F[1] - F[2]) / (2 * h)
        expected = covariant_derivative(
            chart, metric, SectionField.constant(a, chart.n), section, x0
        )
        np.testing.assert_allclose(rate, expected, atol=1e-5)

    def test_grid_mismatch_rejected(self, sphere):
        path = geodesic_integrate(
            sphere.chart, sphere.metric, AVector([1.0, 1.5], [0.4, 0.2]), (0, 1), 1e-2
        )
        bad = FiberCurve(path.ts[:-1], path.mus[:-1])
        with pytest.raises(ValueError, match="grid"):
            derivative_along(sphere.chart, sphere.metric, path, bad)

    def test_non_uniform_grid_rejected(self, sphere):
        # the five-point stencils assume one step: a geodesic kept at every
        # node up to t = 0.5 and every second node after it read a residual
        # of 0.12, and the Jacobi precondition called it a non-geodesic
        path = geodesic_integrate(
            sphere.chart, sphere.metric, AVector([1.2, 1.0], [0.3, 0.8]), (0, 1), 1e-3
        )
        assert geodesic_residual(sphere.chart, sphere.metric, path.reversed()) < 1e-10
        keep = np.r_[0:500, 500 : len(path.ts) : 2]
        thinned = APath(path.ts[keep], path.ys[keep], path.ds[keep], path.n)
        with pytest.raises(ValueError, match="time grid is not uniform"):
            geodesic_residual(sphere.chart, sphere.metric, thinned)
        with pytest.raises(ValueError, match="time grid is not uniform"):
            jacobi_solve(sphere.chart, sphere.metric, thinned, [0.0, 0.0], [1.0, 0.0])


class TestJacobi:
    def test_flat_linear_solution(self, euclidean2):
        path = geodesic_integrate(
            euclidean2.chart, euclidean2.metric, AVector([0, 0], [0.5, 0.1]), (0, 1), 1e-3
        )
        beta = jacobi_solve(euclidean2.chart, euclidean2.metric, path, [0.2, -0.1], [1.0, 0.5])
        expected = np.array([0.2, -0.1]) + path.ts[:, None] * np.array([1.0, 0.5])
        assert np.max(np.abs(beta.values - expected)) < 1e-12

    @pytest.mark.parametrize("name", ["sphere_chart", "heisenberg_central", "so3_biinv"])
    def test_scaling_solution(self, name):
        # beta(0) = 0, beta'(0) = k alpha(0) integrates to beta = k t alpha
        entry = catalog.get(name)
        x = sample_box(entry.chart.domain, 1, seed=3, shrink=0.35)[0]
        mu = sample_fiber(entry.chart.r, 1, seed=3, scale=0.5)[0]
        path = geodesic_integrate(entry.chart, entry.metric, AVector(x, mu), (0, 1), 1e-3)
        k = 1.75
        beta = jacobi_solve(entry.chart, entry.metric, path, np.zeros(entry.chart.r), k * mu)
        expected = k * path.ts[:, None] * path.mus
        assert np.max(np.abs(beta.values - expected)) < 1e-8

    def test_sphere_sine_solution(self, sphere):
        # unit-speed equatorial geodesic, normal initial derivative
        path = geodesic_integrate(
            sphere.chart, sphere.metric, AVector([np.pi / 2, 0.2], [0.0, 1.0]), (0, 1), 1e-3
        )
        beta = jacobi_solve(sphere.chart, sphere.metric, path, [0.0, 0.0], [1.0, 0.0])
        norms = np.sqrt(fiber_inner(sphere.metric, path.xs, beta.values, beta.values))
        assert np.max(np.abs(norms - np.sin(path.ts))) < 1e-6

    def test_rejects_non_geodesic(self, sphere):
        path = geodesic_integrate(
            sphere.chart, sphere.metric, AVector([1.0, 1.0], [0.3, 0.2]), (0, 1), 1e-2
        )
        from dataclasses import replace

        fake = replace(path, ys=np.hstack([path.xs, path.mus + 0.05]))
        with pytest.raises(NonGeodesicError):
            jacobi_solve(sphere.chart, sphere.metric, fake, [0.0, 0.0], [1.0, 0.0])


class TestDexp:
    def test_flat_identity(self, euclidean2):
        out = dexp(euclidean2.chart, euclidean2.metric, [0, 0], [0.4, 0.7], [1.0, 0.0])
        np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-10)

    def test_zero_anchor_gives_zero(self, aff2):
        out = dexp(aff2.chart, aff2.metric, [0.0], [0.3, 0.4], [1.0, -1.0])
        np.testing.assert_allclose(out, [0.0], atol=1e-15)

    @pytest.mark.parametrize(
        "name", ["euclidean2", "sphere_chart", "heisenberg_central"]
    )
    def test_matches_finite_differences_of_exp(self, name):
        entry = catalog.get(name)
        chart, metric = entry.chart, entry.metric
        x = sample_box(chart.domain, 1, seed=17, shrink=0.35)[0]
        a = sample_fiber(chart.r, 1, seed=17, scale=0.4)[0]
        u = sample_fiber(chart.r, 1, seed=18, scale=0.5)[0]
        d = dexp(chart, metric, x, a, u, step=2e-3)
        eps = 1e-4
        plus = exp_map(chart, metric, x, a + eps * u, step=2e-3)
        minus = exp_map(chart, metric, x, a - eps * u, step=2e-3)
        fd = (plus - minus) / (2 * eps)
        scale = max(1.0, float(np.max(np.abs(fd))))
        assert np.max(np.abs(d - fd)) / scale < 1e-4


class TestRK4Core:
    A = np.array([[-0.5, 2.0, 0.0], [-1.0, 0.3, 0.5], [0.2, 0.0, -0.1]])

    def test_fourth_order_with_batch_axis(self, rng):
        w, V = np.linalg.eig(self.A)
        flow = ((V * np.exp(2.0 * w)) @ np.linalg.inv(V)).real  # exp(2A)
        y0 = rng.normal(size=(4, 3))  # a batch of four initial states
        exact = y0 @ flow.T
        errors = []
        for steps in (20, 40):
            ts = np.linspace(0.0, 2.0, steps + 1)
            ys, ds = _rk4(lambda j, y: y @ self.A.T, ts, y0)
            assert ys.shape == (steps + 1, 4, 3)
            np.testing.assert_allclose(ds, ys @ self.A.T, rtol=0, atol=1e-14)
            errors.append(np.max(np.abs(ys[-1] - exact)))
        assert 14.0 < errors[0] / errors[1] < 18.0

    def test_half_grid_indices(self):
        seen = []

        def f(j, y):
            seen.append(j)
            return np.zeros_like(y)

        _rk4(f, np.linspace(0.0, 1.0, 4), np.zeros(2))
        # one evaluation at node 0, then midpoint twice and node twice per step
        assert seen == [0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6]
        times = _half_grid_times(np.array([0.0, 1.0, 3.0]))
        np.testing.assert_array_equal(times, [0.0, 0.5, 1.0, 2.0, 3.0])


    def test_bit_identical_to_the_per_stage_reference(self, sphere):
        """The stages of `_rk4` run in the order of `_per_stage_rk4`, so a
        nonlinear flow and a geodesic agree with it to the bit."""

        def f(y):
            a, b, c = y[..., 0], y[..., 1], y[..., 2]
            return np.stack([b * c, -np.sin(a), a**2 - c], -1)

        ts = np.linspace(0.0, 1.5, 61)
        y0 = np.array([[0.3, -0.2, 0.5], [1.0, 0.4, -0.7]])
        ys, ds = _rk4(lambda j, y: f(y), ts, y0)
        ref_ys, ref_ds = _per_stage_rk4(lambda t, y: f(y), ts, y0)
        np.testing.assert_array_equal(ys, ref_ys)
        np.testing.assert_array_equal(ds, ref_ds)

        chart, metric = sphere.chart, sphere.metric
        path = geodesic_integrate(chart, metric, AVector([1.1, 0.4], [0.5, 0.3]), (0.0, 1.0), 1e-2)

        def spray(t, y):
            dx, dmu = paths.geodesic_rhs(chart, metric, y[:2], y[2:])
            return np.concatenate([dx, dmu])

        ys, ds = _per_stage_rk4(spray, path.ts, np.array([1.1, 0.4, 0.5, 0.3]))
        np.testing.assert_array_equal(np.hstack([path.xs, path.mus]), ys)
        np.testing.assert_array_equal(np.hstack([path.dxs, path.dmus]), ds)


def _half_grid_times(ts):
    """The half-grid times: a straight line is its own Hermite midpoint."""
    return _half_grid(ts, ts, np.ones_like(ts))


class TestLinearFlow:
    """`_linear_flow` chains precomputed RK4 step maps; on the same right
    side it must give what `_rk4` gives, up to rounding."""

    GRIDS = {  # grids of `nodes` nodes over [0, 1.2]
        "uniform": lambda nodes: np.linspace(0.0, 1.2, nodes),
        "non_uniform": lambda nodes: 1.2 * np.linspace(0.0, 1.0, nodes) ** 1.5,
        "decreasing": lambda nodes: np.linspace(1.2, 0.0, nodes),
    }
    # 40 steps first, on the draws it has always had; then the edges of the
    # sqrt(N) blocks: no step (one node), blocks of one step, a prime (a
    # padded last block), a square, and the CLI's default
    STEPS = (40, 0, 1, 2, 3, 37, 49, 1000)

    @staticmethod
    def track(ts, rng, shape):
        """A smooth coefficient track A(t) = A0 + sin(3t) A1 + t^2 A2 on the half grid."""
        A0, A1, A2 = rng.normal(size=(3,) + shape)
        t = _half_grid_times(ts).reshape((-1,) + (1,) * len(shape))
        return A0 + np.sin(3.0 * t) * A1 + t**2 * A2

    @pytest.mark.parametrize("grid", GRIDS)
    def test_matches_rk4(self, grid, rng):
        for steps in self.STEPS:
            ts = self.GRIDS[grid](steps + 1)
            A = self.track(ts, rng, (3, 3))
            cases = [
                (A, rng.normal(size=3), None, lambda j, y: A[j] @ y),  # a vector
                (A, np.eye(3), None, lambda j, y: A[j] @ y),  # a frame
            ]
            E = 4
            Q = self.track(ts, rng, (E, 3, 3))
            c = self.track(ts, rng, (E, 3))
            rhs = lambda j, b: np.einsum("eui,ei->eu", Q[j], b) + c[j]
            cases.append((Q, rng.normal(size=(E, 3)), c, rhs))  # a batch with a source
            for A, y0, src, f in cases:
                ys = _linear_flow(A, ts, y0, src)
                ref_ys, _ = _rk4(f, ts, y0)
                assert ys.shape == ref_ys.shape
                if steps == 0:
                    np.testing.assert_array_equal(ys[0], y0)
                # the states grow along the 1000-step chain: relative to the largest there
                atol = 1e-13 * (np.max(np.abs(ref_ys)) if steps > 49 else 1.0)
                np.testing.assert_allclose(ys, ref_ys, rtol=0, atol=atol, err_msg=f"{steps} steps")

    def test_tiny_step_maps_keep_their_bits(self, rng):
        """A long chain of tiny step maps (|A| ~ 1e-9, |y| ~ 1) against the
        same maps chained in 40-digit arithmetic: the increment form never
        rounds 1 + D_k, so the nodes stay within a few ulp of |y|, where a
        product of the rounded maps I + D_k drops D_k's low bits every step."""
        mpmath = pytest.importorskip("mpmath")
        steps, m = 1000, 3
        ts = np.linspace(0.0, 1.2, steps + 1)
        A = 1e-9 * self.track(ts, rng, (m, m))
        y0 = rng.normal(size=m)
        ys = _linear_flow(A, ts, y0)
        # the step maps minus I as `_linear_flow` forms them
        h = np.diff(ts)[:, None, None]
        D = _increment(lambda j, Y: A[j] @ Y, h, np.eye(m), A[:-1:2], slice(1, None, 2), slice(2, None, 2))
        product = [y0]
        for Dk in np.eye(m) + D:
            product.append(Dk @ product[-1])
        with mpmath.workdps(40):
            y = [mpmath.mpf(v) for v in y0]
            ref = [y]
            for Dk in D:
                y = [y[u] + mpmath.fsum(mpmath.mpf(d) * v for d, v in zip(row, y)) for u, row in enumerate(Dk)]
                ref.append(y)

            def error(nodes):
                return float(max(abs(mpmath.mpf(float(v)) - r) for node, row in zip(nodes, ref) for v, r in zip(node, row)))

            bound = 2e-15
            assert error(ys) < bound
            assert error(product) > bound  # the bound tells the two forms apart

    def test_matches_rk4_on_the_reversed_path_grid(self, sphere):
        chart, metric = sphere.chart, sphere.metric
        path = geodesic_integrate(chart, metric, AVector([1.1, 0.4], [0.5, 0.3]), (0.0, 1.0), 1e-2)
        back = path.reversed()
        L, _, _ = paths._transport_track(chart, metric, back)
        s0 = np.array([0.2, -0.7])
        ref, _ = _rk4(lambda j, s: L[j] @ s, back.ts, s0)
        np.testing.assert_allclose(_linear_flow(L, back.ts, s0), ref, rtol=0, atol=1e-13)

    def test_fourth_order(self, rng):
        A = TestRK4Core.A
        w, V = np.linalg.eig(A)
        flow = ((V * np.exp(2.0 * w)) @ np.linalg.inv(V)).real  # exp(2A)
        y0 = rng.normal(size=3)
        errors = []
        for steps in (20, 40):
            ts = np.linspace(0.0, 2.0, steps + 1)
            ys = _linear_flow(np.broadcast_to(A, (2 * steps + 1, 3, 3)), ts, y0)
            errors.append(np.max(np.abs(ys[-1] - flow @ y0)))
        assert 14.0 < errors[0] / errors[1] < 18.0


def _per_stage_rk4(f, ts, y0, on_node=lambda k, y: None):
    """Reference RK4 whose right side takes the time, not a track index;
    `on_node(k, y)` sees node k before the right side is evaluated there."""
    ys = np.empty((len(ts),) + np.shape(y0))
    ds = np.empty_like(ys)
    ys[0] = y0
    on_node(0, ys[0])
    ds[0] = f(ts[0], ys[0])
    for k in range(len(ts) - 1):
        t, h, y = ts[k], ts[k + 1] - ts[k], ys[k]
        k2 = f(t + 0.5 * h, y + 0.5 * h * ds[k])
        k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = f(t + h, y + h * k3)
        ys[k + 1] = y + (h / 6.0) * (ds[k] + 2.0 * k2 + 2.0 * k3 + k4)
        on_node(k + 1, ys[k + 1])
        ds[k + 1] = f(ts[k + 1], ys[k + 1])
    return ys, ds


def _gamma_at(chart, metric, alpha, t):
    x, mu = alpha.eval(t)
    return x, mu, christoffel(chart, metric, x).gamma


def reference_transport(chart, metric, alpha, s0):
    def f(t, s):
        _, mu, gamma = _gamma_at(chart, metric, alpha, t)
        return -np.einsum("i,j,iju->u", mu, s, gamma)

    return _per_stage_rk4(f, alpha.ts, np.asarray(s0, float))


def reference_frame(chart, metric, alpha):
    def f(t, S):
        _, mu, gamma = _gamma_at(chart, metric, alpha, t)
        return -np.einsum("i,iju,jk->uk", mu, gamma, S)

    return _per_stage_rk4(f, alpha.ts, np.eye(alpha.r))[0]


def reference_jacobi(chart, metric, alpha, beta0, dbeta0):
    r = alpha.r

    def f(t, y):
        x, mu, gamma = _gamma_at(chart, metric, alpha, t)
        R = curvature(chart, metric, x)
        beta, w = y[:r], y[r:]
        dbeta = w - np.einsum("i,j,iju->u", mu, beta, gamma)
        dw = np.einsum("ijkl,i,j,k->l", R, mu, beta, mu) - np.einsum("i,j,iju->u", mu, w, gamma)
        return np.concatenate([dbeta, dw])

    return _per_stage_rk4(f, alpha.ts, np.concatenate([beta0, dbeta0]))


@pytest.fixture(params=["sphere_chart", "twisted"])
def flow_case(request):
    """A 100-step geodesic with a transported vector and Jacobi data."""
    if request.param == "twisted":
        chart, metric = request.getfixturevalue("twisted_chart"), MetricField.identity(3, 2)
        start = AVector([1.0, 0.9], [0.3, -0.2, 0.4])
    else:
        entry = catalog.get(request.param)
        chart, metric = entry.chart, entry.metric
        start = AVector([1.1, 0.4], [0.5, 0.3])
    path = geodesic_integrate(chart, metric, start, (0.0, 1.0), 1e-2)
    s0 = sample_fiber(chart.r, 2, seed=5)
    return chart, metric, path, s0[0], s0[1]


class TestCoefficientTracks:
    def test_transport_matches_per_stage_reference(self, flow_case):
        chart, metric, path, s0, _ = flow_case
        curve = parallel_transport(chart, metric, path, s0)
        ys, _ = reference_transport(chart, metric, path, s0)
        assert np.max(np.abs(curve.values - ys)) <= 1e-12

    def test_frame_matches_per_stage_reference(self, flow_case):
        chart, metric, path, _, _ = flow_case
        S = transport_frame(chart, metric, path)
        assert np.max(np.abs(S - reference_frame(chart, metric, path))) <= 1e-12

    def test_jacobi_matches_per_stage_reference(self, flow_case):
        chart, metric, path, beta0, dbeta0 = flow_case
        beta = jacobi_solve(chart, metric, path, beta0, dbeta0)
        ys, _ = reference_jacobi(chart, metric, path, beta0, dbeta0)
        assert np.max(np.abs(beta.values - ys[:, : chart.r])) <= 1e-12

    def test_jacobi_columns_are_single_solves(self, flow_case):
        # (r, 3) initial columns give (N, r, 3) values; each column is its
        # single-column solve up to rounding
        chart, metric, path, beta0, dbeta0 = flow_case
        starts = np.stack([beta0, np.zeros(chart.r), dbeta0], 1), np.stack([dbeta0, path.mus[0], beta0], 1)
        beta = jacobi_solve(chart, metric, path, *starts).values
        assert beta.shape == (len(path.ts), chart.r, 3)
        for k in range(3):
            single = jacobi_solve(chart, metric, path, starts[0][:, k], starts[1][:, k]).values
            assert np.max(np.abs(beta[..., k] - single)) <= 1e-15 * np.max(np.abs(single))

    def test_coefficients_evaluated_once(self, flow_case, monkeypatch):
        chart, metric, path, s0, dbeta0 = flow_case
        calls = collections.Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(paths, "christoffel", counting("christoffel", paths.christoffel))
        dgamma = metric_module._Connection._dgamma
        monkeypatch.setattr(metric_module._Connection, "_dgamma", counting("dgamma", dgamma))
        monkeypatch.setattr(APath, "eval", counting("eval", APath.eval))
        parallel_transport(chart, metric, path, s0)
        transport_frame(chart, metric, path)
        # the half grid is read off the track's rows: no Hermite query
        assert calls == {"christoffel": 2}
        calls.clear()
        jacobi_solve(chart, metric, path, np.zeros(chart.r), dbeta0)
        # one connection call on the track: its record forms dGamma once for
        # R, and its Gamma on the nodes serves the geodesic check
        assert calls == {"christoffel": 1, "dgamma": 1}

    def test_linear_flows_make_no_per_stage_calls(self, flow_case, monkeypatch):
        """Transport, the frame, Jacobi and the transverse solve step by
        precomputed RK4 maps: with the per-stage core refused they still run,
        each with its one connection call on the track."""
        chart, metric, path, s0, dbeta0 = flow_case
        start = AVector(path.xs[0], path.mus[0])
        eps = np.linspace(-0.02, 0.02, 5)
        grid = variations.make_geodesic_pencil(chart, metric, start, dbeta0, eps, (0.0, 1.0), 0.05)

        def refuse(*args, **kwargs):
            raise AssertionError("a per-stage RK4 run")

        calls = collections.Counter()

        def counting(chart, metric, x):
            calls[np.shape(x)[:-1]] += 1
            return christoffel(chart, metric, x)

        monkeypatch.setattr(paths, "_rk4", refuse)
        monkeypatch.setattr(variations, "_rk4", refuse)
        monkeypatch.setattr(paths, "christoffel", counting)
        monkeypatch.setattr(variations, "christoffel", counting)
        N = len(path.ts)
        parallel_transport(chart, metric, path, s0)
        transport_frame(chart, metric, path)
        assert calls == {(2 * N - 1,): 2}
        calls.clear()
        jacobi_solve(chart, metric, path, np.zeros(chart.r), dbeta0)
        assert calls == {(2 * N - 1,): 1}  # the track, which serves the geodesic check too
        calls.clear()
        solved = variations.solve_transverse(chart, metric, grid, np.zeros((5, chart.r)))
        assert not calls  # the transverse solve reads the bracket only
        assert solved.beta.shape == grid.mu.shape


class FourArrayPath:
    """Reference: an A-path kept as four node arrays, each interpolated on
    its own (one Hermite call for x and one for mu per query)."""

    def __init__(self, path):
        self.ts = path.ts
        self.xs, self.mus = path.xs.copy(), path.mus.copy()
        self.dxs, self.dmus = path.dxs.copy(), path.dmus.copy()

    def eval(self, t):
        x, _ = paths._hermite(self.ts, self.xs, self.dxs, t)
        mu, _ = paths._hermite(self.ts, self.mus, self.dmus, t)
        return x, mu

    def constraint_residual(self, chart):
        tm = 0.5 * (self.ts[:-1] + self.ts[1:])
        x, mu = self.eval(tm)
        _, vel = paths._hermite(self.ts, self.xs, self.dxs, tm)
        B, _ = chart.eval_anchor(x)
        return float(np.max(np.abs(np.einsum("ts,tsi->ti", mu, B) - vel)))

    def reversed_arrays(self):
        ts = self.ts[0] + self.ts[-1] - self.ts[::-1]
        return ts, self.xs[::-1], -self.mus[::-1], -self.dxs[::-1], self.dmus[::-1]


def _unguarded_geodesic(chart, metric, start, t_span, step):
    """The geodesic RK4 run without node checks: grid, states, derivatives."""
    n = chart.n
    ts = paths._grid(t_span, step)

    def rhs(j, y):
        return np.concatenate(paths.geodesic_rhs(chart, metric, y[:n], y[n:]))

    return (ts, *_rk4(rhs, ts, np.concatenate([start.x, start.mu])))


class TestOneTrackPath:
    """An APath is the RK4 track (ts, ys, ds, n); every query interpolates
    the whole (x, mu) row and gives what the four-array layout gave."""

    def test_fields(self):
        assert [f.name for f in fields(APath)] == ["ts", "ys", "ds", "n"]
        assert not hasattr(APath, "base_velocity")

    def test_queries_match_the_four_array_reference(self, flow_case):
        chart, _, path, _, _ = flow_case
        ref = FourArrayPath(path)
        ts = path.ts
        inner = np.random.RandomState(2).uniform(ts[0], ts[-1], 50)
        times = np.concatenate([_half_grid_times(ts), inner])
        for t in (times, 0.37):
            x, mu = path.eval(t)
            ref_x, ref_mu = ref.eval(t)
            np.testing.assert_array_equal(x, ref_x)
            np.testing.assert_array_equal(mu, ref_mu)
        assert path.constraint_residual(chart) == ref.constraint_residual(chart)
        back = path.reversed()
        got = (back.ts, back.xs, back.mus, back.dxs, back.dmus)
        for array, want in zip(got, ref.reversed_arrays()):
            np.testing.assert_array_equal(array, want)
        assert back.n == path.n and back.r == path.r

    def test_one_hermite_call_per_query(self, flow_case, monkeypatch):
        chart, _, path, _, _ = flow_case
        calls = []
        hermite = paths._hermite

        def counting(*args):
            calls.append(args)
            return hermite(*args)

        monkeypatch.setattr(paths, "_hermite", counting)
        path.eval(_half_grid_times(path.ts))
        assert len(calls) == 1
        path.constraint_residual(chart)
        assert len(calls) == 2

    def test_half_grid_is_the_hermite_midpoint(self, flow_case):
        # what the linear flows read off the track: the nodes, and at the
        # midpoints what `eval` gives there, on any grid
        _, _, path, _, _ = flow_case
        keep = np.r_[0:50, 50 : len(path.ts) : 2]
        for alpha in (path, path.reversed(), APath(path.ts[keep], path.ys[keep], path.ds[keep], path.n)):
            half = _half_grid(alpha.ts, alpha.ys, alpha.ds)
            np.testing.assert_array_equal(half[::2], alpha.ys)
            x, mu = alpha.eval(_half_grid_times(alpha.ts))
            assert np.max(np.abs(half - np.hstack([x, mu]))) <= 1e-15 * np.max(np.abs(alpha.ys))

    def test_domain_exit_keeps_the_rows_before_the_failing_node(self, euclidean2):
        chart, metric, start = euclidean2.chart, euclidean2.metric, AVector([0, 0], [10.0, 0.0])
        with pytest.raises(DomainExitError) as err:
            geodesic_integrate(chart, metric, start, (0, 1), 1e-3)
        partial = err.value.path
        ts, ys, ds = _unguarded_geodesic(chart, metric, start, (0, 1), 1e-3)
        k = len(partial.ts)
        assert ts[k] == err.value.time and partial.n == chart.n
        np.testing.assert_array_equal(partial.ts, ts[:k])
        np.testing.assert_array_equal(partial.ys, ys[:k])
        np.testing.assert_array_equal(partial.ds, ds[:k])

    def test_non_finite_state_keeps_the_rows_before_the_failing_node(self, aff2):
        chart, metric, start = aff2.chart, aff2.metric, AVector([0.0], [10.0, 10.0])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteError) as err:
                geodesic_integrate(chart, metric, start, (0, 20), 1.0)
            _, ys, ds = _unguarded_geodesic(chart, metric, start, (0, 3), 1.0)
        partial = err.value.path
        assert len(partial.ts) == 3 and partial.n == chart.n
        np.testing.assert_array_equal(partial.ys, ys[:3])
        np.testing.assert_array_equal(partial.ds, ds[:3])


class TestBackwardFlows:
    """A span with t1 < t0 runs on a decreasing grid.  The geodesic system
    is odd in mu and time, so the geodesic from (x0, mu0) over [0, -1] is
    the one from (x0, -mu0) over [0, 1] with mu negated, to the bit."""

    @pytest.mark.parametrize("name", ["sphere_chart", "heisenberg_central", "aff2"])
    def test_geodesic_mirrors_the_forward_flow(self, name):
        entry = catalog.get(name)
        chart, metric = entry.chart, entry.metric
        x = sample_box(chart.domain, 1, seed=6, shrink=0.35)[0]
        mu = sample_fiber(chart.r, 1, seed=6, scale=0.5)[0]
        back = geodesic_integrate(chart, metric, AVector(x, mu), (0.0, -1.0), 1e-2)
        forth = geodesic_integrate(chart, metric, AVector(x, -mu), (0.0, 1.0), 1e-2)
        np.testing.assert_array_equal(back.ts, -forth.ts)
        np.testing.assert_array_equal(back.xs, forth.xs)
        np.testing.assert_array_equal(back.mus, -forth.mus)
        t = np.concatenate([_half_grid_times(forth.ts), np.random.RandomState(3).uniform(0, 1, 40)])
        x_back, mu_back = back.eval(-t)
        x_forth, mu_forth = forth.eval(t)
        np.testing.assert_array_equal(x_back, x_forth)
        np.testing.assert_array_equal(mu_back, -mu_forth)
        assert back.constraint_residual(chart) < paths.TOL_APATH_GENERATED


def _checked_geodesic_error(chart, metric, x0, mu0, step):
    """The error of the geodesic over [0, 1] from (x0, mu0) run by the
    reference RK4 with g checked at every stage, by the checked
    `christoffel` inside `geodesic_rhs`, and every node checked as the
    integrator checks it; None if it runs through."""
    n = chart.n
    ts = paths._grid((0.0, 1.0), step)

    def node(k, y):
        if not np.isfinite(y).all():
            raise NonFiniteError(float(ts[k]), None)
        if not chart.contains(y[:n]):
            raise DomainExitError(float(ts[k]), None)

    def f(t, y):
        return np.concatenate(paths.geodesic_rhs(chart, metric, y[:n], y[n:]))

    try:
        _per_stage_rk4(f, ts, np.concatenate([x0, mu0]), on_node=node)
    except Exception as err:
        return err


def _raised(run):
    with pytest.raises(Exception) as err:
        run()
    return err.value


class TestStagePointChecks:
    """A geodesic run checks g at its stage points in batches and may run on
    past a failing stage; the error must still be the one a check at every
    stage raises, for a single geodesic and for the first failing row of a
    batch.  One chart, the line with b = 1 over [-1, 1], under metrics that
    fail inside the box."""

    CASES = {
        # g = x1 is not SPD at x1 <= 0, where the solve's pivot check stops
        # the run
        "not_spd": ("x1", 0.5, -0.5, 1e-2),
        # ... where, without that check, it would leave the box at t = 0.21
        "not_spd_then_exit": ("x1", 0.3, -1.0, 1e-2),
        # ... found by a check of a later batch of nodes than the first
        "not_spd_after_a_checked_batch": ("x1", 0.5, -0.5, 1e-3),
        # a stage at x1 = 0, where g is singular
        "singular": ("x1", 0.1, -2.0, 0.1),
        # g overflows at a stage point, then a node is not finite
        "g_not_finite": ("cosh(800*x1)", 0.5, -0.5, 1e-2),
        # g stays finite, dg does not at x1 = 0.88
        "dg_not_finite": ("1 + 1/cosh(800*x1)", 0.5, 0.5, 1e-2),
    }

    @staticmethod
    def case(name):
        g, x0, mu, step = TestStagePointChecks.CASES[name]
        chart = AlgebroidChart(n=1, r=1, b=[["1"]], domain=[(-1.0, 1.0)])
        return chart, MetricField({(1, 1): g}, r=1, n=1), np.array([x0]), mu, step

    @staticmethod
    def assert_same(raised, expected):
        assert isinstance(expected, MetricError)
        assert type(raised) is type(expected)
        assert str(raised) == str(expected)

    @pytest.mark.parametrize("name", CASES)
    def test_single_geodesic(self, name):
        chart, metric, x0, mu, step = self.case(name)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            raised = _raised(lambda: geodesic_integrate(chart, metric, AVector(x0, [mu]), (0.0, 1.0), step))
            expected = _checked_geodesic_error(chart, metric, x0, np.array([mu]), step)
        self.assert_same(raised, expected)
        if name == "not_spd_then_exit":  # the pivot check stopped the run at the stage
            assert isinstance(raised.__context__, EvalDomainError)
        if name == "g_not_finite":  # the run went on past the stage
            assert isinstance(raised.__context__, NonFiniteError)

    @pytest.mark.parametrize("name", CASES)
    def test_first_failing_row_of_a_batch(self, name):
        # row 0 (mu = 0) stays at x0; rows 1 and 2 fail, row 1 first
        chart, metric, x0, mu, step = self.case(name)
        rows = np.array([0.0, mu, 2.0 * mu])
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            errors = [_checked_geodesic_error(chart, metric, x0, np.array([m]), step) for m in rows]
            assert errors[0] is None
            runs = [
                lambda: exp_map(chart, metric, x0, rows[:, None], step),
                lambda: variations.make_geodesic_pencil(
                    chart, metric, AVector(x0, [0.0]), [1.0], rows, (0.0, 1.0), step
                ),
            ]
            for run in runs:
                self.assert_same(_raised(run), errors[1])


class TestStageCheckCost:
    """The check of g along a run: one batched Cholesky factorization per
    run of up to STAGE_CHECK_NODES nodes, and stage records kept for at
    most that many nodes."""

    def test_a_200_step_geodesic_factors_g_once(self, sphere, monkeypatch):
        # one factorization per stage would be 4 * 200 + 1 = 801
        calls = []
        cholesky = np.linalg.cholesky

        def counting(a):
            calls.append(np.shape(a))
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", counting)
        start = AVector(sphere.chart.center(), [0.3, 0.2])
        geodesic_integrate(sphere.chart, sphere.metric, start, (0.0, 0.2), 1e-3)
        assert calls == [(801, 2, 2)]

    def test_a_long_geodesic_keeps_a_bounded_stage_log(self, sphere):
        # 1500 steps: the track takes 0.1 MB, the records of 256 nodes about
        # 0.8 MB, and records kept for the whole run about 3 KB a step, 4.5 MB
        start = AVector(sphere.chart.center(), [0.3, 0.2])
        geodesic_integrate(sphere.chart, sphere.metric, start, (0.0, 0.01), 1e-3)  # warm the caches
        tracemalloc.start()
        try:
            path = geodesic_integrate(sphere.chart, sphere.metric, start, (0.0, 0.375), 2.5e-4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(path.ts) == 1501
        assert peak < 3e6


class TestGeodesicFieldErrors:
    """What the geodesic field raises where its inputs fail: the metric's
    domain check before the anchor's, a singular stage as that stage's
    MetricError, and a constant g that is not SPD before any program run."""

    def test_the_metric_domain_error_comes_first(self):
        chart = AlgebroidChart(n=1, r=1, b=[["sqrt(x1)"]], domain=[(-1.0, 1.0)])
        metric = MetricField({(1, 1): "1 + log(x1)"}, r=1, n=1)
        for x, mu in (([-0.5], [0.3]), ([[0.5], [-0.5]], [[0.3], [0.2]])):
            with pytest.raises(EvalDomainError, match="log of a non-positive value"):
                paths.geodesic_rhs(chart, metric, np.array(x), np.array(mu))
        with pytest.raises(EvalDomainError, match="log of a non-positive value"):
            geodesic_integrate(chart, metric, AVector([-0.5], [0.3]), (0.0, 0.1), 1e-2)

    def test_a_metric_that_is_not_spd_comes_before_the_anchor_domain_error(self):
        # g = x1 evaluates at x1 < 0 but is not SPD there, where sqrt(x1) fails
        chart = AlgebroidChart(n=1, r=1, b=[["sqrt(x1)"]], domain=[(-1.0, 1.0)])
        metric = MetricField({(1, 1): "x1"}, r=1, n=1)
        for x, mu in (([-0.5], [0.3]), ([[0.5], [-0.5]], [[0.3], [0.2]])):
            with pytest.raises(MetricError, match=r"not positive definite at x=\[-0\.5\]"):
                paths.geodesic_rhs(chart, metric, np.array(x), np.array(mu))
        raised = _raised(lambda: geodesic_integrate(chart, metric, AVector([0.1], [-1.0]), (0.0, 1.0), 0.1))
        TestStagePointChecks.assert_same(raised, _checked_geodesic_error(chart, metric, [0.1], [-1.0], 0.1))
        assert isinstance(raised.__context__, EvalDomainError)

    def test_a_singular_stage_raises_its_metric_error(self):
        import warnings

        # the first step's second stage sits at x1 = 0.1 + 0.05 * -2 = 0, where g = 0
        chart = AlgebroidChart(n=1, r=1, b=[["1"]], domain=[(-1.0, 1.0)])
        metric = MetricField({(1, 1): "x1"}, r=1, n=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MetricError, match=r"not positive definite at x=\[0\.\]") as raised:
                geodesic_integrate(chart, metric, AVector([0.1], [-2.0]), (0.0, 1.0), 0.1)
        # the solve's pivot check stopped the run there
        assert isinstance(raised.value.__context__, EvalDomainError)

    def test_a_constant_metric_that_is_not_spd_raises_before_any_run(self, monkeypatch):
        from algebroid.expressions import Program

        def refuse(*args):
            raise AssertionError("a program ran")

        monkeypatch.setattr(Program, "run", refuse)
        chart = AlgebroidChart(n=1, r=1, b=[["1"]], domain=[(-1.0, 1.0)])
        metric = MetricField({(1, 1): "-1"}, r=1, n=1)
        for _ in range(2):
            for x, mu in (([0.5], [0.3]), ([[0.5], [0.2]], [[0.3], [0.1]])):
                with pytest.raises(MetricError, match="positive definite"):
                    paths.geodesic_rhs(chart, metric, np.array(x), np.array(mu))
            with pytest.raises(MetricError, match="positive definite"):
                geodesic_integrate(chart, metric, AVector([0.5], [0.3]), (0.0, 0.1), 1e-2)


class TestStageLog:
    """`geodesic_rhs` and a geodesic run both check g through one stage
    log of `metric`: a singular stage raises its MetricError from the
    EvalDomainError of the solve's pivot check, and a run checks its
    records 1024 at a time."""

    def test_a_singular_row_of_a_geodesic_rhs_batch_raises_its_metric_error(self):
        import warnings

        chart = AlgebroidChart(n=1, r=1, b=[["1"]], domain=[(-1.0, 1.0)])
        metric = MetricField({(1, 1): "x1"}, r=1, n=1)
        x, mu = np.array([[0.5], [0.0], [0.3]]), np.array([[0.2], [0.1], [-0.4]])
        expected = _raised(lambda: christoffel(chart, metric, x))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            raised = _raised(lambda: paths.geodesic_rhs(chart, metric, x, mu))
        TestStagePointChecks.assert_same(raised, expected)
        assert "x=[0.]" in str(raised)
        assert isinstance(raised.__context__, EvalDomainError)

    def test_a_600_step_geodesic_factors_g_in_batches_of_1024_records(self, sphere, monkeypatch):
        # 4 * 600 + 1 = 2401 stage records
        calls = []
        cholesky = np.linalg.cholesky

        def counting(a):
            calls.append(np.shape(a))
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", counting)
        start = AVector(sphere.chart.center(), [0.3, 0.2])
        geodesic_integrate(sphere.chart, sphere.metric, start, (0.0, 0.6), 1e-3)
        assert calls == [(1024, 2, 2), (1024, 2, 2), (353, 2, 2)]


class TestGeodesicFieldCost:
    """A single geodesic runs the step plan of the pair's one geodesic
    program once per RK4 step and its field plan once, at the last node,
    and forms no connection record."""

    @pytest.mark.parametrize("name", ["sphere_chart", "twisted"])
    def test_one_step_run_per_step_and_no_connection_record(self, name, twisted_chart, monkeypatch):
        from algebroid.expressions import Program

        if name == "twisted":
            chart, metric = twisted_chart, MetricField.identity(3, 2)
        else:
            chart, metric = catalog.get(name).chart, catalog.get(name).metric
        start = AVector(chart.center(), 0.2 * np.ones(chart.r))
        geodesic_integrate(chart, metric, start, (0.0, 0.01), 1e-3)  # builds both phases
        [ev] = metric._cache.values()
        step_orders = ev.stepper[0]

        def refuse(*args):
            raise AssertionError("a connection record was formed")

        runs, run = [], Program.run

        def counted(p, points, orders):
            runs.append((p, np.shape(points), orders))
            return run(p, points, orders)

        monkeypatch.setattr(metric_module._Connection, "christoffel", refuse)
        monkeypatch.setattr(Program, "run", counted)
        path = geodesic_integrate(chart, metric, start, (0.0, 0.2), 1e-3)
        assert len(path.ts) == 201
        width = chart.n + chart.r
        assert runs == [(ev.program, (width + 1,), step_orders)] * 200 + [(ev.program, (width,), ev.field)]


def _route_case(name, twisted_chart):
    """Chart and metric of a route case: a catalog entry, the twisted chart
    under the identity, or a non-diagonal varying metric that the field
    solves against by elimination, over aff2 (r = 2) or the twisted chart
    (r = 3)."""
    if name == "twisted":
        return twisted_chart, MetricField.identity(3, 2)
    if name == "aff2_varying":
        entries = {(1, 1): "2 + x1", (1, 2): "x1/4", (2, 2): "1 + x1^2"}
        return catalog.get("aff2").chart, MetricField(entries, r=2, n=1)
    if name == "twisted_varying":
        entries = {(1, 1): "2 + x1*x2", (1, 3): "0.1*x2", (2, 2): "1.5", (3, 3): "exp(x1)"}
        return twisted_chart, MetricField(entries, r=3, n=2)
    return catalog.get(name).chart, catalog.get(name).metric


def _reference_geodesic(chart, metric, ts, y0):
    """The stage-by-stage route: `_rk4` over the geodesic field."""
    field = metric_module._geodesic(chart, metric).geodesic
    with metric_module._stage_log() as keep:
        return _rk4(lambda j, y: field(y, keep), ts, y0)


class TestSingleGeodesicRoutes:
    """A single geodesic runs one step program per RK4 step; a batch row
    and the reference `_rk4` over the geodesic field make four field runs
    a step.  The three agree bit for bit, signed zeros included."""

    @pytest.mark.parametrize("t1", [0.5, -0.5])
    @pytest.mark.parametrize("name", [*catalog.names(), "twisted", "aff2_varying", "twisted_varying"])
    def test_single_batch_row_and_reference_agree_bit_for_bit(self, name, t1, twisted_chart):
        chart, metric = _route_case(name, twisted_chart)
        xs = sample_box(chart.domain, 3, seed=31, shrink=0.3)
        mus = sample_fiber(chart.r, 3, seed=32, scale=0.5)
        path = geodesic_integrate(chart, metric, AVector(xs[1], mus[1]), (0.0, t1), 1e-2)
        ts, ys, ds = paths._geodesics(chart, metric, xs, mus, (0.0, t1), 1e-2)
        ref_ys, ref_ds = _reference_geodesic(chart, metric, ts, np.concatenate([xs[1], mus[1]]))
        assert path.ts.tobytes() == ts.tobytes() and len(ts) == 51
        for got_ys, got_ds in ((path.ys, path.ds), (ys[:, 1], ds[:, 1])):
            assert got_ys.tobytes() == ref_ys.tobytes()
            assert got_ds.tobytes() == ref_ds.tobytes()

    def test_signed_zeros_of_a_slope_that_folds_to_zero(self, so3):
        # dx folds to zero on so3_biinv: x = -0.0 plus a zero increment is 0.0
        chart, metric = so3.chart, so3.metric
        y0 = np.array([-0.0, 0.1, 0.2, 0.3])
        path = geodesic_integrate(chart, metric, AVector(y0[:1], y0[1:]), (0.0, 0.01), 1e-3)
        assert np.signbit(path.xs[:3, 0]).tolist() == [True, False, False]
        ref_ys, ref_ds = _reference_geodesic(chart, metric, path.ts, y0)
        assert path.ys.tobytes() == ref_ys.tobytes() and path.ds.tobytes() == ref_ds.tobytes()


class TestStepProgramFailures:
    """Where the step program of a single geodesic raises, the start is
    replayed stage by stage through `_rk4`, so the error is the one a
    check at every stage raises; a node check's error needs no replay.
    The chart is the line with b = 1 under g = 1 + x1^2, whose fiber
    coordinate turns, so the stages of a step sit at four points."""

    X0, MU0, STEP = np.array([0.3]), np.array([0.7]), 0.1

    @staticmethod
    def chart(b="1"):
        return AlgebroidChart(n=1, r=1, b=[[b]], domain=[(-2.0, 2.0)])

    @classmethod
    def stage_point(cls, metric, k, stage):
        """Base point of stage 2, 3 or 4 of step k of the run: the field is
        called once at node 0, then at stages 2, 3, 4 and the next node."""
        chart, seen = cls.chart(), []
        field = metric_module._geodesic(chart, metric).geodesic
        ts, y0 = paths._grid((0.0, 1.0), cls.STEP), np.concatenate([cls.X0, cls.MU0])
        with metric_module._stage_log() as keep:
            ys, _ = _rk4(lambda j, y: seen.append(float(y[0])) or field(y, keep), ts, y0)
        x = seen[1 + 4 * k + stage - 2]
        assert x not in ys[:, 0] and seen.count(x) == 1
        return x

    def run_counting_replays(self, chart, metric, x0, mu0, monkeypatch):
        """(the error of the single geodesic from (x0, mu0), the number of
        `_rk4` runs it made: its replays)"""
        replays, rk4 = [], paths._rk4

        def counted(*args, **kwargs):
            replays.append(1)
            return rk4(*args, **kwargs)

        monkeypatch.setattr(paths, "_rk4", counted)
        raised = _raised(lambda: geodesic_integrate(chart, metric, AVector(x0, mu0), (0.0, 1.0), self.STEP))
        return raised, len(replays)

    @pytest.mark.parametrize("stage", [2, 3, 4])
    def test_an_anchor_domain_error_at_a_stage(self, stage, monkeypatch):
        metric = MetricField({(1, 1): "1 + x1^2"}, r=1, n=1)
        x = self.stage_point(metric, 3, stage)
        chart = self.chart(f"1 + 0/(x1 - {x!r})")  # b = 1, with a check that fails at x alone
        raised, replays = self.run_counting_replays(chart, metric, self.X0, self.MU0, monkeypatch)
        expected = _checked_geodesic_error(chart, metric, self.X0, self.MU0, self.STEP)
        assert isinstance(expected, EvalDomainError) and "division by zero" in str(expected)
        assert type(raised) is type(expected) and str(raised) == str(expected)
        assert replays == 1

    def test_a_metric_that_is_not_spd_at_a_stage(self, monkeypatch):
        # g = x1 from x1 = 0.1 at mu = -2: the first step's second stage sits
        # at x1 = 0, where g is singular and the solve's pivot check raises
        chart, metric = TestStagePointChecks.case("singular")[:2]
        x0, mu0 = np.array([0.1]), np.array([-2.0])
        raised, replays = self.run_counting_replays(chart, metric, x0, mu0, monkeypatch)
        expected = _checked_geodesic_error(chart, metric, x0, mu0, self.STEP)
        TestStagePointChecks.assert_same(raised, expected)
        assert "x=[0.]" in str(raised) and isinstance(raised.__context__, EvalDomainError)
        assert replays == 1

    def test_a_node_outside_the_box_raises_without_a_replay(self, euclidean2, monkeypatch):
        chart, metric = euclidean2.chart, euclidean2.metric
        monkeypatch.setattr(paths, "_rk4", None)  # any replay would fail
        with pytest.raises(DomainExitError) as err:
            geodesic_integrate(chart, metric, AVector([0.0, 0.0], [5.0, 0.0]), (0.0, 1.0), 1e-2)
        assert err.value.path.ts[-1] < err.value.time

    @pytest.mark.parametrize(
        "name, x0, mu0",
        [
            # the increment overflows: k1 + 2 k2 is 3e308
            ("euclidean2", [0.0, 0.0], [1e308, 0.0]),
            # a field stage overflows: mu2 mu2 is 1e310
            ("aff2", [0.0], [1e155, 1e155]),
        ],
    )
    def test_an_overflow_inside_a_step(self, name, x0, mu0, monkeypatch):
        # the step run raises under numpy's raising error state; the replay
        # warns as `_rk4` over the field does and stops at the first node,
        # which is not finite
        import warnings

        chart, metric = catalog.get(name).chart, catalog.get(name).metric
        x0, mu0 = np.array(x0), np.array(mu0)
        ts, n = paths._grid((0.0, 1.0), self.STEP), chart.n
        field = metric_module._geodesic(chart, metric).geodesic

        def node(k, y, ys, ds):  # the node check of a single geodesic
            if not np.isfinite(y).all():
                raise NonFiniteError(float(ts[k]), None)
            if not chart.contains(y[:n]):
                raise DomainExitError(float(ts[k]), None)

        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            raised, replays = self.run_counting_replays(chart, metric, x0, mu0, monkeypatch)
        with warnings.catch_warnings(record=True) as seen_by_field:
            warnings.simplefilter("always")
            with metric_module._stage_log() as keep:
                y0 = np.concatenate([x0, mu0])
                expected = _raised(lambda: _rk4(lambda j, y: field(y, keep), ts, y0, on_node=node))
        assert type(raised) is type(expected) is NonFiniteError
        assert raised.time == expected.time == 0.1 and len(raised.path.ts) == 1
        messages = [(w.category, str(w.message)) for w in seen]
        assert messages and messages == [(w.category, str(w.message)) for w in seen_by_field]
        assert all(category is RuntimeWarning for category, _ in messages)
        assert replays == 1


class TestGeodesicProgramFolds:
    """The geodesic program is built from the chart's and metric's
    expressions alone, and the folding rule settles their constants: no op
    of its field or step plan divides by the constant 1.0 (a unit pivot of
    the solve) or checks a constant slot."""

    @pytest.mark.parametrize("name", [*catalog.names(), "twisted", "aff2_varying", "twisted_varying"])
    def test_no_unit_divisor_and_no_check_of_a_constant(self, name, twisted_chart):
        import operator

        chart, metric = _route_case(name, twisted_chart)
        ev = metric_module._geodesic(chart, metric, _increment)
        prog = ev.program
        for orders in (ev.field, ev.stepper[0]):
            ops = prog._plan(orders)[0]
            assert not [op for op in ops if op[0] is operator.truediv and prog._vals[op[3]] == 1.0]
            assert not [op for op in ops if op[4] is not None and prog._vals[op[4][1]] is not None]


class TestDomainErrorOfAVaryingMetric:
    """A domain error of the chart met mid-run, under a g that varies by
    its expression but whose partials vanish identically (g = 1 + 0*x1):
    the stage log takes g at the failing stage as it takes every other
    record, so the run raises the EvalDomainError."""

    def test_single_start_batch_and_geodesic_rhs_raise_the_domain_error(self):
        chart = AlgebroidChart(n=1, r=1, b=[["1 + 0*sqrt(0.5 - x1)"]], domain=[(-2.0, 2.0)])
        metric = MetricField({(1, 1): "1 + 0*x1"}, r=1, n=1)
        message = r"sqrt of a non-positive value in subexpression 'sqrt\(0\.5 - x1\)'"
        runs = [
            lambda: geodesic_integrate(chart, metric, AVector([0.0], [1.0]), (0.0, 1.0), 1e-2),
            lambda: paths._geodesics(chart, metric, [[0.0], [0.0]], [[0.2], [1.0]], (0.0, 1.0), 1e-2),
            lambda: paths.geodesic_rhs(chart, metric, [[0.0], [0.6]], [[1.0], [1.0]]),
        ]
        for run in runs:
            with pytest.raises(EvalDomainError, match=message):
                run()
