import operator
import warnings

import numpy as np
import pytest

from algebroid import catalog, paths, variations
from algebroid.charts import AlgebroidChart, AVector
from algebroid.errors import CheckFailure, InputError
from algebroid.expressions import EvalDomainError, Program
from algebroid.metric import MetricField, _quad, christoffel, curvature
from algebroid.paths import (
    DomainExitError,
    NonFiniteError,
    _grid_derivative,
    _half_grid,
    _rk4,
    _transport_track,
    derivative_along,
    geodesic_integrate,
    geodesic_residual,
    jacobi_solve,
)
from algebroid.sampling import sample_box, sample_fiber
from algebroid.variations import (
    HOMOTOPY_AMPLITUDE,
    HOMOTOPY_EPS,
    VariationGrid,
    anchor_of_grid,
    curvature_commutation_residual,
    delta,
    first_variation_residual,
    jacobi_from_geodesic_pencil,
    make_fixed_endpoint_homotopy,
    make_geodesic_pencil,
    row_energies,
    solve_transverse,
)


def straight_line_variation(n_eps=7, n_t=101, move_endpoint=False):
    """Family of straight lines in the flat plane.

    With fixed endpoints the base interpolates p -> q with a transverse
    bump; with `move_endpoint` the target q slides with eps.
    """
    eps = np.linspace(-0.1, 0.1, n_eps)
    ts = np.linspace(0.0, 1.0, n_t)
    p = np.array([0.0, 0.0])
    q = np.array([1.0, 0.5])
    w = np.array([0.3, -0.2])
    E, N = len(eps), len(ts)
    x = np.zeros((E, N, 2))
    mu = np.zeros((E, N, 2))
    for i, e in enumerate(eps):
        if move_endpoint:
            qe = q + e * w
            for k, t in enumerate(ts):
                x[i, k] = p + t * (qe - p)
                mu[i, k] = qe - p
        else:
            for k, t in enumerate(ts):
                bump = e * np.sin(np.pi * t) * w
                x[i, k] = p + t * (q - p) + bump
                mu[i, k] = (q - p) + e * np.pi * np.cos(np.pi * t) * w
    return VariationGrid(eps=eps, ts=ts, x=x, mu=mu)


class TestDelta:
    def test_flat_straight_lines_zero(self, euclidean2):
        # constant-velocity rows: every mesh derivative is exact
        grid = straight_line_variation(move_endpoint=True)
        w = np.array([0.3, -0.2])
        grid.beta = np.broadcast_to(
            grid.ts[:, None] * w[None, :], grid.mu.shape
        ).copy()
        d = delta(euclidean2.chart, grid)
        assert np.max(np.abs(d[1:-1, 1:-1])) < 1e-12

    def test_anchor_annihilates_delta(self, heisenberg):
        # perturb the distinguished transverse family by a vertical field:
        # Delta becomes nonzero but stays in the anchor kernel
        chart, metric = heisenberg.chart, heisenberg.metric
        a = AVector([-0.3, 0.1], [0.5, 0.4, 0.2])
        u = np.array([0.2, -0.3, 0.4])
        eps = np.linspace(-2e-2, 2e-2, 5)
        grid = make_geodesic_pencil(chart, metric, a, u, eps, (0.0, 1.0), 2e-3)
        solved = solve_transverse(chart, metric, grid, np.zeros((5, 3)))
        tt, ee = np.meshgrid(grid.ts, eps)
        vertical = np.zeros_like(solved.beta)
        vertical[..., 2] = np.sin(3 * tt + 2 * ee)
        perturbed = VariationGrid(
            eps=grid.eps, ts=grid.ts, x=grid.x, mu=grid.mu, beta=solved.beta + vertical
        )
        assert perturbed.transversality_residual(chart) < 1e-6
        d = delta(chart, perturbed)
        assert np.max(np.abs(d[1:-1, 1:-1])) > 0.1  # genuinely nonzero
        anchored = anchor_of_grid(chart, perturbed, d)
        assert np.max(np.abs(anchored[1:-1, 1:-1])) < 1e-5

    def test_solver_output_has_zero_delta(self, sphere):
        a = AVector([1.3, 1.0], [0.4, 0.3])
        eps = np.linspace(-2e-3, 2e-3, 5)
        grid = make_geodesic_pencil(sphere.chart, sphere.metric, a, [0.5, -0.2], eps, (0.0, 1.0), 1e-3)
        solved = solve_transverse(sphere.chart, sphere.metric, grid, np.zeros((5, 2)))
        d = delta(sphere.chart, solved)
        assert np.max(np.abs(d[1:-1, 1:-1])) < 1e-6

    def test_linearity_in_beta(self, sphere, rng):
        a = AVector([1.3, 1.0], [0.4, 0.3])
        eps = np.linspace(-1e-2, 1e-2, 5)
        grid = make_geodesic_pencil(sphere.chart, sphere.metric, a, [0.5, -0.2], eps, (0.0, 1.0), 5e-3)
        b1 = rng.randn(*grid.mu.shape)
        b2 = rng.randn(*grid.mu.shape)
        g1 = VariationGrid(grid.eps, grid.ts, grid.x, grid.mu, b1)
        g2 = VariationGrid(grid.eps, grid.ts, grid.x, grid.mu, b2)
        g12 = VariationGrid(grid.eps, grid.ts, grid.x, grid.mu, b1 + b2)
        d1 = delta(sphere.chart, g1)
        d2 = delta(sphere.chart, g2)
        d12 = delta(sphere.chart, g12)
        # the defect is affine in beta; differences cancel the alpha part
        lhs = d12 - d1
        base = VariationGrid(grid.eps, grid.ts, grid.x, grid.mu, np.zeros_like(b1))
        d0 = delta(sphere.chart, base)
        rhs = d2 - d0
        assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_mesh_too_coarse_rejected(self, euclidean2):
        grid = straight_line_variation(n_eps=2, n_t=50)
        grid.beta = np.zeros_like(grid.mu)
        with pytest.raises(ValueError, match="coarse"):
            delta(euclidean2.chart, grid)


class TestSolveTransverse:
    def test_flat_straight_lines_recover_velocity(self, euclidean2):
        grid = straight_line_variation()
        w = np.array([0.3, -0.2])
        beta0 = np.zeros((len(grid.eps), 2))
        solved = solve_transverse(euclidean2.chart, euclidean2.metric, grid, beta0)
        for i in range(1, len(grid.eps) - 1):
            expected = np.sin(np.pi * grid.ts)[:, None] * w[None, :]
            assert np.max(np.abs(solved.beta[i] - expected)) < 1e-6

    def test_homotopy_detection_fixed_endpoints(self, euclidean2):
        # an A-homotopy: the transverse family from zero rows vanishes at t1
        grid = straight_line_variation()
        zeros = np.zeros((len(grid.eps), 2))
        end = solve_transverse(euclidean2.chart, euclidean2.metric, grid, zeros).beta[:, -1]
        assert np.max(np.abs(end)) < 1e-6

    def test_moving_endpoint_is_not_a_homotopy(self, euclidean2):
        grid = straight_line_variation(move_endpoint=True)
        zeros = np.zeros((len(grid.eps), 2))
        end = solve_transverse(euclidean2.chart, euclidean2.metric, grid, zeros).beta[:, -1]
        assert np.max(np.abs(end)) > 0.1

    def test_solver_transversality_aposteriori(self, heisenberg):
        chart, metric = heisenberg.chart, heisenberg.metric
        a = AVector([-0.2, 0.4], [0.5, 0.4, 0.3])
        eps = np.linspace(-1e-2, 1e-2, 5)
        grid = make_geodesic_pencil(chart, metric, a, [0.1, 0.2, -0.3], eps, (0.0, 1.0), 2e-3)
        solved = solve_transverse(chart, metric, grid, np.zeros((5, 3)))
        assert solved.transversality_residual(chart) < 1e-5

    @pytest.mark.parametrize("half_width, step, warns", [(0.6, 0.5, True), (0.05, 0.1, False)])
    def test_a_coarse_mesh_warns_after_the_solve(self, sphere, half_width, step, warns):
        # residual 9.9e-4 on the coarse mesh, 5.4e-7 on the fine one, about a
        # bound of 1e-4
        chart, metric = sphere.chart, sphere.metric
        eps = np.linspace(-half_width, half_width, 5)
        grid = make_geodesic_pencil(chart, metric, AVector(chart.center(), [0.3, 0.4]), [0.5, -0.3], eps,
                                    (0.0, 1.0), step)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            solved = solve_transverse(chart, metric, grid, np.zeros((5, 2)))
        residual = solved.transversality_residual(chart)
        assert (residual > variations.TRANSVERSALITY_POSTERIOR_TOL) == warns
        assert [str(w.message) for w in caught] == [
            f"transverse solve: a-posteriori transversality residual {residual:.3e}; "
            "the mesh is probably too coarse"
        ] * warns

    def test_deterministic_and_sensitive_to_initial_rows(self, sphere):
        a = AVector([1.3, 1.0], [0.4, 0.3])
        eps = np.linspace(-1e-2, 1e-2, 5)
        grid = make_geodesic_pencil(sphere.chart, sphere.metric, a, [0.5, -0.2], eps, (0.0, 1.0), 5e-3)
        s1 = solve_transverse(sphere.chart, sphere.metric, grid, np.zeros((5, 2)))
        s2 = solve_transverse(sphere.chart, sphere.metric, grid, np.zeros((5, 2)))
        np.testing.assert_array_equal(s1.beta, s2.beta)
        # a vertical change of beta0 is impossible here (injective anchor),
        # but scaling the whole initial row by the transversality slack is:
        other = solve_transverse(
            sphere.chart, sphere.metric, grid, 1e-7 * np.ones((5, 2))
        )
        assert np.max(np.abs(other.beta - s1.beta)) > 0

    def test_bad_initial_rows_rejected(self, sphere):
        a = AVector([1.3, 1.0], [0.4, 0.3])
        eps = np.linspace(-1e-2, 1e-2, 5)
        grid = make_geodesic_pencil(sphere.chart, sphere.metric, a, [0.5, -0.2], eps, (0.0, 1.0), 5e-3)
        with pytest.raises(ValueError, match="transverse"):
            solve_transverse(sphere.chart, sphere.metric, grid, np.ones((5, 2)))

    def test_non_uniform_time_grid_accuracy(self, sphere):
        # this pencil at t-step 1/200, kept at every node up to t = 0.5 and
        # every second one after it, meets the solution on the full grid at
        # t = 1 within 3.1e-11; a uniform grid twice as coarse misses it by
        # 8.6e-11, and a midpoint rule with uniform weights by 2.4e-7
        chart, metric = sphere.chart, sphere.metric
        a = AVector([1.2, 1.0], [0.3, 0.8])
        eps = np.linspace(-0.02, 0.02, 9)
        grid = make_geodesic_pencil(chart, metric, a, [0.2, -0.1], eps, (0.0, 1.0), 1.0 / 200)
        keep = np.r_[0:100, 100 : len(grid.ts) : 2]
        thinned = VariationGrid(eps=grid.eps, ts=grid.ts[keep], x=grid.x[:, keep], mu=grid.mu[:, keep])
        zeros = np.zeros((len(eps), 2))
        fine = solve_transverse(chart, metric, grid, zeros).beta[:, -1]
        coarse = solve_transverse(chart, metric, thinned, zeros).beta[:, -1]
        assert np.max(np.abs(coarse - fine)) < 1e-10
        # a pencil moves its far end: not a fixed-endpoint homotopy
        assert np.max(np.abs(coarse)) >= 1e-5


class TestCommutationIdentity:
    def test_flat_chart(self, euclidean2):
        grid = straight_line_variation()
        solved = solve_transverse(
            euclidean2.chart, euclidean2.metric, grid, np.zeros((len(grid.eps), 2))
        )
        tt, ee = np.meshgrid(grid.ts, grid.eps)
        s = np.stack([np.sin(tt + ee), np.cos(2 * tt - ee)], axis=-1)
        res = curvature_commutation_residual(euclidean2.chart, euclidean2.metric, solved, s)
        assert res < 1e-6

    def test_sphere_parallel_frame(self, sphere):
        from algebroid.paths import parallel_transport

        a = AVector([1.2, 1.0], [0.35, 0.3])
        eps = np.linspace(-0.05, 0.05, 41)
        grid = make_geodesic_pencil(sphere.chart, sphere.metric, a, [0.4, -0.2], eps, (0.0, 1.0), 1.0 / 40)
        solved = solve_transverse(sphere.chart, sphere.metric, grid, np.zeros((41, 2)))
        s = np.zeros_like(grid.mu)
        for i in range(41):
            curve = parallel_transport(sphere.chart, sphere.metric, grid.row_path(i), [1.0, 0.0])
            s[i] = curve.values
        res = curvature_commutation_residual(sphere.chart, sphere.metric, solved, s)
        assert res < 1e-3

    @pytest.mark.parametrize("rows, cols", [(3, slice(None)), (9, slice(0, 4))], ids=["3xN", "Ex4"])
    def test_mesh_too_coarse_rejected(self, sphere, rows, cols):
        # the residual is read at doubly-interior nodes: 5 per direction
        a = AVector([1.2, 1.0], [0.35, 0.3])
        eps = np.linspace(-0.05, 0.05, rows)
        pencil = make_geodesic_pencil(sphere.chart, sphere.metric, a, [0.4, -0.2], eps, (0.0, 1.0), 1.0 / 40)
        solved = solve_transverse(sphere.chart, sphere.metric, pencil, np.zeros((rows, 2)))
        grid = VariationGrid(eps, solved.ts[cols], solved.x[:, cols], solved.mu[:, cols], solved.beta[:, cols])
        with pytest.raises(ValueError, match="^mesh too coarse: need at least 5 nodes per direction$"):
            curvature_commutation_residual(sphere.chart, sphere.metric, grid, np.ones_like(grid.mu))

    @pytest.mark.parametrize("shape", [(9, 41, 1), (9, 41, 3), (9, 40, 2), (41, 9, 2)])
    def test_s_of_the_wrong_shape_is_rejected(self, sphere, shape):
        # a size-1 fiber axis would broadcast like an all-ones mesh
        a = AVector([1.2, 1.0], [0.35, 0.3])
        eps = np.linspace(-0.05, 0.05, 9)
        grid = make_geodesic_pencil(sphere.chart, sphere.metric, a, [0.4, -0.2], eps, (0.0, 1.0), 1.0 / 40)
        solved = solve_transverse(sphere.chart, sphere.metric, grid, np.zeros((9, 2)))
        with pytest.raises(ValueError, match=r"^s must have shape \(E, N, r\) = \(9, 41, 2\)"):
            curvature_commutation_residual(sphere.chart, sphere.metric, solved, np.ones(shape))

    @pytest.mark.parametrize("name", ["heisenberg_central", "sphere_chart"])
    def test_second_order_convergence(self, name):
        entry = catalog.get(name)
        chart, metric = entry.chart, entry.metric
        x0 = sample_box(chart.domain, 1, seed=2, shrink=0.35)[0]
        a = AVector(x0, 0.4 * np.ones(chart.r))
        u = np.linspace(0.3, -0.3, chart.r)
        residuals = []
        for N in (21, 41, 81):
            eps = np.linspace(-0.05, 0.05, N)
            grid = make_geodesic_pencil(chart, metric, a, u, eps, (0.0, 1.0), 1.0 / (N - 1))
            solved = solve_transverse(chart, metric, grid, np.zeros((N, chart.r)))
            tt, ee = np.meshgrid(grid.ts, eps)
            s = np.stack(
                [np.sin(1 + 0.7 * k + tt + 0.5 * ee) for k in range(chart.r)], axis=-1
            )
            residuals.append(
                curvature_commutation_residual(chart, metric, solved, s)
            )
        orders = [np.log2(residuals[i] / residuals[i + 1]) for i in range(2)]
        assert min(orders) > 1.8, (residuals, orders)


class TestFirstVariation:
    def test_flat_moving_endpoint(self, euclidean2):
        grid = straight_line_variation(move_endpoint=True)
        w = np.array([0.3, -0.2])
        beta0 = np.zeros((len(grid.eps), 2))
        solved = solve_transverse(euclidean2.chart, euclidean2.metric, grid, beta0)
        res = first_variation_residual(euclidean2.chart, euclidean2.metric, solved)
        assert res < 1e-6
        # identity reduces to the boundary pairing <beta, alpha>(1)
        energies = row_energies(euclidean2.chart, euclidean2.metric, solved)
        dE = np.gradient(energies, grid.eps, edge_order=2)
        mid = len(grid.eps) // 2
        q = np.array([1.0, 0.5])
        assert dE[mid] == pytest.approx(float(w @ q), abs=1e-8)

    @pytest.mark.parametrize("name", ["sphere_chart", "heisenberg_central"])
    def test_geodesic_homotopy_is_critical(self, name):
        entry = catalog.get(name)
        chart, metric = entry.chart, entry.metric
        x0 = sample_box(chart.domain, 1, seed=14, shrink=0.35)[0]
        mu0 = 0.35 * np.ones(chart.r)
        path = geodesic_integrate(chart, metric, AVector(x0, mu0), (0.0, 1.0), 2e-3)
        direction = np.linspace(1.0, 0.5, chart.r)
        grid = make_fixed_endpoint_homotopy(chart, metric, path, direction)
        res = first_variation_residual(chart, metric, grid)
        assert res < 1e-5
        energies = row_energies(chart, metric, grid)
        dE = np.gradient(energies, grid.eps, edge_order=2)
        assert abs(dE[len(grid.eps) // 2]) < 1e-5

    def test_sphere_latitude_arc_variation(self, sphere):
        # non-geodesic rows: circles of latitude swept across colatitude
        chart, metric = sphere.chart, sphere.metric
        eps = np.linspace(-0.05, 0.05, 81)
        ts = np.linspace(0.0, 1.0, 81)
        E, N = len(eps), len(ts)
        x = np.zeros((E, N, 2))
        mu = np.zeros((E, N, 2))
        for i, e in enumerate(eps):
            x[i, :, 0] = 1.0 + e
            x[i, :, 1] = 0.3 + 1.5 * ts
            mu[i, :, 1] = 1.5
        grid = VariationGrid(eps=eps, ts=ts, x=x, mu=mu)
        beta0 = np.zeros((E, 2))
        beta0[:, 0] = 1.0  # #(beta) must equal d(base)/d(eps) = e_1
        solved = solve_transverse(chart, metric, grid, beta0)
        res = first_variation_residual(chart, metric, solved)
        assert res < 1e-4


def solved_pencil(chart, metric, a, u, step):
    """The five-row pencil of variation-check from (a, u), its transverse
    family solved from zero initial rows."""
    eps_values = variations.PENCIL_EPS_STEP * np.arange(-2, 3)
    pencil = make_geodesic_pencil(chart, metric, a, u, eps_values, (0.0, 1.0), step)
    return solve_transverse(chart, metric, pencil, np.zeros((len(eps_values), chart.r)))


class TestGeodesicPencil:
    def test_flat(self, euclidean2):
        chart, metric, u = euclidean2.chart, euclidean2.metric, [0.2, -0.4]
        pencil = solved_pencil(chart, metric, AVector([0, 0], [0.5, 0.3]), u, 2e-3)
        assert jacobi_from_geodesic_pencil(chart, metric, pencil, u) < 1e-8

    def test_sphere(self, sphere):
        chart, metric, u = sphere.chart, sphere.metric, [0.7, -0.3]
        pencil = solved_pencil(chart, metric, AVector([np.pi / 2, 0.5], [0.2, 0.9]), u, 2e-3)
        assert jacobi_from_geodesic_pencil(chart, metric, pencil, u) < 1e-4

    def test_rotation_algebra(self, so3):
        chart, metric, u = so3.chart, so3.metric, [0.2, -0.1, 0.5]
        pencil = solved_pencil(chart, metric, AVector([0.0], [0.3, 0.4, 0.1]), u, 2e-3)
        assert jacobi_from_geodesic_pencil(chart, metric, pencil, u) < 1e-6

    def test_a_pencil_without_a_transverse_family_is_rejected(self, sphere):
        chart, metric, u = sphere.chart, sphere.metric, [0.7, -0.3]
        eps_values = variations.PENCIL_EPS_STEP * np.arange(-2, 3)
        pencil = make_geodesic_pencil(chart, metric, AVector([np.pi / 2, 0.5], [0.2, 0.9]), u, eps_values)
        with pytest.raises(InputError, match="no transverse family"):
            jacobi_from_geodesic_pencil(chart, metric, pencil, u)

    @pytest.mark.parametrize("name", ["sphere_chart", "twisted"])
    def test_the_middle_row_does_not_depend_on_the_spacing(self, name):
        # the middle row of a pencil is the eps = 0 geodesic whatever the
        # spacing of the other rows: a row of the batch does not read its
        # neighbours, so the rows agree to the bit
        entry = catalog.twisted() if name == "twisted" else catalog.get(name)
        chart, metric = entry.chart, entry.metric
        a = AVector(chart.center(), 0.3 * np.ones(chart.r))
        u = sample_fiber(chart.r, 1, 3, scale=0.5)[0]
        rows = [
            make_geodesic_pencil(chart, metric, a, u, spacing * np.arange(-2, 3), (0.0, 1.0), 2e-3).row_path(2)
            for spacing in (1e-2, variations.PENCIL_EPS_STEP)
        ]
        assert np.array_equal(rows[0].ys, rows[1].ys)
        assert geodesic_residual(chart, metric, rows[0]) == geodesic_residual(chart, metric, rows[1])

    @pytest.mark.parametrize("name", ["sphere_chart", "heisenberg_central"])
    def test_pencil_rows_are_a_paths(self, name):
        # each row's base moves along the anchor of its fiber curve, up to the
        # O(dt^2) of the mesh differences; a base moved off it by a bump of
        # 1e-3 sin(pi t) in x1 is caught at about pi * 1e-3
        entry = catalog.get(name)
        chart, r = entry.chart, entry.chart.r
        a = AVector(chart.center(), np.linspace(0.3, -0.2, r))
        grid = make_geodesic_pencil(chart, entry.metric, a, np.linspace(0.5, -0.2, r),
                                    np.linspace(-1e-2, 1e-2, 5), (0.0, 1.0), 2e-3)
        assert grid.apath_residual(chart) < 1e-6
        bumped = grid.x.copy()
        bumped[..., 0] += 1e-3 * np.sin(np.pi * grid.ts)
        moved = VariationGrid(grid.eps, grid.ts, bumped, grid.mu)
        assert moved.apath_residual(chart) == pytest.approx(np.pi * 1e-3, rel=1e-3)


def sqrt_wall_chart():
    """The line over the box [0, 2] with the metric sqrt(x1 + 0.05), which
    cannot be evaluated at x1 <= -0.05, a little left of the box.  Rows of
    a pencil that went on integrating after leaving the box on the left
    would reach that wall and raise EvalDomainError."""
    chart = AlgebroidChart(n=1, r=1, b=[["1"]], domain=[(0.0, 2.0)])
    return chart, MetricField({(1, 1): "sqrt(x1 + 0.05)"}, 1, 1)


def pencil_failure(chart, metric, a, u, eps, step):
    with pytest.raises(Exception) as err:
        make_geodesic_pencil(chart, metric, a, u, eps, (0.0, 1.0), step)
    return err.value


def row_failure(chart, metric, a, u, e, step):
    """The error the per-row integration of the row a + e*u raises."""
    with pytest.raises(Exception) as err:
        geodesic_integrate(chart, metric, AVector(a.x, a.mu + e * np.asarray(u)), (0.0, 1.0), step)
    return err.value


def assert_same_failure(raised, expected):
    assert type(raised) is type(expected)
    assert str(raised) == str(expected)
    if isinstance(expected, (DomainExitError, NonFiniteError)):
        assert raised.time == expected.time
        for field in ("ts", "xs", "mus", "dxs", "dmus"):
            np.testing.assert_array_equal(getattr(raised.path, field), getattr(expected.path, field))


class TestBatchedPencil:
    """The pencil integrates all rows in one RK4 run; each row must be the
    per-row geodesic, and a failure must be the one the per-row loop meets
    first (the failing row with the lowest index)."""

    @pytest.mark.parametrize("name", [*catalog.names(), "twisted"])
    def test_rows_equal_single_geodesics(self, name, request):
        if name == "twisted":
            chart, metric = request.getfixturevalue("twisted_chart"), MetricField.identity(3, 2)
        else:
            chart, metric = catalog.get(name).chart, catalog.get(name).metric
        x = sample_box(chart.domain, 1, seed=3, shrink=0.3)[0]
        a = AVector(x, sample_fiber(chart.r, 1, seed=3, scale=0.4)[0])
        u = sample_fiber(chart.r, 1, seed=4, scale=0.5)[0]
        eps = np.linspace(-0.05, 0.05, 5)
        grid = make_geodesic_pencil(chart, metric, a, u, eps, (0.0, 1.0), 1e-2)
        for i, e in enumerate(eps):
            path = geodesic_integrate(chart, metric, AVector(a.x, a.mu + e * u), (0.0, 1.0), 1e-2)
            np.testing.assert_array_equal(grid.x[i], path.xs)
            np.testing.assert_array_equal(grid.mu[i], path.mus)
        assert np.ptp(grid.x[:, -1], axis=0).max() > 1e-3 or chart.has_zero_anchor

    def test_success_evaluates_every_row_once_per_stage(self, sphere, monkeypatch):
        # 100 steps: 4 runs of the geodesic field per step plus the last
        # node, each on the states (x, mu) of all 5 rows at once; a success
        # replays nothing
        from algebroid import metric as metric_module

        shapes = []
        field = metric_module._Connection.geodesic

        def counting(ev, y, stages=None):
            shapes.append(np.shape(y))
            return field(ev, y, stages)

        monkeypatch.setattr(metric_module._Connection, "geodesic", counting)
        a = AVector([1.3, 1.0], [0.4, 0.3])
        eps = np.linspace(-0.05, 0.05, 5)
        make_geodesic_pencil(sphere.chart, sphere.metric, a, [0.5, -0.2], eps, (0.0, 1.0), 1e-2)
        assert shapes == [(5, 4)] * (4 * 100 + 1)

    def test_row_leaving_the_box(self, euclidean2):
        chart, metric = euclidean2.chart, euclidean2.metric
        a, u = AVector([0.0, 0.0], [0.0, 0.0]), [1.0, 0.0]
        raised = pencil_failure(chart, metric, a, u, [0.5, 5.0, 1.0], 1e-3)
        assert isinstance(raised, DomainExitError)
        assert 0.59 < raised.time < 0.61  # x1 = 5 t leaves |x1| <= 3
        assert_same_failure(raised, row_failure(chart, metric, a, u, 5.0, 1e-3))

    def test_lowest_failing_row_wins(self, euclidean2):
        # row 3 leaves the box first (t = 0.301); rows 1 and 2 leave it at
        # the same node, t = 0.577; a row-by-row loop meets row 1 first
        chart, metric = euclidean2.chart, euclidean2.metric
        a, u = AVector([0.0, 0.0], [0.0, 0.0]), [1.0, 0.0]
        raised = pencil_failure(chart, metric, a, u, [0.5, 5.2, 5.201, 10.0], 1e-3)
        assert raised.time == pytest.approx(0.577)
        assert_same_failure(raised, row_failure(chart, metric, a, u, 5.2, 1e-3))
        assert row_failure(chart, metric, a, u, 5.201, 1e-3).time == raised.time

    def test_non_finite_row(self, aff2):
        # |mu| = 1e200 overflows the quadratic right side at once
        chart, metric = aff2.chart, aff2.metric
        a, u = AVector([0.0], [0.1, 0.1]), [1.0, 1.0]
        with np.errstate(over="ignore", invalid="ignore"):
            raised = pencil_failure(chart, metric, a, u, [0.0, 1e200, 0.5], 1e-3)
            expected = row_failure(chart, metric, a, u, 1e200, 1e-3)
        assert isinstance(raised, NonFiniteError)
        assert_same_failure(raised, expected)

    def test_frozen_rows_are_not_evaluated(self):
        # row 1 leaves the box at t = 0.415; integrated any further it
        # would hit the wall of the metric while row 0 runs on to t = 1
        chart, metric = sqrt_wall_chart()
        a, u = AVector([1.0], [0.0]), [1.0]
        raised = pencil_failure(chart, metric, a, u, [-0.2, -2.0], 5e-3)
        assert isinstance(raised, DomainExitError)
        assert_same_failure(raised, row_failure(chart, metric, a, u, -2.0, 5e-3))

    def test_right_side_errors_are_charged_to_their_row(self):
        # with a coarse step the row mu = -2.5 samples a stage point beyond
        # the wall (EvalDomainError) in the step after t = 0.3, its nodes
        # still in the box; the row mu = 2.5 leaves the box later, at t = 0.45
        chart, metric = sqrt_wall_chart()
        a, u = AVector([1.0], [0.0]), [1.0]
        wall = row_failure(chart, metric, a, u, -2.5, 5e-2)
        exit_right = row_failure(chart, metric, a, u, 2.5, 5e-2)
        assert isinstance(wall, EvalDomainError)
        assert isinstance(exit_right, DomainExitError)
        assert_same_failure(pencil_failure(chart, metric, a, u, [2.5, -2.5], 5e-2), exit_right)
        assert_same_failure(pencil_failure(chart, metric, a, u, [-2.5, 2.5], 5e-2), wall)


def four_point_midpoints(values):
    """Values at interval midpoints of a uniform grid, 4-point cubic
    interpolation (3-point parabola at the end intervals); on 3 nodes the
    linear midpoints."""
    v = values
    mids = np.empty((len(v) - 1,) + v.shape[1:])
    if len(v) >= 4:
        mids[1:-1] = (-v[:-3] + 9.0 * v[1:-2] + 9.0 * v[2:-1] - v[3:]) / 16.0
        mids[0] = (3.0 * v[0] + 6.0 * v[1] - v[2]) / 8.0
        mids[-1] = (3.0 * v[-1] + 6.0 * v[-2] - v[-3]) / 8.0
    else:
        mids[:] = 0.5 * (v[:-1] + v[1:])
    return mids


def reference_transverse_row(chart, metric, ts, xs, mus, dmu_de, b0):
    """One eps-row of the transverse solve on a uniform grid, integrated on
    its own with RK4 and Gamma sampled at the nodes and at 4-point cubic
    midpoints."""
    xm, mum, dm = (four_point_midpoints(v) for v in (xs, mus, dmu_de))
    gam_nodes = christoffel(chart, metric, xs).gamma
    gam_mids = christoffel(chart, metric, xm).gamma

    def rhs(mu, gam, dmu, b):
        return dmu + np.einsum("i,j,iju->u", b, mu, gam) - np.einsum("i,j,iju->u", mu, b, gam)

    beta = np.empty_like(mus)
    beta[0] = b0
    for k in range(len(ts) - 1):
        h, b = ts[k + 1] - ts[k], beta[k]
        k1 = rhs(mus[k], gam_nodes[k], dmu_de[k], b)
        k2 = rhs(mum[k], gam_mids[k], dm[k], b + 0.5 * h * k1)
        k3 = rhs(mum[k], gam_mids[k], dm[k], b + 0.5 * h * k2)
        k4 = rhs(mus[k + 1], gam_nodes[k + 1], dmu_de[k + 1], b + h * k3)
        beta[k + 1] = b + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return beta


def reference_homotopy_rows(chart, metric, alpha0, direction, amplitude, eps_values, substeps):
    """The homotopy flow in eps by hand-written RK4, row to row outward."""
    ts = alpha0.ts
    s = (ts - ts[0]) / (ts[-1] - ts[0])
    beta = amplitude * np.sin(np.pi * s)[:, None] * direction[None, :]
    dbeta = amplitude * (np.pi / (ts[-1] - ts[0])) * np.cos(np.pi * s)[:, None] * direction[None, :]

    def rhs(X, M):
        B, _ = chart.eval_anchor(X)
        gamma = christoffel(chart, metric, X).gamma
        comm = np.einsum("ti,tj,tiju->tu", M, beta, gamma) - np.einsum(
            "ti,tj,tiju->tu", beta, M, gamma
        )
        return np.einsum("ts,tsi->ti", beta, B), dbeta + comm

    rows = {0.0: (alpha0.xs, alpha0.mus)}
    above = sorted(e for e in eps_values if e > 0)
    below = sorted((e for e in eps_values if e < 0), reverse=True)
    for side in (above, below):
        X, M, e_cur = alpha0.xs, alpha0.mus, 0.0
        for e in side:
            h = (e - e_cur) / substeps
            for _ in range(substeps):
                k1 = rhs(X, M)
                k2 = rhs(X + 0.5 * h * k1[0], M + 0.5 * h * k1[1])
                k3 = rhs(X + 0.5 * h * k2[0], M + 0.5 * h * k2[1])
                k4 = rhs(X + h * k3[0], M + h * k3[1])
                X = X + (h / 6.0) * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
                M = M + (h / 6.0) * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
            rows[e], e_cur = (X, M), e
    return np.stack([rows[e][0] for e in eps_values]), np.stack([rows[e][1] for e in eps_values])


@pytest.fixture(params=["sphere_chart", "twisted"])
def chart_metric(request):
    if request.param == "twisted":
        return request.getfixturevalue("twisted_chart"), MetricField.identity(3, 2)
    entry = catalog.get(request.param)
    return entry.chart, entry.metric


class TestBatchedFlows:
    def test_transverse_solve_matches_per_row_reference(self, chart_metric):
        chart, metric = chart_metric
        x = chart.center()
        a = AVector(x, 0.4 * np.linspace(1.0, -0.5, chart.r))
        u = np.linspace(0.3, -0.2, chart.r)
        eps = np.linspace(-0.05, 0.05, 9)
        grid = make_geodesic_pencil(chart, metric, a, u, eps, (0.0, 1.0), 1.0 / 40)
        solved = solve_transverse(chart, metric, grid, np.zeros((len(eps), chart.r)))
        dmu_de = np.gradient(grid.mu, grid.eps, axis=0, edge_order=2)
        for i in range(len(eps)):
            ref = reference_transverse_row(
                chart, metric, grid.ts, grid.x[i], grid.mu[i], dmu_de[i], np.zeros(chart.r)
            )
            assert np.max(np.abs(solved.beta[i] - ref)) <= 1e-12
        assert np.max(np.abs(solved.beta)) > 1e-3

    def test_homotopy_matches_row_to_row_reference(self, chart_metric):
        chart, metric = chart_metric
        a = AVector(chart.center(), 0.3 * np.ones(chart.r))
        path = geodesic_integrate(chart, metric, a, (0.0, 1.0), 1e-2)
        direction = np.linspace(1.0, 0.5, chart.r)
        eps = (-2e-2, -1e-2, 0.0, 1e-2, 2e-2)
        grid = make_fixed_endpoint_homotopy(chart, metric, path, direction)
        X, M = reference_homotopy_rows(chart, metric, path, direction, 0.05, eps, 4)
        assert np.max(np.abs(grid.x - X)) <= 1e-12
        assert np.max(np.abs(grid.mu - M)) <= 1e-12

    def test_homotopy_is_one_batched_rk4_run(self, chart_metric, monkeypatch):
        # both eps-sides flow as one batch of two states: 8 steps in |eps|,
        # the first 7 in _rk4 with 4 right-side calls per step plus the one
        # at the first node; the last step's 3 calls run outside it
        chart, metric = chart_metric
        a = AVector(chart.center(), 0.3 * np.ones(chart.r))
        path = geodesic_integrate(chart, metric, a, (0.0, 1.0), 1e-2)
        runs = []

        def counting_rk4(f, ts, y0, on_node=None):
            def counted(j, y):
                runs[-1]["rhs"] += 1
                return f(j, y)

            runs.append({"shape": np.shape(y0), "rhs": 0})
            return _rk4(counted, ts, y0, on_node)

        monkeypatch.setattr(variations, "_rk4", counting_rk4)
        grid = make_fixed_endpoint_homotopy(chart, metric, path, np.linspace(1.0, 0.5, chart.r))
        assert runs == [{"shape": (2, len(path.ts), chart.n + chart.r), "rhs": 29}]
        assert grid.eps.tolist() == list(HOMOTOPY_EPS)

    def test_homotopy_makes_one_chart_run_per_evaluation(self, chart_metric, monkeypatch):
        # every right side is one run of the chart's homotopy program at its
        # one plan, and no right side runs at the final state: 1 + 4 * 8 - 1
        # runs; neither the chart's own program nor B or C alone runs, and a
        # second homotopy of the chart builds nothing
        chart, metric = chart_metric
        a = AVector(chart.center(), 0.3 * np.ones(chart.r))
        path = geodesic_integrate(chart, metric, a, (0.0, 1.0), 1e-2)
        direction = np.linspace(1.0, 0.5, chart.r)
        run = Program.run
        runs = []

        def counting(self, points, asked):
            runs.append((self, asked))
            return run(self, points, asked)

        def refuse(*args, **kwargs):
            raise AssertionError("B or C evaluated on its own")

        def no_build(*args, **kwargs):
            raise AssertionError("a program was built")

        monkeypatch.setattr(Program, "run", counting)
        monkeypatch.setattr(AlgebroidChart, "eval_anchor", refuse)
        monkeypatch.setattr(AlgebroidChart, "eval_bracket", refuse)
        make_fixed_endpoint_homotopy(chart, metric, path, direction)
        flow = variations._homotopy_program(chart)
        assert runs == [(flow, (None, None, 0))] * 32
        assert flow is not Program.of(chart)
        monkeypatch.setattr(Program, "__init__", no_build)
        monkeypatch.setattr(AlgebroidChart, "_declare", no_build)
        make_fixed_endpoint_homotopy(chart, metric, path, direction)
        assert runs == [(flow, (None, None, 0))] * 64

    @pytest.mark.parametrize("name", ["sphere_chart", "heisenberg_central"])
    @pytest.mark.parametrize("extra", [-1, 1], ids=["short", "long"])
    def test_direction_of_the_wrong_length_is_rejected(self, name, extra):
        # a length-1 direction would broadcast against the r fiber axes
        entry = catalog.get(name)
        chart, metric = entry.chart, entry.metric
        path = geodesic_integrate(chart, metric, AVector(chart.center(), 0.3 * np.ones(chart.r)), (0.0, 1.0), 1e-2)
        direction = np.ones(1 if extra < 0 else chart.r + 1)
        with pytest.raises(ValueError, match=rf"^direction must have shape \(r,\) = \({chart.r},\)$"):
            make_fixed_endpoint_homotopy(chart, metric, path, direction)

    @pytest.mark.parametrize("name", ["sphere_chart", "heisenberg_central"])
    def test_a_direction_that_is_not_finite_is_rejected(self, name):
        entry = catalog.get(name)
        chart, metric = entry.chart, entry.metric
        path = geodesic_integrate(chart, metric, AVector(chart.center(), 0.3 * np.ones(chart.r)), (0.0, 1.0), 1e-2)
        for bad in (np.nan, np.inf):
            direction = np.ones(chart.r)
            direction[0] = bad
            with pytest.raises(InputError, match="^direction must be finite$"):
                make_fixed_endpoint_homotopy(chart, metric, path, direction)

    @pytest.mark.parametrize(
        "name, scale, verdict",
        [
            ("sphere_chart", 5000.0, "leaves the chart box"),
            ("heisenberg_central", 5000.0, "leaves the chart box"),
            ("heisenberg_central", 1e300, "is not finite"),
        ],
    )
    def test_a_bad_row_raises_naming_its_eps(self, name, scale, verdict):
        # a direction this long sweeps the rows out of the chart box, or
        # past the largest float
        entry = catalog.get(name)
        chart, metric = entry.chart, entry.metric
        path = geodesic_integrate(chart, metric, AVector(chart.center(), 0.3 * np.ones(chart.r)), (0.0, 1.0), 1e-2)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            CheckFailure, match=rf"^homotopy row eps = -0\.01 {verdict}$"
        ):
            make_fixed_endpoint_homotopy(chart, metric, path, scale * np.ones(chart.r))

    def test_homotopy_reflects_under_negated_direction(self, chart_metric):
        # flowing along -d is flowing along d in -eps: rows swap ends, beta flips
        chart, metric = chart_metric
        a = AVector(chart.center(), 0.3 * np.ones(chart.r))
        path = geodesic_integrate(chart, metric, a, (0.0, 1.0), 1e-2)
        direction = np.linspace(1.0, 0.5, chart.r)
        plus = make_fixed_endpoint_homotopy(chart, metric, path, direction)
        minus = make_fixed_endpoint_homotopy(chart, metric, path, -direction)
        assert minus.x.tobytes() == np.ascontiguousarray(plus.x[::-1]).tobytes()
        assert minus.mu.tobytes() == np.ascontiguousarray(plus.mu[::-1]).tobytes()
        assert minus.beta.tobytes() == (-plus.beta).tobytes()
        assert np.max(np.abs(plus.x[0] - plus.x[-1])) > 1e-4

    def test_defect_transverse_solve_and_homotopy_read_no_metric(self, chart_metric, monkeypatch):
        # Delta = d_t beta - d_eps alpha + C(alpha, beta) for every torsion-free
        # connection: with the connection and the metric refused, the A-homotopy
        # layer returns the same bytes
        from algebroid import metric as metric_module

        chart, metric = chart_metric
        a = AVector(chart.center(), 0.3 * np.ones(chart.r))
        path = geodesic_integrate(chart, metric, a, (0.0, 1.0), 1e-2)
        direction = np.linspace(1.0, 0.5, chart.r)

        def layer():
            grid = make_fixed_endpoint_homotopy(chart, metric, path, direction)
            solved = solve_transverse(chart, metric, grid, np.zeros((len(grid.eps), chart.r)))
            return [grid.x, grid.mu, grid.beta, delta(chart, grid), solved.beta]

        def refuse(*args, **kwargs):
            raise AssertionError("the metric was read")

        before = layer()
        monkeypatch.setattr(metric_module._Connection, "christoffel", refuse)
        monkeypatch.setattr(MetricField, "eval", refuse)
        with pytest.raises(AssertionError, match="metric was read"):
            christoffel(chart, metric, chart.center())
        with pytest.raises(AssertionError, match="metric was read"):
            metric.eval(chart.center())
        after = layer()
        for old, new in zip(before, after):
            assert (old.dtype, old.shape, old.tobytes()) == (new.dtype, new.shape, new.tobytes())
        # a fixed-endpoint homotopy, found as one: beta from zero rows vanishes at t1
        assert np.max(np.abs(before[-1][:, -1])) < 1e-5


class TestHalfGridMeshes:
    """The transverse solve reads its coefficients off `paths._half_grid` of
    the mesh rows, with `np.gradient` t-derivatives: the rule of
    `VariationGrid.row_path`, on any time grid."""

    @pytest.mark.parametrize("N", [4, 5, 41])
    @pytest.mark.parametrize("span", [(0.0, 1.0), (1.0, -0.5)])
    def test_half_grid_matches_the_four_point_cubic(self, N, span):
        ts = np.linspace(*span, N)
        rng = np.random.RandomState(N)
        ys = 3.0 * np.sin(rng.uniform(0.5, 3.0, (1, 4, 2)) * ts[:, None, None] + rng.uniform(size=(1, 4, 2)))
        half = _half_grid(ts, ys, np.gradient(ys, ts, axis=0, edge_order=2))
        np.testing.assert_array_equal(half[::2], ys)
        assert np.max(np.abs(half[1::2] - four_point_midpoints(ys))) <= 1e-15 * np.max(np.abs(ys))

    def test_three_nodes_give_the_parabola(self):
        # the old rule took linear midpoints on three nodes
        ts = np.array([0.0, 0.5, 1.0])
        q = lambda t: 1.0 - 2.0 * t + 3.0 * t**2
        half = _half_grid(ts, q(ts), np.gradient(q(ts), ts, edge_order=2))
        np.testing.assert_allclose(half, q(np.linspace(0.0, 1.0, 5)), rtol=0, atol=1e-15)
        assert np.max(np.abs(half[1::2] - four_point_midpoints(q(ts)))) > 0.1

    def test_transverse_solve_reads_each_row_paths_half_grid(self, chart_metric, monkeypatch):
        chart, metric = chart_metric
        a = AVector(chart.center(), 0.4 * np.linspace(1.0, -0.5, chart.r))
        eps = np.linspace(-0.05, 0.05, 5)
        grid = make_geodesic_pencil(chart, metric, a, np.linspace(0.3, -0.2, chart.r), eps, (0.0, 1.0), 1.0 / 40)
        seen = []

        def recording(ts, ys, ds):
            seen.append(_half_grid(ts, ys, ds))
            return seen[-1]

        monkeypatch.setattr(variations, "_half_grid", recording)
        solve_transverse(chart, metric, grid, np.zeros((len(eps), chart.r)))
        (half,) = seen
        width = chart.n + chart.r
        for i in range(len(eps)):
            row = grid.row_path(i)
            np.testing.assert_array_equal(half[:, i, :width], _half_grid(row.ts, row.ys, row.ds))

    @pytest.mark.parametrize("name", ["sphere_chart", "heisenberg_central", "aff2", "so3_biinv"])
    def test_backward_mesh_mirrors_the_forward_mesh(self, name):
        # the pencil from (x, mu) along u over [0, -1] is the one from
        # (x, -mu) along -u over [0, 1] with mu negated, and the transverse
        # family of both is the same, to the bit
        entry = catalog.get(name)
        chart, metric = entry.chart, entry.metric
        x = sample_box(chart.domain, 1, seed=6, shrink=0.35)[0]
        mu = sample_fiber(chart.r, 1, seed=6, scale=0.5)[0]
        u = sample_fiber(chart.r, 1, seed=8, scale=0.5)[0]
        eps = np.linspace(-0.02, 0.02, 5)
        back = make_geodesic_pencil(chart, metric, AVector(x, mu), u, eps, (0.0, -1.0), 1.0 / 50)
        forth = make_geodesic_pencil(chart, metric, AVector(x, -mu), -u, eps, (0.0, 1.0), 1.0 / 50)
        np.testing.assert_array_equal(back.ts, -forth.ts)
        np.testing.assert_array_equal(back.x, forth.x)
        np.testing.assert_array_equal(back.mu, -forth.mu)
        zeros = np.zeros((len(eps), chart.r))
        beta_back = solve_transverse(chart, metric, back, zeros).beta
        beta_forth = solve_transverse(chart, metric, forth, zeros).beta
        assert beta_back.tobytes() == beta_forth.tobytes()
        assert np.max(np.abs(beta_back)) > 1e-3


# ---------------------------------------------------------------------------
# Matmul contractions against the einsum formulas they replaced
# ---------------------------------------------------------------------------


def assert_close(new, old, scale=None):
    """|new - old| <= 1e-13 of `scale`, by default the oracle's largest entry."""
    scale = np.max(np.abs(old)) if scale is None else scale
    assert np.max(np.abs(np.asarray(new) - old)) <= 1e-13 * scale


def defect_terms(grid, C, rows=slice(None)):
    """d_t beta, d_eps alpha and C(alpha, beta) on the eps-rows `rows`."""
    mu, beta = grid.mu[rows], grid.beta[rows]
    return (
        np.gradient(beta, grid.ts, axis=1, edge_order=2),
        np.gradient(grid.mu, grid.eps, axis=0, edge_order=2)[rows],
        np.einsum("eti,etj,etiju->etu", mu, beta, C),
    )


def commutation_oracle(chart, metric, grid, s):
    """The commutation residual by einsum, with the largest of its terms."""
    ch = christoffel(chart, metric, grid.x)

    def nabla_t(f):
        return np.gradient(f, grid.ts, axis=1, edge_order=2) + np.einsum(
            "eti,etj,etiju->etu", grid.mu, f, ch.gamma
        )

    def nabla_e(f):
        return np.gradient(f, grid.eps, axis=0, edge_order=2) + np.einsum(
            "eti,etj,etiju->etu", grid.beta, f, ch.gamma
        )

    te, et = nabla_t(nabla_e(s)), nabla_e(nabla_t(s))
    dbeta_dt, dalpha_de, quad = defect_terms(grid, ch.C)
    R = curvature(chart, metric, grid.x)
    rterm = np.einsum("etijkl,eti,etj,etk->etl", R, grid.mu, grid.beta, s)
    dterm = np.einsum("eti,etj,etiju->etu", dbeta_dt - dalpha_de + quad, s, ch.gamma)
    core = ((te - et) - (rterm + dterm))[2:-2, 2:-2]
    return float(np.max(np.abs(core))), max(np.max(np.abs(a)) for a in (te, et, rterm, dterm))


def first_variation_oracle(chart, metric, grid):
    """The first-variation residual by einsum, with the largest of its terms."""
    dE = np.gradient(row_energies(chart, metric, grid), grid.eps, edge_order=2)
    mid = len(grid.eps) // 2
    row = slice(mid, mid + 1)
    mu, beta = grid.mu[row], grid.beta[row]
    ch = christoffel(chart, metric, grid.x[row])
    Dt_alpha = np.gradient(mu, grid.ts, axis=1, edge_order=2) + np.einsum(
        "eti,etj,etiju->etu", mu, mu, ch.gamma
    )
    pair_beta_alpha = np.einsum("etu,etuv,etv->et", beta, ch.G, mu)[0]
    pair_beta_Dt = np.einsum("etu,etuv,etv->et", beta, ch.G, Dt_alpha)[0]
    dbeta_dt, dalpha_de, quad = defect_terms(grid, ch.C, row)
    pair_delta_alpha = np.einsum("etu,etuv,etv->et", dbeta_dt - dalpha_de + quad, ch.G, mu)[0]
    boundary = pair_beta_alpha[-1] - pair_beta_alpha[0]
    rhs = boundary - variations._trapz(pair_beta_Dt, grid.ts) - variations._trapz(pair_delta_alpha, grid.ts)
    pairs = (pair_beta_alpha, pair_beta_Dt, pair_delta_alpha)
    return float(abs(dE[mid] - rhs)), max([abs(dE[mid])] + [np.max(np.abs(p)) for p in pairs])


def spy(monkeypatch, module, name):
    """Replace module.name by a pass-through that records its arguments."""
    calls, real = [], getattr(module, name)

    def recording(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, recording)
    return calls


ORACLE_CHARTS = sorted(catalog.names()) + ["twisted"]


@pytest.fixture(params=ORACLE_CHARTS)
def oracle_case(request):
    """A chart, its metric, a 5 x 21 geodesic pencil with its transverse
    family, a fiber mesh s on it, and the geodesic of its middle row."""
    if request.param == "twisted":
        chart, metric = request.getfixturevalue("twisted_chart"), MetricField.identity(3, 2)
    else:
        entry = catalog.get(request.param)
        chart, metric = entry.chart, entry.metric
    a = AVector(chart.center(), 0.4 * np.linspace(1.0, -0.5, chart.r))
    eps = np.linspace(-0.05, 0.05, 5)
    grid = make_geodesic_pencil(chart, metric, a, np.linspace(0.3, -0.2, chart.r), eps, (0.0, 1.0), 1.0 / 20)
    solved = solve_transverse(chart, metric, grid, np.zeros((len(eps), chart.r)))
    tt, ee = np.meshgrid(grid.ts, eps)
    s = np.stack([np.sin(1 + 0.7 * k + tt + 0.5 * ee) for k in range(chart.r)], axis=-1)
    path = geodesic_integrate(chart, metric, a, (0.0, 1.0), 1e-2)
    return chart, metric, solved, s, path


class TestMatmulContractions:
    """Every mesh and path contraction that was a multi-operand einsum is a
    matmul now; each is held to the einsum it replaced, on full meshes and
    on single rows."""

    def test_quad_on_the_mesh_operands(self, oracle_case):
        chart, metric, grid, s, _ = oracle_case
        ch = christoffel(chart, metric, grid.x)
        for a, b, T in [(grid.mu, s, ch.gamma), (grid.beta, s, ch.gamma), (grid.mu, grid.beta, ch.C), (grid.mu, grid.mu, ch.gamma)]:
            assert_close(_quad(a, b, T), np.einsum("eti,etj,etiju->etu", a, b, T))
            for i in range(len(grid.eps)):
                assert_close(_quad(a[i], b[i], T[i]), np.einsum("ti,tj,tiju->tu", a[i], b[i], T[i]))
        # two eps-rows against one shared transverse row, broadcast
        M, beta_row, C = grid.mu[:2], grid.beta[2], ch.C[:2]
        assert_close(_quad(M, beta_row, C), np.einsum("wti,tj,wtiju->wtu", M, beta_row, C))

    def test_defect(self, oracle_case):
        chart, _, grid, _, _ = oracle_case
        C, _ = chart.eval_bracket(grid.x)
        terms = defect_terms(grid, C)
        scale = max(np.max(np.abs(t)) for t in terms)
        assert_close(delta(chart, grid), terms[0] - terms[1] + terms[2], scale)
        mid = len(grid.eps) // 2
        row = slice(mid, mid + 1)
        terms = defect_terms(grid, C[row], row)
        assert_close(variations._defect(grid, C[row], row), terms[0] - terms[1] + terms[2], scale)

    def test_anchor_of_grid(self, oracle_case):
        chart, _, grid, _, _ = oracle_case
        B, _ = chart.eval_anchor(grid.x)
        for values in (grid.mu, grid.beta):
            assert_close(anchor_of_grid(chart, grid, values), np.einsum("ets,etsi->eti", values, B))
            row = VariationGrid(grid.eps[:1], grid.ts, grid.x[:1], grid.mu[:1])
            assert_close(anchor_of_grid(chart, row, values[:1]), np.einsum("ets,etsi->eti", values[:1], B[:1]))

    def test_transverse_coefficients(self, oracle_case, monkeypatch):
        chart, metric, grid, _, _ = oracle_case
        flows = spy(monkeypatch, variations, "_linear_flow")
        solve_transverse(chart, metric, grid, np.zeros((len(grid.eps), chart.r)))
        [(Q, *_)] = flows
        dmu_de = np.gradient(grid.mu, grid.eps, axis=0, edge_order=2)
        rows = np.concatenate([np.swapaxes(a, 0, 1) for a in (grid.x, grid.mu, dmu_de)], axis=-1)
        half = _half_grid(grid.ts, rows, np.gradient(rows, grid.ts, axis=0, edge_order=2))
        x, mu = half[..., : chart.n], half[..., chart.n : chart.n + chart.r]
        C, _ = chart.eval_bracket(x)
        assert_close(Q, np.einsum("tej,teiju->teui", mu, C))

    def test_commutation_residual(self, oracle_case):
        chart, metric, grid, s, _ = oracle_case
        residual, scale = commutation_oracle(chart, metric, grid, s)
        assert_close(curvature_commutation_residual(chart, metric, grid, s), residual, scale)

    def test_first_variation_residual(self, oracle_case):
        chart, metric, grid, _, _ = oracle_case
        residual, scale = first_variation_oracle(chart, metric, grid)
        assert_close(first_variation_residual(chart, metric, grid), residual, scale)

    def test_homotopy_right_side(self, oracle_case, monkeypatch):
        chart, metric, _, _, path = oracle_case
        direction = np.linspace(1.0, 0.5, chart.r)
        runs = spy(monkeypatch, variations, "_rk4")
        make_fixed_endpoint_homotopy(chart, metric, path, direction)
        [(flow_rhs, _, y0)] = runs
        ts = path.ts
        snorm = (ts - ts[0]) / (ts[-1] - ts[0])
        beta_row = HOMOTOPY_AMPLITUDE * np.sin(np.pi * snorm)[:, None] * direction
        dbeta_dt = HOMOTOPY_AMPLITUDE * (np.pi / (ts[-1] - ts[0])) * np.cos(np.pi * snorm)[:, None] * direction
        y = y0 + 1e-3 * np.cos(np.arange(y0.size)).reshape(y0.shape)
        X, M = y[..., : chart.n], y[..., chart.n :]
        B, _ = chart.eval_anchor(X)
        C, _ = chart.eval_bracket(X)
        dX = np.einsum("ts,wtsi->wti", beta_row, B)
        comm = np.einsum("wti,tj,wtiju->wtu", M, beta_row, C)
        sign = np.array([-1.0, 1.0])[:, None, None]
        assert_close(flow_rhs(1, y), sign * np.concatenate([dX, dbeta_dt + comm], axis=-1))

    def test_jacobi_operator(self, oracle_case, monkeypatch):
        chart, metric, _, _, path = oracle_case
        r = chart.r
        flows = spy(monkeypatch, paths, "_linear_flow")
        jacobi_solve(chart, metric, path, np.zeros(r), np.linspace(0.3, -0.2, r))
        [(ops, *_)] = flows
        _, mu, ch = _transport_track(chart, metric, path)
        assert_close(ops[:, r:, :r], np.einsum("tijkl,ti,tk->tlj", ch.R, mu, mu))

    def test_derivative_along(self, oracle_case):
        chart, metric, _, _, path = oracle_case
        values = np.sin(path.ts[:, None] + np.arange(chart.r))
        gamma = christoffel(chart, metric, path.xs).gamma
        corr = np.einsum("ti,tj,tiju->tu", path.mus, values, gamma)
        sdot = _grid_derivative(values, path.ts)
        new = derivative_along(chart, metric, path, paths.FiberCurve(path.ts, values))
        assert_close(new.values, sdot + corr, max(np.max(np.abs(sdot)), np.max(np.abs(corr))))


class TestHomotopyProgram:
    """The homotopy flow folds the constants of the chart's B and C: a zero
    entry leaves its term out and a unit entry multiplies nothing."""

    @pytest.mark.parametrize("name", ORACLE_CHARTS)
    def test_constants_fold(self, name, request):
        chart = request.getfixturevalue("twisted_chart") if name == "twisted" else catalog.get(name).chart
        prog = variations._homotopy_program(chart)
        ops = prog._plan((None, None, 0))[0]
        if name in ("sphere_chart", "euclidean2"):
            assert ops == ()
        for f, _, a, b, _ in prog._ops:
            if f is operator.mul:
                assert {prog._vals[a], prog._vals[b]}.isdisjoint({0.0, 1.0})
