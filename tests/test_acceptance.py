"""End-to-end acceptance gate.

Each test implements one numbered criterion at its stated tolerance and
registers a PASS/FAIL line that the terminal summary prints.  Criteria are
ordered; shared heavy computations sit in module-scoped fixtures.
"""

import numpy as np

from conftest import record_acceptance

from algebroid import catalog
from algebroid.charts import AVector, validate
from algebroid.chartfile import dumps_chart
from algebroid.cli import main as cli_main
from algebroid.hamiltonian import euler_identity_residual, hamiltonian_field
from algebroid.metric import (
    MetricField,
    christoffel,
    fiber_inner,
    sectional_curvature,
)
from algebroid.paths import (
    dexp,
    energy_along,
    exp_map,
    geodesic_integrate,
    geodesic_rhs,
    jacobi_solve,
    parallel_transport,
)
from algebroid.sampling import sample_box, sample_fiber
from algebroid.splitting import (
    connector,
    divergence_fd_lie_algebra,
    divergence_XE,
    horizontal_lift,
    leaf_metric_matrix,
    oneill_H_apply,
    split,
)
from algebroid.variations import (
    PENCIL_EPS_STEP,
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

ALL = catalog.names()
TRANSITIVE = ["euclidean2", "sphere_chart", "heisenberg_central"]
SEED = 42


def _seeded_states(chart, count, shrink=0.2, mu_scale=1.0, seed=SEED):
    xs = sample_box(chart.domain, count, seed, shrink=shrink)
    mus = sample_fiber(chart.r, count, seed, scale=mu_scale)
    return xs, mus


def _finish(number, description, passed, detail=""):
    record_acceptance(number, description, passed)
    assert passed, f"criterion {number} failed: {description} {detail}"


def test_01_hamiltonian_geodesic_equivalence():
    worst = 0.0
    for name in ALL:
        entry = catalog.get(name)
        xs, mus = _seeded_states(entry.chart, 100)
        for x, mu in zip(xs, mus):
            dx_h, dmu_h = hamiltonian_field(entry.chart, entry.metric, AVector(x, mu))
            dx_g, dmu_g = geodesic_rhs(entry.chart, entry.metric, x, mu)
            worst = max(
                worst,
                float(np.max(np.abs(dx_h - dx_g))),
                float(np.max(np.abs(dmu_h - dmu_g))),
            )
    _finish(
        1,
        f"Poisson-side field equals the geodesic equations (max {worst:.2e} < 1e-8)",
        worst < 1e-8,
    )


def test_02_biinvariant_lie_algebra():
    entry = catalog.get("so3_biinv")
    x = np.array([0.0])
    ch = christoffel(entry.chart, entry.metric, x)
    C, _ = entry.chart.eval_bracket(x)
    gamma_err = float(np.max(np.abs(ch.gamma - 0.5 * C)))
    drift = 0.0
    for mu in sample_fiber(3, 3, SEED):
        path = geodesic_integrate(entry.chart, entry.metric, AVector(x, mu), (0, 10), 1e-3)
        drift = max(drift, float(np.max(np.abs(path.mus - mu))))
    _finish(
        2,
        f"bi-invariant algebra: Gamma = C/2 ({gamma_err:.1e} < 1e-14), "
        f"fiber drift over [0,10] ({drift:.1e} < 1e-12)",
        gamma_err < 1e-14 and drift < 1e-12,
    )


def test_03_divergence_formula():
    fd_worst = 0.0
    for name in ("aff2", "so3_biinv"):
        entry = catalog.get(name)
        for mu in sample_fiber(entry.chart.r, 50, SEED):
            v = AVector([0.0], mu)
            lhs = divergence_XE(entry.chart, entry.metric, v)
            rhs = divergence_fd_lie_algebra(entry.chart, entry.metric, v)
            fd_worst = max(fd_worst, abs(lhs - rhs))
    aff2 = catalog.get("aff2")
    pinned = divergence_XE(aff2.chart, aff2.metric, AVector([0.0], [1.0, 0.0]))
    so3 = catalog.get("so3_biinv")
    unimod = max(
        abs(divergence_XE(so3.chart, so3.metric, AVector([0.0], mu)))
        for mu in sample_fiber(3, 20, SEED)
    )
    liouville = 0.0
    for name in ("euclidean2", "sphere_chart"):
        entry = catalog.get(name)
        xs, mus = _seeded_states(entry.chart, 20)
        for x, mu in zip(xs, mus):
            liouville = max(
                liouville, abs(divergence_XE(entry.chart, entry.metric, AVector(x, mu)))
            )
    ok = (
        fd_worst < 1e-5
        and abs(pinned - 1.0) < 1e-6
        and unimod < 1e-9
        and liouville < 1e-9
    )
    _finish(
        3,
        f"divergence formula: FD agreement {fd_worst:.1e} < 1e-5, aff2 value "
        f"{pinned:.6f} = 1, unimodular {unimod:.1e}, tangent-type {liouville:.1e}",
        ok,
    )


def test_04_energy_and_transport_conservation():
    energy_worst = 0.0
    norm_worst = 0.0
    for name in ALL:
        entry = catalog.get(name)
        xs, mus = _seeded_states(entry.chart, 2, shrink=0.35, mu_scale=0.5)
        for x, mu in zip(xs, mus):
            path = geodesic_integrate(entry.chart, entry.metric, AVector(x, mu), (0, 1), 1e-3)
            E = energy_along(entry.chart, entry.metric, path)
            energy_worst = max(energy_worst, float(np.max(np.abs(E - E[0])) / abs(E[0])))
            s0 = sample_fiber(entry.chart.r, 1, SEED + 3)[0]
            curve = parallel_transport(entry.chart, entry.metric, path, s0)
            norms = fiber_inner(entry.metric, path.xs, curve.values, curve.values)
            norm_worst = max(norm_worst, float(np.max(np.abs(norms - norms[0]))))
    _finish(
        4,
        f"energy conserved to {energy_worst:.1e} (rel, < 1e-8) and transport "
        f"norms to {norm_worst:.1e} (< 1e-8)",
        energy_worst < 1e-8 and norm_worst < 1e-8,
    )


def test_05_curvature_values():
    sphere = catalog.get("sphere_chart")
    rng = np.random.RandomState(SEED)
    sphere_worst = 0.0
    for x in sample_box(sphere.chart.domain, 20, SEED, shrink=0.02):
        K = sectional_curvature(sphere.chart, sphere.metric, x, rng.randn(2), rng.randn(2))
        sphere_worst = max(sphere_worst, abs(K - 1.0))
    heis = catalog.get("heisenberg_central")
    x = np.array([0.3, -0.4])
    K = sectional_curvature(heis.chart, heis.metric, x, [1, 0, 0], [0, 1, 0])
    # independent pieces of the submersion identity
    Kleaf = 0.0  # leaf metric is the identity matrix field
    leaf_dev = float(
        np.max(np.abs(leaf_metric_matrix(heis.chart, heis.metric, x) - np.eye(2)))
    )
    H12 = oneill_H_apply(heis.chart, heis.metric, x, [1, 0, 0], [0, 1, 0])
    G, _, _ = heis.metric.eval(x)
    h_sq = float(H12 @ G @ H12)
    identity_value = Kleaf - 3.0 * h_sq
    ok = (
        sphere_worst < 1e-6
        and abs(K + 0.75) < 1e-6
        and leaf_dev < 1e-12
        and abs(h_sq - 0.25) < 1e-12
        and abs(K - identity_value) < 1e-6
    )
    _finish(
        5,
        f"curvature: sphere K = 1 ({sphere_worst:.1e} < 1e-6), central extension "
        f"K = -3/4 cross-validated against 0 - 3*{h_sq:.3f}",
        ok,
    )


def test_06_jacobi_machinery():
    scaling_worst = 0.0
    for name in ("sphere_chart", "so3_biinv", "heisenberg_central"):
        entry = catalog.get(name)
        xs, mus = _seeded_states(entry.chart, 1, shrink=0.35, mu_scale=0.5)
        path = geodesic_integrate(entry.chart, entry.metric, AVector(xs[0], mus[0]), (0, 1), 1e-3)
        k = 1.3
        beta = jacobi_solve(entry.chart, entry.metric, path, np.zeros(entry.chart.r), k * mus[0])
        scaling_worst = max(
            scaling_worst,
            float(np.max(np.abs(beta.values - k * path.ts[:, None] * path.mus))),
        )

    sphere = catalog.get("sphere_chart")
    u = [0.7, -0.3]
    eps_values = PENCIL_EPS_STEP * np.arange(-2, 3)
    pencil = make_geodesic_pencil(
        sphere.chart, sphere.metric, AVector([np.pi / 2, 0.5], [0.2, 0.9]), u, eps_values, (0.0, 1.0), 2e-3
    )
    solved = solve_transverse(
        sphere.chart, sphere.metric, pencil, np.zeros((len(eps_values), sphere.chart.r))
    )
    pencil_deviation = jacobi_from_geodesic_pencil(sphere.chart, sphere.metric, solved, u)

    dexp_worst = 0.0
    for name in TRANSITIVE:
        entry = catalog.get(name)
        xs, mus = _seeded_states(entry.chart, 1, shrink=0.35, mu_scale=0.4)
        u = sample_fiber(entry.chart.r, 1, SEED + 5, scale=0.5)[0]
        d = dexp(entry.chart, entry.metric, xs[0], mus[0], u, step=2e-3)
        eps = 1e-4
        plus = exp_map(entry.chart, entry.metric, xs[0], mus[0] + eps * u, step=2e-3)
        minus = exp_map(entry.chart, entry.metric, xs[0], mus[0] - eps * u, step=2e-3)
        fd = (plus - minus) / (2 * eps)
        scale = max(1.0, float(np.max(np.abs(fd))))
        dexp_worst = max(dexp_worst, float(np.max(np.abs(d - fd))) / scale)

    ok = scaling_worst < 1e-8 and pencil_deviation < 1e-4 and dexp_worst < 1e-4
    _finish(
        6,
        f"Jacobi machinery: scaling solution {scaling_worst:.1e} < 1e-8, pencil vs "
        f"ODE {pencil_deviation:.1e} < 1e-4, d(exp) vs FD {dexp_worst:.1e} < 1e-4 (rel)",
        ok,
    )


def test_07_connector_and_homogeneity():
    connector_worst = 0.0
    for name in TRANSITIVE:
        entry = catalog.get(name)
        chart, metric = entry.chart, entry.metric
        xs, mus = _seeded_states(chart, 100)
        for x, mu in zip(xs, mus):
            dx, dmu = geodesic_rhs(chart, metric, x, mu)
            K = connector(chart, metric, AVector(x, mu), (dx, dmu))
            frame = split(chart, metric, x)
            av = frame.project_vertical(mu)
            gamma = christoffel(chart, metric, x).gamma
            expected = -np.einsum("s,t,stu->u", av, mu, gamma)
            connector_worst = max(connector_worst, float(np.max(np.abs(K - expected))))
    homogeneity_worst = 0.0
    for name in ALL:
        entry = catalog.get(name)
        xs, mus = _seeded_states(entry.chart, 25)
        for x, mu in zip(xs, mus):
            homogeneity_worst = max(
                homogeneity_worst,
                euler_identity_residual(entry.chart, entry.metric, AVector(x, mu)),
            )
    _finish(
        7,
        f"connector identity on the geodesic field {connector_worst:.1e} < 1e-9 and "
        f"field homogeneity {homogeneity_worst:.1e} < 1e-12",
        connector_worst < 1e-9 and homogeneity_worst < 1e-12,
    )


def test_08_variation_calculus():
    heis = catalog.get("heisenberg_central")
    chart, metric = heis.chart, heis.metric
    a = AVector([-0.3, 0.1], [0.5, 0.4, 0.2])
    u = np.array([0.2, -0.3, 0.4])

    # anchor-kernel property of the defect, on a vertically-perturbed family
    eps = np.linspace(-2e-2, 2e-2, 5)
    grid = make_geodesic_pencil(chart, metric, a, u, eps, (0.0, 1.0), 2e-3)
    solved = solve_transverse(chart, metric, grid, np.zeros((5, 3)))
    tt, ee = np.meshgrid(grid.ts, eps)
    vertical = np.zeros_like(solved.beta)
    vertical[..., 2] = np.sin(3 * tt + 2 * ee)
    perturbed = type(solved)(
        eps=grid.eps, ts=grid.ts, x=grid.x, mu=grid.mu, beta=solved.beta + vertical
    )
    d = delta(chart, perturbed)
    anchored = float(np.max(np.abs(anchor_of_grid(chart, perturbed, d)[1:-1, 1:-1])))

    # first variation on fixed-endpoint families around geodesics
    fv_worst = 0.0
    dE_worst = 0.0
    for name in ("sphere_chart", "heisenberg_central"):
        entry = catalog.get(name)
        xs, mus = _seeded_states(entry.chart, 1, shrink=0.35, mu_scale=0.4)
        path = geodesic_integrate(entry.chart, entry.metric, AVector(xs[0], mus[0]), (0, 1), 2e-3)
        direction = np.linspace(1.0, 0.5, entry.chart.r)
        homotopy = make_fixed_endpoint_homotopy(entry.chart, entry.metric, path, direction)
        fv_worst = max(fv_worst, first_variation_residual(entry.chart, entry.metric, homotopy))
        energies = row_energies(entry.chart, entry.metric, homotopy)
        dE = np.gradient(energies, homotopy.eps, edge_order=2)
        dE_worst = max(dE_worst, abs(float(dE[len(homotopy.eps) // 2])))

    # commutation identity: second-order decay over three mesh levels
    residuals = []
    for N in (21, 41, 81):
        eps_grid = np.linspace(-0.05, 0.05, N)
        g = make_geodesic_pencil(chart, metric, a, u, eps_grid, (0.0, 1.0), 1.0 / (N - 1))
        sv = solve_transverse(chart, metric, g, np.zeros((N, 3)))
        tt, ee = np.meshgrid(g.ts, eps_grid)
        s = np.stack([np.sin(1 + 0.7 * k + tt + 0.5 * ee) for k in range(3)], axis=-1)
        residuals.append(curvature_commutation_residual(chart, metric, sv, s))
    orders = [float(np.log2(residuals[i] / residuals[i + 1])) for i in range(2)]
    # asymptotic order 2: allow the usual pre-asymptotic slack
    order_ok = min(orders) > 1.8

    ok = anchored < 1e-5 and fv_worst < 1e-5 and dE_worst < 1e-5 and order_ok
    _finish(
        8,
        f"variations: #(Delta) {anchored:.1e} < 1e-5, first variation {fv_worst:.1e} "
        f"< 1e-5 with dE {dE_worst:.1e} < 1e-5, commutation orders "
        f"{orders[0]:.2f}/{orders[1]:.2f} (second order)",
        ok,
    )


def test_09_validation_catches_defects(tmp_path, capsys):
    named_axiom = {"bad_bracket": "jacobi", "bad_anchor": "anchor_morphism"}
    metric = MetricField.identity(3, 2)
    ok = True
    details = []
    for name, chart in catalog.mutants().items():
        report = validate(chart, samples=100, seed=SEED)
        worst = report.worst(named_axiom[name])
        ok &= not report.passed and worst.residual >= 0.9
        details.append(f"{name}:{named_axiom[name]}={worst.residual:.2f}")
        f = tmp_path / f"{name}.chart"
        f.write_text(dumps_chart(chart, metric))
        rc = cli_main(["validate", "--chart", str(f), "--out", str(tmp_path / name)])
        capsys.readouterr()
        ok &= rc == 1
        details.append(f"{name}:exit={rc}")
    _finish(
        9,
        "defective structure data is caught (" + ", ".join(details) + ")",
        ok,
    )


def test_10_horizontal_geodesics_match_leaf_geodesics():
    heis = catalog.get("heisenberg_central")
    chart, metric = heis.chart, heis.metric
    x0 = np.array([-0.5, 0.3])
    u_base = np.array([0.6, 0.8])
    lift = horizontal_lift(chart, metric, x0, u_base)
    path = geodesic_integrate(chart, metric, AVector(x0, lift), (0.0, 1.0), 1e-3)
    # the induced leaf metric is flat, so its geodesics are straight lines
    leaf_dev = float(
        np.max(np.abs(leaf_metric_matrix(chart, metric, x0) - np.eye(2)))
    )
    straight = x0[None, :] + path.ts[:, None] * u_base[None, :]
    dev = float(np.max(np.abs(path.xs - straight)))
    _finish(
        10,
        f"horizontal geodesics project onto leaf geodesics (deviation {dev:.1e} < 1e-7)",
        dev < 1e-7 and leaf_dev < 1e-12,
    )
