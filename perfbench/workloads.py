"""The four benchmark workloads: inputs, tasks and their oracle checks.

A workload builds its state once (charts, metrics, input pools) and then
hands out one cycle of tasks at a time.  A cycle visits every (task kind,
chart) pair of the workload once, rotating over the charts; cycle k draws
its inputs from index k of the seeded `algebroid.sampling` pools.  A task
is one unit of user work followed by its oracle check at the package's
(or the CLI's) own tolerance; it returns the numeric outputs to hash and
the list of checks that failed.

Package functions are always reached through their module
(`paths.geodesic_integrate`, ...), never bound to a local name, so the
traced run sees every call the task makes.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import algebroid.metric as geometry
from algebroid import catalog, chartfile, cli, paths, sampling, variations
from algebroid.charts import AlgebroidChart, AVector
from algebroid.metric import MetricField

STEP = 1e-3  # the CLI default step
GEODESIC_STEPS = 200  # geodesic_fan: one geodesic per task
FLOW_STEPS = 100  # path_flows: geodesics generated in set-up
HOMOTOPY_NODES = 100  # variation_mesh: base path of a homotopy
PENCIL_NODES = 21  # variation_mesh: 21 x 21 (eps, t) pencil
PENCIL_EPS = 0.05  # pencil rows a + eps u, |eps| <= PENCIL_EPS
PATH_POOL = 4  # set-up geodesics per chart, reused cyclically
INPUT_POOL = 512  # sampled starts per chart; cycle k takes index k mod 512
BALL_SAMPLES = 32  # points per start when bounding the base speed

# tolerances of the CLI checks the tasks mirror
ENERGY_DRIFT_TOL = 1e-8  # geodesic verb: energy_drift
TRANSPORT_TOL = 1e-8  # transport verb: norm_drift, roundtrip_identity
SCALING_TOL = 1e-8  # jacobi verb: scaling_solution
VARIATION_TOL = 1e-5  # variation-check: first_variation_identity, criticality

FLOW_CHARTS = ("heisenberg_central", "sphere_chart", "twisted")
CLI_VERBS = ("validate", "curvature", "oneill", "divergence", "hamcheck")


@dataclass
class Task:
    kind: str
    chart: str
    run: Callable[[], tuple]  # () -> (outputs, failed checks)


def twisted_chart():
    """Rank-3 algebroid over the plane with non-constant anchor and bracket.

    Frame a1 = d/dx1, a2 = x1 d/dx1 + d/dx2 plus a central line rescaled
    by exp(x1*x2): [a1,a2] = a1, [a1,a3] = x2 a3, [a2,a3] = (x1*x2 + x1) a3.
    Paired with the identity metric, as in the package's splitting tests.
    """
    chart = AlgebroidChart(
        n=2,
        r=3,
        b=[["1", "0"], ["x1", "1"], ["0", "0"]],
        c_upper={(1, 2, 1): "1", (1, 3, 3): "x2", (2, 3, 3): "x1*x2 + x1"},
        domain=[(0.5, 1.5), (0.5, 1.5)],
    )
    return chart, MetricField.identity(3, 2)


def flow_charts():
    out = {}
    for name in FLOW_CHARTS:
        if name == "twisted":
            out[name] = twisted_chart()
        else:
            entry = catalog.get(name)
            out[name] = (entry.chart, entry.metric)
    return out


def fit_to_box(chart, metric, xs, mus, span, spread=None):
    """Factors (at most 1) that scale each fiber vector so that its
    geodesic cannot leave the box within `span`.

    Energy is conserved along a geodesic, so |mu|_g stays at its start
    value and the base speed |B^T mu| is at most K |mu|_g, with K^2 the
    largest eigenvalue of g^{-1} B B^T.  With K the largest value sampled
    over the sub-box of half-width rho (half the distance from x to the
    nearest face), the path cannot reach the sub-box border before
    rho / (K |mu|_g); the fiber vector is scaled down until that is at
    least `span`.  `spread` adds the norm of a perturbation that travels
    with mu (the pencil direction) and is scaled with it.
    """
    lo, hi = chart.domain[:, 0], chart.domain[:, 1]
    rho = 0.5 * np.min(np.minimum(xs - lo, hi - xs), axis=1)
    offsets = np.vstack([np.zeros(chart.n), 2.0 * sampling.halton(BALL_SAMPLES, chart.n) - 1.0])
    pts = xs[:, None, :] + rho[:, None, None] * offsets[None]
    B, _ = chart.eval_anchor(pts)
    G, _, _ = metric.eval(pts)
    M = np.linalg.solve(G, np.einsum("...si,...ti->...st", B, B))
    K = np.max(np.sqrt(np.max(np.real(np.linalg.eigvals(M)), axis=-1)), axis=1)
    G0, _, _ = metric.eval(xs)
    norm = np.sqrt(np.einsum("ks,kst,kt->k", mus, G0, mus))
    if spread is not None:
        norm = norm + np.sqrt(np.einsum("ks,kst,kt->k", spread, G0, spread))
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.minimum(1.0, rho / (span * K * norm))
    return np.where(np.isnan(scale), 1.0, scale)


def starts(chart, metric, seed, span, count=INPUT_POOL):
    xs, mus = sampling.sample_states(chart, count, seed)
    return xs, mus * fit_to_box(chart, metric, xs, mus, span)[:, None]


def geodesic_pool(chart, metric, seed, steps):
    xs, mus = starts(chart, metric, seed, steps * STEP, PATH_POOL)
    return [
        paths.geodesic_integrate(chart, metric, AVector(x, mu), (0.0, steps * STEP), STEP)
        for x, mu in zip(xs, mus)
    ]


def _max_rel(values, ref):
    return float(np.max(np.abs(values - ref)) / max(float(np.max(np.abs(ref))), 1e-300))


# ---------------------------------------------------------------------------
# geodesic_fan
# ---------------------------------------------------------------------------


def _geodesic(chart, metric, x, mu):
    span = GEODESIC_STEPS * STEP
    path = paths.geodesic_integrate(chart, metric, AVector(x, mu), (0.0, span), STEP)
    E = paths.energy_along(chart, metric, path)
    failed = []
    if not _max_rel(E, E[0]) < ENERGY_DRIFT_TOL:
        failed.append("energy_drift")
    if not path.constraint_residual(chart) < paths.TOL_APATH_GENERATED:
        failed.append("apath_residual")
    return [path.xs, path.mus, E], failed


class GeodesicFan:
    name = "geodesic_fan"

    def build(self, seed, workdir):
        charts = flow_charts()
        pools = {k: starts(c, m, seed, GEODESIC_STEPS * STEP) for k, (c, m) in charts.items()}
        return charts, pools

    def tasks(self, state, cycle):
        charts, pools = state
        i = cycle % INPUT_POOL
        return [
            Task("geodesic", name, partial(_geodesic, chart, metric, pools[name][0][i], pools[name][1][i]))
            for name, (chart, metric) in charts.items()
        ]


# ---------------------------------------------------------------------------
# path_flows
# ---------------------------------------------------------------------------


def _transport(chart, metric, path, s0):
    curve = paths.parallel_transport(chart, metric, path, s0)
    norms = geometry.fiber_inner(metric, path.xs, curve.values, curve.values)
    back = paths.parallel_transport(chart, metric, path.reversed(), curve.values[-1])
    failed = []
    if not _max_rel(norms, norms[0]) < TRANSPORT_TOL:
        failed.append("norm_drift")
    if not float(np.max(np.abs(back.values[-1] - s0))) < TRANSPORT_TOL:
        failed.append("roundtrip_identity")
    return [curve.values, back.values], failed


def _frame(chart, metric, path):
    S = paths.transport_frame(chart, metric, path)
    G, _, _ = metric.eval(path.xs)
    gram = np.einsum("tuk,tuv,tvl->tkl", S, G, S)
    failed = [] if _max_rel(gram, gram[0]) < TRANSPORT_TOL else ["frame_gram_drift"]
    return [S], failed


def _jacobi(chart, metric, path):
    beta = paths.jacobi_solve(chart, metric, path, np.zeros(chart.r), path.mus[0])
    expected = path.ts[:, None] * path.mus
    failed = [] if float(np.max(np.abs(beta.values - expected))) < SCALING_TOL else ["scaling_solution"]
    return [beta.values], failed


class PathFlows:
    name = "path_flows"

    def build(self, seed, workdir):
        charts = flow_charts()
        pools = {k: geodesic_pool(c, m, seed, FLOW_STEPS) for k, (c, m) in charts.items()}
        vectors = {k: sampling.sample_fiber(c.r, INPUT_POOL, seed + 7) for k, (c, _) in charts.items()}
        return charts, pools, vectors

    def tasks(self, state, cycle):
        charts, pools, vectors = state
        out = []
        for kind in ("transport", "frame", "jacobi"):
            for name, (chart, metric) in charts.items():
                path = pools[name][cycle % PATH_POOL]
                if kind == "transport":
                    run = partial(_transport, chart, metric, path, vectors[name][cycle % INPUT_POOL])
                else:
                    run = partial(_frame if kind == "frame" else _jacobi, chart, metric, path)
                out.append(Task(kind, name, run))
        return out


# ---------------------------------------------------------------------------
# variation_mesh
# ---------------------------------------------------------------------------


def _pencil(chart, metric, x, mu, u, freq):
    eps = np.linspace(-PENCIL_EPS, PENCIL_EPS, PENCIL_NODES)
    grid = variations.make_geodesic_pencil(
        chart, metric, AVector(x, mu), u, eps, (0.0, 1.0), 1.0 / (PENCIL_NODES - 1)
    )
    solved = variations.solve_transverse(chart, metric, grid, np.zeros((PENCIL_NODES, chart.r)))
    tt, ee = np.meshgrid(grid.ts, eps)
    smesh = np.stack([np.sin(f[0] + f[1] * tt + f[2] * ee) for f in freq], axis=-1)
    residual = variations.curvature_commutation_residual(chart, metric, solved, smesh)
    failed = [] if np.isfinite(residual) else ["commutation_residual_finite"]
    return [solved.x, solved.mu, solved.beta, np.array([residual])], failed


def _homotopy(chart, metric, path, direction):
    grid = variations.make_fixed_endpoint_homotopy(chart, metric, path, direction=direction)
    fv = variations.first_variation_residual(chart, metric, grid)
    energies = variations.row_energies(chart, metric, grid)
    dE = float(np.gradient(energies, grid.eps, edge_order=2)[len(grid.eps) // 2])
    failed = []
    if not fv < VARIATION_TOL:
        failed.append("first_variation_identity")
    if not abs(dE) < VARIATION_TOL:
        failed.append("geodesic_energy_criticality")
    return [grid.x, grid.mu, energies, np.array([fv, dE])], failed


class VariationMesh:
    name = "variation_mesh"

    def build(self, seed, workdir):
        charts = flow_charts()
        state = {}
        for name, (chart, metric) in charts.items():
            xs, mus = sampling.sample_states(chart, INPUT_POOL, seed)
            u = sampling.sample_fiber(chart.r, INPUT_POOL, seed + 17, scale=0.5)
            scale = fit_to_box(chart, metric, xs, mus, 1.0, spread=PENCIL_EPS * u)[:, None]
            state[name] = {
                "x": xs,
                "mu": mus * scale,
                "u": u * scale,
                "freq": 1.0 + 0.5 * sampling.sample_fiber(3 * chart.r, INPUT_POOL, seed + 31),
                "paths": geodesic_pool(chart, metric, seed + 3, HOMOTOPY_NODES - 1),
                "dirs": sampling.sample_fiber(chart.r, INPUT_POOL, seed + 19, scale=0.5),
            }
        return charts, state

    def tasks(self, state, cycle):
        # one pencil and two homotopies per chart: with one of each the
        # median task time would sit on the border between the costliest
        # homotopy and the cheapest pencil, a pair of extremes
        charts, inputs = state
        i = cycle % INPUT_POOL
        out = []
        for name, (chart, metric) in charts.items():
            s = inputs[name]
            freq = s["freq"][i].reshape(chart.r, 3)
            out.append(Task("pencil", name, partial(_pencil, chart, metric, s["x"][i], s["mu"][i], s["u"][i], freq)))
        for j in (2 * cycle, 2 * cycle + 1):
            for name, (chart, metric) in charts.items():
                s = inputs[name]
                path = s["paths"][j % PATH_POOL]
                out.append(Task("homotopy", name, partial(_homotopy, chart, metric, path, s["dirs"][j % INPUT_POOL])))
        return out


# ---------------------------------------------------------------------------
# pointwise_checks
# ---------------------------------------------------------------------------


def _cli(argv, out_dir):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main([*argv, "--out", str(out_dir)])
    failed = []
    if code != 0:
        failed.append(f"exit_{code}")
    if "overall_pass=true" not in stdout.getvalue().splitlines():
        failed.append("overall_pass")
    return [out_dir], failed


class PointwiseChecks:
    name = "pointwise_checks"

    def build(self, seed, workdir):
        chart, metric = twisted_chart()
        chart_file = Path(workdir) / "twisted.chart"
        chart_file.write_text(chartfile.dumps_chart(chart, metric), encoding="utf-8")
        sources = {name: ["--catalog", name] for name in catalog.names()}
        sources["twisted"] = ["--chart", str(chart_file)]
        return seed, Path(workdir), sources

    def tasks(self, state, cycle):
        seed, workdir, sources = state
        cli_seed = str(seed * 1000 + cycle)
        return [
            Task(verb, name, partial(_cli, [verb, *src, "--seed", cli_seed], workdir / f"{verb}-{name}"))
            for verb in CLI_VERBS
            for name, src in sources.items()
        ]


WORKLOADS = {w.name: w for w in (GeodesicFan(), PathFlows(), VariationMesh(), PointwiseChecks())}
