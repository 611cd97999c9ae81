"""Command-line front end.

Verbs: validate, geodesic, exp, transport, jacobi, curvature, oneill,
divergence, hamcheck, variation-check, catalog.  Every verb loads a chart
(--chart FILE or --catalog NAME), writes `<verb>.csv` plus a `report.txt`
of key=value lines into --out, and exits 0 iff all its checks pass, 1 on
a failed check or a CheckFailure (a domain exit keeps the partial CSV), 2
on an InputError; any other exception is a bug and leaves with its traceback.

CSV files are byte-deterministic for identical argv + seed: all floats
are printed with 17 significant digits and row order is fixed.  The
wall-time line lives in the report only.
"""

from __future__ import annotations

import argparse
import re
import sys
import time
from pathlib import Path

import numpy as np

from . import catalog as _catalog
from .charts import TOL_ANTISYMMETRY, TOL_AXIOMS, AVector, validate as validate_chart
from .chartfile import dumps_chart, load_chart_file
from .errors import CheckFailure, InputError
from .hamiltonian import euler_identity_residual, hamiltonian_field
from .metric import (
    SPD_EIGENVALUE_FLOOR,
    christoffel,
    fiber_inner,
    koszul_rhs,
)
from .paths import (
    DomainExitError,
    TOL_APATH_GENERATED,
    TOL_GEODESIC,
    _grid,
    _jacobi,
    energy_along,
    exp_map,
    geodesic_integrate,
    geodesic_rhs,
    parallel_transport,
)
from .sampling import fit_to_box, sample_box, sample_fiber, sample_states
from .splitting import (
    ONEILL_CURVATURE,
    ONEILL_IDENTITIES,
    SplitError,
    _divergence_rows,
    divergence_fd_lie_algebra,
    oneill_curvature_check,
    oneill_identity_residuals,
    oneill_tensors,
    split,
)
from .variations import (
    PENCIL_EPS_STEP,
    _check_mesh,
    _first_variation,
    anchor_of_grid,
    curvature_commutation_residual,
    delta,
    make_fixed_endpoint_homotopy,
    make_geodesic_pencil,
    solve_transverse,
)

EXIT_OK, EXIT_CHECK_FAILED, EXIT_INPUT_ERROR = 0, 1, 2

# Every check a verb reports: name -> (tolerance, whether --tol replaces it).
# A check passes when its residual is below the tolerance; a verb reads
# --tol only if it has a check that --tol replaces.  The check table of
# docs/chart_format.md lists the same rows.
_IN_DOMAIN = {"stayed_in_domain": (0.5, False)}  # residual 1 on a domain exit, else 0
CHECKS = {
    "validate": {"antisymmetry": (TOL_ANTISYMMETRY, False),
                 "anchor_morphism": (TOL_AXIOMS, True), "jacobi": (TOL_AXIOMS, True),
                 "metric_spd": (1.0, False)},  # floor / smallest eigenvalue
    "geodesic": {**_IN_DOMAIN, "energy_drift": (1e-8, True),
                 "apath_residual": (TOL_APATH_GENERATED, False)},
    "exp": _IN_DOMAIN,
    "transport": {**_IN_DOMAIN, "norm_drift": (1e-8, True), "roundtrip_identity": (1e-8, True)},
    "jacobi": {**_IN_DOMAIN, "geodesic_residual": (TOL_GEODESIC, False),
               "scaling_solution": (1e-8, True), "dexp_vs_fd": (1e-4, False)},
    "curvature": {"antisymmetry_ab": (1e-9, False), "antisymmetry_cd": (1e-9, False),
                  "koszul_consistency": (1e-10, False)},
    "oneill": {"rank_stability": (0.5, False),  # residual 1 when the anchor rank is unstable
               **dict.fromkeys(ONEILL_IDENTITIES, (1e-9, True)),
               **dict.fromkeys(ONEILL_CURVATURE, (1e-8, False))},
    "divergence": {"fd_divergence_agreement": (1e-5, True), "liouville_zero": (1e-9, False)},
    "hamcheck": {"hamiltonian_geodesic_equivalence": (1e-8, True),
                 "field_homogeneity": (1e-12, False)},
    "variation-check": {"geodesic_residual": (TOL_GEODESIC, False),
                        "pencil_vs_jacobi_ode": (1e-4, True), "delta_anchor_kernel": (1e-5, False),
                        "first_variation_identity": (1e-5, False),
                        "geodesic_energy_criticality": (1e-5, False),
                        "commutation_convergence_order": (0.2, False)},
}
FLOW_STEP = 1e-3  # default --step of geodesic, exp, transport and jacobi

# variation-check: mesh ladder of the commutation residual
COMMUTATION_LADDER = (41, 81, 161)
# the multiple of a difference quotient's roundoff level up to which a
# residual is roundoff: variation-check's commutation residual (the chart
# counts as flat) and the geodesic verb's apath_residual
ROUNDOFF_FACTOR = 50.0


def _fmt(v):
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.17g}"
    return str(v)


def write_csv(path, header, rows):
    """Header plus one line per row.  A row of floats only (rows of a float
    array included) is printed by one %-format, with the bytes of `_fmt`."""
    lines = [",".join(header)]
    for row in rows.tolist() if isinstance(rows, np.ndarray) else rows:
        if set(map(type, row)) <= {float, np.float64}:
            lines.append(",".join(["%.17g"] * len(row)) % tuple(row))
        else:
            lines.append(",".join(_fmt(v) for v in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


class Run:
    """Collects named checks, judged by the verb's rows of CHECKS, and emits
    the key=value report."""

    def __init__(self, verb, args):
        self.verb = verb
        self.args = args
        self.table = CHECKS.get(verb, {})
        # read before any work: a bad --tol exits 2 even if no check is reached
        self.tol = _flag(args, "tol", None) if any(t for _, t in self.table.values()) else None
        self.checks = []  # (name, residual, tolerance, passed)
        self.extra = []
        self.t0 = time.perf_counter()

    def check(self, name, residual):
        tolerance, by_tol = self.table[name]
        tolerance = self.tol if by_tol and self.tol is not None else tolerance
        passed = bool(residual < tolerance)
        self.checks.append((name, float(residual), float(tolerance), passed))
        return passed

    def note(self, key, value):
        self.extra.append((key, value))

    @property
    def passed(self):
        return all(p for (_, _, _, p) in self.checks)

    def finish(self, out_dir):
        lines = [
            f"command={self.verb}",
            f"chart={self.args.catalog or self.args.chart}",
            f"seed={self.args.seed}",
        ]
        for key, value in self.extra:
            lines.append(f"{key}={_fmt(value)}")
        for name, residual, tol, passed in self.checks:
            lines.append(f"check.{name}.residual={_fmt(residual)}")
            lines.append(f"check.{name}.tolerance={_fmt(tol)}")
            lines.append(f"check.{name}.pass={_fmt(passed)}")
        lines.append(f"overall_pass={_fmt(self.passed)}")
        lines.append(f"wall_time_s={time.perf_counter() - self.t0:.3f}")
        text = "\n".join(lines) + "\n"
        (Path(out_dir) / "report.txt").write_text(text, encoding="utf-8")
        sys.stdout.write(text)
        return EXIT_OK if self.passed else EXIT_CHECK_FAILED


def _vector(text, length, name):
    try:
        values = np.array([float(p) for p in text.split(",")], dtype=float)
    except ValueError:
        raise InputError(f"cannot parse {name} {text!r} as comma-separated reals")
    if len(values) != length:
        raise InputError(f"{name} needs {length} components, got {len(values)}")
    if not np.all(np.isfinite(values)):
        raise InputError(f"{name} must be finite, got {text!r}")
    return values


def _load(args):
    if bool(args.catalog) == bool(args.chart):
        raise InputError("give exactly one of --catalog NAME or --chart FILE")
    if args.catalog:
        try:
            entry = _catalog.get(args.catalog)
        except KeyError as exc:
            raise InputError(exc.args[0]) from exc
        return entry.chart, entry.metric
    try:
        return load_chart_file(args.chart)
    except FileNotFoundError as exc:
        raise InputError(f"chart file not found: {args.chart}") from exc
    except InputError as exc:
        raise InputError(f"malformed chart file: {exc}") from exc


def _flag(args, name, default):
    """--<name>, or the verb's default when absent.  --step, --samples and
    --tol must be finite and positive, --t1 finite and nonzero (else exit 2)."""
    value = getattr(args, name)
    if value is None:
        return default
    if not np.isfinite(value) or (value == 0 if name == "t1" else value <= 0):
        rule = "finite and nonzero" if name == "t1" else "finite and positive"
        raise InputError(f"--{name} must be {rule}, got {value}")
    return value


def _in_domain(run, integrate, *args):
    """Call `integrate(*args)` and record the stayed_in_domain check; returns
    (result, None), or (None, exc) after a DomainExitError (exit time noted)."""
    try:
        result = integrate(*args)
    except DomainExitError as exc:
        run.note("domain_exit_time", exc.time)
        run.check("stayed_in_domain", 1.0)
        return None, exc
    run.check("stayed_in_domain", 0.0)
    return result, None


def _geodesic(run, args, chart, metric, start):
    """--step and --t1 of a geodesic, transport or jacobi run, and the
    geodesic from `start` over [0, t1]: (path, exited, step, t1).  After a
    domain exit `path` is the partial path and `exited` the error."""
    step, t1 = _flag(args, "step", FLOW_STEP), _flag(args, "t1", 1.0)
    path, exited = _in_domain(run, geodesic_integrate, chart, metric, start, (0.0, t1), step)
    return (exited.path if exited else path), exited, step, t1


def _state_from_args(chart, args, mu_scale=0.5):
    """The state of `_flow_start` and the divergence verb's pinned state:
    --x and --mu, each defaulting to a sample drawn from --seed."""
    x = sample_box(chart.domain, 1, args.seed, shrink=0.3)[0]
    mu = sample_fiber(chart.r, 1, args.seed, scale=mu_scale)[0]
    x = _vector(args.x, chart.n, "--x") if args.x else x
    mu = _vector(args.mu, chart.r, "--mu") if args.mu else mu
    return AVector(x, mu)


def _flow_start(run, args, chart, metric, span, mu_scale=0.5):
    """The start of a flow over a time `span`: `_state_from_args`, with a
    default mu scaled down by `fit_to_box` so that its geodesic cannot leave
    the box within the span; the factor is noted as default_mu_scale.  A
    factor of 0 (an --x on a face of the box) is an input error that asks
    for --mu.  A given --mu is never rescaled, nor is the mu of an --x
    outside the box, whose run exits the domain at its first node."""
    start = _state_from_args(chart, args, mu_scale)
    if args.mu or not chart.contains(start.x):
        return start
    factor = float(fit_to_box(chart, metric, start.x[None], start.mu[None], span)[0])
    if factor == 0.0:
        raise InputError(f"no default mu fits the box at x={start.x} (no room to its nearest face): give --mu")
    run.note("default_mu_scale", factor)
    return AVector(start.x, factor * start.mu)


def _index_rows(array):
    """CSV rows (1-based indices..., value) of an array in row-major order."""
    return [[*(i + 1 for i in idx), value] for idx, value in np.ndenumerate(array)]


def _xcols(n):
    return [f"x{i + 1}" for i in range(n)]


def _mucols(r, stem="mu"):
    return [f"{stem}{i + 1}" for i in range(r)]


# ---------------------------------------------------------------------------
# Verb implementations
# ---------------------------------------------------------------------------


def _cmd_validate(args, out, run, chart, metric):
    samples = _flag(args, "samples", 200)
    run.note("samples", samples)
    report = validate_chart(chart, samples=samples, seed=args.seed)
    margin, at = metric.spd_margin(chart, samples=samples, seed=args.seed)
    run.note("metric_spd_margin", margin)
    worst = [(c.name, c.indices, c.residual, c.point) for c in report.checks]
    # the rule of `metric._is_spd`: a margin above the floor; -inf (g not finite) fails
    worst.append(("metric_spd", (), SPD_EIGENVALUE_FLOOR / margin if margin > 0 else np.inf, at))
    rows = []  # one per axiom at its worst sample point
    for name, indices, residual, point in worst:
        run.check(name, residual)
        _, _, tolerance, passed = run.checks[-1]
        rows.append([name, *(list(indices) + [0, 0, 0])[:3], residual, tolerance, passed, *point])
    head = ["axiom", "i", "j", "k", "residual", "tolerance", "passed"] + _xcols(chart.n)
    write_csv(out / "validate.csv", head, rows)


def _cmd_geodesic(args, out, run, chart, metric):
    start = _flow_start(run, args, chart, metric, abs(_flag(args, "t1", 1.0)))
    run.note("x0", ",".join(_fmt(v) for v in start.x))
    run.note("mu0", ",".join(_fmt(v) for v in start.mu))
    path, exited, _, _ = _geodesic(run, args, chart, metric, start)
    if not exited:
        E = energy_along(chart, metric, path)
        scale = abs(E[0]) if E[0] != 0 else 1.0
        run.check("energy_drift", float(np.max(np.abs(E - E[0])) / scale))
        # the Hermite derivative the residual reads has a roundoff of about
        # eps max|x| / h; a failing residual within the floor is roundoff
        residual = path.constraint_residual(chart)
        h = np.min(np.abs(np.diff(path.ts)))
        floor = ROUNDOFF_FACTOR * np.finfo(float).eps * np.max(np.abs(path.xs)) / h
        if TOL_APATH_GENERATED <= residual <= floor:
            run.note("apath_roundoff_floor", float(floor))
            residual = 0.0
        run.check("apath_residual", residual)
    rows = [[t, *x, *mu] for t, x, mu in zip(path.ts, path.xs, path.mus)]
    write_csv(out / "geodesic.csv", ["t"] + _xcols(chart.n) + _mucols(chart.r), rows)


def _cmd_exp(args, out, run, chart, metric):
    start = _flow_start(run, args, chart, metric, 1.0)
    step = _flag(args, "step", FLOW_STEP)
    image, exited = _in_domain(run, exp_map, chart, metric, start.x, start.mu, step)
    head, row = _xcols(chart.n) + _mucols(chart.r, "a"), [*start.x, *start.mu]
    if not exited:
        head, row = head + [f"exp{i + 1}" for i in range(chart.n)], row + [*image]
    write_csv(out / "exp.csv", head, [row])


def _cmd_transport(args, out, run, chart, metric):
    start = _flow_start(run, args, chart, metric, abs(_flag(args, "t1", 1.0)))
    s0 = _vector(args.s0, chart.r, "--s0") if args.s0 else sample_fiber(chart.r, 1, args.seed + 7)[0]
    path, exited, _, _ = _geodesic(run, args, chart, metric, start)
    rows = []
    if not exited:
        curve = parallel_transport(chart, metric, path, s0)
        norms = fiber_inner(metric, path.xs, curve.values, curve.values)
        scale = abs(norms[0]) if norms[0] != 0 else 1.0
        run.check("norm_drift", float(np.max(np.abs(norms - norms[0])) / scale))
        back = parallel_transport(chart, metric, path.reversed(), curve.values[-1])
        run.check("roundtrip_identity", float(np.max(np.abs(back.values[-1] - np.asarray(s0)))))
        rows = [[t, *s] for t, s in zip(curve.ts, curve.values)]
    write_csv(out / "transport.csv", ["t"] + _mucols(chart.r, "s"), rows)


def _cmd_jacobi(args, out, run, chart, metric):
    start = _flow_start(run, args, chart, metric, abs(_flag(args, "t1", 1.0)))
    beta0 = _vector(args.beta0, chart.r, "--beta0") if args.beta0 else np.zeros(chart.r)
    dbeta0 = sample_fiber(chart.r, 1, args.seed + 13)[0]
    dbeta0 = _vector(args.dbeta0, chart.r, "--dbeta0") if args.dbeta0 else dbeta0
    path, exited, step, t1 = _geodesic(run, args, chart, metric, start)
    # one solve, three columns: the verb's field, the scaling solution
    # beta = t alpha (beta(0) = 0, beta'(0) = alpha(0)) and dexp's field along
    # u; it reports the geodesic residual from its own connection record
    u, zero = sample_fiber(chart.r, 1, args.seed + 29, scale=0.5)[0], np.zeros(chart.r)
    columns = np.stack([beta0, zero, zero], 1), np.stack([dbeta0, start.mu, u], 1)
    if not exited:
        residual, beta = _jacobi(chart, metric, path, *columns)
    # a path that left the box, or is no geodesic at this step, gets an empty CSV
    if exited or not run.check("geodesic_residual", residual):
        write_csv(out / "jacobi.csv", ["t"] + _mucols(chart.r, "beta"), [])
        return
    expected = path.ts[:, None] * path.mus
    run.check("scaling_solution", float(np.max(np.abs(beta[..., 1] - expected))))

    # d(exp) at t1 against central differences over the path's span, transitive charts only
    if split(chart, metric, start.x).q < chart.n:
        run.note("dexp_vs_fd", "not_applicable")
    else:
        eps = 1e-4
        try:
            ends = make_geodesic_pencil(chart, metric, start, u, [eps, -eps], (0.0, t1), step).x[:, -1]
        except DomainExitError:
            run.note("dexp_vs_fd", "skipped: perturbed geodesic left the domain")
        else:
            fd = (ends[0] - ends[1]) / (2 * eps)
            B, _ = chart.eval_anchor(path.xs[-1])
            d = np.einsum("j,ji->i", beta[-1, :, 2], B)
            scale = max(1.0, float(np.max(np.abs(fd))))
            run.check("dexp_vs_fd", float(np.max(np.abs(d - fd))) / scale)
    rows = [[t, *b] for t, b in zip(path.ts, beta[..., 0])]
    write_csv(out / "jacobi.csv", ["t"] + _mucols(chart.r, "beta"), rows)


def _cmd_curvature(args, out, run, chart, metric):
    x = _vector(args.x, chart.n, "--x") if args.x else chart.center()
    ch = christoffel(chart, metric, x)
    R, G = ch.R, ch.G
    low = np.einsum("ijkl,lm->ijkm", R, G)
    run.check("antisymmetry_ab", float(np.max(np.abs(low + np.swapaxes(low, 0, 1)))))
    run.check("antisymmetry_cd", float(np.max(np.abs(low + np.swapaxes(low, 2, 3)))))
    kr = koszul_rhs(chart, metric, x)
    two_low_gamma = 2.0 * np.einsum("ijl,lk->ijk", ch.gamma, G)
    run.check("koszul_consistency", float(np.max(np.abs(two_low_gamma - kr))))
    write_csv(out / "christoffel.csv", ["i", "j", "k", "value"], _index_rows(ch.gamma))
    write_csv(out / "curvature.csv", ["i", "j", "k", "l", "value"], _index_rows(R))


def _cmd_oneill(args, out, run, chart, metric):
    x = _vector(args.x, chart.n, "--x") if args.x else chart.center()
    tensors = oneill_tensors(chart, metric, x)
    if tensors.frame.warning:
        run.check("rank_stability", 1.0)
    run.note("anchor_rank", tensors.frame.q)
    residuals = oneill_identity_residuals(tensors)
    try:
        residuals.update(oneill_curvature_check(chart, metric, tensors))
    except SplitError as exc:
        run.note("curvature_identities", f"skipped: {exc}")
    for name, value in residuals.items():
        if value is None:
            run.note(name, "not_applicable")
        else:
            run.check(name, value)
    rows = [["T", *row] for row in _index_rows(tensors.T)]
    rows += [["H", *row] for row in _index_rows(tensors.H)]
    write_csv(out / "oneill.csv", ["tensor", "i", "j", "k", "value"], rows)


def _cmd_divergence(args, out, run, chart, metric):
    count = _flag(args, "samples", 50)
    xs, mus = sample_states(chart, count, args.seed)
    if args.x or args.mu:
        pin = _state_from_args(chart, args)
        xs = np.vstack([pin.x[None, :], xs])
        mus = np.vstack([pin.mu[None, :], mus])
    run.note("samples", len(xs))
    trace, mean_curv, vertical_dim = _divergence_rows(chart, metric, xs, mus)
    total = trace + mean_curv
    if chart.has_zero_anchor:
        fd = divergence_fd_lie_algebra(chart, metric, AVector(xs, mus))
        run.check("fd_divergence_agreement", float(np.max(np.abs(total - fd))))
    # the divergence vanishes wherever the anchor is injective (no kernel)
    no_kernel = vertical_dim == 0
    if no_kernel.any():
        run.check("liouville_zero", float(np.max(np.abs(total[no_kernel]))))
    else:
        run.note("liouville_zero", "not_applicable")
    write_csv(
        out / "divergence.csv",
        _xcols(chart.n) + _mucols(chart.r) + ["trace_term", "mean_curvature_term", "total"],
        np.column_stack([xs, mus, trace, mean_curv, total]),
    )


def _cmd_hamcheck(args, out, run, chart, metric):
    count = _flag(args, "samples", 100)
    xs, mus = sample_states(chart, count, args.seed)
    run.note("samples", len(xs))
    states = AVector(xs, mus)
    dx_h, dmu_h = hamiltonian_field(chart, metric, states)
    dx_g, dmu_g = geodesic_rhs(chart, metric, xs, mus)
    eq = np.maximum(
        np.max(np.abs(dx_h - dx_g), axis=-1), np.max(np.abs(dmu_h - dmu_g), axis=-1)
    )
    hom = euler_identity_residual(chart, metric, states)
    run.check("hamiltonian_geodesic_equivalence", float(np.max(eq)))
    run.check("field_homogeneity", float(np.max(hom)))
    write_csv(
        out / "hamcheck.csv",
        _xcols(chart.n) + _mucols(chart.r) + ["equivalence_residual", "homogeneity_residual"],
        np.column_stack([xs, mus, eq, hom]),
    )


def _cmd_variation_check(args, out, run, chart, metric):
    start = _flow_start(run, args, chart, metric, 1.0, mu_scale=0.4)
    u = sample_fiber(chart.r, 1, args.seed + 17, scale=0.5)[0]
    step = _flag(args, "step", 2e-3)
    _check_mesh(_grid((0.0, 1.0), step))  # before any flow: the pencil's time grid
    rows = []

    def check(name, value):
        rows.append([name, 0, value])
        return run.check(name, value)

    eps_values = PENCIL_EPS_STEP * np.arange(-2, 3)
    pencil = make_geodesic_pencil(chart, metric, start, u, eps_values, (0.0, 1.0), step)
    mid = len(eps_values) // 2
    path = pencil.row_path(mid)
    # as in jacobi, one solve's connection record judges the row and gives the ODE field
    residual, ode = _jacobi(chart, metric, path, np.zeros(chart.r), u)
    if not check("geodesic_residual", residual):
        write_csv(out / "variation-check.csv", ["check", "level", "value"], rows)
        return

    solved = solve_transverse(chart, metric, pencil, np.zeros((len(eps_values), chart.r)))
    check("pencil_vs_jacobi_ode", float(np.max(np.abs(solved.beta[mid] - ode))))

    anchored = anchor_of_grid(chart, solved, delta(chart, solved))
    check("delta_anchor_kernel", float(np.max(np.abs(anchored[1:-1, 1:-1]))))

    homotopy = make_fixed_endpoint_homotopy(chart, metric, path, direction=u)
    residual, dE = _first_variation(chart, metric, homotopy)
    check("first_variation_identity", float(residual))
    check("geodesic_energy_criticality", float(abs(dE)))

    rng = np.random.RandomState(args.seed % 2**32)  # any integer is a seed
    freq = rng.uniform(0.5, 1.5, size=(chart.r, 3))
    residuals = []
    for N in COMMUTATION_LADDER:
        eps = np.linspace(-0.05, 0.05, N)
        g = make_geodesic_pencil(chart, metric, start, u, eps, (0.0, 1.0), 1.0 / (N - 1))
        sv = solve_transverse(chart, metric, g, np.zeros((N, chart.r)))
        tt, ee = np.meshgrid(g.ts, eps)
        smesh = np.stack(
            [np.sin(f[0] + f[1] * tt + f[2] * ee) for f in freq], axis=-1
        )
        r = curvature_commutation_residual(chart, metric, sv, smesh)
        residuals.append(r)
        rows.append(["commutation_residual", N, r])
    # roundoff of the mixed second difference of s on the finest mesh; flat
    # charts sit at 0.5-0.6 times it, curved ones far above
    cell = (g.ts[1] - g.ts[0]) * (eps[1] - eps[0])
    roundoff = np.finfo(float).eps * np.max(np.abs(smesh)) / cell
    if residuals[-1] <= ROUNDOFF_FACTOR * roundoff:
        run.check("commutation_convergence_order", 0.0)  # flat: nothing to converge
    else:
        orders = [
            np.log2(residuals[i] / residuals[i + 1]) for i in range(len(residuals) - 1)
        ]
        run.note("commutation_orders", ",".join(_fmt(o) for o in orders))
        run.check("commutation_convergence_order", 2.0 - min(orders))
    write_csv(out / "variation-check.csv", ["check", "level", "value"], rows)


def _cmd_catalog(args, out, run):
    rows = []
    for name in _catalog.names():
        entry = _catalog.get(name)
        rows.append(
            [name, entry.chart.n, entry.chart.r, entry.chart.has_zero_anchor]
        )
    write_csv(out / "catalog.csv", ["name", "n", "r", "zero_anchor"], rows)
    if args.name:
        try:
            entry = _catalog.get(args.name)
        except KeyError as exc:
            raise InputError(exc.args[0]) from exc
        text = dumps_chart(entry.chart, entry.metric)
        (Path(out) / f"{args.name}.chart").write_text(text, encoding="utf-8")
        run.note("written", f"{args.name}.chart")
    for name in _catalog.names():
        sys.stdout.write(name + "\n")


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

_VERBS = {
    "validate": _cmd_validate,
    "geodesic": _cmd_geodesic,
    "exp": _cmd_exp,
    "transport": _cmd_transport,
    "jacobi": _cmd_jacobi,
    "curvature": _cmd_curvature,
    "oneill": _cmd_oneill,
    "divergence": _cmd_divergence,
    "hamcheck": _cmd_hamcheck,
    "variation-check": _cmd_variation_check,
    "catalog": _cmd_catalog,
}


# built once: parse_args keeps no state between calls
_PARSER = argparse.ArgumentParser(
    prog="algebroid",
    description="Numerical Riemannian geometry on Lie algebroid charts.",
)
_PARSER.add_argument("verb", choices=_VERBS)
# the metavars INT, REAL and REALS (comma-separated reals) mark the flags
# that the input table of docs/chart_format.md lists
_PARSER.add_argument("--chart", metavar="FILE", help="chart file to load")
_PARSER.add_argument("--catalog", metavar="NAME", help="built-in catalog entry name")
_PARSER.add_argument("--seed", metavar="INT", type=int, default=42)
_PARSER.add_argument("--out", metavar="DIR", default="algebroid_out", help="output directory")
_PARSER.add_argument("--samples", metavar="INT", type=int, default=None)
_PARSER.add_argument("--step", metavar="REAL", type=float, default=None)
_PARSER.add_argument("--tol", metavar="REAL", type=float, default=None, help="replace the tolerance of the checks marked so in the check table")
_PARSER.add_argument("--x", metavar="REALS", help="base point")
_PARSER.add_argument("--mu", metavar="REALS", help="fiber vector")
_PARSER.add_argument("--s0", metavar="REALS", help="transported vector (transport verb)")
_PARSER.add_argument("--beta0", metavar="REALS", help="initial Jacobi value (jacobi verb)")
_PARSER.add_argument("--dbeta0", metavar="REALS", help="initial Jacobi derivative (jacobi verb)")
_PARSER.add_argument("--t1", metavar="REAL", type=float, default=None, help="integration end time (default 1)")
_PARSER.add_argument("--name", metavar="NAME", help="catalog entry to write (catalog verb)")


# a word that starts with a negative real, as "-0.5,0.3", "-1e-3" or "-inf" do
_NEGATIVE = re.compile(r"-(\d|\.\d|inf|nan)", re.IGNORECASE)


def _joined(argv):
    """argv with every "--flag value" whose value starts with a negative real
    joined to "--flag=value": argparse reads only plain negative numbers
    such as -1 or -0.5 as values, and any other word that starts with "-"
    as an option."""
    out = []
    for word in argv:
        flag = out[-1] if out else ""
        if flag.startswith("--") and "=" not in flag and _NEGATIVE.match(word):
            out[-1] = f"{flag}={word}"
        else:
            out.append(word)
    return out


def main(argv=None) -> int:
    args = _PARSER.parse_args(_joined(sys.argv[1:] if argv is None else argv))
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        loaded = () if args.verb == "catalog" else _load(args)
        run = Run(args.verb, args)
        # an overflow is reported by the check that meets it, never as a numpy warning
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            _VERBS[args.verb](args, out, run, *loaded)
        return run.finish(out)
    except InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT_ERROR
    except CheckFailure as exc:
        sys.stderr.write(f"check failed: {exc}\n")
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    raise SystemExit(main())
