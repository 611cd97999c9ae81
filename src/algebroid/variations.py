"""Two-parameter families of A-paths and their defect calculus.

A variation is a rectangular (eps, t) mesh of fiber states whose t-rows
are A-paths over a common leaf; a transverse family beta matched to it
pushes the base in the eps direction.  The defect

    Delta = D_t beta - D_eps alpha = d_t beta - d_eps alpha + C(alpha, beta)

(the same for every torsion-free connection) is anchored in the kernel
for any transverse family and vanishes exactly for the distinguished one,
which this module constructs two ways: by integrating the linear
Delta = 0 equation along t (given initial rows), and by flowing a whole
A-path in eps to produce fixed-endpoint families around a given path.
Both read only the anchor and the bracket; the metric and its
Levi-Civita connection enter only the commutation and first-variation
checks.

All mesh derivatives are second-order differences (one-sided at the
boundary, `np.gradient` with edge_order=2), matching what discrete
user-supplied grids can support; the grids may be non-uniform.  Every
family is one batched run of RK4: the transverse solve, linear along
fixed mesh tracks, reads its coefficients off `paths._half_grid` of the
mesh rows with these differences as their t-derivatives (the rule of
`VariationGrid.row_path`, so each eps-row gets what a flow along that
row's A-path would) and carries all eps-rows through the precomputed
step maps of `paths._linear_flow`; the nonlinear homotopy flow carries
both eps-sides through the core `_rk4`, with each right side one run
of the chart's homotopy program (`_homotopy_program`).

Every other mesh contraction is a single matmul over the mesh axes: the
quadratic forms sum_ij a_i b_j T[..., i, j, :] (the defect's C(alpha,
beta), the connection terms Gamma(alpha, s) and Gamma(beta, s), R(alpha,
beta) as a matrix) flatten the outer product a b^T against T with
`metric._quad`, the metric pairings are `metric._g_dot`, and the anchor
and the transverse coefficients are batched vector-matrix products.
"""

from __future__ import annotations

import itertools
import operator
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .charts import AVector
from .errors import CheckFailure, InputError
from .expressions import Program
from .metric import _g_dot, _quad, christoffel, fiber_inner
from .paths import APath, _geodesics, _half_grid, _increment, _linear_flow, _rk4, jacobi_solve

__all__ = [
    "VariationGrid",
    "delta",
    "anchor_of_grid",
    "solve_transverse",
    "curvature_commutation_residual",
    "first_variation_residual",
    "row_energies",
    "make_geodesic_pencil",
    "make_fixed_endpoint_homotopy",
    "jacobi_from_geodesic_pencil",
]

TRANSVERSALITY_TOL = 1e-6
TRANSVERSALITY_POSTERIOR_TOL = 1e-4
PENCIL_EPS_STEP = 1e-3  # spacing of the five eps-rows of variation-check's pencil
HOMOTOPY_AMPLITUDE = 0.05  # scale of the prescribed transverse family
HOMOTOPY_SUBSTEPS = 4  # RK4 steps in eps between consecutive eps-rows
HOMOTOPY_EPS = (-2e-2, -1e-2, 0.0, 1e-2, 2e-2)  # eps-rows of the homotopy, symmetric

_trapz = getattr(np, "trapezoid", None) or np.trapz


@dataclass(eq=False)
class VariationGrid:
    """A variation alpha(eps, t) on a rectangular mesh, optionally with a
    transverse family beta(eps, t).

    `x` has shape (E, N, n), `mu` and `beta` (E, N, r).
    """

    eps: np.ndarray
    ts: np.ndarray
    x: np.ndarray
    mu: np.ndarray
    beta: np.ndarray | None = None

    @property
    def shape(self):
        return (len(self.eps), len(self.ts))

    def row_path(self, i) -> APath:
        """The i-th eps-row as an APath (derivatives by mesh differences)."""
        ys = np.concatenate([self.x[i], self.mu[i]], axis=1)
        return APath(self.ts, ys, np.gradient(ys, self.ts, axis=0, edge_order=2), self.x.shape[2])

    def apath_residual(self, chart):
        """max |#(alpha) - d(base)/dt| over the mesh (A-path rows check)."""
        push = anchor_of_grid(chart, self, self.mu)
        dxdt = np.gradient(self.x, self.ts, axis=1, edge_order=2)
        return float(np.max(np.abs(push - dxdt)))

    def transversality_residual(self, chart):
        """max |#(beta) - d(base)/deps| at interior eps-rows."""
        if self.beta is None:
            raise InputError("grid carries no transverse family")
        return _transversality(chart, self.x, self.beta, self.eps)


def _transversality(chart, x, beta, eps):
    """max |#(beta) - dx/deps| at the interior eps-rows, for base points x
    (E, ..., n) and fiber vectors beta (E, ..., r) on the eps-nodes (E,)."""
    B, _ = chart.eval_anchor(x)
    push = (beta[..., None, :] @ B)[..., 0, :]
    dxde = np.gradient(x, eps, axis=0, edge_order=2)
    return float(np.max(np.abs(push - dxde)[1:-1]))


def _check_mesh(*axes, nodes=3):
    """Raise InputError unless every axis (eps, ts) of a mesh has `nodes` nodes."""
    if any(len(axis) < nodes for axis in axes):
        raise InputError(f"mesh too coarse: need at least {nodes} nodes per direction")


def delta(chart, grid: VariationGrid):
    """Delta = D_t beta - D_eps alpha on the mesh, shape (E, N, r).

    For a torsion-free connection this is d_t beta - d_eps alpha +
    C(alpha, beta), so only the bracket is read.
    Partial derivatives are centered mesh differences, so boundary
    rows/columns are one order less accurate.
    """
    _check_mesh(grid.eps, grid.ts)
    if grid.beta is None:
        raise InputError("delta needs a transverse family on the grid")
    C, _ = chart.eval_bracket(grid.x)
    return _defect(grid, C)


def _defect(grid, C, rows=slice(None)):
    """Delta = d_t beta - d_eps alpha + C(alpha, beta) on the eps-rows `rows`
    (a slice) of a grid with beta, from the bracket C at their nodes."""
    mu, beta = grid.mu[rows], grid.beta[rows]
    dbeta_dt = np.gradient(beta, grid.ts, axis=1, edge_order=2)
    dalpha_de = np.gradient(grid.mu, grid.eps, axis=0, edge_order=2)[rows]
    return dbeta_dt - dalpha_de + _quad(mu, beta, C)


def anchor_of_grid(chart, grid, values):
    """#(values) over the mesh for fiber arrays of shape (E, N, r)."""
    B, _ = chart.eval_anchor(grid.x)
    return (values[..., None, :] @ B)[..., 0, :]


def solve_transverse(chart, metric, grid: VariationGrid, beta0) -> VariationGrid:
    """Integrate the unique transverse family with Delta = 0 and given
    initial rows beta(eps, t0) = beta0(eps).  The equation reads only the
    bracket; the metric is not read.

    beta0 must anchor onto the eps-velocity of the base at t0 (checked).
    The result grid carries beta; its a-posteriori transversality residual
    is re-verified and a warning is issued when the mesh is too coarse.
    """
    _check_mesh(grid.eps, grid.ts)
    beta0 = np.asarray(beta0, dtype=float)
    E, N = grid.shape
    if beta0.shape != (E, chart.r):
        raise InputError(f"beta0 must have shape (E, r) = ({E}, {chart.r})")

    # precondition: #(beta0) matches the eps-derivative of the base at t0
    pre = _transversality(chart, grid.x[:, 0], beta0, grid.eps)
    if pre > TRANSVERSALITY_TOL:
        raise InputError(
            f"initial rows are not transverse (residual {pre:.3e} > "
            f"{TRANSVERSALITY_TOL:g})"
        )

    # d beta/dt = d alpha/d eps + Q beta, Q^u_i = sum_j mu_j C_ij^u, on
    # time-first (t, eps) tracks of (x, mu, d mu/d eps) over the half grid
    dmu_de = np.gradient(grid.mu, grid.eps, axis=0, edge_order=2)
    rows = np.concatenate([np.swapaxes(a, 0, 1) for a in (grid.x, grid.mu, dmu_de)], axis=-1)
    half = _half_grid(grid.ts, rows, np.gradient(rows, grid.ts, axis=0, edge_order=2))
    x, mu, src = np.split(half, [chart.n, chart.n + chart.r], axis=-1)
    C, _ = chart.eval_bracket(x)
    Q = (mu[..., None, None, :] @ C)[..., 0, :].swapaxes(-1, -2)
    ys = _linear_flow(Q, grid.ts, beta0, src)
    beta = np.ascontiguousarray(np.swapaxes(ys, 0, 1))
    out = replace(grid, beta=beta)
    post = out.transversality_residual(chart)
    if post > TRANSVERSALITY_POSTERIOR_TOL:
        warnings.warn(
            f"transverse solve: a-posteriori transversality residual {post:.3e}; "
            "the mesh is probably too coarse",
            stacklevel=2,
        )
    return out


def curvature_commutation_residual(chart, metric, grid: VariationGrid, s):
    """Residual of the mixed-derivative commutation identity

        nabla_t nabla_eps s - nabla_eps nabla_t s
            = R(alpha, beta) s + nabla_{Delta(alpha,beta)} s

    for a fiber mesh s, everything by centered differences; max norm over
    the doubly-interior nodes, so the mesh needs 5 nodes per direction.
    """
    _check_mesh(grid.eps, grid.ts, nodes=5)
    if grid.beta is None:
        raise InputError("commutation check needs a transverse family")
    s = np.asarray(s, dtype=float)
    E, N = grid.shape
    r = chart.r
    if s.shape != (E, N, r):
        raise InputError(f"s must have shape (E, N, r) = ({E}, {N}, {r}), got {s.shape}")
    ch = christoffel(chart, metric, grid.x)

    def nabla_t(f):
        return np.gradient(f, grid.ts, axis=1, edge_order=2) + _quad(grid.mu, f, ch.gamma)

    def nabla_e(f):
        return np.gradient(f, grid.eps, axis=0, edge_order=2) + _quad(grid.beta, f, ch.gamma)

    lhs = nabla_t(nabla_e(s)) - nabla_e(nabla_t(s))
    # R(alpha, beta) as a matrix [k, l] at every node, then applied to s
    Rab = _quad(grid.mu, grid.beta, ch.R.reshape((E, N, r, r, r * r))).reshape((E, N, r, r))
    rhs = (s[..., None, :] @ Rab)[..., 0, :] + _quad(_defect(grid, ch.C), s, ch.gamma)
    core = (lhs - rhs)[2:-2, 2:-2]
    return float(np.max(np.abs(core)))


def row_energies(chart, metric, grid: VariationGrid):
    """E(eps) = 1/2 int <alpha, alpha> dt by the trapezoid rule, per row."""
    inner = fiber_inner(metric, grid.x, grid.mu, grid.mu)
    return 0.5 * _trapz(inner, grid.ts, axis=1)


def first_variation_residual(chart, metric, grid: VariationGrid):
    """|dE/deps - first-variation right side| at the middle eps-row.

    The left side is the centered difference of the row energies; the
    right side is boundary pairing minus the two trapezoid integrals.
    """
    return float(_first_variation(chart, metric, grid)[0])


def _first_variation(chart, metric, grid: VariationGrid):
    """(`first_variation_residual`, dE/deps at the middle eps-row) from one
    evaluation of the row energies."""
    _check_mesh(grid.eps, grid.ts)
    if grid.beta is None:
        raise InputError("first variation needs a transverse family")
    energies = row_energies(chart, metric, grid)
    dE = np.gradient(energies, grid.eps, edge_order=2)
    mid = len(grid.eps) // 2

    # the connection and the pairings on the middle row only
    row = slice(mid, mid + 1)
    mu, beta = grid.mu[row], grid.beta[row]
    ch = christoffel(chart, metric, grid.x[row])
    Dt_alpha = np.gradient(mu, grid.ts, axis=1, edge_order=2) + _quad(mu, mu, ch.gamma)
    pair_beta_alpha = _g_dot(beta, ch.G, mu)[0]
    pair_beta_Dt = _g_dot(beta, ch.G, Dt_alpha)[0]
    pair_delta_alpha = _g_dot(_defect(grid, ch.C, row), ch.G, mu)[0]

    boundary = pair_beta_alpha[-1] - pair_beta_alpha[0]
    rhs = boundary - _trapz(pair_beta_Dt, grid.ts) - _trapz(pair_delta_alpha, grid.ts)
    return abs(dE[mid] - rhs), dE[mid]


# ---------------------------------------------------------------------------
# Constructors for standard families
# ---------------------------------------------------------------------------


def make_geodesic_pencil(chart, metric, a: AVector, u, eps_values, t_span=(0.0, 1.0), step=1e-3):
    """The family of geodesics from (x, a + eps*u), sharing one time grid.

    All rows are integrated as one batch.  If a row leaves the chart box,
    reaches a non-finite state or makes the right side raise, the rows are
    replayed one at a time in the order of `eps_values`, and the first
    failing row raises its own error (DomainExitError or NonFiniteError
    with its time and partial path, or the right side's error), as a
    row-by-row loop would.
    """
    eps_values = np.asarray(eps_values, dtype=float)
    mu0 = a.mu + eps_values[:, None] * np.asarray(u, dtype=float)
    x0 = np.broadcast_to(a.x, mu0.shape[:-1] + a.x.shape)
    ts, ys, _ = _geodesics(chart, metric, x0, mu0, t_span, step)
    states = np.swapaxes(ys, 0, 1)
    n = chart.n
    x = np.ascontiguousarray(states[..., :n])
    mu = np.ascontiguousarray(states[..., n:])
    return VariationGrid(eps=eps_values, ts=ts, x=x, mu=mu)


def jacobi_from_geodesic_pencil(chart, metric, pencil: VariationGrid, u):
    """Compare the transverse family of a solved geodesic pencil against
    the Jacobi equation solved as an ODE.

    `pencil` flows a + eps*u (`make_geodesic_pencil`) with beta solved from
    zero initial rows; its middle row is a Jacobi section with beta(0) = 0
    and first derivative u, matched against `jacobi_solve` along that
    row's geodesic.  Returns the deviation max |beta_pencil - beta_ode|
    over that row.
    """
    if pencil.beta is None:
        raise InputError("pencil carries no transverse family")
    mid = len(pencil.eps) // 2
    u = np.asarray(u, dtype=float)
    ode = jacobi_solve(chart, metric, pencil.row_path(mid), np.zeros(chart.r), u)
    return float(np.max(np.abs(pencil.beta[mid] - ode.values)))


def make_fixed_endpoint_homotopy(chart, metric, alpha0: APath, direction):
    """Flow a given A-path into a fixed-endpoint family with the eps-rows
    HOMOTOPY_EPS.

    The transverse family is prescribed analytically as
    beta(eps, t) = HOMOTOPY_AMPLITUDE * sin(pi * s(t)) * direction (s the
    normalized time), which vanishes at both ends, and the family itself
    is obtained by integrating the zero-defect flow in eps; every row then
    satisfies the A-path constraint and the family is a fixed-endpoint
    homotopy.  The flow reads only the anchor and the bracket; the metric is
    not read.  The input path is the row at eps = 0; both eps-sides flow
    out of it as one batch of two states, in |eps| with HOMOTOPY_SUBSTEPS
    RK4 steps between consecutive rows.  Each right side is one run of the
    chart's homotopy program (`_homotopy_program`) on the states beside
    beta and d beta/dt, which the negative side holds negated: the flow is
    linear in them, so its right side comes out negated.  Returns a
    VariationGrid with beta filled in.

    `direction` must be a finite vector of shape (r,) (InputError
    otherwise).  Where a row of the family is not finite or leaves the
    chart box, CheckFailure names the eps of the first such row outward
    from the path.
    """
    direction = np.asarray(direction, dtype=float)
    if direction.shape != (chart.r,):
        raise InputError(f"direction must have shape (r,) = ({chart.r},)")
    if not np.all(np.isfinite(direction)):
        raise InputError("direction must be finite")
    ts = alpha0.ts
    snorm = (ts - ts[0]) / (ts[-1] - ts[0])
    profile = np.sin(np.pi * snorm)  # (N,)
    dprofile = (np.pi / (ts[-1] - ts[0])) * np.cos(np.pi * snorm)

    beta_row = HOMOTOPY_AMPLITUDE * profile[:, None] * direction[None, :]
    dbeta_dt = HOMOTOPY_AMPLITUDE * dprofile[:, None] * direction[None, :]

    n, r = chart.n, chart.r
    program = _homotopy_program(chart)
    # per side (negative first): the state, then beta and d beta/dt, the
    # negative side's negated; flow_rhs writes each state it is given
    flow_points = np.empty((2, len(ts), n + 3 * r))
    flow_points[1, :, n + r :] = np.concatenate([beta_row, dbeta_dt], axis=-1)
    flow_points[0, :, n + r :] = -flow_points[1, :, n + r :]

    def flow_rhs(j, y):
        """d/d|eps| of the (base row, fiber row) state of each side, from
        one run of the homotopy program."""
        flow_points[..., : n + r] = y
        return program.run(flow_points, (None, None, 0))[-1][0]

    knots = HOMOTOPY_EPS[len(HOMOTOPY_EPS) // 2 :]  # 0 and the positive rows
    eps_grid = np.concatenate(
        [np.linspace(a, b, HOMOTOPY_SUBSTEPS + 1)[:-1] for a, b in zip(knots[:-1], knots[1:])]
        + [knots[-1:]]
    )
    # the last step is taken apart, from the slope _rk4 returns at the
    # node before it, so that no right side runs at the final state
    ys, ds = _rk4(flow_rhs, eps_grid[:-1], np.stack([alpha0.ys, alpha0.ys]))
    k, h = len(eps_grid) - 2, eps_grid[-1] - eps_grid[-2]
    last = ys[-1] + _increment(flow_rhs, h, ys[-1], ds[-1], 2 * k + 1, 2 * k + 2)
    rows = np.concatenate([ys[::HOMOTOPY_SUBSTEPS], last[None]])  # (knot, side, N, n + r)
    state = np.concatenate([rows[:0:-1, 0], rows[:, 1]])
    if not (np.all(np.isfinite(state)) and chart.contains(state[..., :n])):
        # the row nearest the path first: the flow went wrong there first
        for e, row in sorted(zip(HOMOTOPY_EPS, state), key=lambda pair: abs(pair[0])):
            if not np.all(np.isfinite(row)):
                raise CheckFailure(f"homotopy row eps = {e:g} is not finite")
            if not chart.contains(row[:, :n]):
                raise CheckFailure(f"homotopy row eps = {e:g} leaves the chart box")
    beta = np.broadcast_to(beta_row, (len(HOMOTOPY_EPS),) + beta_row.shape).copy()
    eps = np.array(HOMOTOPY_EPS)
    return VariationGrid(eps=eps, ts=ts, x=state[..., :n], mu=state[..., n:], beta=beta)


def _homotopy_program(chart):
    """The homotopy flow of a chart as one `Program(n, 3r)` over the
    coordinates (x, mu, beta, d beta/dt), built on first use and kept on
    the chart.  It declares B and C at x (`AlgebroidChart._declare`, order
    0), and from their slots the group

        dy = (B^T beta, d beta/dt + sum_{i<j} (mu_i beta_j - mu_j beta_i) C_ij)

    which reads B and C, so a run makes every domain check of the chart's
    b and C.  Every op goes through the folding rule of `Program.op`: a
    zero entry of B or C leaves its term out and a unit entry multiplies
    nothing, so on a chart with the identity anchor and no bracket dy is
    the coordinates beta and d beta/dt, with no op to run."""
    prog = chart.__dict__.get("_homotopy_program")
    if prog is not None:
        return prog
    n, r = chart.n, chart.r
    prog = Program(n, 3 * r)
    b, c = chart._declare(prog, 0)
    B, C = prog.slots(b), prog.slots(c)
    mu, beta, dbeta = (range(n + k * r, n + (k + 1) * r) for k in range(3))
    op, add, sub, mul = prog.op, operator.add, operator.sub, operator.mul
    dx, comm = [None] * n, [None] * r
    for s in range(r):
        for k in range(n):
            dx[k] = op(add, dx[k], op(mul, beta[s], B[s][k]))
    for i, j in itertools.combinations(range(r), 2):
        if any(entry is not None for entry in C[i][j]):
            pair = op(sub, op(mul, mu[i], beta[j]), op(mul, mu[j], beta[i]))
            for u in range(r):
                comm[u] = op(add, comm[u], op(mul, pair, C[i][j][u]))
    dy = dx + [op(add, dbeta[u], comm[u]) for u in range(r)]
    entries = [(slot, [((k,), 1)]) for k, slot in enumerate(dy) if slot is not None]
    prog.add_group((n + r,), 0, entries, reads=(b, c))
    object.__setattr__(chart, "_homotopy_program", prog)
    return prog
