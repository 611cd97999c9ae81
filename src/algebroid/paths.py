"""A-paths and the flows along them.

Integration is classical fixed-step RK4 on the coupled base/fiber system

    dx_i/dt  = sum_j  mu_j b^{ji}(x)
    dmu_j/dt = - sum_{s,u} mu_s mu_u Gamma_{su}^j(x)

with dense cubic-Hermite output (node states plus node derivatives); an
`APath` keeps the (x, mu) rows as RK4 steps them.  The right side is the
geodesic field of the pair, one run of the field plan of its geodesic
program (`metric._geodesic`) on the state y = (x, mu) per RK4 stage: the
Koszul form contracted with mu (x) mu as sum_{i<=j} mu_i mu_j K^{ij}(x)
and solved against g, constant or not, inside the program, so
Gamma is never formed on the way.  A single geodesic runs the step plan
of the same program once per RK4 step instead, compiled to one Python
loop over the steps on floats: from (y_k, h) each pass gives the slope
at y_k and y_{k+1}, with the four stages and the arithmetic of
`_increment`, the bits of the four field runs, and the loop tests each
node against the chart box before it steps from it.
Coefficients that cancel fold to exact zeros when the programs are
built, so charts whose Gamma is antisymmetric in the lower pair
(bi-invariant Lie algebras) keep the fiber coordinates constant to the
bit.

Grids are deterministic: a requested span and step always produce the same
nodes, which the transport / Jacobi / variation machinery reuses.  A span
with t1 < t0 gives a decreasing grid, and every flow runs backwards on it.

Batches of geodesics, and the replays of a single one, step through
`_rk4`, which makes a step of four right-side calls and `_increment`.
Its right side is called as f(j, y) with j a half-grid index: node k of
the grid is j = 2k and the midpoint of [ts[k], ts[k+1]] is j = 2k + 1,
the only times an RK4 step samples.  The state y may carry batch axes.
Linear flows along an already fixed path (parallel transport, the
transported frame, Jacobi sections, the transverse solve of
`variations`) read their coefficients on all 2N - 1 half-grid times off
`_half_grid` of the track, on any monotone grid, with one connection
record there; `_linear_flow` then forms the RK4 step map of every step
at once from the same increment `_increment` and chains the maps as a
prefix composition in about sqrt(N) blocks of sqrt(N) steps, in
increment form, so that 1 + D is never rounded.  Parallel transport
and Jacobi sections take a matrix of initial columns, which run through
the one flow together.
Families of geodesics on one grid (a pencil, exp of several fiber vectors)
run as one batch of `_rk4` through `_geodesics`, which also serves single
geodesics, through the compiled loop.  Both keep only the success path:
when a batch row fails a node check or the right side raises, the start
rows are replayed one at a time, so the error raised is the one a
row-by-row loop would raise first; when the loop raises, the start is
replayed stage by stage through `_rk4`.
A geodesic run, like a `geodesic_rhs` call, checks a non-constant g at
all its stage points, but not one stage at a time: it runs inside one
stage log of `metric` (`_stage_log`), to which the right side or the
loop hands each stage's g, and the log checks the stages in batches; the
first failing stage raises the MetricError a check at that stage would
raise.  Every other connection call checks g at its own points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .charts import AVector
from .errors import CheckFailure, InputError
from .metric import _geodesic, _quad, _stage_log, christoffel, fiber_inner

__all__ = [
    "APath",
    "FiberCurve",
    "DomainExitError",
    "NonFiniteError",
    "NonGeodesicError",
    "geodesic_rhs",
    "geodesic_integrate",
    "exp_map",
    "parallel_transport",
    "transport_frame",
    "derivative_along",
    "geodesic_residual",
    "jacobi_solve",
    "dexp",
    "energy_along",
]

TOL_APATH_GENERATED = 1e-9
TOL_GEODESIC = 1e-6
# most steps of a time grid: the Jacobi flow along a rank-3 chart's
# geodesic peaks near 0.65 GB there (traced, about 6.5 KB a step on the
# twisted chart; 3 KB on heisenberg_central, whose R is settled once)
MAX_GRID_STEPS = 100_000


class DomainExitError(CheckFailure, RuntimeError):
    """Trajectory left the chart box; carries the exit time and the partial path."""

    def __init__(self, time, path):
        super().__init__(f"trajectory left the chart domain at t={time:.6g}")
        self.time = time
        self.path = path


class NonFiniteError(CheckFailure, FloatingPointError):
    """Trajectory reached a non-finite state; carries the time and the partial path."""

    def __init__(self, time, path):
        super().__init__(f"trajectory reached a non-finite state at t={time:.6g}")
        self.time = time
        self.path = path


class NonGeodesicError(CheckFailure, ValueError):
    """An operation requiring a geodesic was fed a non-geodesic path."""


class _RowFailed(Exception):
    """A row of a batched geodesic run failed a node check."""


# ---------------------------------------------------------------------------
# Dense grids with cubic Hermite interpolation
# ---------------------------------------------------------------------------


def _hermite(ts, ys, ds, t):
    """Evaluate the Hermite interpolant (and its derivative) at times t.

    ts is strictly monotone, increasing or decreasing; the interval search
    runs in the grid's own direction."""
    t = np.asarray(t, dtype=float)
    sign = 1.0 if ts[-1] > ts[0] else -1.0
    idx = np.clip(np.searchsorted(sign * ts, sign * t, side="right") - 1, 0, len(ts) - 2)
    t0 = ts[idx]
    h = ts[idx + 1] - t0
    s = ((t - t0) / h)[..., None]
    s2 = s * s
    s3 = s2 * s
    y0, y1 = ys[idx], ys[idx + 1]
    d0, d1 = ds[idx], ds[idx + 1]
    hcol = h[..., None]
    value = (
        (2 * s3 - 3 * s2 + 1) * y0
        + hcol * (s3 - 2 * s2 + s) * d0
        + (-2 * s3 + 3 * s2) * y1
        + hcol * (s3 - s2) * d1
    )
    deriv = (
        (6 * s2 - 6 * s) / hcol * y0
        + (3 * s2 - 4 * s + 1) * d0
        + (6 * s - 6 * s2) / hcol * y1
        + (3 * s2 - 2 * s) * d1
    )
    return value, deriv


@dataclass(eq=False)
class APath:
    """Time-discretized A-path with dense interpolation: the RK4 track.

    `ts` is strictly monotone (a grid run backwards in time decreases);
    `ys` (N, n + r) holds the node states with the base point x and the
    fiber point mu side by side, as the integrator steps them, and `ds`
    their time-derivatives.  `xs`, `mus`, `dxs` and `dmus` are column
    views of them; every query interpolates the whole row at once.
    """

    ts: np.ndarray
    ys: np.ndarray
    ds: np.ndarray
    n: int

    r = property(lambda self: self.ys.shape[1] - self.n)
    xs = property(lambda self: self.ys[:, : self.n])
    mus = property(lambda self: self.ys[:, self.n :])
    dxs = property(lambda self: self.ds[:, : self.n])
    dmus = property(lambda self: self.ds[:, self.n :])

    def eval(self, t):
        """(x, mu) at time(s) t via per-component cubic Hermite; perfbench's
        tracer wraps it as a span."""
        y, _ = _hermite(self.ts, self.ys, self.ds, t)
        return y[..., : self.n], y[..., self.n :]

    def reversed(self) -> "APath":
        """The reverse A-path t -> -alpha(t1 + t0 - t) on the same grid."""
        ts = self.ts[0] + self.ts[-1] - self.ts[::-1]
        flip = np.repeat([1.0, -1.0], [self.n, self.r])  # x stays, mu turns
        return APath(ts, self.ys[::-1] * flip, self.ds[::-1] * -flip, self.n)

    def constraint_residual(self, chart):
        """max |#(alpha) - d/dt base| over interval midpoints (Def of A-path)."""
        y, dy = _hermite(self.ts, self.ys, self.ds, 0.5 * (self.ts[:-1] + self.ts[1:]))
        B, _ = chart.eval_anchor(y[:, : self.n])
        push = np.einsum("ts,tsi->ti", y[:, self.n :], B)
        return float(np.max(np.abs(push - dy[:, : self.n])))


@dataclass(eq=False)
class FiberCurve:
    """Fiber coordinates over the base path of a host APath (same grid)."""

    ts: np.ndarray
    values: np.ndarray  # (N, r), or (N, r, k) for k columns


# ---------------------------------------------------------------------------
# RK4 core
# ---------------------------------------------------------------------------


def _grid(t_span, step):
    """The nodes of `t_span` at `step`; InputError beyond MAX_GRID_STEPS steps."""
    step = float(step)
    if not (math.isfinite(step) and step > 0.0):
        raise InputError(f"step must be finite and positive, got {step}")
    t0, t1 = map(float, t_span)
    span = t1 - t0
    if span == 0.0:
        raise InputError("empty integration span")
    steps = abs(span) / step  # inf where the quotient overflows
    if steps > MAX_GRID_STEPS + 0.5:
        raise InputError(f"a time grid of {steps:.6g} steps ({step:g} over [{t0:g}, {t1:g}]); "
                         f"at most {MAX_GRID_STEPS} are supported")
    return np.linspace(t0, t1, max(1, int(round(steps))) + 1)


def _increment(f, h, y, k1, mid, end):
    """The RK4 increment (h/6)(k1 + 2 k2 + 2 k3 + k4) of a step from y with
    slope k1 there; f is sampled twice at the half-grid index `mid` and
    once at `end`.  h, y, k1 and the indices may cover several steps at once
    where f reads its coefficients by the indices."""
    k2 = f(mid, y + 0.5 * h * k1)
    k3 = f(mid, y + 0.5 * h * k2)
    k4 = f(end, y + h * k3)
    return (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _rk4(f, ts, y0, on_node=None):
    """Classical RK4 over the given nodes; returns states and derivatives.

    The right side is called as f(j, y) with j the half-grid index of the
    sampled time (2k at node k, 2k + 1 at the midpoint after it), 1 + 4
    times per step; y has the shape of y0, batch axes included.
    `on_node(k, y, ys, ds)` sees node k before the right side is evaluated
    there and may raise to abort; states and derivatives of the nodes
    before k are kept by the caller via the exception payload it builds.
    """

    ys = np.empty((len(ts),) + np.shape(y0))
    ds = np.empty_like(ys)
    ys[0] = y0
    for k in range(len(ts) - 1):
        if on_node is not None:
            on_node(k, ys[k], ys, ds)
        y = ys[k]
        ds[k] = k1 = f(2 * k, y)
        ys[k + 1] = y + _increment(f, ts[k + 1] - ts[k], y, k1, 2 * k + 1, 2 * k + 2)
    if on_node is not None:
        on_node(len(ts) - 1, ys[-1], ys, ds)
    ds[-1] = f(2 * len(ts) - 2, ys[-1])
    return ys, ds


def _linear_flow(A, ts, y0, c=None):
    """RK4 for the linear flow y' = A[j] y (+ c[j]) along a fixed path, with
    the same increments as `_rk4`; returns the node states.

    A (2N - 1, ..., m, m) and c (2N - 1, ..., m) hold the coefficients on
    the half grid of ts, batch axes included; y0 is a vector (..., m) or a
    matrix (..., m, k) of states.  A source joins the operator as
    [[A, c], [0, 0]] on the state (y, 1).  The step maps minus the
    identity, D_k = M_k - I, are formed for all steps at once from the RK4
    increment taken from Y = I.

    The maps y -> y + D_k y are chained as a prefix composition in about
    sqrt(N) blocks of about sqrt(N) steps, the last block padded with zero
    maps, which are exact identities.  Within every block at once, the
    composed increments E_j = D_j + E_{j-1} + D_j E_{j-1} take one matmul
    per position; one step per block carries the state Y_i across the block
    starts, and one batched matmul forms every node as Y_i + E_j Y_i.  That
    is about 2 sqrt(N) numpy calls where a step-by-step chain makes N, and
    every product stays in increment form: 1 + D_k is never rounded, so the
    nodes keep the bits a small D_k carries, as `_rk4` does.
    """
    y0 = np.asarray(y0, dtype=float)
    vector = y0.ndim == A.ndim - 2
    y = y0[..., None] if vector else y0
    m = A.shape[-1]
    if c is not None:
        A, A0 = np.zeros(A.shape[:-2] + (m + 1, m + 1)), A
        A[..., :m, :m], A[..., :m, m] = A0, c
        y = np.concatenate([y, np.ones(y.shape[:-2] + (1, y.shape[-1]))], axis=-2)
    h = np.diff(ts).reshape((-1,) + (1,) * (A.ndim - 1))
    mid, end = slice(1, None, 2), slice(2, None, 2)
    steps = len(ts) - 1
    size = math.isqrt(steps - 1) + 1 if steps else 1  # ceil(sqrt(steps))
    blocks = -(-steps // size)
    E = np.zeros((blocks * size,) + A.shape[1:])
    E[:steps] = _increment(lambda j, Y: A[j] @ Y, h, np.eye(A.shape[-1]), A[:-1:2], mid, end)
    # E[j, i] is step i * size + j, then the steps i * size .. i * size + j composed
    E = np.ascontiguousarray(E.reshape((blocks, size) + E.shape[1:]).swapaxes(0, 1))
    for j in range(1, size):
        E[j] += E[j - 1] + E[j] @ E[j - 1]
    Y = np.empty((blocks + 1,) + y.shape)  # the block starts, then the last node
    Y[0] = y
    for i in range(blocks):
        Y[i + 1] = Y[i] + E[-1, i] @ Y[i]
    ys = np.empty((blocks * size + 1,) + y.shape)
    nodes = ys[:-1].reshape((blocks, size) + y.shape)
    nodes[:, 0] = Y[:-1]
    nodes[:, 1:] = (Y[:-1] + E[:-1] @ Y[:-1]).swapaxes(0, 1)
    ys[steps] = Y[-1]
    ys = ys[: steps + 1, ..., :m, :]
    return ys[..., 0] if vector else ys


def _half_grid(ts, ys, ds):
    """Rows ys (N, ...) with time-derivatives ds on the half grid of ts:
    (2N - 1, ...), the node rows at the even indices and at index 2k + 1
    the cubic-Hermite midpoint of [ts[k], ts[k+1]],
    (y_k + y_{k+1}) / 2 + (h_k / 8)(d_k - d_{k+1}), summed term by term
    like `_hermite` at s = 1/2.  ts may increase or decrease and need not
    be uniform."""
    q = np.diff(ts).reshape((-1,) + (1,) * (ys.ndim - 1)) / 8.0
    out = np.empty((2 * len(ts) - 1,) + ys.shape[1:])
    out[0::2] = ys
    out[1::2] = 0.5 * ys[:-1] + q * ds[:-1] + 0.5 * ys[1:] - q * ds[1:]
    return out


def _transport_track(chart, metric, alpha):
    """Transport operators L[j] s = -Gamma(alpha, s) on the half grid of
    alpha, with the fiber values of alpha there and the connection record
    (Jacobi reads R from it): one read of the track and one batched
    connection call."""
    x, mu = np.split(_half_grid(alpha.ts, alpha.ys, alpha.ds), [alpha.n], axis=1)
    ch = christoffel(chart, metric, x)
    return -np.einsum("ti,tiju->tuj", mu, ch.gamma), mu, ch


# ---------------------------------------------------------------------------
# Geodesics
# ---------------------------------------------------------------------------


def geodesic_rhs(chart, metric, x, mu):
    """Right side of the geodesic system at (x, mu): dx = mu B and the
    spray dmu = -Gamma(mu, mu), from one run of the pair's geodesic field
    on the state (x, mu), which never forms Gamma.  x (..., n) and mu
    (..., r) may carry leading batch axes, which broadcast; g is checked
    at every point, by the stage log of the call (`metric._stage_log`)."""
    x, mu = np.asarray(x, dtype=float), np.asarray(mu, dtype=float)
    lead = np.broadcast_shapes(x.shape[:-1], mu.shape[:-1])
    y = np.concatenate([np.broadcast_to(a, lead + a.shape[-1:]) for a in (x, mu)], axis=-1)
    with _stage_log() as keep:
        dy = _geodesic(chart, metric).geodesic(y, keep)
    return dy[..., : chart.n], dy[..., chart.n :]


def _geodesics(chart, metric, x0, mu0, t_span, step):
    """Geodesics from one start, x0 (n,) and mu0 (r,), or from the E rows of
    x0 (E, n) and mu0 (E, r), all on one grid: returns the grid and the node
    states and derivatives, (N, n + r) or (N, E, n + r).

    Every node of every row is checked before the right side is evaluated
    there: a non-finite coordinate raises NonFiniteError, a base point
    outside the chart box DomainExitError, with the time and the partial
    path of that row.  Rows run together, but the error raised is the one
    a row-by-row loop would raise first: when any row fails a node check or
    the right side raises on the batch, the start rows are replayed one at
    a time as single geodesics, and the first that fails raises.  A batch
    row is bit-identical to its row run alone, so the replay costs time only
    on a failure: the rows before the failing one are integrated twice.

    A single start runs the step plan of the pair's geodesic program
    (appended to it on the pair's first single start and compiled then to
    a loop over steps, `metric._geodesic`) in chunks of at most 256 steps,
    and the field plan once, at the last node: bit for bit the `_rk4`
    route over the field.  The loop tests every node it steps from, as
    floats against the chart box, and stops at the first that fails; the
    node arrays are filled from its lists, one store a chunk, and that
    node is tested again here, which raises its error with the partial
    path.  The loop
    runs on Python floats under numpy's raising error state, so where the
    `_rk4` route would warn, it raises instead: numpy's functions raise
    FloatingPointError themselves, a division by zero raises
    ZeroDivisionError, and since float arithmetic overflows to inf and
    NaN without a word, each step tests a sum of the values that could
    hide one (`Program.compile`), which is finite only if each of them
    is, and raises FloatingPointError where it is not, also where a later
    op absorbed the inf (a sum that overflows on its own only costs a
    replay).  Any exception from the loop replays the start through
    `_rk4` over the field, which then raises its own error, with its
    error order, partial path and warnings, or, where numpy only warned,
    returns its result.

    A non-constant g is checked at every stage point, but not stage by
    stage: each run of a start (the batch, a single start, or a replayed
    row) opens one stage log (`metric._stage_log`), and the right side or
    the loop logs each stage's (x, G, dG) there, a chunk's records before
    the node it stopped at is tested.  A failing check of the log raises
    the MetricError of the first failing stage, as a check at every stage
    would, even where the run went on past that stage and then failed
    otherwise.
    """
    n = chart.n
    ts = _grid(t_span, step)
    box = chart.domain.tolist()
    y0 = np.concatenate([np.asarray(x0, float), np.asarray(mu0, float)], axis=-1)
    ev = _geodesic(chart, metric, _increment if y0.ndim == 1 else None)
    field = ev.geodesic

    def run(start):
        with _stage_log() as keep:
            return _rk4(lambda j, y: field(y, keep), ts, start, on_node=guard)

    def guard(k, y, ys, ds):
        if y.ndim == 2:
            if not (np.isfinite(y).all() and chart.contains(y[:, :n])):
                raise _RowFailed
            return
        # plain floats: a few comparisons cost less than numpy calls here;
        # zip pairs the n base coordinates with the box
        v = y.tolist()
        finite = all(map(math.isfinite, v))
        if finite and all(lo <= c <= hi for c, (lo, hi) in zip(v, box)):
            return
        error = DomainExitError if finite else NonFiniteError
        partial = APath(ts[:k].copy(), ys[:k].copy(), ds[:k].copy(), n)  # the nodes before k
        raise error(float(ts[k]), partial)

    if y0.ndim == 1:
        try:
            with np.errstate(divide="raise", over="raise", invalid="raise"), _stage_log() as keep:
                ys, ds = np.empty((len(ts), len(y0))), np.empty((len(ts), len(y0)))
                ys[0] = y0
                k = ev.steps(ys, ds, np.diff(ts).tolist(), keep)
                guard(k, ys[k], ys, ds)  # raises where the steps stopped before the last node
                ds[k] = field(ys[k], keep)
                return ts, ys, ds
        except (DomainExitError, NonFiniteError):
            raise
        except Exception:
            return (ts, *run(y0))
    try:
        ys, ds = run(y0)
    except Exception:
        for row in y0:
            run(row)
        raise
    return ts, ys, ds


def geodesic_integrate(chart, metric, start: AVector, t_span=(0.0, 1.0), step=1e-3):
    """Integrate the geodesic through `start` over `t_span` with fixed step.

    Every node is checked before the right side is evaluated there.  A
    node with a non-finite coordinate raises NonFiniteError, a node outside
    the chart box DomainExitError; both carry the time and the partial
    path of the nodes before it.
    """
    return APath(*_geodesics(chart, metric, start.x, start.mu, t_span, step), chart.n)


def exp_map(chart, metric, m, a, step=1e-3):
    """Base point of the time-1 geodesic from (m, a).

    `a` may carry leading batch axes; the geodesics from the rows of `a`
    (at m, or at the matching rows of m) then run as one batch and the
    result has the same leading axes.  On a failure the rows are replayed
    one at a time and the first failing row raises, as in
    `make_geodesic_pencil`.
    """
    a = np.asarray(a, dtype=float)
    lead = a.shape[:-1]
    m = np.broadcast_to(np.asarray(m, dtype=float), lead + (chart.n,))
    if lead:
        m, a = m.reshape(-1, chart.n), a.reshape(-1, chart.r)
    _, ys, _ = _geodesics(chart, metric, m, a, (0.0, 1.0), step)
    return ys[-1, ..., : chart.n].reshape(lead + (chart.n,)).copy()


def energy_along(chart, metric, path: APath):
    """E(t) = 1/2 <alpha, alpha> at the path nodes."""
    return 0.5 * fiber_inner(metric, path.xs, path.mus, path.mus)


# ---------------------------------------------------------------------------
# Parallel transport
# ---------------------------------------------------------------------------


def parallel_transport(chart, metric, alpha: APath, s0):
    """Solve ds^u/dt + sum alpha^i s^j Gamma_{ij}^u = 0 along alpha."""
    L, _, _ = _transport_track(chart, metric, alpha)
    return FiberCurve(ts=alpha.ts, values=_linear_flow(L, alpha.ts, s0))


def transport_frame(chart, metric, alpha: APath):
    """Transport the full coordinate frame; returns S with S[k] mapping
    fiber coordinates at t0 to coordinates at ts[k] (columns are the
    transported basis vectors)."""
    return parallel_transport(chart, metric, alpha, np.eye(alpha.r)).values


# ---------------------------------------------------------------------------
# Derivatives along a path
# ---------------------------------------------------------------------------


def _uniform_step(ts):
    """The step of a uniform time grid; raises InputError when a step differs
    from the first by more than 1e-9 of it (generated grids: ~1e-12)."""
    h = ts[1] - ts[0]
    if np.max(np.abs(np.diff(ts) - h)) > 1e-9 * abs(h):
        raise InputError("time grid is not uniform")
    return h


def _grid_derivative(values, ts):
    """Time derivative of node values; centered stencils on the dense grid.

    Fourth-order five-point stencils (one-sided at the ends), falling back
    to np.gradient for very short grids.  The grid must be uniform.
    """
    N = len(ts)
    if N < 5:
        return np.gradient(values, ts, axis=0)
    h = _uniform_step(ts)
    out = np.empty_like(values)
    out[2:-2] = (
        values[:-4] - 8.0 * values[1:-3] + 8.0 * values[3:-1] - values[4:]
    ) / (12.0 * h)
    # one-sided stencils at the first two nodes; the last two take them
    # mirrored, with the opposite sign
    for k, c in enumerate([(-25.0, 48.0, -36.0, 16.0, -3.0), (-3.0, -10.0, 18.0, -6.0, 1.0)]):
        for node, v, sign in ((k, values, 1.0), (-1 - k, values[::-1], -1.0)):
            acc = c[0] * v[0]
            for j in range(1, 5):
                acc = acc + c[j] * v[j]
            out[node] = sign * acc / (12.0 * h)
    return out


def _nabla(alpha: APath, values, gamma):
    """nabla^alpha of node values (N, r) along alpha, given Gamma at its nodes."""
    return _grid_derivative(values, alpha.ts) + _quad(alpha.mus, values, gamma)


def derivative_along(chart, metric, alpha: APath, s: FiberCurve):
    """(nabla^alpha s)^u = ds^u/dt + sum alpha^i s^j Gamma_{ij}^u on the grid."""
    if len(s.ts) != len(alpha.ts) or not np.allclose(s.ts, alpha.ts):
        raise InputError("fiber curve grid does not match the path grid")
    gamma = christoffel(chart, metric, alpha.xs).gamma
    return FiberCurve(ts=alpha.ts, values=_nabla(alpha, s.values, gamma))


def geodesic_residual(chart, metric, alpha: APath):
    """max |nabla^alpha alpha| over the grid; zero for geodesics.

    The CLI reads this residual off `_jacobi`'s track instead.  The
    function stays as the check of a path on its nodes alone, which the
    tests call, and as a layer of the benchmark: BENCHMARK.json times
    `paths.geodesic_residual`, and perfbench's tracer needs the function
    for that span."""
    return float(np.max(np.abs(_nabla(alpha, alpha.mus, christoffel(chart, metric, alpha.xs).gamma))))


# ---------------------------------------------------------------------------
# Jacobi sections and the differential of the exponential
# ---------------------------------------------------------------------------


def _jacobi(chart, metric, alpha: APath, beta0, dbeta0):
    """(geodesic residual of alpha, Jacobi values) from one connection call,
    on the half grid of alpha's track: the record gives R and, on its nodes
    (the even rows), the `geodesic_residual`.  The values are None, and the
    flow does not run, when the residual is above TOL_GEODESIC.  The record
    checks g at the track's Hermite midpoints first, so a MetricError there
    comes before the residual.

    The state is (beta, w = nabla^alpha beta), reduced to first order:
    beta' = w - Gamma(alpha, beta), w' = R(alpha,beta)alpha - Gamma(alpha,w).
    """
    r = alpha.r
    L, mu, ch = _transport_track(chart, metric, alpha)
    res = float(np.max(np.abs(_nabla(alpha, alpha.mus, ch.gamma[::2]))))
    if res > TOL_GEODESIC:
        return res, None
    # K[l, j] = sum_ik mu_i mu_k R[i, j, k, l]: contract i, then k
    Ri = (mu[:, None, :] @ ch.R.reshape(len(mu), r, -1)).reshape((len(mu),) + (r,) * 3)
    K = (mu[:, None, None, :] @ Ri)[:, :, 0, :].swapaxes(-1, -2)
    ops = np.empty((len(L), 2 * r, 2 * r))  # [[L, I], [K, L]]
    ops[:, :r, :r] = ops[:, r:, r:] = L
    ops[:, :r, r:] = np.eye(r)
    ops[:, r:, :r] = K
    y0 = np.concatenate([np.asarray(beta0, float), np.asarray(dbeta0, float)])
    return res, _linear_flow(ops, alpha.ts, y0)[:, :r]


def jacobi_solve(chart, metric, alpha: APath, beta0, dbeta0):
    """Solve the Jacobi equation beta'' - R(alpha, beta) alpha = 0 along a
    geodesic, with beta'' the iterated nabla^alpha derivative.  beta0 and
    dbeta0 of shape (r,) give values (N, r); k columns (r, k) give (N, r, k).
    A `geodesic_residual` above TOL_GEODESIC raises NonGeodesicError, after
    any MetricError of the track (see `_jacobi`)."""
    res, values = _jacobi(chart, metric, alpha, beta0, dbeta0)
    if values is None:
        raise NonGeodesicError(f"path is not a geodesic (derivative-along residual {res:.3e})")
    return FiberCurve(ts=alpha.ts, values=values)


def dexp(chart, metric, m, a, u, step=1e-3):
    """d_a exp_m(u) = #(beta(1)) for the Jacobi section with beta(0) = 0,
    beta'(0) = u along the geodesic from (m, a) over [0, 1] at this step."""
    path = geodesic_integrate(chart, metric, AVector(m, a), (0.0, 1.0), step)
    beta = jacobi_solve(chart, metric, path, np.zeros(chart.r), u)
    B, _ = chart.eval_anchor(path.xs[-1])
    return np.einsum("j,ji->i", beta.values[-1], B)
