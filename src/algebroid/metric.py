"""Fiber metrics and the Levi-Civita A-connection.

The connection coefficients follow the closed form

    Gamma_{ij}^k = 1/2 g^{kl} ( b^{iu} d_u g_{jl} + b^{ju} d_u g_{il}
                                - b^{lu} d_u g_{ij} )
                 + 1/2 g^{kl} ( C_{ij}^u g_{ul} + C_{li}^u g_{uj}
                                + C_{lj}^u g_{ui} )

with u running over base coordinates in the first bracket and over fiber
indices in the second.  The spatial derivative dGamma is obtained by
differentiating this expression with the exact partials of g, b and C
(Hessians of g, gradients of b and C) from their expression programs,
never by finite differences, so the curvature tensor downstream carries
no step-size parameter.

Index conventions: ``gamma[i, j, k]`` is Gamma_{ij}^k (D_{a_i} a_j =
sum_k gamma[i,j,k] a_k); ``dgamma[i, j, k, m]`` is d Gamma_{ij}^k / d x_m;
``R[i, j, k, l]`` is the a_l component of R(a_i, a_j) a_k.

`christoffel` (and through it `curvature` and every linear flow) runs on
one connection evaluator per (chart, metric) pair.  It is built on first
use and kept in the metric's ``_cache``, keyed weakly by the chart.  It
evaluates B, dB, C and dC on the chart's `~algebroid.expressions.Program`
and G, dG and d2G on the metric's: the programs that also serve
`eval_anchor`, `eval_bracket` and `MetricField.eval`, each built once.
It returns one `Christoffel` record of B, C and G per point set, so no
caller evaluates b, C or g there again; the record forms Gamma, dGamma and
R when they are first read, so no caller says in advance what it needs.

The geodesic field lives on the same evaluator, as one program of its
own with two plans (`_geodesic`).  On the first geodesic use of the pair
it builds one straight-line `Program` over the state y = (x, mu) and a
step h, mu and h read for their values only, whose field group
is dy = (B^T mu, g^-1 F): F is the Koszul form contracted with mu (x) mu,
as sum_{i<=j} mu_i mu_j K^{ij}(x), built from the slots of B, C, G and
dG that every stage declares at its point (`_Connection._field_slots`),
and solved against g there by elimination without pivoting, with a
positivity check on every pivot (`_solve`).  The folding rule alone
settles constants: coefficients that cancel fold to exact zeros, and a
unit pivot divides nothing.  Every batch width (one state, a pencil, exp
of many fiber vectors) is one run of the field plan, which gives a row
of a batch the bits of its run alone.  A single
geodesic's first run appends the RK4 step to the same program: from
(y, h), stages 2 to 4 are the field's slots at their stage states, stage
1 is the field's own, and the arithmetic is the RK4 increment of `paths`
run on slots, so one run of the step plan gives the bits of four field
runs.  The step plan, and it alone, is compiled once to a Python loop
over steps on floats (`Program.compile`), which tests each node against
the chart box and gives, per step, k1, the next state and the stage
records of g as three flat tuples (`_Connection.steps`).
What the evaluator settles once per pair is listed at `_Connection`; a
non-constant metric is evaluated and SPD-checked at every point asked for,
and the derivatives of g it computes there must be finite.  Every
`christoffel` call makes that check; the geodesic field and the steps log
g to the stage log their caller opens (`_stage_log`), which checks the
log in batches with the same verdict and the same error.
`koszul_rhs` reads only the raw evaluations of g, b and C, so it stays an
independent check of the evaluator, and the record's Gamma (Koszul form
and g^-1) one of the field.
`paths`, `variations`, `splitting` and `covariant_derivative` contract
fibers through the two matmul forms here, `_quad` and `_g_dot`.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import operator
import weakref
from dataclasses import dataclass

import numpy as np

from .charts import ChartError, SectionField, _as_expression
from .errors import CheckFailure, InputError
from .expressions import EvalDomainError, Program, SlotVector
from .sampling import _finite, _not_finite_at, sample_box

__all__ = [
    "MetricField",
    "MetricError",
    "Christoffel",
    "christoffel",
    "covariant_derivative",
    "curvature",
    "sectional_curvature",
    "fiber_inner",
    "koszul_rhs",
]

SPD_EIGENVALUE_FLOOR = 1e-10
# smallest Gram determinant, relative to <a,a><b,b> (the squared sine of the
# angle), of a pair whose sectional curvature is asked for
GRAM_FLOOR = 1e-12
# records of g a stage log keeps between two batched checks: 256 nodes of
# one geodesic, at four field runs a node (a chunk of `_Connection.steps`)
STAGE_LOG_RECORDS = 1024


class MetricError(CheckFailure, ValueError):
    """Metric not symmetric positive definite where required."""


@dataclass(frozen=True, eq=False)
class MetricField:
    """Symmetric positive-definite fiber metric g_{ij}(x).

    Entries are stored for i <= j and mirrored, so g(x) is symmetric to
    the bit.  Positive definiteness is asserted lazily at every evaluation
    point (smallest eigenvalue above ``SPD_EIGENVALUE_FLOOR``), and the
    partials it computes must be finite (MetricError otherwise).  Evaluation
    runs on a program built on first use: the constant entries sit in
    templates that every evaluation copies, and only the ops of the other
    entries run per call.

    The fields are frozen, but the instance is not immutable: besides its
    program, ``_cache`` holds the connection evaluator (see `christoffel`)
    of every chart the metric has been paired with, keyed weakly by the
    chart object, so an entry lives exactly as long as its chart.
    """

    entries: dict
    r: int
    n: int

    def __init__(self, entries, r, n):
        table = {}
        for key, value in entries.items():
            i, j = key
            if not (1 <= i <= r and 1 <= j <= r):
                raise ChartError(f"metric index {key} out of range for rank {r}")
            if i > j:
                raise ChartError(f"metric entry {key}: give the upper triangle only")
            table[(i - 1, j - 1)] = _as_expression(value, n)
        for i in range(r):
            if (i, i) not in table:
                raise ChartError(f"metric diagonal entry ({i + 1},{i + 1}) missing")
        object.__setattr__(self, "entries", table)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_cache", weakref.WeakKeyDictionary())

    @classmethod
    def identity(cls, r, n):
        return cls({(i, i): "1" for i in range(1, r + 1)}, r, n)

    def _declare(self, prog, order=2, at=None):
        """Add the group G, of order 2 or `order`, to a program, at the
        coordinates or the slots `at` (`Program.add_group`); returns its
        number."""
        places = lambda i, j: [((i, j), 1)] if i == j else [((i, j), 1), ((j, i), 1)]
        return prog.add_group(
            (self.r, self.r), order, [(e, places(i, j)) for (i, j), e in self.entries.items()], at=at
        )

    def eval(self, points, order=0):
        """g (..., r, r), dg (..., r, r, n), d2g (..., r, r, n, n)."""
        points = np.asarray(points, dtype=float)
        G, dG, d2G = Program.of(self).run(points, (order,))[0]
        _check_metric(G, dG, points)
        return G, dG, _finite(MetricError, "metric derivative", d2G, points)

    def spd_margin(self, chart, samples=200, seed=42):
        """(margin, x): the smallest eigenvalue of g over sampled points of
        the chart box and the first sample where it is attained; (-inf, x)
        with x the first sample where g, dg or d2g is not finite."""
        pts = sample_box(chart.domain, samples, seed)
        [(G, dG, d2G)] = Program.of(self).run(pts, (2,))
        x = _not_finite_at(np.concatenate([a.reshape(len(pts), -1) for a in (G, dG, d2G)], axis=1), pts)
        return (-np.inf, x) if x is not None else _smallest_eigenvalue(G, pts)


@functools.cache
def _floor(r):
    """SPD_EIGENVALUE_FLOOR * I (r, r), once per rank: built per call, it
    costs the flows along a path about 4 % of their time."""
    return SPD_EIGENVALUE_FLOOR * np.eye(r)


def _is_spd(G):
    """The one rule for g: whether G is finite and every smallest eigenvalue
    exceeds SPD_EIGENVALUE_FLOOR, that is, G - floor*I has a Cholesky
    factor; numpy's Cholesky factorization does not raise on NaN or inf."""
    try:
        np.linalg.cholesky(G - _floor(G.shape[-1]))
    except np.linalg.LinAlgError:
        return False
    return bool(np.isfinite(G).all())


def _smallest_eigenvalue(G, points):
    """(value, x): the smallest eigenvalue of a finite g at the points
    (..., n) and the first point that attains it."""
    smallest = np.linalg.eigvalsh(G)[..., 0]
    k = np.unravel_index(np.argmin(smallest), smallest.shape)
    return float(smallest[k]), points[k]


def _raise_not_spd(G, points):
    # runs only on this failure path, and eigvalsh only on a finite G
    _finite(MetricError, "metric", G, points)
    value, x = _smallest_eigenvalue(G, points)
    raise MetricError(f"metric not positive definite at x={x} "
                      f"(smallest eigenvalue {value:.3e}, floor {SPD_EIGENVALUE_FLOOR:g})")


def _check_metric(G, dG, points):
    """The check of g at the points (..., n) where it was evaluated: G SPD
    (`_is_spd`) and dG (None: not computed) finite, else MetricError."""
    if not _is_spd(G):
        _raise_not_spd(G, points)
    _finite(MetricError, "metric derivative", dG, points)


@contextlib.contextmanager
def _stage_log():
    """The one rule for when g is checked at the points of geodesic field
    runs.  Yields keep, which logs records of g unchecked: keep(x, G, dG)
    the record of one field run (see `_Connection.geodesic`), and
    keep(records, (stages, n, r)) the records of the stages of some RK4
    steps, one flat tuple a step, each stage's x (n), G (r, r) and dG
    (r, r, n) in turn (see `_Connection.steps`).  The log is checked in
    one batched pass whenever it holds STAGE_LOG_RECORDS records of field
    runs or stages, when the block ends and before any exception leaves
    it.  A failing pass walks the records in the order they were kept, a
    step's stage by stage, so the first failing one raises the error of
    its own `_check_metric`, even where the block went on past it and
    then failed otherwise.  All field records of a log share one shape, and so do all
    step records."""
    records, kept = [], 0  # kept: records of field runs and stages since the last check

    def check():
        nonlocal kept
        if not records:
            return
        log = records[:]
        records.clear()
        kept = 0
        runs = [rec for rec in log if len(rec) == 3]
        steps = [rec for rec in log if len(rec) == 2]
        parts = []  # G and dG of the field runs (lists), then of the steps' stages
        if runs:
            parts.append(([G for _, G, _ in runs], [dG for _, _, dG in runs]))
        if steps:
            _, n, r = steps[0][1]
            rows = np.array([flat for flats, _ in steps for flat in flats]).reshape(-1, n + r * r * (1 + n))
            xs, Gs, dGs = rows[:, :n], rows[:, n : n + r * r].reshape(-1, r, r), rows[:, n + r * r :].reshape(-1, r, r, n)
            parts.append((Gs, dGs))
        # one stacked array at a time: holding G and dG of a 441-row batch
        # together made its 20-step run about 20 % slower
        if _is_spd(_stacked([G for G, _ in parts])) and all(np.isfinite(dG).all() for _, dG in parts):
            return
        stages = zip(xs, Gs, dGs) if steps else None
        for rec in log:
            if len(rec) == 3:
                _check_metric(rec[1], rec[2], rec[0])
            else:
                for x, G, dG in itertools.islice(stages, rec[1][0] * len(rec[0])):
                    _check_metric(G, dG, x)

    def keep(*record):
        nonlocal kept
        records.append(record)
        kept += 1 if len(record) == 3 else record[1][0] * len(record[0])
        if kept >= STAGE_LOG_RECORDS:
            check()

    try:
        yield keep
    except Exception:
        check()
        raise
    check()


def _stacked(Gs):
    """One array of the matrices (..., r, r) of the arrays, or lists of
    arrays, in Gs."""
    if len(Gs) == 1:
        return np.asarray(Gs[0])
    return np.concatenate([np.reshape(G, (-1,) + np.shape(G)[-2:]) for G in Gs])


class Christoffel:
    """The Levi-Civita connection at some points: the B, C, G it is formed
    from, evaluated at once, and Gamma, dGamma and R, formed on first
    access and kept.  The record keeps x and dg for what it forms, and
    S and g^-1 once formed: reading dGamma runs the programs once more, at
    derivative orders but only on groups already run for B, C and G, so it
    raises no new EvalDomainError."""

    def __init__(self, ev, x, B, C, G, dG, Gi=None, gamma=None):
        self._ev, self._x, self._dG = ev, x, dG  # dG is None where not computed
        self.B, self.C, self.G = B, C, G  # (..., r, n), (..., r, r, r), (..., r, r)
        # what is already at hand: the evaluator's g^-1 and Gamma of a
        # constant pair, or the rows of a record that formed them
        if Gi is not None:
            self._Gi = Gi
        if gamma is not None:
            self.gamma = gamma

    _S = functools.cached_property(  # (..., r, r, r)
        lambda self: self._ev._koszul(self._x.shape[:-1], self.B, self.C, self.G, self._dG)
    )
    _Gi = functools.cached_property(lambda self: np.linalg.inv(self.G))  # (..., r, r)
    gamma = functools.cached_property(lambda self: 0.5 * (self._S @ self._Gi[..., None, :, :]))
    dgamma = functools.cached_property(lambda self: self._ev._dgamma(self))  # (..., r, r, r, n)

    @functools.cached_property
    def R(self):
        """R[i, j, k, l], the a_l component of R(a_i, a_j) a_k, from
        R(a,b)s = D_a D_b s - D_b D_a s - D_{[a,b]} s with the exact dGamma:
        three matmuls, P[i, j, k, l] = b^{im} d_m Gamma_{jk}^l,
        GG[i, j, k, l] = Gamma_{jk}^m Gamma_{im}^l and
        CG[i, j, k, l] = C_{ij}^m Gamma_{mk}^l, each of the first two taken
        minus its transpose in (i, j)."""
        B, C, gamma, dgamma = self.B, self.C, self.gamma, self.dgamma
        lead, r = gamma.shape[:-3], gamma.shape[-1]
        P = B @ dgamma.reshape(dgamma.shape[:-4] + (r**3, -1)).swapaxes(-1, -2)
        GG = gamma.reshape(lead + (1, r * r, r)) @ gamma
        CG = C.reshape(lead + (r * r, r)) @ gamma.reshape(lead + (r, r * r))
        P, GG, CG = (a.reshape(lead + (r,) * 4) for a in (P, GG, CG))
        return (P - P.swapaxes(-4, -3)) + (GG - GG.swapaxes(-4, -3)) - CG

    def _rows(self, pick):
        """The record at the points `pick` of its leading batch axis, with
        the rows of g^-1 and Gamma where they are already formed."""
        at = lambda a: None if a is None else a[pick]
        formed = (self.__dict__.get(k) for k in ("_Gi", "gamma"))
        arrays = (self._x, self.B, self.C, self.G, self._dG, *formed)
        return Christoffel(self._ev, *map(at, arrays))


class _Connection:
    """Levi-Civita coefficients of one (chart, metric) pair.

    Built on first use and kept in ``metric._cache``.  It runs the chart's
    program for B and C and the metric's for G and hands them back in one
    `Christoffel` (whose S, Gamma and dGamma it forms on request), holds
    the geodesic program once a geodesic asks for it, with the field plan
    (`geodesic`) and, once a single geodesic asks, the RK4 step plan,
    compiled to a loop over steps (`steps`), and settles what does not
    depend on the point:

    * which structure arrays vanish identically (a constant metric has
      dG = d2G = 0, a constant anchor dB = 0, a constant bracket dC = 0,
      and B or C may be zero outright): they are not evaluated, and no
      term with such a factor is formed;
    * a constant anchor or bracket, read from its template and not run;
    * for a constant metric: g, its inverse and the SPD verdict; a negative
      verdict raises MetricError at every use, as an evaluation would;
    * for a constant metric and a constant bracket: Gamma (with dg = 0 the
      anchor does not enter); and dGamma = 0 wherever dS vanishes
      identically.

    The geodesic program reads none of these: its folding rule settles
    the constants.  A non-constant g is checked at the points of each call
    (`_check_metric`), except in the geodesic field and the steps, which
    hand g and dg to a stage log (`_stage_log`) that checks them in
    batches.

    With Gamma_{ij}^k = 1/2 S_{ijl} g^{lk}, the six Koszul terms of S are
    axis permutations of two contractions, P[a, b, c] = b^{au} d_u g_{bc}
    and Q[a, b, c] = C_{ab}^u g_{uc}:

        S_{ijl} = P_{ijl} + P_{jil} - P_{lij} + Q_{ijl} + Q_{lij} + Q_{lji}

    and dS is the same combination of their derivatives dP and dQ.  No
    reference to the chart is kept: the cache must not keep its key alive.
    """

    def __init__(self, chart, metric):
        self.n = chart.n
        self.chart, self.metric = Program.of(chart), Program.of(metric)
        self.B, self.C = self.chart.constant(0), self.chart.constant(1)
        self.anchor, self.bracket = (not self.chart.is_zero(g) for g in (0, 1))
        self.Gi = self.gamma = None
        # the geodesic program (`_build_geodesic`), the field's orders, stage 1's
        # (dy slots, groups), the step's (orders, compiled loop, steps a chunk,
        # record layout)
        self.program = self.field = self.stage1 = self.stepper = None
        self.dgamma = np.zeros((chart.r,) * 3 + (chart.n,))  # where dS vanishes identically
        self.held = {}  # per batch shape asked for: G, g^-1, B, C, Gamma as handed out (views)
        self.G = G = self.metric.constant(0)
        self.spd = G is None or _is_spd(G)
        # the orders to run B, C, G at for Gamma (k = 0) and dGamma (k = 1: dB only with dg)
        cap = lambda g, k: None if (self.B, self.C)[g] is not None else _cap(self.chart, g, k)
        self.orders = [
            ((cap(0, k) if G is None or not k else None, cap(1, k)), (_cap(self.metric, 0, k + 1),))
            for k in (0, 1)
        ]
        if G is not None and self.spd:
            self.Gi = np.linalg.inv(G)
            self.Gi.flags.writeable = False
            if self.C is not None:  # no chart run: B does not enter, as dG = 0
                self.gamma = 0.5 * (self._koszul((), None, self.C, G, None) @ self.Gi[None])
                self.gamma.flags.writeable = False
        self.dgamma.flags.writeable = False

    def christoffel(self, x):
        x = np.asarray(x, dtype=float)
        base = x.shape[:-1]
        held = self.held.get(base)
        if held is None:
            held = self.held[base] = [
                a if a is None or not base else np.broadcast_to(a, base + a.shape)
                for a in (self.G, self.Gi, self.B, self.C, self.gamma)
            ]
        G, Gi, B, C, gamma = held
        (ob, oc), og = self.orders[0]
        dG = None
        if self.G is None:
            [(G, dG, _)] = self.metric.run(x, og)
            _check_metric(G, dG, x)
        elif not self.spd:
            _raise_not_spd(G, x)
        if ob is not None or oc is not None:
            (b, _, _), (c, _, _) = self.chart.run(x, (ob, oc))
            B, C = (B if b is None else b), (C if c is None else c)
        return Christoffel(self, x, B, C, G, dG, Gi, gamma)

    def geodesic(self, y, keep):
        """The geodesic field at the states y (..., n + r), x and mu side
        by side: dy = (B^T mu, -Gamma(mu, mu)), from one run of the field
        plan of the geodesic program (`_build_geodesic`), which also solves
        against g.  For a non-constant g the record (x, G, dG) goes
        unchecked to `keep`, the log of the caller's `_stage_log` block.
        Where the run raises EvalDomainError (a domain check of the chart's
        part, or a pivot of the solve that is not positive, as at a
        singular g), the program's G group is run alone and logged first,
        so a g that fails there speaks first, as in `christoffel`, with
        that stage's MetricError.  A constant g that is not SPD raises
        MetricError before any program runs."""
        x = y[..., : self.n]
        if not self.spd:
            _raise_not_spd(self.G, x)
        try:
            out = self.program.run(y, self.field)
        except EvalDomainError:
            if self.field[0]:  # g varies: its own verdict comes first, as in `christoffel`
                [(G, dG, _)] = self.program.run(y, (1,))
                keep(x, G, dG)
            raise
        if self.field[0]:
            G, dG, _ = out[0]
            keep(x, G, dG)
        return out[-1][0]

    def steps(self, ys, ds, hs, keep):
        """RK4 steps of the geodesic field from the state ys[0] (n + r,),
        one per step h of the list hs, from the compiled loop over the step
        plan of the geodesic program (`_build_geodesic`): the state at each
        next node goes to ys[k + 1] and the slope at each node it steps
        from to ds[k], the bits `paths._rk4` makes of four field runs a
        step; returns the number of steps made.  The loop tests each node
        before it steps from it, ys[0] included, and stops before the first
        that is outside the chart box or not finite.  It runs in chunks of
        at most STAGE_LOG_RECORDS // 4 steps, and a chunk's lists fill the
        arrays in one store each.  For a non-constant g, the records of a
        chunk's stages go unchecked to `keep` as a list of flat tuples, one
        per step, each stage's x, G and dG in turn, before the caller tests
        the node the steps stopped at.  The loop runs on Python floats, so
        it raises where a value it computes is not finite
        (FloatingPointError), as numpy does under the raising error state
        the caller runs it in; where it raises, the caller replays its
        geodesic through the field.  A constant g that is not SPD raises
        MetricError before any program runs."""
        if not self.spd:
            _raise_not_spd(self.G, ys[0, : self.n])
        _, loop, chunk, layout = self.stepper
        k, start = 0, ys[0].tolist()
        for i in range(0, len(hs), chunk):
            part = hs[i : i + chunk]
            y1s, k1s, *records = loop(start, part)
            if records and records[0]:
                keep(records[0], layout)
            if k1s:
                ys[k + 1 : k + 1 + len(y1s)] = y1s
                ds[k : k + len(k1s)] = k1s
                k += len(k1s)
            if len(k1s) < len(part):
                break
            start = y1s[-1]
        return k

    def _build_geodesic(self, chart, metric, increment=None):
        """Build what is not built yet of the geodesic program, a `Program(n,
        r + 1)` over the state y = (x, mu) and the step h.  First the field:
        stage 1, the field's groups at y (`_field_slots`), and the group
        k1 = dy.  Then, given `increment` (`paths._increment`), the step:
        y1 = y + increment(f, h, y, k1) on `SlotVector`s, op for op the
        arithmetic numpy does, signed zeros included, with stages 2 to 4
        the field's slots at their states, so a step is the bits of four
        field runs; for a non-constant g, the stages' G groups and a group
        of their base points (4, n) give the records of the stage log.  The
        step plan is compiled once, here, to a loop over steps that tests
        each node against the chart box (`Program.compile`)."""
        n, r = chart.n, chart.r
        if self.program is None:
            prog = self.program = Program(n, r + 1)
            self.stage1 = dy, groups = self._field_slots(prog, range(n + r), chart, metric)
            entries = [(slot, [((k,), 1)]) for k, slot in enumerate(dy) if slot is not None]
            prog.add_group((n + r,), 0, entries, reads=groups)
            # G and dG where g varies, for the check of g, then dy
            self.field = (None if prog.constant(groups[0]) is not None else 1, None, None, 0)
        if increment is None or self.stepper is not None:
            return
        prog, (dy1, groups1) = self.program, self.stage1
        stages = [(range(n), groups1)]  # per stage: the slots of its x, the groups declared at them

        def field(_, z):
            dy, groups = self._field_slots(prog, z.slots, chart, metric)
            stages.append((z.slots[:n], groups))
            return SlotVector(prog, dy)

        y, h = SlotVector(prog, range(n + r)), SlotVector(prog, [n + r])
        y1 = y + increment(field, h, y, SlotVector(prog, dy1), None, None)
        logged = [gs[0] for _, gs in stages] if self.field[0] else []
        if logged:
            points = [(s, [((i, m), 1)]) for i, (x, _) in enumerate(stages) for m, s in enumerate(x)]
            prog.add_group((len(stages), n), 0, points)
        groups = [g for _, gs in stages for g in gs]
        last = prog.add_group((n + r,), 0, [(s, [((k,), 1)]) for k, s in enumerate(y1.slots)], reads=groups)
        orders = [None] * (last + 1)
        for g in logged:
            orders[g] = 1
        if logged:
            orders[last - 1] = 0  # the points
        orders[len(self.field) - 1] = orders[last] = 0  # k1, y1
        # the stage log's record: x, G and dG of each stage in turn
        record = [s for (x, _), g in zip(stages, logged) for s in [*x, *_flat(prog, g, 0), *_flat(prog, g, 1)]]
        box = chart.domain.tolist() + [(-math.inf, math.inf)] * r
        loop = prog.compile(tuple(orders), [y1.slots, dy1] + ([record] if logged else []), box)
        layout = (len(stages), n, r) if logged else None
        self.stepper = tuple(orders), loop, STAGE_LOG_RECORDS // len(stages), layout

    def _field_slots(self, prog, z, chart, metric):
        """The geodesic field at the state slots z of `prog`, the n slots of
        x then the r of mu.  Declares at x the groups G (order 1), B and C
        (order 0), G first, whatever is constant, and returns from their
        slots the slots of dy = (B^T mu, g^-1 F) (None: zero) and the
        groups.  With

            F_l = -(d_v g mu)_l + 1/2 b^{lu} mu^T d_u g mu + C_{mu l}^u (g mu)_u

        and v = B^T mu: -Gamma(mu, mu) = g^-1 F, as Q(mu, mu, .) = 0 for C
        antisymmetric.  With P[a, b, c] = b^{au} d_u g_{bc} and
        Q[a, b, c] = C_{ab}^u g_{uc}, F = sum_{i<=j} mu_i mu_j K^{ij} with

            K^{ij}_l = P_{lij} + Q_{ilj} + Q_{jli} - (P_{ilj} + P_{jli})  (i < j)
            K^{ii}_l = 1/2 P_{lii} + Q_{ili} - P_{ili}.

        F is solved against g in the program (`_solve`).  Every op goes
        through the program's folding rule, so the constants of b, C and g
        fold where the program is built, coefficients that cancel (the
        symmetrized Gamma of a bi-invariant metric) are exact zeros and
        their terms are left out, and a unit pivot divides nothing."""
        n, r = chart.n, chart.r
        R = range(r)
        x, mu = z[:n], z[n:]
        # G declared first: its domain checks run first
        g, b, c = groups = [metric._declare(prog, 1, at=x), *chart._declare(prog, 0, at=x)]
        G, dG, B, C = prog.slots(g), prog.slots(g, 1), prog.slots(b), prog.slots(c)
        op, add, sub, mul = prog.op, operator.add, operator.sub, operator.mul

        def total(*slots):  # the sum of the slots that are not None
            acc = None
            for s in slots:
                if s is not None:
                    acc = op(add, acc, s)
            return acc

        def dot(u, v):  # sum_k u_k v_k over the terms with no factor None
            acc = None
            for a, b in zip(u, v):
                if a is not None and b is not None:
                    acc = op(add, acc, op(mul, a, b))
            return acc

        some = lambda row: any(s is not None for s in row)
        zero = [[None] * r for _ in R]
        P = [[[dot(B[a], dG[b][c]) for c in R] for b in R] if some(B[a]) else zero for a in R]
        columns = list(zip(*G))
        Q = [[[dot(C[a][b], columns[c]) for c in R] if some(C[a][b]) else zero[0] for b in R] for a in R]
        K, half = {}, prog.const(0.5)
        for i, j in itertools.combinations_with_replacement(R, 2):
            if i == j:
                K[i, j] = [op(sub, total(op(mul, half, P[l][i][i]), Q[i][l][i]), P[i][l][i]) for l in R]
            else:
                K[i, j] = [
                    op(sub, total(P[l][i][j], Q[i][l][j], Q[j][l][i]), total(P[i][l][j], P[j][l][i]))
                    for l in R
                ]
        mumu = [op(mul, mu[i], mu[j]) for i, j in K]
        dx = [dot(mu, [row[m] for row in B]) for m in range(n)]
        F = [dot(mumu, [Kij[k] for Kij in K.values()]) for k in R]
        return dx + _solve(prog, G, F), groups

    def _koszul(self, base, B, C, G, dG):
        r = G.shape[-1]
        S = None
        if dG is not None and self.anchor:
            P = (B @ dG.reshape(base + (r * r, -1)).swapaxes(-1, -2)).reshape(base + (r, r, r))
            S = (P + P.swapaxes(-3, -2)) - _perm(P, 1, 2, 0)
        if self.bracket:
            Q = C @ G[..., None, :, :]
            tc = (Q + _perm(Q, 1, 2, 0)) + Q.swapaxes(-3, -1)
            S = tc if S is None else S + tc
        return np.zeros(base + (r, r, r)) if S is None else S

    def _dgamma(self, ch):
        """dGamma at the points of the record `ch`, from one program run."""
        x, dG, B, C, G = ch._x, ch._dG, ch.B, ch.C, ch.G
        base, r, n = x.shape[:-1], G.shape[-1], x.shape[-1]
        (ob, oc), og = self.orders[1]
        dB = dC = d2G = None
        if self.G is None:
            [(_, _, d2G)] = self.metric.run(x, og)
            _finite(MetricError, "metric derivative", d2G, x)
        if ob is not None or oc is not None:
            (_, dB, _), (_, dC, _) = self.chart.run(x, (ob, oc))
        # dP[a, b, c, m] = d_m P[a, b, c], dQ likewise
        dS = None
        if dG is not None and self.anchor:
            dP = None
            if d2G is not None:
                dP = _perm(B[..., None, None, :, :] @ d2G, 2, 0, 1, 3)
            if dB is not None:
                BdG = (dG.reshape(base + (1, r * r, n)) @ dB).reshape(base + (r, r, r, n))
                dP = BdG if dP is None else BdG + dP
            if dP is not None:
                dS = (dP + dP.swapaxes(-4, -3)) - _perm(dP, 1, 2, 0, 3)
        if self.bracket:
            dQ = None
            if dC is not None:
                dQ = (dC.swapaxes(-1, -2) @ G[..., None, None, :, :]).swapaxes(-1, -2)
            if dG is not None:
                CdG = (C @ dG.reshape(base + (1, r, r * n))).reshape(base + (r, r, r, n))
                dQ = CdG if dQ is None else dQ + CdG
            if dQ is not None:
                tc = (dQ + _perm(dQ, 1, 2, 0, 3)) + dQ.swapaxes(-4, -2)
                dS = tc if dS is None else dS + tc
        if dS is None:
            return np.broadcast_to(self.dgamma, base + self.dgamma.shape) if base else self.dgamma
        Gi = ch._Gi
        dgamma = (dS.swapaxes(-1, -2) @ Gi[..., None, None, :, :]).swapaxes(-1, -2)
        if dG is not None:
            S = ch._S
            dGm = _perm(dG, 2, 0, 1)  # dGm[m, a, b] = d_m g_{ab}
            dGi = -(Gi[..., None, :, :] @ dGm @ Gi[..., None, :, :])
            SdGi = S.reshape(base + (1, r * r, r)) @ dGi
            dgamma = dgamma + _perm(SdGi.reshape(base + (n, r, r, r)), 1, 2, 3, 0)
        return 0.5 * dgamma


def _solve(prog, G, F):
    """The slots of g^-1 F for the slots of a symmetric G (r, r) and of F
    (r,) of a program: Gaussian elimination on the upper triangle of G
    without pivoting, which an SPD G needs none of, then back
    substitution.  Each division by a pivot checks it positive first, so a
    g that is not SPD raises EvalDomainError there and never divides by
    zero.  Through the folding rule the steps on constant entries run at
    build time: a constant pivot's check is settled there, a unit pivot
    divides nothing (an identity G leaves F as it is), and on a diagonal
    G the ops fold to F_l / g_ll, the bits of `np.linalg.solve`."""
    op, sub, mul, div = prog.op, operator.sub, operator.mul, operator.truediv
    r = len(F)
    A, b = [list(row) for row in G], list(F)
    pivot = lambda k: (f"pivot {k + 1} of the metric not positive", "g")
    for k in range(r):
        for i in range(k + 1, r):
            l = op(div, A[k][i], A[k][k], pivot(k))
            for j in range(i, r):
                A[i][j] = op(sub, A[i][j], op(mul, l, A[k][j]))
            b[i] = op(sub, b[i], op(mul, l, b[k]))
    z = [None] * r
    for k in reversed(range(r)):
        acc = b[k]
        for j in range(k + 1, r):
            acc = op(sub, acc, op(mul, A[k][j], z[j]))
        z[k] = op(div, acc, A[k][k], pivot(k))
    return z


def _flat(prog, group, level):
    """The slots of a level of a group of a program, its cells in C order."""
    return np.array(prog.slots(group, level), dtype=object).ravel().tolist()


def _cap(prog, group, order):
    """`order`, lowered below the first level of the group's partials that
    vanishes identically."""
    return next((k - 1 for k in range(1, order + 1) if prog.is_zero(group, k)), order)


def _perm(a, *axes):
    """View of `a` with its trailing len(axes) axes permuted by `axes`
    (as in np.transpose); leading batch axes stay in place."""
    lead = a.ndim - len(axes)
    return a.transpose(tuple(range(lead)) + tuple(lead + k for k in axes))


def christoffel(chart, metric, x) -> Christoffel:
    """The connection record at x: b, C and g, with the Levi-Civita
    coefficients, their exact space derivatives and the curvature made on
    request.

    Raises MetricError if g is not positive definite at a point of x, or
    its partials there are not finite.  An array of the record that no
    point changes is the evaluator's own read-only array at a single point,
    a read-only broadcast view on a batch.
    """
    return _evaluator(chart, metric).christoffel(x)


def _evaluator(chart, metric):
    """The connection evaluator of the pair, built on first use."""
    ev = metric._cache.get(chart)
    if ev is None:
        ev = metric._cache[chart] = _Connection(chart, metric)
    return ev


def _geodesic(chart, metric, increment=None):
    """The evaluator of the pair with its geodesic program built, for its
    `geodesic` method, dy = geodesic(y, keep) at states y (..., n + r), and,
    where `increment` (`paths._increment`) is given, its `steps` method,
    k = steps(ys, ds, hs, keep), which fills the node states ys and slopes
    ds (N, n + r) from ys[0] over a list of steps hs; keep comes from a
    `_stage_log` block.  Nothing is built where a
    constant g is not SPD, which both methods then raise at every call."""
    ev = _evaluator(chart, metric)
    if ev.spd:
        ev._build_geodesic(chart, metric, increment)
    return ev


def _quad(a, b, T):
    """sum_ij a_i b_j T[..., i, j, :] for fiber arrays a, b (..., r) and T
    (..., r, r, m): the outer product a b^T, flattened, times T with its
    (i, j) pair flattened, as one matmul over the batch axes (which
    broadcast)."""
    r = T.shape[-2]
    ab = a[..., :, None] * b[..., None, :]
    return (ab.reshape(ab.shape[:-2] + (1, r * r)) @ T.reshape(T.shape[:-3] + (r * r, -1)))[..., 0, :]


def _g_dot(u, G, w):
    """u^T G w over leading batch axes (which broadcast): u, w (..., r),
    G (..., r, r)."""
    return (u[..., None, :] @ G @ w[..., :, None])[..., 0, 0]


def covariant_derivative(chart, metric, f: SectionField, g: SectionField, x):
    """(D_f g)^u = sum_{s,t} f_s g_t Gamma_{st}^u + #(f)(g_u) at x."""
    fv, _ = f.eval_raw(x)
    gv, gg = g.eval_raw(x, order=1)
    ch = christoffel(chart, metric, x)
    push = fv[..., None, :] @ ch.B  # #(f) as a row, (..., 1, n)
    return _quad(fv, gv, ch.gamma) + (gg @ push.swapaxes(-1, -2))[..., 0]


def curvature(chart, metric, x):
    """R[i, j, k, l] at x, the `Christoffel.R` of the connection record there."""
    return christoffel(chart, metric, x).R


def fiber_inner(metric, x, u, v):
    """<u, v>_x for fiber vectors (batched on leading axes)."""
    G, _, _ = metric.eval(x)
    return np.einsum("...i,...ij,...j->...", u, G, v)


def koszul_rhs(chart, metric, x):
    """2 <D_{a_i} a_j, a_k> assembled directly from the six-term formula.

    Cross-check companion for `christoffel`: this route never forms the
    inverse metric, so the two sides share only the raw structure-function
    evaluations.
    """
    x = np.asarray(x, dtype=float)
    G, dG, _ = metric.eval(x, order=1)
    B, _ = chart.eval_anchor(x)
    C, _ = chart.eval_bracket(x)
    t = (
        np.einsum("...iu,...jku->...ijk", B, dG)
        + np.einsum("...ju,...iku->...ijk", B, dG)
        - np.einsum("...ku,...iju->...ijk", B, dG)
    )
    t = t + (
        np.einsum("...kiu,...uj->...ijk", C, G)
        + np.einsum("...kju,...ui->...ijk", C, G)
        + np.einsum("...iju,...uk->...ijk", C, G)
    )
    return t


def sectional_curvature(chart, metric, x, a, b):
    """K(a, b) = -<R(a,b)a, b> / (<a,a><b,b> - <a,b>^2) at x."""
    return _sectional_of(christoffel(chart, metric, x), a, b)


def _sectional_of(ch, a, b):
    """K(a, b) from the connection record `ch` at the pairs' point; a pair
    whose Gram determinant is at most GRAM_FLOOR <a,a><b,b> is rejected as
    dependent before R is formed."""
    G, a, b = ch.G, np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    aa, bb, ab = _g_dot(a, G, a), _g_dot(b, G, b), _g_dot(a, G, b)
    gram = aa * bb - ab * ab
    dependent = gram <= GRAM_FLOOR * aa * bb
    if np.any(dependent):
        first = np.argmax(dependent)  # flat index of the first dependent pair
        raise InputError(
            "sectional curvature of a (nearly) dependent pair (Gram determinant "
            f"{np.ravel(gram)[first]:.3e}, <a,a><b,b> = {np.ravel(aa * bb)[first]:.3e})"
        )
    rabab = np.einsum("...ijkl,...i,...j,...k,...lm,...m->...", ch.R, a, b, a, G, b)
    return -rabab / gram
