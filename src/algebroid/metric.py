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

`christoffel` (and through it `curvature` and every flow) runs on one
connection evaluator per (chart, metric) pair.  It is built on first use
and kept in the metric's ``_cache``, keyed weakly by the chart.  It
evaluates B, dB, C and dC on the chart's `~algebroid.expressions.Program`
and G, dG and d2G on the metric's: the programs that also serve
`eval_anchor`, `eval_bracket` and `MetricField.eval`, each built once.
It returns one `Christoffel` record of Gamma (and dGamma), B, C and G per
point set, so no caller evaluates b, C or g there again.  What it holds is
fixed by the pair, never by a point: which structure arrays vanish
identically (the programs' static sparsity), a constant B or C (taken from
its program template, never run), for a constant metric g, its inverse and
SPD verdict, and with a constant bracket as well, Gamma and dGamma.  A
non-constant metric is evaluated and SPD-checked at every point asked for.
`koszul_rhs` reads only the raw evaluations of g, b and C, so it stays an
independent check of the evaluator.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .charts import SectionField, _as_expression
from .expressions import Program
from .sampling import sample_box

__all__ = [
    "MetricField",
    "MetricError",
    "Christoffel",
    "christoffel",
    "covariant_derivative",
    "curvature",
    "sectional_curvature",
    "fiber_inner",
    "energy",
    "koszul_rhs",
]

SPD_EIGENVALUE_FLOOR = 1e-10
# smallest Gram determinant, relative to <a,a><b,b> (the squared sine of the
# angle), of a pair whose sectional curvature is asked for
GRAM_FLOOR = 1e-12


class MetricError(ValueError):
    """Metric not symmetric positive definite where required."""


@dataclass(frozen=True, eq=False)
class MetricField:
    """Symmetric positive-definite fiber metric g_{ij}(x).

    Entries are stored for i <= j and mirrored, so g(x) is symmetric to
    the bit.  Positive definiteness is asserted lazily at every evaluation
    point (smallest eigenvalue above ``SPD_EIGENVALUE_FLOOR``).  Evaluation
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
                raise MetricError(f"metric index {key} out of range for rank {r}")
            if i > j:
                raise MetricError(f"metric entry {key}: give the upper triangle only")
            table[(i - 1, j - 1)] = _as_expression(value, n)
        for i in range(r):
            if (i, i) not in table:
                raise MetricError(f"metric diagonal entry ({i + 1},{i + 1}) missing")
        object.__setattr__(self, "entries", table)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_shift", SPD_EIGENVALUE_FLOOR * np.eye(r))
        object.__setattr__(self, "_cache", weakref.WeakKeyDictionary())

    @classmethod
    def identity(cls, r, n):
        return cls({(i, i): "1" for i in range(1, r + 1)}, r, n)

    def _declare(self, prog):
        """Add the group G (order 2) to a program; returns its number."""
        places = lambda i, j: [((i, j), 1)] if i == j else [((i, j), 1), ((j, i), 1)]
        return prog.add_group(
            (self.r, self.r), 2, [(e, places(i, j)) for (i, j), e in self.entries.items()]
        )

    @property
    def is_constant(self):
        return Program.of(self).constant(0) is not None

    def eval(self, points, order=0):
        """g (..., r, r), dg (..., r, r, n), d2g (..., r, r, n, n)."""
        points = np.asarray(points, dtype=float)
        G, dG, d2G = Program.of(self).run(points, (order,))[0]
        if not _is_spd(G, self._shift):
            _raise_not_spd(G, points)
        return G, dG, d2G

    def spd_margin(self, chart, samples=200, seed=42):
        """Smallest eigenvalue of g over sampled points of the chart box."""
        pts = sample_box(chart.domain, samples, seed)
        [(G, _, _)] = Program.of(self).run(pts, (0,))
        return float(np.min(np.linalg.eigvalsh(G)))


def _is_spd(G, shift):
    """Whether every smallest eigenvalue of G exceeds the floor: exactly
    when the Cholesky factorization of G - floor*I (= G - shift) succeeds."""
    try:
        np.linalg.cholesky(G - shift)
    except np.linalg.LinAlgError:
        return False
    return True


def _raise_not_spd(G, points):
    # eigvalsh runs only on this failure path
    eig = np.linalg.eigvalsh(G)
    smallest = eig[..., 0]
    k = np.unravel_index(np.argmin(smallest), np.shape(smallest))
    bad = points[k] if points.ndim > 1 else points
    raise MetricError(
        f"metric not positive definite at x={bad} "
        f"(smallest eigenvalue {float(np.min(smallest)):.3e})"
    )


@dataclass
class Christoffel:
    """Gamma (dGamma if asked for) at some points, and the B, C, G it is formed from."""

    gamma: np.ndarray  # (..., r, r, r)
    dgamma: np.ndarray | None  # (..., r, r, r, n)
    B: np.ndarray  # (..., r, n)
    C: np.ndarray  # (..., r, r, r)
    G: np.ndarray  # (..., r, r)


class _Connection:
    """Levi-Civita coefficients of one (chart, metric) pair.

    Built on first use and kept in ``metric._cache``.  It runs the chart's
    program for B and C and the metric's for G, hands them back with Gamma
    in one `Christoffel`, and settles what does not depend on the point:

    * which structure arrays vanish identically (a constant metric has
      dG = d2G = 0, a constant anchor dB = 0, a constant bracket dC = 0,
      and B or C may be zero outright): they are not evaluated, and no
      term with such a factor is formed;
    * a constant anchor or bracket, read from its template and not run;
    * for a constant metric: g, its inverse and the SPD verdict; a negative
      verdict raises MetricError at every use, as an evaluation would;
    * for a constant metric and a constant bracket: Gamma and dGamma (with
      dg = 0 the anchor does not enter; a varying one runs at order 0).

    With Gamma_{ij}^k = 1/2 S_{ijl} g^{lk}, the six Koszul terms of S are
    axis permutations of two contractions, P[a, b, c] = b^{au} d_u g_{bc}
    and Q[a, b, c] = C_{ab}^u g_{uc}:

        S_{ijl} = P_{ijl} + P_{jil} - P_{lij} + Q_{ijl} + Q_{lij} + Q_{lji}

    and dS is the same combination of their derivatives dP and dQ.  No
    reference to the chart is kept: the cache must not keep its key alive.
    """

    def __init__(self, chart, metric):
        self.chart, self.metric = Program.of(chart), Program.of(metric)
        self._shift = metric._shift
        self.B, self.C = self.chart.constant(0), self.chart.constant(1)
        self.anchor, self.bracket = (not self.chart.is_zero(g) for g in (0, 1))
        self.Gi = self.gamma = self.dgamma = None
        self.held = {}  # per batch shape asked for: G, B, C, Gamma, dGamma as handed out (views)
        self.G = G = self.metric.constant(0)
        self.spd = G is None or _is_spd(G, self._shift)
        # per order k of Gamma's derivative, the orders to run B, C and G at
        cap = lambda g, k: None if (self.B, self.C)[g] is not None else _cap(self.chart, g, k)
        self.orders = [
            ((cap(0, k if G is None else 0), cap(1, k)), (_cap(self.metric, 0, k + 1),))
            for k in (0, 1)
        ]
        if G is not None and self.spd:
            self.Gi = np.linalg.inv(G)
            self.Gi.flags.writeable = False
            if self.C is not None:  # no chart run: B does not enter, as dG = 0
                self.gamma, self.dgamma = self._assemble(
                    chart.center(), True, None, None, self.C, None, G, self.Gi, None, None
                )
                self.gamma.flags.writeable = self.dgamma.flags.writeable = False

    def christoffel(self, x, with_derivative):
        x = np.asarray(x, dtype=float)
        base = x.shape[:-1]
        held = self.held.get(base)
        if held is None:
            held = self.held[base] = [
                a if a is None or not base else np.broadcast_to(a, base + a.shape)
                for a in (self.G, self.B, self.C, self.gamma, self.dgamma)
            ]
        G, B, C, gamma, dgamma = held
        (ob, oc), og = self.orders[with_derivative]
        Gi, dG, d2G, dB, dC = self.Gi, None, None, None, None
        if self.G is None:
            [(G, dG, d2G)] = self.metric.run(x, og)
            if not _is_spd(G, self._shift):
                _raise_not_spd(G, x)
            Gi = np.linalg.inv(G)
        elif not self.spd:
            _raise_not_spd(G, x)
        if ob is not None or oc is not None:
            (b, dB, _), (c, dC, _) = self.chart.run(x, (ob, oc))
            B, C = (B if b is None else b), (C if c is None else c)
        if gamma is None:
            gamma, dgamma = self._assemble(x, with_derivative, B, dB, C, dC, G, Gi, dG, d2G)
        return Christoffel(gamma, dgamma if with_derivative else None, B, C, G)

    def _assemble(self, x, with_derivative, B, dB, C, dC, G, Gi, dG, d2G):
        base, r, n = x.shape[:-1], G.shape[-1], x.shape[-1]

        S = dS = None
        use_anchor = dG is not None and self.anchor
        if use_anchor:
            P = (B @ dG.reshape(base + (r * r, n)).swapaxes(-1, -2)).reshape(
                base + (r, r, r)
            )
            S = (P + P.swapaxes(-3, -2)) - _perm(P, 1, 2, 0)
        if self.bracket:
            Q = C @ G[..., None, :, :]
            tc = (Q + _perm(Q, 1, 2, 0)) + Q.swapaxes(-3, -1)
            S = tc if S is None else S + tc
        if S is None:
            S = np.zeros(base + (r, r, r))
        gamma = 0.5 * (S @ Gi[..., None, :, :])
        if not with_derivative:
            return gamma, None

        # dP[a, b, c, m] = d_m P[a, b, c], dQ likewise
        if use_anchor:
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
            return gamma, np.zeros(base + (r, r, r, n))
        dgamma = (dS.swapaxes(-1, -2) @ Gi[..., None, None, :, :]).swapaxes(-1, -2)
        if dG is not None:
            dGm = _perm(dG, 2, 0, 1)  # dGm[m, a, b] = d_m g_{ab}
            dGi = -(Gi[..., None, :, :] @ dGm @ Gi[..., None, :, :])
            SdGi = S.reshape(base + (1, r * r, r)) @ dGi
            dgamma = dgamma + _perm(SdGi.reshape(base + (n, r, r, r)), 1, 2, 3, 0)
        return gamma, 0.5 * dgamma


def _cap(prog, group, order):
    """`order`, lowered below the first level of the group's partials that
    vanishes identically."""
    return next((k - 1 for k in range(1, order + 1) if prog.is_zero(group, k)), order)


def _perm(a, *axes):
    """View of `a` with its trailing len(axes) axes permuted by `axes`
    (as in np.transpose); leading batch axes stay in place."""
    lead = a.ndim - len(axes)
    return a.transpose(tuple(range(lead)) + tuple(lead + k for k in axes))


def christoffel(chart, metric, x, with_derivative=True) -> Christoffel:
    """Levi-Civita coefficients (and their exact space derivatives) at x.

    Raises MetricError if g is not positive definite at a point of x.  An
    array of the record that no point changes is the evaluator's own
    read-only array at a single point, a read-only broadcast view on a batch.
    """
    ev = metric._cache.get(chart)
    if ev is None:
        ev = metric._cache[chart] = _Connection(chart, metric)
    return ev.christoffel(x, with_derivative)


def covariant_derivative(chart, metric, f: SectionField, g: SectionField, x):
    """(D_f g)^u = sum_{s,t} f_s g_t Gamma_{st}^u + #(f)(g_u) at x."""
    fv, _ = f.eval_raw(x)
    gv, gg = g.eval_raw(x, order=1)
    ch = christoffel(chart, metric, x, with_derivative=False)
    return np.einsum("...s,...t,...stu->...u", fv, gv, ch.gamma) + np.einsum(
        "...s,...si,...ui->...u", fv, ch.B, gg
    )


def curvature(chart, metric, x):
    """Components R[i, j, k, l] of R(a_i, a_j) a_k = sum_l R[i,j,k,l] a_l.

    Assembled from R(a,b)s = D_a D_b s - D_b D_a s - D_{[a,b]} s with the
    exact dGamma, no finite differences.
    """
    return _curvature_of(christoffel(chart, metric, x, with_derivative=True))


def _curvature_of(ch):
    """R at the points of the connection record `ch`, which must carry
    dGamma: callers that need Gamma as well evaluate the connection once."""
    B, C, gamma, dgamma = ch.B, ch.C, ch.gamma, ch.dgamma
    return (
        np.einsum("...im,...jklm->...ijkl", B, dgamma)
        - np.einsum("...jm,...iklm->...ijkl", B, dgamma)
        + np.einsum("...jkm,...iml->...ijkl", gamma, gamma)
        - np.einsum("...ikm,...jml->...ijkl", gamma, gamma)
        - np.einsum("...ijm,...mkl->...ijkl", C, gamma)
    )


def fiber_inner(metric, x, u, v):
    """<u, v>_x for fiber vectors (batched on leading axes)."""
    G, _, _ = metric.eval(x)
    return np.einsum("...i,...ij,...j->...", u, G, v)


def energy(metric, x, mu):
    """E = 1/2 <mu, mu>_x, the energy of a fiber vector."""
    return 0.5 * fiber_inner(metric, x, mu, mu)


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
    ch = christoffel(chart, metric, x, with_derivative=True)
    return _sectional_of(ch.G, _curvature_of(ch), a, b)


def _sectional_of(G, R, a, b):
    """K(a, b) from the metric G and curvature R at the pairs' point; a pair
    whose Gram determinant is at most GRAM_FLOOR <a,a><b,b> is rejected as
    dependent."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    aa = np.einsum("...i,...ij,...j->...", a, G, a)
    bb = np.einsum("...i,...ij,...j->...", b, G, b)
    ab = np.einsum("...i,...ij,...j->...", a, G, b)
    gram = aa * bb - ab * ab
    dependent = gram <= GRAM_FLOOR * aa * bb
    if np.any(dependent):
        first = np.argmax(dependent)  # flat index of the first dependent pair
        raise ValueError(
            "sectional curvature of a (nearly) dependent pair (Gram determinant "
            f"{np.ravel(gram)[first]:.3e}, <a,a><b,b> = {np.ravel(aa * bb)[first]:.3e})"
        )
    rabab = np.einsum("...ijkl,...i,...j,...k,...lm,...m->...", R, a, b, a, G, b)
    return -rabab / gram
