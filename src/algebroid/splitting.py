"""Vertical/horizontal splitting and the submersion-type tensors.

At a point x the fiber splits as ker(#_x) + its g-orthogonal complement.
The kernel is computed from an SVD of the anchor matrix with a relative
rank threshold; both factors are then g-orthonormalized.  The two
fundamental tensors are evaluated pointwise from constant-coefficient
extensions of frame vectors,

    T_a b = (D_{a^v} b^v)^h + (D_{a^v} b^h)^v,
    H_a b = (D_{a^h} b^v)^h + (D_{a^h} b^h)^v,

which is well defined because both expressions are tensorial in a and b.
On top of the splitting sit the connector of the horizontal-lift
distribution, the induced leaf metric, the divergence of the geodesic
field (trace of the vertical adjoint plus the mean curvature pairing) and
the three submersion curvature identities.

The curvature identities are restricted to transitive charts (anchor rank
equals the base dimension) and to Lie-algebra charts (zero anchor);
mixed-rank charts would need leaf coordinates the chart does not carry.  The divergence formula itself is
pointwise and has no such restriction.

The split frame is the one place where the structure at a point is
evaluated: it holds the connection record (b, C, g; Gamma, dGamma and R
on request) next to its bases, and everything built on a frame reads
them from it.  Frames are built for many points at once: `_frames` makes
one connection call, one batched SVD and one g-Gram-Schmidt over an array
of points, grouping the frames by anchor rank (it may differ between
points); `split` is its one-point case.
`divergence_terms` and `divergence_fd_lie_algebra` take fiber vectors with
leading batch axes.  `oneill_tensors` applies T and H to all pairs of
frame vectors in one contraction of Gamma; both O'Neill checks take those
tensors, so one frame at a point serves all its identities (the mixed one
adds the frames at its 2n finite-difference points).

`horizontal_lift`, `connector` and `leaf_metric` each split at their
point, which also serves foliations.  Fiber contractions go through
`metric._quad` (Gamma(a, b), C(a, b)) and `metric._g_dot` (pairings).  The
independent routes keep their own code: `leaf_metric_matrix`, the closed
form (b^T g^-1 b)^-1 on transitive charts; `_classical_leaf_curvature`,
which differentiates it on one grid of points; `_vertical_algebra_curvature`
and `divergence_fd_lie_algebra`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .charts import AVector, BracketError
from .errors import CheckFailure
from .metric import Christoffel, _g_dot, _quad, _sectional_of, christoffel
from .paths import geodesic_rhs
from .sampling import AnchorError, _finite

__all__ = [
    "SplitFrame",
    "OneillTensors",
    "split",
    "oneill_tensors",
    "oneill_H_apply",
    "divergence_terms",
    "divergence_XE",
    "divergence_fd_lie_algebra",
    "horizontal_lift",
    "connector",
    "leaf_metric",
    "leaf_metric_matrix",
    "oneill_curvature_check",
    "oneill_identity_residuals",
]

RANK_RTOL = 1e-10
KERNEL_TOL = 1e-9
FD_STEP = 1e-5  # central first differences: the T field, the divergence oracle
LEAF_FD_STEP = 2e-3  # fourth-order differences of the leaf metric
# the keys of `oneill_identity_residuals` and `oneill_curvature_check`,
# in the order the CLI reports them
ONEILL_IDENTITIES = ("H_half_bracket", "H_horizontal_antisymmetry", "H_skew_adjoint",
                     "H_vertical_slot", "T_horizontal_slot", "T_skew_adjoint",
                     "T_vertical_D_part", "T_vertical_symmetry")
ONEILL_CURVATURE = ("curvature_vertical", "curvature_mixed", "curvature_horizontal")


class SplitError(CheckFailure, ValueError):
    """Raised when a requested operation is not defined for the chart/point."""


@dataclass(eq=False)
class SplitFrame:
    """The structure at x and g-orthonormal bases of ker(#_x) and of its
    g-orthogonal complement.

    `vertical` has shape (..., r - q, r), `horizontal` (..., q, r); rows are
    fiber vectors.  `connection` is the connection record at x; B, C, G and
    `gamma` read the anchor, bracket, metric and Christoffel arrays from it,
    and its Gamma and R are formed only when read.  A frame from `split` has no
    leading axes.  The frames of a batch (`_frames`) carry
    one leading axis over points of equal anchor rank, x (k, n) and
    `warning` a (k,) bool array among them.  `warning` flags a singular
    value within a factor 10 of the rank threshold (the rank may be
    unstable there).  The projections take fiber vectors (..., r) whose
    trailing batch axes match the frame's.
    """

    x: np.ndarray
    vertical: np.ndarray
    horizontal: np.ndarray
    connection: Christoffel
    warning: bool = False

    B = property(lambda self: self.connection.B)
    C = property(lambda self: self.connection.C)
    G = property(lambda self: self.connection.G)
    gamma = property(lambda self: self.connection.gamma)

    @property
    def q(self):
        return self.horizontal.shape[-2]

    @property
    def vertical_dim(self):
        return self.vertical.shape[-2]

    def _project(self, rows, mu):
        coef = rows @ (self.G @ np.asarray(mu, dtype=float)[..., None])
        return (coef.swapaxes(-1, -2) @ rows)[..., 0, :]

    def project_vertical(self, mu):
        return self._project(self.vertical, mu)

    def project_horizontal(self, mu):
        return self._project(self.horizontal, mu)


def _g_orthonormalize(rows, G):
    """Gram-Schmidt with respect to G over the rows of (..., k, r), in
    order; the rows must be linearly independent."""
    out = np.empty(rows.shape)
    for k in range(rows.shape[-2]):
        w = rows[..., k, :]
        for j in range(k):
            u = out[..., j, :]
            w = w - _g_dot(u, G, w)[..., None] * u
        out[..., k, :] = w / np.sqrt(_g_dot(w, G, w))[..., None]
    return out


def _frames(chart, metric, xs):
    """Split frames at the points xs (E, n), grouped by anchor rank.

    Returns a list of (rows, frame) pairs in increasing rank: `rows`
    indexes xs, and `frame` is a SplitFrame with a leading axis over those
    points, whose connection record holds those rows of one record over
    all of xs.  One batched SVD of the anchor gives each point its rank (the
    singular values above RANK_RTOL times the largest) and an orthonormal
    basis whose last r - q rows span the kernel.  One g-Gram-Schmidt over
    the kernel rows followed by the other rows then yields the vertical
    frame and, g-orthogonal to it, the horizontal frame at every point.
    Raises AnchorError or BracketError, naming the first point, where b or
    C is not finite.
    """
    xs = np.asarray(xs, dtype=float)
    ch = christoffel(chart, metric, xs)
    _finite(AnchorError, "anchor", ch.B, xs)
    _finite(BracketError, "bracket", ch.C, xs)
    _, sigma, Vt = np.linalg.svd(ch.B.swapaxes(-1, -2))
    thresh = RANK_RTOL * sigma[:, :1]  # 0 for a zero anchor, so rank 0
    q = (sigma > thresh).sum(axis=-1)
    warning = ((sigma > thresh / 10.0) & (sigma < thresh * 10.0)).any(axis=-1)
    r = chart.r
    kernel_first = (np.arange(r) + q[:, None]) % r
    basis = _g_orthonormalize(Vt[np.arange(len(xs))[:, None], kernel_first], ch.G)
    groups = []
    for rank in sorted(set(q.tolist())):
        rows = np.flatnonzero(q == rank)
        pick = slice(None) if len(rows) == len(xs) else rows
        p = r - rank
        frame = SplitFrame(xs[pick], basis[pick, :p], basis[pick, p:], ch._rows(pick), warning[pick])
        groups.append((rows, frame))
    return groups


def split(chart, metric, x) -> SplitFrame:
    """Pointwise orthogonal decomposition of the fiber at one point x."""
    x = np.asarray(x, dtype=float)
    [(_, f)] = _frames(chart, metric, x[None])
    return SplitFrame(x, f.vertical[0], f.horizontal[0], f.connection._rows(0), bool(f.warning[0]))


# ---------------------------------------------------------------------------
# O'Neill tensors
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class OneillTensors:
    """T and H at one point, on its split frame.

    Frame order is vertical rows first, then horizontal rows.  `TT[i, j]`
    and `HH[i, j]` are T_{E_i} E_j and H_{E_i} E_j in coordinates for the
    frame basis E; `T[i, j, k]` and `H[i, j, k]` are their k-th frame
    components.  The identity and curvature checks take these tensors and
    read everything else at the point from `frame`.
    """

    frame: SplitFrame
    T: np.ndarray
    H: np.ndarray
    TT: np.ndarray
    HH: np.ndarray


def _oneill_apply(frame, a, b, project_a):
    """(D_a' b^v)^h + (D_a' b^h)^v with a' = project_a(a), for fiber vectors
    a, b (..., r): T_a b when project_a is frame.project_vertical, H_a b
    when it is frame.project_horizontal."""
    a = project_a(a)
    bv = frame.project_vertical(b)
    bh = frame.project_horizontal(b)
    return frame.project_horizontal(_quad(a, bv, frame.gamma)) + frame.project_vertical(
        _quad(a, bh, frame.gamma)
    )


def oneill_H_apply(chart, metric, x, a, b):
    """H_a b for coordinate fiber vectors a, b (..., r) at one point x."""
    frame = split(chart, metric, x)
    return _oneill_apply(frame, a, b, frame.project_horizontal)


def oneill_tensors(chart, metric, x) -> OneillTensors:
    """T and H on the split frame at x, each applied to every pair of frame
    vectors in one batched contraction of Gamma."""
    frame = split(chart, metric, x)
    basis = np.vstack([frame.vertical, frame.horizontal])
    a, b = basis[:, None], basis[None]
    TT = _oneill_apply(frame, a, b, frame.project_vertical)
    HH = _oneill_apply(frame, a, b, frame.project_horizontal)

    def components(vectors):
        return (basis @ (frame.G @ vectors[..., None]))[..., 0]

    return OneillTensors(frame, components(TT), components(HH), TT, HH)


def _worst(values):
    return float(np.max(np.abs(values), initial=0.0))


def oneill_identity_residuals(tensors: OneillTensors):
    """Residuals of the algebraic identities of T and H at their point.

    Checked on the frame basis (extended bilinearly this covers all
    vectors), from T and H on all pairs of frame vectors.  Returns a dict
    name -> residual, keyed by ONEILL_IDENTITIES.
    """
    frame, TT, HH = tensors.frame, tensors.TT, tensors.HH
    G = frame.G
    p = frame.vertical_dim
    V, Hb = frame.vertical, frame.horizontal
    Tvv, Hhh = TT[:p, :p], HH[p:, p:]  # T_u v and H_h1 h2
    half_bracket = 0.5 * frame.project_vertical(_quad(Hb[:, None], Hb[None], frame.C))

    def pair(X, Y):
        """<X[i, j], Y[k]> over all (i, j, k)."""
        return _g_dot(X[:, :, None, :], G, Y[None, None, :, :])

    defects = (
        Hhh - half_bracket,
        Hhh + Hhh.swapaxes(0, 1),
        pair(Hhh, V) + pair(HH[p:, :p], Hb).swapaxes(1, 2),
        HH[:p],
        TT[p:],
        pair(Tvv, Hb) + pair(TT[:p, p:], V).swapaxes(1, 2),
        frame.project_horizontal(_quad(V[:, None], V[None], frame.gamma)) - Tvv,
        Tvv - Tvv.swapaxes(0, 1),
    )
    return dict(zip(ONEILL_IDENTITIES, map(_worst, defects)))


# ---------------------------------------------------------------------------
# Divergence of the geodesic field
# ---------------------------------------------------------------------------


def _flat_rows(chart, v: AVector):
    """Points and fiber vectors of v, which share their leading batch axes,
    as rows (E, n) and (E, r), and the leading shape they came from."""
    x = np.asarray(v.x, dtype=float)
    mu = np.asarray(v.mu, dtype=float)
    return x.reshape(-1, chart.n), mu.reshape(-1, chart.r), x.shape[:-1]


def _unflatten(values, base):
    return float(values[0]) if base == () else values.reshape(base)


def divergence_terms(chart, metric, v: AVector):
    """(trace term, mean-curvature term) of div X_E at v.

    The trace term is Tr of u -> [a^v, u] on the vertical space; the
    second is <a^h, N> with N the sum of T over an orthonormal vertical
    frame.  v.x (..., n) and v.mu (..., r) may carry leading batch axes:
    the terms are floats for one point and arrays of shape (...) for a
    batch, whose frames come from one batched split.  Constant extensions
    of kernel vectors have their bracket in the kernel again; this is
    asserted, and the SplitError raised is that of the lowest-index point
    that violates it, as a point-by-point loop would raise.
    """
    xs, mus, base = _flat_rows(chart, v)
    trace, mean_curv, _ = _divergence_rows(chart, metric, xs, mus)
    return _unflatten(trace, base), _unflatten(mean_curv, base)


def _divergence_rows(chart, metric, xs, mus):
    """The two terms of `divergence_terms` at the rows of xs (E, n) and mus
    (E, r), and the vertical dimension of the frame at each row."""
    trace = np.zeros(len(xs))
    mean_curv = np.zeros(len(xs))
    vertical_dim = np.zeros(len(xs), dtype=int)
    leak = np.full(len(xs), np.nan)  # anchor norm of the first kernel vector
    for rows, frame in _frames(chart, metric, xs):
        vertical_dim[rows] = frame.vertical_dim
        av = frame.project_vertical(mus[rows])
        ah = frame.project_horizontal(mus[rows])
        tr = 0.0
        N = np.zeros(ah.shape)
        for vk in np.moveaxis(frame.vertical, -2, 0):
            w = _quad(av, vk, frame.C)
            push = np.max(np.abs(np.einsum("...u,...ui->...i", w, frame.B)), axis=-1)
            first = (push > KERNEL_TOL) & np.isnan(leak[rows])
            leak[rows[first]] = push[first]
            tr = tr + _g_dot(w, frame.G, vk)
            N = N + _oneill_apply(frame, vk, vk, frame.project_vertical)
        trace[rows] = tr
        mean_curv[rows] = _g_dot(ah, frame.G, N)
    failed = np.flatnonzero(~np.isnan(leak))
    if len(failed):
        raise SplitError(
            "bracket of kernel vectors left the kernel "
            f"(anchor norm {leak[failed[0]]:.3e}); "
            "chart data violates the algebroid axioms here"
        )
    return trace, mean_curv, vertical_dim


def divergence_XE(chart, metric, v: AVector):
    """div X_E(v) with respect to the Sasaki metric (trace + pairing)."""
    tr, mc = divergence_terms(chart, metric, v)
    return tr + mc


def divergence_fd_lie_algebra(chart, metric, v: AVector):
    """Euclidean divergence of the fiber field of X_E by central differences.

    Valid for zero-anchor charts, where the Sasaki metric is the flat
    fiber metric and the base does not move; the step is FD_STEP.  v may
    carry leading batch axes; the 2r shifted fiber vectors of every point
    go through one batched `geodesic_rhs` call.  A float for one point,
    else shape (...).
    """
    if not chart.has_zero_anchor:
        raise SplitError("finite-difference divergence oracle needs a zero anchor")

    xs, mus, base = _flat_rows(chart, v)
    e = FD_STEP * np.eye(chart.r)  # row j shifts component j
    shifted = np.stack([mus[:, None, :] + e, mus[:, None, :] - e])  # (2, E, r, r)
    at = np.broadcast_to(xs[:, None, :], shifted.shape[:-1] + (chart.n,))
    _, dmu = geodesic_rhs(chart, metric, at, shifted)
    total = 0.0
    for j in range(chart.r):
        total = total + (dmu[0, :, j, j] - dmu[1, :, j, j]) / (2.0 * FD_STEP)
    return _unflatten(total, base)


# ---------------------------------------------------------------------------
# Connector, leaf metric
# ---------------------------------------------------------------------------


def horizontal_lift(chart, metric, x, u):
    """The horizontal fiber vector alpha with #(alpha) = u; errors if u is
    not tangent to the leaf at x."""
    frame = split(chart, metric, x)
    u = np.asarray(u, dtype=float)
    A = frame.B.T  # (n, r)
    if frame.q == 0:
        if np.max(np.abs(u), initial=0.0) > KERNEL_TOL:
            raise SplitError("nonzero base vector over a zero-anchor chart")
        return np.zeros(chart.r)
    M = A @ frame.horizontal.T  # (n, q)
    coef, *_ = np.linalg.lstsq(M, u, rcond=None)
    residual = float(np.max(np.abs(M @ coef - u), initial=0.0))
    if residual > KERNEL_TOL:
        raise SplitError(
            f"base vector not in the anchor image (residual {residual:.3e})"
        )
    return coef @ frame.horizontal


def connector(chart, metric, a: AVector, Z):
    """K(Z) for a tangent vector Z = (dx, dmu) at the fiber point a.

    K(Z)^l = Z^l + sum_{i,j} alpha_i mu_j Gamma_{ij}^l with alpha the
    horizontal lift of the base component of Z.
    """
    dx, dmu = Z
    alpha = horizontal_lift(chart, metric, a.x, dx)
    gamma = split(chart, metric, a.x).gamma
    return np.asarray(dmu, float) + _quad(alpha, np.asarray(a.mu, float), gamma)


def leaf_metric(chart, metric, x, u, v):
    """<u, v>_leaf: pull base vectors back through the restricted anchor."""
    lu, lv = (horizontal_lift(chart, metric, x, w) for w in (u, v))
    return float(_g_dot(lu, split(chart, metric, x).G, lv))


def leaf_metric_matrix(chart, metric, x):
    """Induced leaf metric (b^T g^-1 b)^-1 at x (..., n), shape (..., n, n).

    Horizontal lifts are the g-shortest anchor preimages, so b^T g^-1 b is
    the leaf cometric; no frame or lift is formed.  Every point must be
    transitive by the rank rule of `split` (n singular values of b above
    RANK_RTOL times the largest).
    """
    x = np.asarray(x, dtype=float)
    B, _ = chart.eval_anchor(x)  # (..., r, n)
    G, _, _ = metric.eval(x)
    sigma = np.linalg.svd(B, compute_uv=False)
    if np.any((sigma > RANK_RTOL * sigma[..., :1]).sum(axis=-1) != chart.n):
        raise SplitError("leaf metric matrix needs a transitive chart")
    return np.linalg.inv(B.swapaxes(-1, -2) @ np.linalg.solve(G, B))


# ---------------------------------------------------------------------------
# Submersion curvature identities
# ---------------------------------------------------------------------------


def _vertical_algebra_curvature(frame):
    """Sectional curvature of the kernel Lie algebra in its orthonormal frame.

    Constant Koszul product 2<Duv,w> = <[u,v],w> + <[w,u],v> + <[w,v],u>,
    then the algebraic curvature of that product.  Returns Khat[i, j].
    """
    V = frame.vertical
    c = np.einsum("is,jt,stu,ku->ijk", V, V, frame.C, V @ frame.G.T)
    # c[i,j,k] = <[v_i, v_j], v_k>; the frame is g-orthonormal
    gh = 0.5 * (c + np.einsum("kij->ijk", c) + np.einsum("kji->ijk", c))
    # gh[i,j,k] = coefficient of v_k in Dhat_{v_i} v_j
    Rhat = (
        np.einsum("jkm,iml->ijkl", gh, gh)
        - np.einsum("ikm,jml->ijkl", gh, gh)
        - np.einsum("ijm,mkl->ijkl", c, gh)
    )
    Khat = -np.einsum("ijij->ij", Rhat)
    np.fill_diagonal(Khat, 0.0)
    return Khat


# Fourth-order central differences on the offsets -2..2, row = order of the
# partial along one axis.  Integer weights difference a constant field to exactly
# zero; the divisor, 12 h^order per differenced axis, is applied after the sum.
_FD_WEIGHTS = np.array([[0, 0, 1, 0, 0], [1, -8, 0, 8, -1], [-1, 16, -30, 16, -1]])


def _classical_leaf_curvature(chart, metric, x):
    """Sectional curvature of the leaf metric at x, classical route: the
    function Kleaf(u, v) of base vectors u, v (P, n) tangent to the leaf.

    One `leaf_metric_matrix` call covers the grid x + h k, k in {-2..2}^n,
    h = LEAF_FD_STEP; fourth-order central differences on it (mixed: the
    product of two first-order stencils) feed the classical coordinate
    formulas for the leaf metric G0 and its curvature R.  Shares only raw
    b and g evaluations with the code above.
    """
    n = chart.n
    h = LEAF_FD_STEP
    k = np.stack(np.meshgrid(*[np.arange(-2, 3)] * n, indexing="ij"), axis=-1)
    GL = leaf_metric_matrix(chart, metric, np.asarray(x, float) + h * k)  # (5,)*n + (n, n)

    def partial(orders):
        W = functools.reduce(np.multiply.outer, [_FD_WEIGHTS[o] for o in orders])
        return np.tensordot(W, GL, axes=n) / np.prod([12.0 * h**o for o in orders if o])

    eye = np.eye(n, dtype=int)
    G0 = GL[(2,) * n]
    dG = np.stack([partial(e) for e in eye], axis=-1)  # dG[i,j,m]
    d2G = np.stack([np.stack([partial(a + b) for b in eye], -1) for a in eye], -2)
    Gi = np.linalg.inv(G0)
    dGi = -np.einsum("la,abm,bk->lkm", Gi, dG, Gi)
    # Gamma[i,j,k] = 1/2 G^{kl} (d_i G_{jl} + d_j G_{il} - d_l G_{ij})
    A = np.einsum("jli->ijl", dG) + np.einsum("ilj->ijl", dG) - dG
    dA = np.einsum("jlim->ijlm", d2G) + np.einsum("iljm->ijlm", d2G) - d2G
    Gam = 0.5 * np.einsum("ijl,lk->ijk", A, Gi)
    dGam = 0.5 * (
        np.einsum("ijlm,lk->ijkm", dA, Gi) + np.einsum("ijl,lkm->ijkm", A, dGi)
    )
    R = (
        np.einsum("jkli->ijkl", dGam)
        - np.einsum("iklj->ijkl", dGam)
        + np.einsum("jkm,iml->ijkl", Gam, Gam)
        - np.einsum("ikm,jml->ijkl", Gam, Gam)
    )

    def sectional(u, v):
        gram = _g_dot(u, G0, u) * _g_dot(v, G0, v) - _g_dot(u, G0, v) ** 2
        return -np.einsum("ijkl,pi,pj,pk,lm,pm->p", R, u, v, u, G0, v) / gram

    return sectional


def _covariant_T_derivative(chart, metric, frame, a, b, c):
    """((D_a T)_b c at the frame's point for fiber vectors a, b, c (P, r):
    the T field by central differences over the frames at x +- FD_STEP e_m
    (one `_frames` call for all 2n points, the P vectors on a leading
    axis), plus the connection terms at x."""
    n = chart.n
    gamma = frame.gamma
    base_dir = a @ frame.B
    steps = np.eye(n) * FD_STEP
    ys = np.concatenate([frame.x + steps, frame.x - steps])
    T_ys = np.empty((len(b), 2 * n, chart.r))
    for rows, f in _frames(chart, metric, ys):
        T_ys[:, rows] = _oneill_apply(f, b[:, None], c[:, None], f.project_vertical)
    dF = np.stack([(T_ys[:, m] - T_ys[:, n + m]) / (2 * FD_STEP) for m in range(n)], axis=-1)
    F0 = _oneill_apply(frame, b, c, frame.project_vertical)
    DaF = (dF @ base_dir[..., None])[..., 0] + _quad(a, F0, gamma)
    Dab = _quad(a, b, gamma)
    Dac = _quad(a, c, gamma)
    return (
        DaF
        - _oneill_apply(frame, Dab, c, frame.project_vertical)
        - _oneill_apply(frame, b, Dac, frame.project_vertical)
    )


def oneill_curvature_check(chart, metric, tensors: OneillTensors):
    """Residuals of the three curvature identities of the splitting at the
    point of `tensors`: a dict name -> residual, keyed by ONEILL_CURVATURE,
    with None where an identity does not apply.

    vertical pairs (needs >= 2 vertical directions):
        K(u,v) = Khat(u,v) + |T_u v|^2 - <T_u u, T_v v>
    mixed pairs (needs both factors):
        K(h,u) = <(D_h T)_u u, h> - |T_u h|^2 + |H_h u|^2
    horizontal pairs (needs a transitive chart with n >= 2):
        K(h1,h2) = Kleaf(#h1,#h2) - 3 |H_{h1} h2|^2

    T and H on frame pairs are read from the tensors and R from the frame's
    connection record (formed only where an identity applies); the pairs of
    each identity are evaluated together, the horizontal ones against one leaf R.
    """
    frame, TT, HH = tensors.frame, tensors.TT, tensors.HH
    G, ch = frame.G, frame.connection
    V, Hb = frame.vertical, frame.horizontal
    p, q = V.shape[0], Hb.shape[0]

    vertical_res = None
    if p >= 2:
        Khat = _vertical_algebra_curvature(frame)
        i, j = np.triu_indices(p, 1)
        K = _sectional_of(ch, V[i], V[j])
        Tuv, Tuu, Tvv = TT[i, j], TT[i, i], TT[j, j]
        rhs = Khat[i, j] + _g_dot(Tuv, G, Tuv) - _g_dot(Tuu, G, Tvv)
        vertical_res = _worst(K - rhs)

    mixed_res = None
    if p >= 1 and q >= 1:
        i, j = np.divmod(np.arange(q * p), p)  # (h, u) = (Hb[i], V[j]) pairs, h-major
        h, u = Hb[i], V[j]
        K = _sectional_of(ch, h, u)
        DT = _covariant_T_derivative(chart, metric, frame, h, u, u)
        Tuh, Hhu = TT[j, p + i], HH[p + i, j]
        rhs = _g_dot(DT, G, h) - _g_dot(Tuh, G, Tuh) + _g_dot(Hhu, G, Hhu)
        mixed_res = _worst(K - rhs)

    horizontal_res = None
    if q == chart.n and q >= 2:
        i, j = np.triu_indices(q, 1)
        h1, h2 = Hb[i], Hb[j]
        K = _sectional_of(ch, h1, h2)
        # the anchors of the pairs, tangent to the leaf
        Kleaf = _classical_leaf_curvature(chart, metric, frame.x)(h1 @ frame.B, h2 @ frame.B)
        H12 = HH[p + i, p + j]
        horizontal_res = _worst(K - (Kleaf - 3.0 * _g_dot(H12, G, H12)))

    return dict(zip(ONEILL_CURVATURE, (vertical_res, mixed_res, horizontal_res)))
