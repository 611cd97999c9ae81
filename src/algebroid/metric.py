"""Fiber metrics and the Levi-Civita A-connection.

The connection coefficients follow the closed form

    Gamma_{ij}^k = 1/2 g^{kl} ( b^{iu} d_u g_{jl} + b^{ju} d_u g_{il}
                                - b^{lu} d_u g_{ij} )
                 + 1/2 g^{kl} ( C_{ij}^u g_{ul} + C_{li}^u g_{uj}
                                + C_{lj}^u g_{ui} )

with u running over base coordinates in the first bracket and over fiber
indices in the second.  The spatial derivative dGamma is obtained by
differentiating this expression with hyper-dual evaluations of g, b and C
(Hessians of g, gradients of b and C), never by finite differences, so the
curvature tensor downstream carries no step-size parameter.

Index conventions: ``gamma[i, j, k]`` is Gamma_{ij}^k (D_{a_i} a_j =
sum_k gamma[i,j,k] a_k); ``dgamma[i, j, k, m]`` is d Gamma_{ij}^k / d x_m;
``R[i, j, k, l]`` is the a_l component of R(a_i, a_j) a_k.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .charts import SectionField, _as_expression
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


class MetricError(ValueError):
    """Metric not symmetric positive definite where required."""


@dataclass(frozen=True, eq=False)
class MetricField:
    """Symmetric positive-definite fiber metric g_{ij}(x).

    Entries are stored for i <= j and mirrored, so g(x) is symmetric to
    the bit.  Positive definiteness is asserted lazily at every evaluation
    point (smallest eigenvalue above ``SPD_EIGENVALUE_FLOOR``).

    The fields are frozen, but the instance is not immutable: it carries a
    memo of the single-point Christoffel coefficients of every constant
    chart it has been paired with, keyed weakly by the chart object.
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
        object.__setattr__(self, "_cache", weakref.WeakKeyDictionary())

    @classmethod
    def identity(cls, r, n):
        return cls({(i, i): "1" for i in range(1, r + 1)}, r, n)

    @property
    def is_constant(self):
        return all(e.is_constant for e in self.entries.values())

    def eval(self, points, order=0, check_spd=True):
        """g (..., r, r), dg (..., r, r, n), d2g (..., r, r, n, n)."""
        points = np.asarray(points, dtype=float)
        base = points.shape[:-1]
        G = np.zeros(base + (self.r, self.r))
        dG = np.zeros(base + (self.r, self.r, self.n)) if order >= 1 else None
        d2G = (
            np.zeros(base + (self.r, self.r, self.n, self.n)) if order >= 2 else None
        )
        for (i, j), expr in self.entries.items():
            if expr.is_constant:
                G[..., i, j] = expr.root.value
                if i != j:
                    G[..., j, i] = expr.root.value
                continue
            t = expr.eval_raw(points, order=order)
            G[..., i, j] = t.v
            if i != j:
                G[..., j, i] = t.v
            if order >= 1:
                dG[..., i, j, :] = t.g
                if i != j:
                    dG[..., j, i, :] = t.g
            if order >= 2:
                d2G[..., i, j, :, :] = t.h
                if i != j:
                    d2G[..., j, i, :, :] = t.h
        if check_spd:
            self._require_spd(G, points)
        return G, dG, d2G

    def _require_spd(self, G, points):
        # Cholesky of G - floor*I succeeds iff the smallest eigenvalue
        # exceeds the floor; eigvalsh runs only on the failure path
        shifted = G - SPD_EIGENVALUE_FLOOR * np.eye(self.r)
        try:
            np.linalg.cholesky(shifted)
            return
        except np.linalg.LinAlgError:
            pass
        eig = np.linalg.eigvalsh(G)
        smallest = eig[..., 0]
        k = np.unravel_index(np.argmin(smallest), np.shape(smallest))
        bad = points[k] if points.ndim > 1 else points
        raise MetricError(
            f"metric not positive definite at x={bad} "
            f"(smallest eigenvalue {float(np.min(smallest)):.3e})"
        )

    def spd_margin(self, chart, samples=200, seed=42):
        """Smallest eigenvalue of g over sampled points of the chart box."""
        pts = sample_box(chart.domain, samples, seed)
        G, _, _ = self.eval(pts, order=0, check_spd=False)
        return float(np.min(np.linalg.eigvalsh(G)))


@dataclass
class Christoffel:
    """Connection coefficients at one point (or a batch of points)."""

    gamma: np.ndarray  # (..., r, r, r)
    dgamma: np.ndarray | None  # (..., r, r, r, n)


def christoffel(chart, metric, x, with_derivative=True) -> Christoffel:
    """Levi-Civita coefficients (and their exact space derivatives) at x."""
    memo = None
    if chart.is_constant and metric.is_constant:
        memo = metric._cache.setdefault(chart, {})
        hit = memo.get(bool(with_derivative))
        if hit is not None:
            gamma, dgamma = hit
            x = np.asarray(x, dtype=float)
            base = x.shape[:-1]
            gamma = np.broadcast_to(gamma, base + gamma.shape)
            if dgamma is not None:
                dgamma = np.broadcast_to(dgamma, base + dgamma.shape)
            return Christoffel(gamma, dgamma)

    x = np.asarray(x, dtype=float)
    order = 2 if with_derivative else 1
    G, dG, d2G = metric.eval(x, order=order)
    Gi = np.linalg.inv(G)
    B, dB = chart.eval_anchor(x, order=1 if with_derivative else 0)
    C, dC = chart.eval_bracket(x, order=1 if with_derivative else 0)

    t1 = np.einsum("...iu,...jlu->...ijl", B, dG)
    t2 = np.einsum("...ju,...ilu->...ijl", B, dG)
    t3 = np.einsum("...lu,...iju->...ijl", B, dG)
    tc = (
        np.einsum("...iju,...ul->...ijl", C, G)
        + np.einsum("...liu,...uj->...ijl", C, G)
        + np.einsum("...lju,...ui->...ijl", C, G)
    )
    S = t1 + t2 - t3 + tc
    gamma = 0.5 * np.einsum("...ijl,...lk->...ijk", S, Gi)

    dgamma = None
    if with_derivative:
        dS = (
            np.einsum("...ium,...jlu->...ijlm", dB, dG)
            + np.einsum("...iu,...jlum->...ijlm", B, d2G)
            + np.einsum("...jum,...ilu->...ijlm", dB, dG)
            + np.einsum("...ju,...ilum->...ijlm", B, d2G)
            - np.einsum("...lum,...iju->...ijlm", dB, dG)
            - np.einsum("...lu,...ijum->...ijlm", B, d2G)
            + np.einsum("...ijum,...ul->...ijlm", dC, G)
            + np.einsum("...iju,...ulm->...ijlm", C, dG)
            + np.einsum("...lium,...uj->...ijlm", dC, G)
            + np.einsum("...liu,...ujm->...ijlm", C, dG)
            + np.einsum("...ljum,...ui->...ijlm", dC, G)
            + np.einsum("...lju,...uim->...ijlm", C, dG)
        )
        dGi = -np.einsum("...la,...abm,...bk->...lkm", Gi, dG, Gi)
        dgamma = 0.5 * (
            np.einsum("...ijlm,...lk->...ijkm", dS, Gi)
            + np.einsum("...ijl,...lkm->...ijkm", S, dGi)
        )

    if memo is not None and x.shape == (chart.n,):
        memo[bool(with_derivative)] = (gamma, dgamma)
    return Christoffel(gamma, dgamma)


def covariant_derivative(chart, metric, f: SectionField, g: SectionField, x):
    """(D_f g)^u = sum_{s,t} f_s g_t Gamma_{st}^u + #(f)(g_u) at x."""
    x = np.asarray(x, dtype=float)
    fv, _ = f.eval_raw(x)
    gv, gg = g.eval_raw(x, order=1)
    B, _ = chart.eval_anchor(x)
    gamma = christoffel(chart, metric, x, with_derivative=False).gamma
    return np.einsum("...s,...t,...stu->...u", fv, gv, gamma) + np.einsum(
        "...s,...si,...ui->...u", fv, B, gg
    )


def curvature(chart, metric, x):
    """Components R[i, j, k, l] of R(a_i, a_j) a_k = sum_l R[i,j,k,l] a_l.

    Assembled from R(a,b)s = D_a D_b s - D_b D_a s - D_{[a,b]} s with the
    exact dGamma, no finite differences.
    """
    x = np.asarray(x, dtype=float)
    ch = christoffel(chart, metric, x, with_derivative=True)
    B, _ = chart.eval_anchor(x)
    C, _ = chart.eval_bracket(x)
    gamma, dgamma = ch.gamma, ch.dgamma
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


def sectional_curvature(chart, metric, x, a, b, gram_floor=1e-12):
    """K(a, b) = -<R(a,b)a, b> / (<a,a><b,b> - <a,b>^2)."""
    x = np.asarray(x, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    G, _, _ = metric.eval(x)
    aa = np.einsum("...i,...ij,...j->...", a, G, a)
    bb = np.einsum("...i,...ij,...j->...", b, G, b)
    ab = np.einsum("...i,...ij,...j->...", a, G, b)
    gram = aa * bb - ab * ab
    if np.any(gram <= gram_floor):
        raise ValueError(
            "sectional curvature of a (nearly) dependent pair "
            f"(Gram determinant {float(np.min(gram)):.3e})"
        )
    R = curvature(chart, metric, x)
    rabab = np.einsum("...ijkl,...i,...j,...k,...lm,...m->...", R, a, b, a, G, b)
    return -rabab / gram
