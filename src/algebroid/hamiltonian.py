"""Poisson side of the geodesic flow.

The dual bundle carries the canonical Poisson structure; in coordinates
(x_1..x_n, xi_1..xi_r) its bivector has blocks

    {x_i, x_j} = 0,   {x_i, xi_s} = -b^{si}(x),
    {xi_s, xi_t} = sum_u C_{st}^u(x) xi_u.

The geodesic field is realized literally as the Hamiltonian field of the
energy E = 1/2 sum g^{ij} xi_i xi_j with respect to this bivector and then
pushed through the metric isomorphism to (x, mu) coordinates.  The route
uses only the raw metric/anchor/bracket evaluations; it never touches the
connection coefficients, which makes it an independent oracle for the
primal geodesic equations.

Points may carry leading batch axes, x (..., n) with xi or mu (..., r);
every row of a batch goes through the same operations as a single point,
so a batch returns bit for bit the rows a point-by-point loop would.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .charts import AVector

__all__ = [
    "DualPoint",
    "poisson_matrix",
    "hamiltonian_field",
    "euler_identity_residual",
]


@dataclass(frozen=True, eq=False)
class DualPoint:
    """A point of the dual bundle: base x with covector coordinates xi.

    Both may carry the same leading batch axes, x (..., n) and xi (..., r).
    """

    x: np.ndarray
    xi: np.ndarray

    def __init__(self, x, xi):
        object.__setattr__(self, "x", np.asarray(x, dtype=float))
        object.__setattr__(self, "xi", np.asarray(xi, dtype=float))


def poisson_matrix(chart, p: DualPoint):
    """The bivector matrix Pi[..., a, b] = {z_a, z_b} at p, (..., n+r, n+r)."""
    n, r = chart.n, chart.r
    B, _ = chart.eval_anchor(p.x)
    C, _ = chart.eval_bracket(p.x)
    pi = np.zeros(B.shape[:-2] + (n + r, n + r))
    pi[..., :n, n:] = -B.swapaxes(-1, -2)  # {x_i, xi_s} = -b^{si}
    pi[..., n:, :n] = B
    pi[..., n:, n:] = np.einsum("...stu,...u->...st", C, p.xi)
    return pi


def _matvec(M, v):
    """M @ v over matching leading batch axes: M (..., a, b), v (..., b)."""
    return (M @ v[..., None])[..., 0]


def _solve(M, v):
    """M^{-1} v over matching leading batch axes."""
    return np.linalg.solve(M, v[..., None])[..., 0]


def hamiltonian_field(chart, metric, v: AVector):
    """The geodesic field at v, computed on the dual side.

    v.x (..., n) and v.mu (..., r) may carry the same leading batch axes;
    returns (dx, dmu) with shapes (..., n) and (..., r).  dE is exact: the
    x-gradient of E = 1/2 xi^T g^{-1} xi uses d(g^{-1}) = -g^{-1} (dg) g^{-1}
    with dg from the metric's exact partials.  Every row of a batch is computed
    by the same operations as a single point, so it rounds the same way.
    """
    n = chart.n
    x = np.asarray(v.x, dtype=float)
    mu = np.asarray(v.mu, dtype=float)
    G, dG, _ = metric.eval(x, order=1)
    xi = _matvec(G, mu)
    p = DualPoint(x, xi)
    pi = poisson_matrix(chart, p)

    # gradient of E in (x, xi):  dE/dx_u = -1/2 mu^T (d_u g) mu,  dE/dxi = mu;
    # the double sum runs s-major in a plain loop, which rounds every row of
    # a batch alike (einsum's own order depends on the array layout)
    quad = 0.0
    for s in range(chart.r):
        for t in range(chart.r):
            quad = quad + mu[..., s, None] * dG[..., s, t, :] * mu[..., t, None]
    grad_E = np.concatenate([-0.5 * quad, mu], axis=-1)
    zdot = _matvec(pi.swapaxes(-1, -2), grad_E)
    dx, dxi = zdot[..., :n], zdot[..., n:]

    # push xi-dot through the isomorphism: mu = g^{-1} xi
    dGdt = np.einsum("...ijm,...m->...ij", dG, dx)
    dmu = _solve(G, dxi - _matvec(dGdt, mu))
    return dx, dmu


def euler_identity_residual(chart, metric, v: AVector):
    """Residual of the Liouville homogeneity of the geodesic field.

    The bracket identity of the Liouville field with the geodesic field
    forces degree 1 in mu on base components and degree 2 on fiber
    components; the residual compares the field at 2*mu against the scaled
    field.  One field evaluation covers v and 2v.  Returns a float for one
    point and one residual per row, shape (...), for v with leading batch
    axes.
    """
    x = np.asarray(v.x, dtype=float)
    mu = np.asarray(v.mu, dtype=float)
    dx, dmu = hamiltonian_field(chart, metric, AVector(np.stack([x, x]), np.stack([mu, 2.0 * mu])))
    res = np.maximum(
        np.max(np.abs(dx[1] - 2.0 * dx[0]), axis=-1),
        np.max(np.abs(dmu[1] - 4.0 * dmu[0]), axis=-1),
    )
    return float(res) if res.ndim == 0 else res
