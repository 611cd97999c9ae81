"""Seeded quasi-random point sampling.

All sampling in the package goes through a scrambled Halton sequence but
one: the variation-check verb draws the frequencies of its commutation
test field from `np.random.RandomState(seed)`.  For a fixed (seed,
dimension) the points are a deterministic function of the index, so every
report is bit-reproducible.  The seed drives one digit permutation per
dimension (the zero digit stays fixed, keeping the radical inverse inside
[0, 1)).  `_finite` is the package's one rule that names a non-finite
array at sampled points (here, as this module imports only the error
bases from the package).
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import CheckFailure, InputError

__all__ = [
    "halton", "sample_box", "sample_fiber", "sample_states", "fit_to_box", "AnchorError",
    "DimensionError",
]

_PRIMES = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113,
]

BALL_SAMPLES = 32  # points per start when `fit_to_box` bounds the base speed
# most points of one draw: hamcheck, the costliest verb per sample, peaks
# near 1 GB there (about 1.9 KB a point on a rank-3 chart)
MAX_SAMPLES = 500_000


class AnchorError(CheckFailure, ValueError):
    """Anchor not finite where a bound needs it."""


class DimensionError(InputError):
    """More dimensions than the sampler has primes for."""


@functools.lru_cache(maxsize=1024)
def _digit_permutation(p, seed, dim):
    """Digit permutation of one (prime, seed, dimension), memoized: seeding
    a RandomState costs far more than the digits it draws.  The array is
    read-only so that no caller can change the memo."""
    rng = np.random.RandomState((seed * 1_000_003 + dim * 7919) % (2**32))
    perm = np.concatenate(([0], 1 + rng.permutation(p - 1)))
    perm.flags.writeable = False
    return perm


def halton(count, dim, seed=42):
    """`count` points in [0, 1)^dim, scrambled-Halton, deterministic.

    The seed both permutes digits per dimension and offsets the start
    index (small primes admit few digit permutations on their own).
    Raises DimensionError above 30 dimensions, and InputError above
    MAX_SAMPLES points.  The radical inverse of a
    dimension takes every digit of every index in one array step, the
    digit scales made by repeated division by p and summed from the
    lowest digit up.
    """
    if dim > len(_PRIMES):
        raise DimensionError(f"point sampling supports at most {len(_PRIMES)} dimensions, got {dim}")
    if count > MAX_SAMPLES:
        raise InputError(f"point sampling supports at most {MAX_SAMPLES} points, got {count}")
    out = np.empty((count, dim))
    start = 1 + (seed % 65_536)
    idx = np.arange(start, count + start, dtype=np.int64)[:, None]
    for d in range(dim):
        p = _PRIMES[d]
        powers, scales = [1], [1.0 / p]
        while powers[-1] * p <= start + count - 1:
            powers.append(powers[-1] * p)
            scales.append(scales[-1] / p)
        digits = _digit_permutation(p, seed, d)[idx // np.array(powers) % p]
        out[:, d] = np.cumsum(digits * np.array(scales), axis=1)[:, -1]
    return out


def sample_box(domain, count, seed=42, shrink=0.0):
    """Sample points inside a box given as an (n, 2) array of (lo, hi).

    `shrink` trims that fraction off each end of every interval, keeping
    trajectories started at the samples away from the boundary.
    """
    domain = np.asarray(domain, dtype=float)
    lo = domain[:, 0] + shrink * (domain[:, 1] - domain[:, 0])
    hi = domain[:, 1] - shrink * (domain[:, 1] - domain[:, 0])
    u = halton(count, domain.shape[0], seed)
    return lo + u * (hi - lo)


def sample_fiber(r, count, seed=42, scale=1.0):
    """Fiber coordinate samples in [-scale, scale]^r (offset Halton dims)."""
    u = halton(count, r, seed + 101)
    return scale * (2.0 * u - 1.0)


def sample_states(chart, count, seed=42):
    """Paired (base point, fiber vector) samples for a chart: base points in
    the box shrunk by a quarter at each end, fiber vectors in [-1, 1]^r."""
    xs = sample_box(chart.domain, count, seed, shrink=0.25)
    mus = sample_fiber(chart.r, count, seed)
    return xs, mus


def fit_to_box(chart, metric, xs, mus, span):
    """Factors (at most 1) that scale each fiber vector mus[k] so that the
    geodesic from (xs[k], mus[k]) cannot leave the box within a time `span`.

    Energy is conserved along a geodesic, so |mu|_g stays at its start
    value and the base speed |B^T mu| is at most K |mu|_g, with K^2 the
    largest eigenvalue of g^{-1} B B^T.  With K the largest value sampled
    over the sub-box of half-width rho (half the distance from x to the
    nearest face), the path cannot reach the sub-box border before
    rho / (K |mu|_g); the fiber vector is scaled down until that is at
    least `span`.  K is sampled, not bounded, so this is no proof.
    Raises AnchorError, naming the first such point, where b b^T is not
    finite (the anchor, or its square, overflows).
    """
    lo, hi = chart.domain[:, 0], chart.domain[:, 1]
    rho = 0.5 * np.min(np.minimum(xs - lo, hi - xs), axis=1)
    offsets = np.vstack([np.zeros(chart.n), 2.0 * halton(BALL_SAMPLES, chart.n) - 1.0])
    pts = xs[:, None, :] + rho[:, None, None] * offsets[None]
    B, _ = chart.eval_anchor(pts)
    G, _, _ = metric.eval(pts)
    BBt = _finite(AnchorError, "anchor product b b^T", np.einsum("...si,...ti->...st", B, B), pts)
    M = np.linalg.solve(G, BBt)
    K = np.max(np.sqrt(np.max(np.real(np.linalg.eigvals(M)), axis=-1)), axis=1)
    # offset row 0 is zero: g at the starts is the ball's first row
    norm = np.sqrt(np.einsum("ks,kst,kt->k", mus, G[:, 0], mus))
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.minimum(1.0, rho / (span * K * norm))
    return np.where(np.isnan(scale), 1.0, scale)


def _not_finite_at(values, points):
    """The first of the points (..., n), in C order, where `values` (None:
    not computed) has an entry that is not finite, or None."""
    if values is not None and not np.isfinite(values).all():
        return points[~np.isfinite(values.reshape(points.shape[:-1] + (-1,))).all(axis=-1)][0]


def _finite(error, name, values, points):
    """`values`, checked before any result is formed from it: raises `error`
    naming `name` and the first point where it is not finite."""
    x = _not_finite_at(values, points)
    if x is not None:
        raise error(f"{name} not finite at x={x}")
    return values
