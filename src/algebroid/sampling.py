"""Seeded quasi-random point sampling.

All sampling in the package goes through a scrambled Halton sequence: for a
fixed (seed, dimension) the points are a deterministic function of the
index, so every report is bit-reproducible.  The seed drives one digit
permutation per dimension (the zero digit stays fixed, keeping the radical
inverse inside [0, 1)).
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["halton", "sample_box", "sample_fiber", "sample_states"]

_PRIMES = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113,
]


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
    """
    if dim > len(_PRIMES):
        raise ValueError(f"at most {len(_PRIMES)} dimensions supported")
    out = np.empty((count, dim))
    start = 1 + (seed % 65_536)
    idx = np.arange(start, count + start, dtype=np.int64)
    for d in range(dim):
        p = _PRIMES[d]
        perm = _digit_permutation(p, seed, d)
        i = idx.copy()
        value = np.zeros(count)
        scale = 1.0 / p
        while np.any(i > 0):
            value += perm[i % p] * scale
            i //= p
            scale /= p
        out[:, d] = value
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
