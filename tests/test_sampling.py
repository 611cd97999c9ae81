import numpy as np
import pytest

from algebroid import sampling
from algebroid.sampling import halton


def fresh_halton(count, dim, seed):
    """Scrambled Halton points with every digit permutation drawn anew."""
    out = np.empty((count, dim))
    start = 1 + (seed % 65_536)
    for d in range(dim):
        p = sampling._PRIMES[d]
        rng = np.random.RandomState((seed * 1_000_003 + d * 7919) % (2**32))
        perm = np.concatenate(([0], 1 + rng.permutation(p - 1)))
        i = np.arange(start, count + start, dtype=np.int64)
        value = np.zeros(count)
        scale = 1.0 / p
        while np.any(i > 0):
            value += perm[i % p] * scale
            i //= p
            scale /= p
        out[:, d] = value
    return out


@pytest.mark.parametrize("count,dim,seed", [(100, 5, 42), (7, 3, 0), (33, 12, 2**31 + 5)])
def test_points_are_bit_identical_to_fresh_permutations(count, dim, seed):
    for _ in range(2):  # the second call is served from the memo
        assert halton(count, dim, seed).tobytes() == fresh_halton(count, dim, seed).tobytes()


def test_memoized_permutations_are_read_only():
    perm = sampling._digit_permutation(5, 42, 2)
    assert perm is sampling._digit_permutation(5, 42, 2)
    with pytest.raises(ValueError):
        perm[1] = 0
    assert sorted(perm) == list(range(5)) and perm[0] == 0
