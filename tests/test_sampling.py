import numpy as np
import pytest

from algebroid import catalog, sampling
from algebroid.charts import AlgebroidChart, AVector
from algebroid.metric import MetricField
from algebroid.paths import geodesic_integrate
from algebroid.sampling import halton
from conftest import perfbench_workloads


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


@pytest.mark.parametrize("seed", [0, 1, 42, 65535, 70000])
def test_array_digits_match_the_digit_loop(seed):
    # `fresh_halton` is the digit-by-digit loop that `halton` replaced
    for count in (0, 1, 7, 200, 1000):
        for dim in (1, 2, 3, 5, 30):
            got, want = halton(count, dim, seed), fresh_halton(count, dim, seed)
            assert got.shape == want.shape == (count, dim)
            assert got.tobytes() == want.tobytes(), (count, dim)


def test_more_dimensions_than_primes_is_a_dimension_error():
    halton(3, 30)
    with pytest.raises(sampling.DimensionError, match="at most 30 dimensions, got 31"):
        halton(3, 31)


def test_memoized_permutations_are_read_only():
    perm = sampling._digit_permutation(5, 42, 2)
    assert perm is sampling._digit_permutation(5, 42, 2)
    with pytest.raises(ValueError):
        perm[1] = 0
    assert sorted(perm) == list(range(5)) and perm[0] == 0


@pytest.mark.parametrize("name", catalog.names() + ["twisted"])
def test_fit_to_box_keeps_the_geodesics_in_the_box(name, twisted_chart):
    if name == "twisted":
        chart, metric = twisted_chart, MetricField.identity(3, 2)
    else:
        chart, metric = catalog.get(name).chart, catalog.get(name).metric
    xs, mus = sampling.sample_states(chart, 8, seed=42)
    for span in (1.0, 2.5):
        scale = sampling.fit_to_box(chart, metric, xs, mus, span)
        assert np.all((0.0 < scale) & (scale <= 1.0))
        # the bound perfbench keeps its own copy of, without the pencil spread
        ref = perfbench_workloads().fit_to_box(chart, metric, xs, mus, span)
        assert scale.tobytes() == ref.tobytes()
        for x, mu in zip(xs, scale[:, None] * mus):
            geodesic_integrate(chart, metric, AVector(x, mu), (0.0, span), 1e-2)


def test_fit_to_box_names_an_overflowing_anchor():
    # b b^T overflows on the sub-box around the center, where x2 != 0
    chart = AlgebroidChart(n=2, r=2, b=[["1", "0"], ["0", "(x2 / 1e-6) * 1e150"]])
    metric = MetricField.identity(2, 2)
    xs, mus = chart.center()[None], np.ones((1, 2))
    with pytest.raises(sampling.AnchorError, match=r"anchor product b b\^T not finite at x=\["):
        sampling.fit_to_box(chart, metric, xs, mus, 1.0)
