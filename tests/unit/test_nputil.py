"""``repro.nputil``'s reductions are numpy's, bit for bit.

Every FCT and throughput summary folds through them, so a summary must not
change by one ulp against what ``np.mean`` / ``np.percentile`` compute —
including across the pairwise-summation block boundaries (8, 128) and past
numpy's 8 192-element buffer.
"""

import math
import random

import pytest

from repro.nputil import mean, percentile_linear

np = pytest.importorskip("numpy", exc_type=ImportError)

SIZES = (1, 2, 7, 8, 9, 127, 128, 129, 1_000, 8_191, 8_192, 8_193, 20_000)


def draws(count, seed):
    rng = random.Random(seed)
    return [rng.expovariate(0.3) * rng.choice((1e-3, 1.0, 1e3)) for _ in range(count)]


@pytest.mark.parametrize("count", SIZES)
def test_mean_is_numpys(count):
    values = draws(count, count)
    assert mean(values) == float(np.mean(values))


@pytest.mark.parametrize("count", SIZES)
def test_percentile_is_numpys(count):
    values = draws(count, count + 1)
    for q in (0, 1, 25, 50, 90, 99, 99.9, 100):
        assert percentile_linear(values, q) == float(np.percentile(values, q))


def test_midpoints_interpolate_from_the_upper_neighbour():
    """At ``t == 0.5`` numpy lerps from ``b`` down; lerping from ``a`` up
    changes the last bit on 86 of these 200 pairs."""
    for seed in range(200):
        values = draws(2, seed)
        assert percentile_linear(values, 50) == float(np.percentile(values, 50))


def test_empty_input_is_nan():
    assert math.isnan(mean([])) and math.isnan(percentile_linear([], 50))
