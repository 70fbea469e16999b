"""numpy's ``mean`` and linear ``percentile``, bit for bit, in pure Python.

Summaries fold FCTs and throughputs through :func:`mean` and
:func:`percentile_linear`, which perform exactly numpy's float operations in
exactly numpy's order, so a summary is byte-identical to one numpy would
compute, whether or not numpy is installed.
"""

from __future__ import annotations

import math
from typing import Sequence

__all__ = ["mean", "percentile_linear", "lerp"]


def _pairwise_sum(values: Sequence[float], start: int, count: int) -> float:
    """numpy's pairwise summation, bit for bit.

    Mirrors ``pairwise_sum_DOUBLE`` in numpy's umath loops (naive below 8
    elements, an 8-accumulator unrolled block up to 128, halved recursion on
    a multiple-of-8 boundary above) so a summary computed without numpy is
    byte-identical to one computed with it — the float additions happen in
    exactly the same order and association.
    """
    if count < 8:
        total = 0.0
        for index in range(start, start + count):
            total += values[index]
        return total
    if count <= 128:
        acc = [values[start + lane] for lane in range(8)]
        index = start + 8
        end = start + count - (count % 8)
        while index < end:
            for lane in range(8):
                acc[lane] += values[index + lane]
            index += 8
        total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) \
            + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
        for index in range(end, start + count):
            total += values[index]
        return total
    half = (count // 2) - ((count // 2) % 8)
    return _pairwise_sum(values, start, half) \
        + _pairwise_sum(values, start + half, count - half)


def mean(values: Sequence[float]) -> float:
    """``float(np.mean(values))``, bit for bit."""
    if not values:
        return float("nan")
    return _pairwise_sum(values, 0, len(values)) / len(values)


def lerp(a: float, b: float, t: float) -> float:
    """numpy's monotonic ``_lerp`` of ``a`` towards ``b`` by ``t``, bit for bit.

    ``a + (b - a) * t`` below ``t = 0.5``, and ``b - (b - a) * (1 - t)`` from
    there on, as numpy switches, so it interpolates in the same float
    operations.
    """
    if t >= 0.5:
        return b - (b - a) * (1.0 - t)
    return a + (b - a) * t


def percentile_linear(values: Sequence[float], percentile: float) -> float:
    """``float(np.percentile(values, q))`` (linear), bit for bit.

    Replicates numpy's virtual-index arithmetic and interpolates with
    :func:`lerp`.
    """
    if not values:
        return float("nan")
    ordered = sorted(values)
    virtual = (percentile / 100.0) * (len(ordered) - 1)
    below = math.floor(virtual)
    above = math.ceil(virtual)
    return lerp(ordered[below], ordered[above], virtual - below)
