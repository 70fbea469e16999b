"""Optional numpy import, and bit-exact pure-Python stand-ins for two reductions.

Every module that can use numpy imports ``np`` from here and takes its
pure-Python path when it is ``None``: the array probe plane and its lowered
tables (``protocol``, ``simulator/probe_wave.py``, ``core/device_config.py``,
``core/analysis/crosscheck.py``, the sanitizer's shadow check) treat numpy
as a pure accelerator over a scalar oracle, while ``simulator/stats.py``,
``simulator/fluid.py`` and ``experiments/failure_recovery.py`` call
:func:`mean` / :func:`percentile_linear` so their summaries are
byte-identical with and without it.  Keeping the import in one place gives
tests a single monkeypatch point per consumer module and keeps the package
importable on interpreters without numpy (the ``[fast]`` extra in
``pyproject.toml`` is optional by design).
"""

from __future__ import annotations

import math
from typing import Sequence

try:  # pragma: no cover - exercised by the no-numpy CI job
    import numpy as np
except ImportError:  # pragma: no cover
    np = None  # type: ignore[assignment]

HAVE_NUMPY = np is not None

__all__ = ["np", "HAVE_NUMPY", "mean", "percentile_linear"]


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
    """``float(np.mean(values))`` with a bit-identical pure-Python fallback."""
    if not values:
        return float("nan")
    if np is not None:
        return float(np.mean(values))
    return _pairwise_sum(values, 0, len(values)) / len(values)


def percentile_linear(values: Sequence[float], percentile: float) -> float:
    """``float(np.percentile(values, q))`` (linear) with a bit-identical fallback.

    Replicates numpy's virtual-index arithmetic and its monotonic ``_lerp``
    (which switches to the ``b - (b - a) * (1 - t)`` form at ``t >= 0.5``) so
    the fallback interpolates in the same float operations.
    """
    if not values:
        return float("nan")
    if np is not None:
        return float(np.percentile(values, percentile))
    ordered = sorted(values)
    virtual = (percentile / 100.0) * (len(ordered) - 1)
    below = math.floor(virtual)
    above = math.ceil(virtual)
    a, b = ordered[below], ordered[above]
    t = virtual - below
    if t >= 0.5:
        return b - (b - a) * (1.0 - t)
    return a + (b - a) * t
