"""Figure 9 — compiler scalability: compilation time vs topology size.

The paper sweeps fat-trees (20–500 switches) and random networks (100–500
switches) under three policies (MU, WP, CA) and reports compile time in
seconds, growing roughly linearly and staying in single-digit seconds.
"""

from __future__ import annotations

import pytest

from repro.experiments import report
from repro.experiments.config import config_from_env, quick_config
from repro.experiments.scalability import run_scalability_sweep

from conftest import run_once

# The paper's five sizes under every preset but quick.
_FULL = config_from_env() != quick_config()
FATTREE_SIZES = (20, 125, 245, 405, 500) if _FULL else (20, 125, 245)
RANDOM_SIZES = (100, 200, 300, 400, 500) if _FULL else (100, 200, 300)


@pytest.mark.benchmark(group="fig09")
def test_fig09a_fattree_compile_time(benchmark):
    points = run_once(benchmark, run_scalability_sweep,
                      families=("fattree",), fattree_sizes=FATTREE_SIZES)
    print()
    print(report.format_scalability(points, title="Figure 9a: fat-tree compile time"))
    # Shape checks mirroring the paper: seconds-scale, growing with size,
    # regex policies costlier than MU.
    by_key = {(p.size, p.policy): p for p in points}
    largest = max(FATTREE_SIZES)
    smallest = min(FATTREE_SIZES)
    assert by_key[(largest, "MU")].compile_time_s < 30.0
    assert by_key[(largest, "MU")].compile_time_s > by_key[(smallest, "MU")].compile_time_s
    assert by_key[(largest, "WP")].compile_time_s >= by_key[(largest, "MU")].compile_time_s


@pytest.mark.benchmark(group="fig09")
def test_fig09b_random_network_compile_time(benchmark):
    points = run_once(benchmark, run_scalability_sweep,
                      families=("random",), random_sizes=RANDOM_SIZES)
    print()
    print(report.format_scalability(points, title="Figure 9b: random-network compile time"))
    by_key = {(p.size, p.policy): p for p in points}
    largest, smallest = max(RANDOM_SIZES), min(RANDOM_SIZES)
    assert by_key[(largest, "MU")].compile_time_s > by_key[(smallest, "MU")].compile_time_s
    assert all(p.compile_time_s < 60.0 for p in points)
