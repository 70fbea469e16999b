"""Figure 10 — switch state of the generated programs vs topology size.

The paper reports the per-switch memory of the synthesized P4 programs: WP and
CA need more state than MU (tags and per-pid tables respectively), and even at
500 switches no program needs more than ~70 kB — a tiny fraction of switch
SRAM.  We reproduce the same sweep using the compiler's state estimate.
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


@pytest.mark.benchmark(group="fig10")
def test_fig10a_fattree_switch_state(benchmark):
    points = run_once(benchmark, run_scalability_sweep,
                      families=("fattree",), fattree_sizes=FATTREE_SIZES)
    print()
    print(report.format_scalability(points, title="Figure 10a: fat-tree switch state (kB)"))
    by_key = {(p.size, p.policy): p for p in points}
    largest = max(FATTREE_SIZES)
    # Ordering: WP (regex tags) and CA (two probe ids) above MU.
    assert by_key[(largest, "WP")].max_state_kb > by_key[(largest, "MU")].max_state_kb
    assert by_key[(largest, "CA")].max_state_kb > by_key[(largest, "MU")].max_state_kb
    # Absolute scale stays far below switch SRAM (tens of MB).
    assert all(p.max_state_kb < 2048 for p in points)
    # State grows with topology size.
    assert by_key[(largest, "MU")].max_state_kb > by_key[(min(FATTREE_SIZES), "MU")].max_state_kb


@pytest.mark.benchmark(group="fig10")
def test_fig10b_random_network_switch_state(benchmark):
    points = run_once(benchmark, run_scalability_sweep,
                      families=("random",), random_sizes=RANDOM_SIZES)
    print()
    print(report.format_scalability(points, title="Figure 10b: random-network switch state (kB)"))
    by_key = {(p.size, p.policy): p for p in points}
    largest = max(RANDOM_SIZES)
    assert by_key[(largest, "WP")].max_state_kb > by_key[(largest, "MU")].max_state_kb
    assert all(p.max_state_kb < 2048 for p in points)
