"""Figure 15 — average FCT vs load on the Abilene topology.

Shortest-path routing vs Contra (MU) vs SPAIN with four fixed sender/receiver
pairs.  The paper's shape: static shortest paths perform worst once the shared
links congest, SPAIN's static multipath helps, and Contra's utilization-aware
routing does best.
"""

from __future__ import annotations

import math

import pytest

from repro.experiments import report
from repro.experiments.fct import abilene_fct_specs, to_fct_points
from repro.experiments.runner import run_grid

from conftest import run_once


def _check_shape(points, workload):
    by_key = {(p.load, p.system): p for p in points if p.workload == workload}
    loads = sorted({load for load, _system in by_key})
    for point in by_key.values():
        assert point.completed > 0
        assert not math.isnan(point.avg_fct_ms)
    top = max(loads)
    sp = by_key[(top, "shortest-path")]
    contra = by_key[(top, "contra")]
    # At the highest load Contra does not lose to static shortest paths.
    assert contra.avg_fct_ms <= sp.avg_fct_ms * 1.05


@pytest.mark.benchmark(group="fig15")
def test_fig15a_abilene_web_search(benchmark, experiment_config):
    config = experiment_config.scaled(1.0, loads=tuple(
        load for load in experiment_config.loads) + ((0.9,) if 0.9 not in experiment_config.loads else ()))
    specs = abilene_fct_specs(config, workloads=("web_search",))
    points = to_fct_points(run_once(benchmark, run_grid, specs))
    print()
    print(report.format_fct(points, "Figure 15a: Abilene, web search workload"))
    _check_shape(points, "web_search")


@pytest.mark.benchmark(group="fig15")
def test_fig15b_abilene_cache(benchmark, experiment_config):
    config = experiment_config.scaled(1.0, loads=tuple(
        load for load in experiment_config.loads) + ((0.9,) if 0.9 not in experiment_config.loads else ()))
    specs = abilene_fct_specs(config, workloads=("cache",))
    points = to_fct_points(run_once(benchmark, run_grid, specs))
    print()
    print(report.format_fct(points, "Figure 15b: Abilene, cache workload"))
    _check_shape(points, "cache")
