"""Figure 12 — average FCT vs load on an asymmetric fat-tree (failed agg–core link).

The paper's shape: with one aggregation–core link down, ECMP keeps hashing
flows onto the missing capacity and suffers heavy loss beyond ~50% load, while
Contra and Hula route around the failure and degrade only mildly relative to
the symmetric topology.
"""

from __future__ import annotations

import pytest

from repro.experiments import report
from repro.experiments.fct import fattree_fct_specs, to_fct_points
from repro.experiments.runner import run_grid

from conftest import run_once


def _check_shape(points, workload):
    by_key = {(p.load, p.system): p for p in points if p.workload == workload}
    loads = sorted({load for load, _system in by_key})
    top = max(loads)
    ecmp, contra, hula = (by_key[(top, s)] for s in ("ecmp", "contra", "hula"))
    # ECMP keeps sending into the failed link: more drops, fewer completions.
    assert ecmp.drops > contra.drops
    assert contra.completed >= ecmp.completed
    assert hula.completed >= ecmp.completed
    # The adaptive systems still finish (almost) everything.
    assert contra.completed / contra.flows > 0.9
    assert hula.completed / hula.flows > 0.9


@pytest.mark.benchmark(group="fig12")
def test_fig12a_web_search_fct_asymmetric(benchmark, experiment_config):
    specs = fattree_fct_specs(experiment_config, workloads=("web_search",),
                              asymmetric=True)
    points = to_fct_points(run_once(benchmark, run_grid, specs))
    print()
    print(report.format_fct(points, "Figure 12a: asymmetric fat-tree, web search workload"))
    _check_shape(points, "web_search")


@pytest.mark.benchmark(group="fig12")
def test_fig12b_cache_fct_asymmetric(benchmark, experiment_config):
    specs = fattree_fct_specs(experiment_config, workloads=("cache",),
                              asymmetric=True)
    points = to_fct_points(run_once(benchmark, run_grid, specs))
    print()
    print(report.format_fct(points, "Figure 12b: asymmetric fat-tree, cache workload"))
    _check_shape(points, "cache")
