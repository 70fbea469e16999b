"""Ablation benchmarks for the design choices DESIGN.md calls out.

Not figures from the paper, but each corresponds to a refinement of §5:
probe period (§5.2), flowlet timeout (§5.3), versioned probes (§5.1) and the
compiler's tag minimisation (§6.1).
"""

from __future__ import annotations

import pytest

from repro.experiments import report
from repro.experiments.ablations import (
    flowlet_timeout_specs,
    probe_period_specs,
    run_tag_minimization_ablation,
    to_ablation_points,
    versioning_specs,
)
from repro.experiments.runner import run_grid

from conftest import run_once


@pytest.mark.benchmark(group="ablations")
def test_probe_period_ablation(benchmark, experiment_config):
    specs = probe_period_specs(experiment_config, periods=(0.128, 0.256, 1.024))
    points = to_ablation_points(specs, run_once(benchmark, run_grid, specs))["probe_period"]
    print()
    print(report.format_ablation(points, "Probe period ablation (§5.2)"))
    assert all(p.completed > 0 for p in points)
    by_period = {p.value: p for p in points}
    # Longer probe periods send fewer probes, hence lower control overhead.
    assert by_period[1.024].overhead_ratio < by_period[0.128].overhead_ratio


@pytest.mark.benchmark(group="ablations")
def test_flowlet_timeout_ablation(benchmark, experiment_config):
    specs = flowlet_timeout_specs(experiment_config, timeouts=(0.05, 0.2, 1.6))
    points = to_ablation_points(specs,
                                run_once(benchmark, run_grid, specs))["flowlet_timeout"]
    print()
    print(report.format_ablation(points, "Flowlet timeout ablation (§5.3)"))
    assert all(p.completed > 0 for p in points)


@pytest.mark.benchmark(group="ablations")
def test_versioning_ablation(benchmark, experiment_config):
    specs = versioning_specs(experiment_config)
    points = to_ablation_points(specs, run_once(benchmark, run_grid, specs))["versioning"]
    print()
    print(report.format_ablation(points, "Versioned vs unversioned probes (§5.1)"))
    assert {p.value for p in points} == {0.0, 1.0}
    versioned = next(p for p in points if p.value == 1.0)
    unversioned = next(p for p in points if p.value == 0.0)
    assert versioned.completed / versioned.flows > 0.9
    # The unversioned variant never delivers *more* traffic than the versioned
    # protocol; loops/stale entries can only hurt it.
    assert unversioned.completed <= versioned.completed + 2


@pytest.mark.benchmark(group="ablations")
def test_tag_minimization_ablation(benchmark):
    points = run_once(benchmark, run_tag_minimization_ablation)
    print()
    rows = [(p.minimize_tags, p.pg_nodes, p.max_tags_per_switch,
             round(p.max_state_kb, 2), round(p.compile_time_s, 4)) for p in points]
    print(report.format_table(
        ("minimize_tags", "pg_nodes", "max_tags/switch", "state_kB", "compile_s"),
        rows, title="Tag minimisation ablation (§6.1 optimisation)"))
    for size_group in (points[:2], points[2:]):
        minimized = next(p for p in size_group if p.minimize_tags)
        raw = next(p for p in size_group if not p.minimize_tags)
        assert minimized.max_tags_per_switch <= raw.max_tags_per_switch
        assert minimized.max_state_kb <= raw.max_state_kb
