"""Transport sensitivity — transport mode × load on the asymmetric fat-tree.

Reruns the Figure 13 tail comparison (Contra vs ECMP under an asymmetric
failure) under every host transport mode (fixed window, slow start + AIMD +
fast retransmit, paced) so the sensitivity of the p99 tail — and of the
goodput/retransmit split — to the sender model is tracked alongside the
figure benchmarks.  Drops a ``BENCH_*.json`` wall-clock artifact like every
other benchmark, so ``benchmarks/bench_diff.py`` tracks its trajectory too.
"""

from __future__ import annotations

import pytest

from repro.experiments import report
from repro.experiments.fct import transport_sensitivity_specs
from repro.experiments.runner import run_grid

from conftest import run_once


@pytest.mark.benchmark(group="transport-sensitivity")
def test_transport_sensitivity(benchmark, experiment_config):
    results = run_once(benchmark, run_grid, transport_sensitivity_specs(experiment_config))
    print()
    print(report.format_transport(results))
    transports = {r.name.split(":")[1] for r in results}
    assert transports == {"fixed", "slowstart", "paced"}
    for r in results:
        # The evaluation-correctness invariant: goodput never exceeds raw
        # delivered throughput, in any mode, at any load.
        assert r.summary["goodput_bytes"] <= r.summary["delivered_bytes"] + 1e-9
        assert r.summary["completed_flows"] > 0
