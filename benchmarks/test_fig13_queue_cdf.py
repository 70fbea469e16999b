"""Figure 13 — CDF of queue lengths, Contra vs ECMP (asymmetric fat-tree, 60% load).

The paper reports that Contra's queues never exceed the 1000-MSS buffer while
ECMP pushes queues past it (and into loss) more than 97% of the time it has
long queues.  We reproduce the comparison by sampling every link's queue on
each enqueue and printing the CDF points for both systems.
"""

from __future__ import annotations

import pytest

from repro.experiments import report
from repro.experiments.fct import queue_cdf_specs
from repro.experiments.runner import run_grid

from conftest import run_once


@pytest.mark.benchmark(group="fig13")
def test_fig13_queue_length_cdf(benchmark, experiment_config):
    results = run_once(benchmark, run_grid, queue_cdf_specs(experiment_config, load=0.6))
    cdfs = {result.system: result.queue_cdf for result in results}
    print()
    print(report.format_queue_cdf(cdfs))
    assert set(cdfs) == {"ecmp", "contra"}
    # Contra's tail queues are no longer than ECMP's at every reported point.
    for point in (0.9, 0.99, 1.0):
        assert cdfs["contra"][point] <= cdfs["ecmp"][point] + 1e-9
    # And its maximum stays within the configured buffer.
    assert cdfs["contra"][1.0] <= experiment_config.buffer_packets
