"""Figure 14 — aggregate throughput around a link failure (Contra and Hula).

The paper brings down an aggregation–core link under constant-rate UDP traffic
at t = 50 ms; Contra detects the failure after ~800 µs (its 3-probe-period
threshold) and restores the full rate within ~1 ms, with Hula behaving
similarly.  We print the throughput time-series around the failure plus the
measured dip/recovery delays for both systems.
"""

from __future__ import annotations

import math

import pytest

from repro.experiments import report
from repro.experiments.failure_recovery import (
    analyse_recovery_results,
    failure_recovery_specs,
)
from repro.experiments.runner import run_grid

from conftest import run_once

FAILURE_TIME = 25.0
RUN_DURATION = 45.0


@pytest.mark.benchmark(group="fig14")
def test_fig14_link_failure_recovery(benchmark, experiment_config):
    specs = failure_recovery_specs(experiment_config, failure_time=FAILURE_TIME,
                                   run_duration=RUN_DURATION)
    results = analyse_recovery_results(run_once(benchmark, run_grid, specs),
                                       failure_time=FAILURE_TIME)
    print()
    print(report.format_recovery(results))
    for name, result in results.items():
        window = [(t, r) for t, r in result.throughput
                  if FAILURE_TIME - 3 <= t <= FAILURE_TIME + 6]
        series = ", ".join(f"{t:.0f}ms={r:.0f}" for t, r in window)
        print(f"  {name} throughput around failure: {series}")

    assert set(results) == {"contra", "hula"}
    for result in results.values():
        assert result.baseline_rate > 0
        # Both systems notice the silent link via probe timeouts.
        assert result.failure_detections >= 1
        # Either the dip was too small to register, or recovery is fast
        # (the paper reports ~1 ms; we allow a few probe periods).
        if not math.isnan(result.dip_delay):
            assert result.recovered
            assert result.recovery_delay <= 5.0
        # Throughput at the end of the run is back at the pre-failure rate.
        tail = [rate for t, rate in result.throughput if t >= RUN_DURATION - 5]
        assert tail and sum(tail) / len(tail) >= 0.9 * result.baseline_rate
