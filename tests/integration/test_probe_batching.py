"""Probe-plane batching: end-to-end equivalence and the k=32 fabric.

The batch lane is a pure heap-traffic optimization: with it force-disabled
(every probe delivery its own engine event — the pre-batching schedule) a
grid must produce byte-identical summaries.
"""

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.registry import (
    SCENARIOS,
    GridScenario,
    merge_scenario,
    run_scenario_coordinated,
    scenario_is_shardable,
)
from repro.experiments.runner import (
    LinkEvent,
    ScenarioSpec,
    TopologySpec,
    run_grid,
)
from repro.simulator import engine as engine_module

TINY = ExperimentConfig(workload_duration=1.5, run_duration=20.0, loads=(0.4,),
                        websearch_scale=0.05, cache_scale=0.2)


def tiny_specs(systems=("ecmp", "contra", "hula")):
    topology = TopologySpec("fattree", k=4, capacity=TINY.host_capacity,
                            oversubscription=TINY.oversubscription)
    return [
        ScenarioSpec(name=f"batching:{system}", system=system, topology=topology,
                     config=TINY, workload="web_search", load=0.4,
                     seed=TINY.seed, stop_after_completion=True)
        for system in systems
    ]


class TestBatchedVsUnbatchedEquivalence:
    @pytest.mark.parametrize("system", ["contra", "hula"])
    def test_grid_summaries_byte_identical_with_lane_disabled(self, system,
                                                              monkeypatch):
        specs = tiny_specs((system,))
        batched = run_grid(specs)
        monkeypatch.setattr(engine_module, "BATCH_LANE_DEFAULT", False)
        unbatched = run_grid(specs)
        assert [r.summary for r in batched] == [r.summary for r in unbatched]

    def test_failure_schedule_summaries_byte_identical(self, monkeypatch):
        # Failures exercise the per-probe epoch guard: a probe wave in flight
        # across a link failure must be lost identically either way.
        topology = TopologySpec("leafspine", k=4)
        spec = ScenarioSpec(
            name="batching:failure", system="contra", topology=topology,
            config=TINY, workload="web_search", load=0.4, seed=TINY.seed,
            events=(LinkEvent(5.0, "leaf0", "spine0", "fail"),
                    LinkEvent(12.0, "leaf0", "spine0", "recover")))
        batched = run_grid([spec])
        monkeypatch.setattr(engine_module, "BATCH_LANE_DEFAULT", False)
        unbatched = run_grid([spec])
        assert batched[0].summary == unbatched[0].summary
        assert batched[0].summary["failure_detections"] > 0


class TestFig11K32Registry:
    def test_scenario_registered_and_shardable(self):
        assert "fig11-k32" in SCENARIOS
        assert isinstance(SCENARIOS["fig11-k32"], GridScenario)
        assert scenario_is_shardable("fig11-k32")
        specs = SCENARIOS["fig11-k32"].build_specs(TINY)
        assert len(specs) == 6                       # 2 workloads x 1 load x 3 systems
        assert all(spec.topology.k == 32 for spec in specs)


K32_MICRO = ExperimentConfig(workload_duration=0.2, run_duration=3.0,
                             loads=(0.2,), websearch_scale=0.02,
                             cache_scale=0.05, probe_period=2.048,
                             flowlet_timeout=4.0, warmup=2.2)


@pytest.mark.slow
class TestFig11K32Point:
    def test_contra_point_completes_via_shard(self, tmp_path):
        """One Contra point of the 1280-switch / 8192-host fabric end to end.

        Sharding by spec index puts the web-search Contra point alone in
        shard 1/6, so the test runs exactly the grid point that exercises the
        batched probe plane at k=32 — completing it at all is what the
        engine-level wins unlock (a full-fidelity sweep remains a multi-shard
        job by design).
        """
        drained = run_scenario_coordinated("fig11-k32", K32_MICRO, tmp_path,
                                           shard=(1, 6))
        assert drained.total_points == 1
        assert [worker["executed"] for worker in drained.workers] == [1]
        store_files = list(tmp_path.glob("results-*.jsonl"))
        assert len(store_files) == 1
        with pytest.raises(Exception, match="missing"):
            merge_scenario("fig11-k32", K32_MICRO, tmp_path)  # 5 shards to go
