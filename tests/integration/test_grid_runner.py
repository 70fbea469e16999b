"""Integration tests for the ScenarioSpec/RunContext/run_grid experiment layer.

The contract under test: a spec is pure picklable data, derived state is
cached per context, and a grid's results are byte-identical whether executed
serially, re-executed, or fanned across worker processes.
"""

import pickle
from dataclasses import replace

import pytest

from repro.exceptions import ExperimentError
from repro.experiments.config import ExperimentConfig
from repro.experiments.registry import SCENARIOS, GridScenario, run_scenario
from repro.experiments.runner import (
    RunContext,
    RunResult,
    ScenarioSpec,
    TopologySpec,
    resolve_processes,
    run_grid,
)

TINY = ExperimentConfig(workload_duration=4.0, run_duration=30.0, loads=(0.6,),
                        websearch_scale=0.05)


def tiny_specs(systems=("ecmp", "contra")):
    topology = TopologySpec("fattree", k=4, capacity=TINY.host_capacity,
                            oversubscription=TINY.oversubscription)
    return [
        ScenarioSpec(name=f"grid-test:{system}", system=system, topology=topology,
                     config=TINY, workload="web_search", load=0.6, seed=TINY.seed,
                     stop_after_completion=True)
        for system in systems
    ]


class TestScenarioSpec:
    def test_specs_pickle_roundtrip(self):
        for spec in tiny_specs():
            assert pickle.loads(pickle.dumps(spec)) == spec

    def test_unknown_topology_family_rejected(self):
        from repro.exceptions import ExperimentError
        with pytest.raises(ExperimentError):
            TopologySpec("moebius").build()

    def test_unknown_traffic_shape_rejected(self):
        from repro.exceptions import ExperimentError
        spec = tiny_specs()[0]
        bad = ScenarioSpec(**{**spec.__dict__, "traffic": "carrier-pigeon"})
        with pytest.raises(ExperimentError):
            RunContext().run(bad)


class TestRunContextCaching:
    def test_topology_and_compiled_policy_are_reused(self):
        context = RunContext()
        spec = tiny_specs(("contra",))[0]
        first_topology = context.topology(spec.topology)
        first_compiled = context.compiled_policy(spec.policy, spec.topology)
        assert context.topology(spec.topology) is first_topology
        assert context.compiled_policy(spec.policy, spec.topology) is first_compiled

    def test_workload_cache_shares_flows_across_systems(self):
        context = RunContext()
        ecmp_spec, contra_spec = tiny_specs()
        topology = context.topology(ecmp_spec.topology)
        assert context._flows(ecmp_spec, topology) is context._flows(contra_spec, topology)

    def test_context_holds_one_workload_at_a_time(self, monkeypatch):
        """Adjacent specs that share a workload generate it once, a new
        workload replaces the last, and neither changes a summary."""
        import repro.workloads.generator as generator
        generated = []
        draw = generator.generate_workload

        def counted(*args, **kwargs):
            generated.append(kwargs["seed"])
            return draw(*args, **kwargs)

        monkeypatch.setattr(generator, "generate_workload", counted)
        specs = [replace(spec, seed=seed, flow_model="fluid")
                 for seed in (1, 2, 3) for spec in tiny_specs()]
        context = RunContext()
        summaries = [context.run(spec).summary for spec in specs]
        assert generated == [1, 2, 3]
        assert len(context._workloads) == 1
        assert summaries == [RunContext().run(spec).summary for spec in specs]


class TestGridDeterminism:
    def _summaries(self, results):
        return [(result.name, sorted(result.summary.items())) for result in results]

    def test_rerun_is_byte_identical(self):
        first = run_grid(tiny_specs(), processes=1)
        second = run_grid(tiny_specs(), processes=1)
        assert self._summaries(first) == self._summaries(second)

    def test_parallel_matches_serial(self):
        serial = run_grid(tiny_specs(), processes=1)
        parallel = run_grid(tiny_specs(), processes=2)
        assert self._summaries(serial) == self._summaries(parallel)

    def test_results_preserve_spec_order(self):
        specs = tiny_specs(("contra", "ecmp", "hula"))
        results = run_grid(specs, processes=2)
        assert [result.name for result in results] == [spec.name for spec in specs]

    def test_same_seed_same_summary_two_contexts(self):
        spec = tiny_specs(("contra",))[0]
        first = RunContext().run(spec)
        second = RunContext().run(spec)
        assert sorted(first.summary.items()) == sorted(second.summary.items())


class TestResolveProcesses:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("CONTRA_PROCS", "7")
        assert resolve_processes(3, tasks=100) == 3

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("CONTRA_PROCS", "4")
        assert resolve_processes(None, tasks=100) == 4

    def test_serial_default_without_env(self, monkeypatch):
        monkeypatch.delenv("CONTRA_PROCS", raising=False)
        assert resolve_processes(None, tasks=100) == 1

    def test_capped_by_tasks(self):
        assert resolve_processes(16, tasks=3) == 3

    def test_zero_means_all_cores(self):
        import os
        assert resolve_processes(0, tasks=1000) == min(os.cpu_count() or 1, 1000)

    def test_negative_count_is_refused_not_read_as_all_cores(self, monkeypatch):
        with pytest.raises(ExperimentError, match="-3"):
            resolve_processes(-3, tasks=100)
        monkeypatch.setenv("CONTRA_PROCS", "-1")
        with pytest.raises(ExperimentError, match="-1"):
            resolve_processes(None, tasks=100)

    def test_non_integer_env_is_refused_not_read_as_serial(self, monkeypatch):
        monkeypatch.setenv("CONTRA_PROCS", "abc")
        with pytest.raises(ExperimentError, match="CONTRA_PROCS.*'abc'"):
            resolve_processes(None, tasks=100)

    def test_cli_surfaces_both_spellings_as_one_line_exit(self, monkeypatch):
        from repro import cli
        with pytest.raises(SystemExit, match="-3"):
            cli.main(["run-grid", "fig11", "--preset", "quick", "--processes", "-3"])
        monkeypatch.setenv("CONTRA_PROCS", "abc")
        with pytest.raises(SystemExit, match="CONTRA_PROCS"):
            cli.main(["run-grid", "fig11", "--preset", "quick"])


class TestScenarioRegistry:
    def test_names_cover_every_figure(self):
        assert {"fig9-10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
                "ablations"} <= set(SCENARIOS)

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError):
            run_scenario("fig99", TINY)

    def test_fig13_scenario_runs_end_to_end(self):
        outcome = run_scenario("fig13", TINY)
        assert "ecmp" in outcome.payload and "contra" in outcome.payload
        assert "p99" in outcome.text

    def test_ablations_is_one_grid_sliced_by_name_prefix(self):
        entry = SCENARIOS["ablations"]
        assert isinstance(entry, GridScenario)
        specs = entry.build_specs(TINY)
        assert len(specs) == 10
        summary = {"avg_fct_ms": 1.0, "loop_fraction": 0.0, "loop_detections": 0,
                   "overhead_ratio": 0.1, "completed_flows": 3, "flows": 3}
        results = [RunResult(spec.name, spec.system, spec.workload, spec.load,
                             spec.seed, summary) for spec in specs]
        payload = entry.finish(TINY, results).payload
        assert [p["value"] for p in payload["probe_period"]] == [0.128, 0.256, 0.512, 1.024]
        assert [p["value"] for p in payload["flowlet_timeout"]] == [0.05, 0.2, 0.8, 3.2]
        assert [(p["parameter"], p["value"]) for p in payload["versioning"]] == \
            [("use_versioning", 1.0), ("use_versioning", 0.0)]
