"""Integration tests for the transport subsystem at the experiment layer.

Covers go-back-N under induced loss (link-drop schedule: retransmission
counts, eventual completion, goodput < throughput), the determinism contract
for the new goodput/retransmit summary fields (serial == parallel), the
``transport`` knob threading (spec override, config default, CLI flag), and
the ``transport-sensitivity`` / ``fig11-k8`` registry scenarios.
"""

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.fct import transport_sensitivity_specs
from repro.experiments.registry import SCENARIOS, run_scenario
from repro.experiments.runner import (
    LinkEvent,
    RunContext,
    ScenarioSpec,
    TopologySpec,
    run_grid,
)

TINY = ExperimentConfig(workload_duration=4.0, run_duration=30.0, loads=(0.6,),
                        websearch_scale=0.05, cache_scale=0.2)

#: Starved buffers + receiver-scoped overload: a reliable source of drops.
LOSSY = ExperimentConfig(workload_duration=4.0, run_duration=60.0, loads=(0.9,),
                         cache_scale=0.2, buffer_packets=20)

FATTREE = TopologySpec("fattree", k=4, capacity=TINY.host_capacity,
                       oversubscription=TINY.oversubscription)


def _summaries(results):
    return [(result.name, sorted(result.summary.items())) for result in results]


def lossy_incast_spec(transport, system="ecmp", **overrides):
    base = dict(name=f"lossy:{transport}:{system}", system=system,
                topology=FATTREE, config=LOSSY, workload="cache", load=0.9,
                seed=2, traffic="incast", incast_fanin=8, transport=transport,
                stop_after_completion=True)
    base.update(overrides)
    return ScenarioSpec(**base)


class TestGoBackNUnderLoss:
    def test_buffer_starved_incast_retransmits_and_completes(self):
        summary = RunContext().run(lossy_incast_spec("fixed")).summary
        assert summary["drops"] > 0
        assert summary["retransmissions"] > 0
        assert summary["completion_ratio"] == 1.0          # go-back-N recovers
        # The evaluation bugfix: duplicates inflate throughput, not goodput.
        assert summary["duplicate_deliveries"] > 0
        assert summary["goodput_bytes"] < summary["delivered_bytes"]

    def test_link_drop_schedule_forces_retransmissions(self):
        # A mid-run fail -> recover blip loses every in-flight packet on the
        # link; the flows must recover via retransmission and still complete.
        spec = ScenarioSpec(
            name="blip:fixed", system="ecmp", topology=FATTREE, config=TINY,
            workload="web_search", load=0.6, seed=1,
            events=(LinkEvent(3.0, "e0_0", "a0_0", "fail"),
                    LinkEvent(6.0, "e0_0", "a0_0", "recover")),
            run_duration=90.0, stop_after_completion=True)
        summary = RunContext().run(spec).summary
        assert summary["retransmissions"] > 0
        assert summary["completion_ratio"] == 1.0
        assert summary["goodput_bytes"] <= summary["delivered_bytes"]

    def test_goodput_never_exceeds_throughput_in_any_mode(self):
        context = RunContext()
        for transport in ("fixed", "slowstart", "paced"):
            summary = context.run(lossy_incast_spec(transport)).summary
            assert summary["goodput_bytes"] <= summary["delivered_bytes"]

    def test_lossy_summary_serial_matches_parallel(self):
        # The new goodput/retransmit/cwnd fields ride the same determinism
        # contract as every other summary value.
        specs = [lossy_incast_spec(t, name=f"det:{t}")
                 for t in ("fixed", "slowstart")]
        assert _summaries(run_grid(specs, processes=1)) == \
            _summaries(run_grid(specs, processes=2))


class TestTransportKnob:
    def test_default_spec_equals_explicit_fixed(self):
        context = RunContext()
        default = context.run(lossy_incast_spec(None, name="knob:default"))
        fixed = context.run(lossy_incast_spec("fixed", name="knob:fixed"))
        assert sorted(default.summary.items()) == sorted(fixed.summary.items())

    def test_config_transport_used_when_spec_silent(self):
        from dataclasses import replace
        context = RunContext()
        via_config = context.run(lossy_incast_spec(
            None, name="knob:cfg", config=replace(LOSSY, transport="slowstart")))
        via_spec = context.run(lossy_incast_spec("slowstart", name="knob:spec"))
        assert sorted(via_config.summary.items()) == sorted(via_spec.summary.items())

    def test_slowstart_changes_incast_tail(self):
        context = RunContext()
        fixed = context.run(lossy_incast_spec("fixed")).summary
        slowstart = context.run(lossy_incast_spec("slowstart")).summary
        assert slowstart["p99_fct_ms"] != fixed["p99_fct_ms"]

    def test_cli_run_grid_accepts_transport_flag(self, monkeypatch, capsys):
        from repro import cli
        captured = {}

        def fake_run_scenario(name, config, processes=None, flow_model=None):
            captured["transport"] = config.transport
            from repro.experiments.registry import ScenarioOutcome
            return ScenarioOutcome(name, "stub", {})

        monkeypatch.setattr(cli, "run_scenario", fake_run_scenario)
        assert cli.main(["run-grid", "fig13", "--transport", "slowstart"]) == 0
        assert captured["transport"] == "slowstart"

    def test_cli_rejects_transport_flag_on_sensitivity_scenario(self):
        # transport-sensitivity sweeps every mode; a per-run override would
        # be silently ignored, so the CLI refuses the combination.
        from repro import cli
        with pytest.raises(SystemExit, match="no effect"):
            cli.main(["run-grid", "transport-sensitivity",
                      "--transport", "paced"])

    def test_cli_rejects_unknown_transport(self):
        from repro import cli
        with pytest.raises(SystemExit):
            cli.main(["run-grid", "fig11", "--transport", "bongo"])


class TestTransportSensitivityScenario:
    def test_registered(self):
        assert {"transport-sensitivity", "fig11-k8"} <= set(SCENARIOS)

    def test_grid_covers_modes_and_systems(self):
        results = run_grid(transport_sensitivity_specs(TINY))
        assert len(results) == 3 * 2            # 3 transports x 2 systems
        names = {r.name for r in results}
        assert any(":fixed:" in n for n in names)
        assert any(":slowstart:" in n for n in names)
        assert any(":paced:" in n for n in names)
        for r in results:
            assert r.summary["goodput_bytes"] <= r.summary["delivered_bytes"]

    def test_scenario_runs_end_to_end_and_reports(self):
        outcome = run_scenario("transport-sensitivity", TINY)
        assert "transport" in outcome.text and "goodput_ratio" in outcome.text
        assert len(outcome.payload) == 3 * 2 * len(TINY.loads)
        for row in outcome.payload:
            assert "summary" in row and "goodput_bytes" in row["summary"]

    def test_scenario_serial_matches_parallel(self):
        specs = transport_sensitivity_specs(TINY)
        serial = run_grid(specs, processes=1)
        parallel = run_grid(specs, processes=2)
        assert _summaries(serial) == _summaries(parallel)


@pytest.mark.slow
class TestFig11K8:
    def test_fig11_k8_runs_on_larger_fabric(self):
        micro = ExperimentConfig(workload_duration=1.5, run_duration=20.0,
                                 loads=(0.4,), websearch_scale=0.05,
                                 cache_scale=0.2)
        outcome = run_scenario("fig11-k8", micro)
        assert "k=8" in outcome.text
        # 2 workloads x 1 load x 3 systems, every point completed flows.
        assert len(outcome.payload) == 6
        for row in outcome.payload:
            assert row["completed"] > 0
