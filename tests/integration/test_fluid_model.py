"""Integration tests for the fluid flow model (ARCHITECTURE.md §7).

Four contract families:

* **fidelity** — fluid FCTs must track the packet oracle on small fabrics
  where both planes can run the identical workload.  Stated tolerances: the
  two planes see the *same flow set* (below the streaming threshold the
  fluid plane uses the eager generator), completion ratios stay ≥ 0.9, and
  the fluid median/p99 FCT stays within a 3×/4× band of the packet one.
  The bands are deliberately loose — the fluid model has no queueing, so
  its tails are structurally different — but tight enough to catch a unit
  mix-up or a broken solver outright.
* **local == global** — the per-epoch locality fast paths (arrival
  certificate, region-local re-solve) must reproduce the full progressive
  filling solve to 1e-9 relative on every summary statistic for
  utilization-independent systems.  (hula/contra may bifurcate on float-ulp
  utilization ties, so they are covered by the invariant harness instead.)
* **max-min invariant** — after *every* epoch, the current group rates must
  equal the global weighted max-min allocation of the current groups.
* **sharding** — fluid grid points shard, resume and merge byte-identically,
  exactly like packet points.
"""

import math
import random

import pytest

from repro.baselines.ecmp import next_hop_table
from repro.exceptions import ExperimentError
from repro.experiments.config import ExperimentConfig
from repro.experiments.fluid_scale import (
    MILLION_CHURN_PERIOD,
    MILLION_FLOW_TARGET_QUICK,
    fluid_fidelity_specs,
    fluid_million_specs,
    to_fidelity_points,
)
from repro.experiments.registry import _with_flow_model, run_scenario
from repro.experiments.results import (
    ResultsStore,
    ShardedBackend,
    collect_results,
)
from repro.experiments.runner import (
    RunContext,
    ScenarioSpec,
    TopologySpec,
    default_failed_link,
    run_grid,
)
from repro.simulator.accumulators import HyperLogLog
from repro.simulator.fluid import (
    FluidSimulation,
    FluidStats,
    build_path_model,
    max_min_rates,
)
from repro.topology import fattree, leafspine
from repro.workloads import distribution_by_name, generate_workload

TINY = ExperimentConfig(workload_duration=1.5, run_duration=40.0, loads=(0.4,),
                        websearch_scale=0.05, cache_scale=0.2)


def small_workload(topology, load=0.6, duration=3.0, seed=2):
    return generate_workload(topology, distribution_by_name("web_search", 0.05),
                             load=load, duration=duration,
                             host_capacity=TINY.host_capacity, seed=seed).flows


def churned(simulation, topology):
    a, b = default_failed_link(topology)
    simulation.fail_link(a, b, at_time=1.0)
    simulation.recover_link(a, b, at_time=2.0)
    return simulation


# =============================================================================
# Fidelity oracle: fluid vs packet on fabrics both planes can run
# =============================================================================

class TestFluidVsPacketFidelity:
    @pytest.fixture(scope="class")
    def points(self):
        specs = [s for s in fluid_fidelity_specs(TINY) if s.load == 0.4]
        assert len(specs) == 8  # 2 fabrics x 2 systems x 2 planes
        return to_fidelity_points(run_grid(specs, processes=1))

    def test_both_planes_run_the_identical_flow_set(self, points, flow_identity):
        """Below the streaming threshold the fluid plane uses the same eager
        generator and seed as the packet plane, so the flow sets are equal —
        the comparison is paired, not merely distributionally matched.  And
        the set is *the* set: field for field and type for type what the
        eager generator drew before it went scalar (digests computed at that
        commit), on the default split and on Abilene's four pairs."""
        for point in points:
            assert point.fluid_flows == point.packet_flows > 0
        context = RunContext()
        identities = {}
        for spec in fluid_fidelity_specs(TINY):
            if spec.load != 0.4:
                continue
            topology = context.topology(spec.topology)
            flows = list(context._fluid_flows(spec, topology)
                         if spec.flow_model == "fluid"
                         else context._flows(spec, topology))
            identities.setdefault(spec.name.split(":")[1], set()).add(
                (len(flows), flow_identity(flows)))
        assert identities == {
            "fattree": {(20, "572fb25f6711f0215d88ed8a1df4d7df"
                             "2388658395f2e98e9a7e5abd5c193921")},
            "abilene": {(10, "91a7281f288359dfedb917c85022c4bc"
                             "2dea1ce2b5079353e74dfe49a26c880f")},
        }

    def test_completion_ratios_stay_high_on_both_planes(self, points):
        for point in points:
            assert point.fluid_p50_ms == point.fluid_p50_ms, point  # not NaN
            assert point.packet_p50_ms == point.packet_p50_ms, point

    def test_fct_within_stated_tolerance_bands(self, points):
        """Stated fidelity tolerance: p50 within 3x, p99 within 4x of the
        packet oracle, both directions, on every (fabric, system) point."""
        assert {(p.fabric, p.system) for p in points} == {
            ("fattree", "ecmp"), ("fattree", "contra"),
            ("abilene", "shortest-path"), ("abilene", "contra")}
        for point in points:
            p50_ratio = point.fluid_p50_ms / point.packet_p50_ms
            p99_ratio = point.fluid_p99_ms / point.packet_p99_ms
            assert 1 / 3 <= p50_ratio <= 3.0, (point, p50_ratio)
            assert 1 / 4 <= p99_ratio <= 4.0, (point, p99_ratio)

    def test_missing_twin_is_an_error(self, points):
        specs = [s for s in fluid_fidelity_specs(TINY) if s.load == 0.4]
        results = run_grid(specs[:1], processes=1)
        with pytest.raises(ExperimentError, match="missing"):
            to_fidelity_points(results)


# =============================================================================
# Local fast paths vs forced global solve
# =============================================================================

class TestLocalGlobalDifferential:
    """The arrival certificate and region-local re-solve are *exactness*
    optimizations: for systems whose path choice cannot depend on
    utilization, the whole run must match a force-global run to 1e-9
    relative on every summary float (epoch counts may differ by the one
    certificate-skipped solve at the boundary)."""

    @pytest.mark.parametrize("system", ["ecmp", "shortest-path", "spain"])
    def test_summaries_match_to_1e9_with_link_events(self, system):
        topology = fattree(4, capacity=TINY.host_capacity)
        flows = small_workload(topology)
        summaries = []
        for force_global in (False, True):
            model = build_path_model(system, topology, policy="datacenter")
            simulation = FluidSimulation(topology, model, stats=FluidStats(),
                                         force_global_solve=force_global)
            simulation.add_flows(flows)
            churned(simulation, topology)
            stats = simulation.run(40.0, stop_after_completion=True)
            summaries.append(stats.summary())
        local, forced = summaries
        assert set(local) == set(forced)
        assert abs(local.pop("epochs") - forced.pop("epochs")) <= 2
        for key, value in local.items():
            assert value == pytest.approx(forced[key], rel=1e-9, abs=1e-12), key


# =============================================================================
# Per-epoch max-min invariant (covers hula/contra too)
# =============================================================================

class InvariantCheckedSimulation(FluidSimulation):
    """Re-verifies the global weighted max-min allocation after every epoch.

    hula/contra can legitimately diverge from a force-global twin run (a
    float-ulp utilization tie picks a different path, bifurcating the
    trajectories), so for them the correctness statement is this invariant:
    whatever groups exist, their rates are the max-min allocation.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.epochs_verified = 0

    def _resched(self, now):
        super()._resched(now)
        groups = {path: group for path, group in self._groups.items()
                  if group.count}
        if not groups:
            return
        capacity = self.fabric.capacity
        capacities = {link: capacity[link]
                      for path in groups for link in path}
        expected = max_min_rates(
            {path: path for path in groups}, capacities,
            {path: group.count for path, group in groups.items()},
            {path: group.rate_cap for path, group in groups.items()})
        for path, group in groups.items():
            assert math.isclose(group.rate, expected[path],
                                rel_tol=1e-9, abs_tol=1e-9), \
                (path, group.rate, expected[path])
        self.epochs_verified += 1


class TestMaxMinInvariant:
    @pytest.mark.parametrize("system", ["contra", "hula", "ecmp"])
    def test_every_epoch_is_maxmin_under_churn(self, system):
        topology = fattree(4, capacity=TINY.host_capacity)
        model = build_path_model(system, topology, policy="datacenter")
        simulation = InvariantCheckedSimulation(topology, model,
                                                stats=FluidStats())
        simulation.add_flows(small_workload(topology))
        churned(simulation, topology)
        stats = simulation.run(40.0, stop_after_completion=True)
        assert simulation.epochs_verified > 100
        assert stats.summary()["completion_ratio"] > 0.9


# =============================================================================
# One digest per placed flow; next-hop rows that carry link ids
# =============================================================================

class PlacementLog(FluidSimulation):
    """Records every placement (first arrival or reroute) as
    (path, switches its group remembers, flow)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.placements = []

    def _join(self, state, group, path):
        self.placements.append((path, group.switches, state.uid))
        super()._join(state, group, path)


class TestPathLevelSketch:
    @pytest.mark.parametrize("system", ["contra", "ecmp"])
    def test_registers_equal_a_per_switch_add_reference(self, system):
        """The collector hashes a flow once and raises one register in every
        sketch on its path; each switch's register bytes must be exactly what
        offering the flow to that switch's own sketch, link by link, builds —
        through a fail -> recover, so rerouted placements are offered too."""
        topology = fattree(4, capacity=TINY.host_capacity, oversubscription=1.0)
        flows = generate_workload(topology, distribution_by_name("cache", 0.25),
                                  load=0.2, duration=840.0,
                                  host_capacity=TINY.host_capacity, seed=3).flows
        assert len(flows) > 5_000
        # A window cap well under the access capacity keeps most arrivals on
        # the O(path) certificate instead of in the solver.
        simulation = PlacementLog(topology, build_path_model(system, topology),
                                  stats=FluidStats(flow_sketch=True),
                                  host_window=4)
        simulation.add_flows(flows)
        a, b = default_failed_link(topology)
        simulation.fail_link(a, b, at_time=280.0)
        simulation.recover_link(a, b, at_time=560.0)
        stats = simulation.run(1200.0, stop_after_completion=True)
        assert len(simulation.placements) > stats.flow_count == len(flows)

        reference = {}
        links = simulation.fabric.links
        for path, remembered, flow_id in simulation.placements:
            entered = tuple(links[link][1] for link in path
                            if topology.is_switch(links[link][1]))
            assert remembered == entered
            for switch in entered:
                reference.setdefault(switch, HyperLogLog()).add(flow_id)
        assert set(stats._flow_sketches) == set(reference)
        assert len(reference) > 10
        for switch, sketch in reference.items():
            assert stats._flow_sketches[switch].registers == sketch.registers, switch

    def test_an_unsketched_run_remembers_no_switches(self):
        topology = fattree(4, capacity=TINY.host_capacity)
        simulation = PlacementLog(topology, build_path_model("ecmp", topology))
        simulation.add_flows(small_workload(topology))
        stats = simulation.run(40.0, stop_after_completion=True)
        assert simulation.placements
        assert {switches for _, switches, _ in simulation.placements} == {()}
        assert stats.flow_sketch_estimates() == {}


def reference_walk(model, table, greedy, fhash, src_host, dst_host, util, failed):
    """``resolve`` as a walk over ``next_hop_table`` itself: every candidate
    is a ``(switch, hop)`` key looked up in the fabric's link index."""
    topology, index = model.fabric.topology, model.fabric.index
    switch = topology.attachment_switch(src_host)
    dst_switch = topology.attachment_switch(dst_host)
    path = [index[(src_host, switch)]]
    down = index[(dst_switch, dst_host)]
    if failed[path[0]] or failed[down]:
        return None
    while switch != dst_switch:
        hops = table[switch].get(dst_switch, [])
        live = [hop for hop in hops if not failed[index[(switch, hop)]]]
        if not live:
            return None
        if greedy:
            least = min(util[index[(switch, hop)]] for hop in live)
            ties = [hop for hop in live if util[index[(switch, hop)]] == least]
            choice = ties[fhash % len(ties)]
        else:
            # Hash over the full set first; re-hash over the live subset only
            # when the chosen link is down.
            choice = hops[fhash % len(hops)]
            if failed[index[(switch, choice)]]:
                choice = live[fhash % len(live)]
        path.append(index[(switch, choice)])
        switch = choice
    return tuple(path + [down])


class TestLoweredNextHopRows:
    @pytest.mark.parametrize("system, all_hops, greedy", [
        ("ecmp", True, False), ("shortest-path", False, False),
        ("hula", True, True), ("contra", True, True)])
    @pytest.mark.parametrize("fabric", ["fattree4", "leafspine4x2"])
    def test_resolve_equals_a_walk_over_next_hop_table(self, fabric, system,
                                                       all_hops, greedy):
        topology = fattree(4) if fabric == "fattree4" \
            else leafspine(4, 2, hosts_per_leaf=2)
        model = build_path_model(system, topology, policy="datacenter")
        table = next_hop_table(topology, all_hops)
        hosts = topology.hosts
        link_count = len(model.fabric.links)
        rng = random.Random(17)
        outcomes = set()
        for trial in range(12):
            # Few distinct utilizations so exact ties are common; the first
            # trials fail nothing, the later ones up to a third of the links.
            util = [rng.choice((0.0, 0.25, 0.25, 0.5)) for _ in range(link_count)]
            failed = [rng.random() < trial / 36 for _ in range(link_count)]
            for src_host in hosts:
                for dst_host in hosts:
                    if src_host == dst_host:
                        continue
                    fhash = rng.getrandbits(32)
                    expected = reference_walk(model, table, greedy, fhash,
                                              src_host, dst_host, util, failed)
                    assert model.resolve(fhash, src_host, dst_host, util,
                                         failed) == expected
                    outcomes.add(expected is None)
        assert outcomes == {True, False}    # blocked and routed both seen


# =============================================================================
# Sharding / resume / merge for fluid grids
# =============================================================================

class TestFluidSharding:
    def _specs(self):
        return [s for s in fluid_fidelity_specs(TINY)
                if s.load == 0.4 and "fattree" in s.name]

    def test_shards_union_to_the_serial_run(self, tmp_path):
        specs = self._specs()
        serial = run_grid(specs, processes=1)
        for index in range(2):
            run_grid(specs, backend=ShardedBackend(ResultsStore(tmp_path, index, 2)))
        merged = collect_results(specs, ResultsStore(tmp_path))
        assert merged == serial

    def test_resume_skips_completed_fluid_points(self, tmp_path):
        specs = self._specs()
        first = ShardedBackend(ResultsStore(tmp_path))
        first.run(specs)
        assert first.executed == len(specs)
        second = ShardedBackend(ResultsStore(tmp_path))
        resumed = second.run(specs)
        assert second.executed == 0
        assert resumed == collect_results(specs, ResultsStore(tmp_path))


# =============================================================================
# Dispatch, validation and the --flow-model override
# =============================================================================

class TestFlowModelDispatch:
    def _spec(self, **overrides):
        base = dict(name="fluid-test", system="contra",
                    topology=TopologySpec("fattree", k=4,
                                          capacity=TINY.host_capacity,
                                          oversubscription=TINY.oversubscription),
                    config=TINY, workload="web_search", load=0.4,
                    seed=1, stop_after_completion=True, flow_model="fluid")
        base.update(overrides)
        return ScenarioSpec(**base)

    def test_unknown_flow_model_rejected(self):
        with pytest.raises(ExperimentError, match="unknown flow model"):
            RunContext().run(self._spec(flow_model="quantum"))

    def test_flow_sketch_requires_fluid(self):
        with pytest.raises(ExperimentError, match="flow_sketch requires"):
            RunContext().run(self._spec(flow_model="packet", flow_sketch=True))

    @pytest.mark.parametrize("overrides,match", [
        (dict(system="presto"), "does not support system"),
        (dict(traffic="streams"), "constant-rate"),
        (dict(transport="reliable"), "no fluid-plane equivalent"),
        (dict(cdf_points=(0.5,)), "no fluid-plane equivalent"),
        (dict(collect_throughput=True), "no fluid-plane equivalent"),
        (dict(probe_period=0.5), "no fluid-plane equivalent"),
        (dict(respect_compiled_probe_period=True), "no fluid-plane equivalent"),
        (dict(use_versioning=False), "no fluid-plane equivalent"),
    ])
    def test_packet_only_knobs_fail_loudly_on_the_fluid_plane(self, overrides, match):
        with pytest.raises(ExperimentError, match=match):
            RunContext().run(self._spec(**overrides))

    def test_override_applies_to_a_packet_grid(self):
        specs = [self._spec(flow_model="packet")]
        overridden = _with_flow_model("x", specs, "fluid")
        assert all(s.flow_model == "fluid" for s in overridden)
        assert _with_flow_model("x", specs, None) == specs
        assert _with_flow_model("x", specs, "packet") == specs

    def test_override_rejected_when_the_grid_pins_flow_models(self):
        for scenario in ("fluid-vs-packet", "fluid-million"):
            with pytest.raises(ExperimentError, match="cannot override"):
                run_scenario(scenario, TINY, flow_model="packet")

    def test_override_rejected_for_legacy_scenarios(self):
        with pytest.raises(ExperimentError, match="not a single spec grid"):
            run_scenario("fig9-10", TINY, flow_model="fluid")

    def test_cli_exposes_the_flag(self):
        from repro.cli import build_parser
        parser = build_parser()
        for command in (["run-grid", "fig11"],
                        ["merge-results", "fig11", "--results-dir", "r"],
                        ["gc-results", "fig11", "--results-dir", "r"]):
            args = parser.parse_args(command + ["--flow-model", "fluid"])
            assert args.flow_model == "fluid"
        with pytest.raises(SystemExit):
            parser.parse_args(["run-grid", "fig11", "--flow-model", "hybrid"])


# =============================================================================
# Million-flow family: structural contract (the run itself is a benchmark)
# =============================================================================

class TestFluidMillionSpecs:
    def test_quick_preset_targets_the_quick_flow_count(self):
        specs = fluid_million_specs(TINY)
        assert [s.system for s in specs] == ["ecmp", "contra"]
        for spec in specs:
            assert spec.flow_model == "fluid"
            assert spec.flow_sketch is True
            assert spec.name.endswith(str(MILLION_FLOW_TARGET_QUICK))
            assert spec.topology.k == 8
            assert spec.topology.oversubscription == 1.0
            assert spec.config.host_window == 8

    def test_churn_alternates_and_ends_recovered(self):
        spec = fluid_million_specs(TINY)[0]
        actions = [event.action for event in spec.events]
        assert actions[::2] == ["fail"] * len(actions[::2])
        assert actions[1::2] == ["recover"] * len(actions[1::2])
        assert actions[-1] == "recover"
        times = [event.time for event in spec.events]
        assert times == sorted(times)
        assert times[0] == MILLION_CHURN_PERIOD

    def test_duration_is_sized_from_the_flow_target(self):
        quick, custom = fluid_million_specs(TINY)[0], \
            fluid_million_specs(TINY, systems=("contra",), flow_target=200_000)[0]
        assert custom.config.workload_duration \
            == pytest.approx(2 * quick.config.workload_duration)
