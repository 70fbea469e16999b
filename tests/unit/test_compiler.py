"""Unit tests for the compiler, device configurations and P4 generation."""

import pytest

from repro.core import policies
from repro.core.builder import if_, inf, matches, minimize, path, sub
from repro.core.compiler import PROBE_PERIOD_RTT_MULTIPLIER, CompileOptions, compile_policy
from repro.core.device_config import FLOWLET_SLOTS, LOOP_TABLE_SLOTS
from repro.core.p4gen.codegen import generate_all_p4, generate_p4
from repro.core.rank import INFINITY, Rank
from repro.exceptions import CompilationError, PolicyAnalysisError
from repro.topology.fattree import fattree
from repro.topology.leafspine import leafspine
from repro.topology.zoo import builtin_topologies, builtin_topology
from repro.topology.graph import Topology


@pytest.fixture
def diamond():
    topo = Topology("figure6")
    for switch in ("A", "B", "C", "D"):
        topo.add_switch(switch)
    for a, b in (("A", "B"), ("A", "C"), ("B", "C"), ("B", "D"), ("C", "D")):
        topo.add_link(a, b)
    return topo


def flat_metrics(util=0.0, lat=0.05):
    def lookup(a, b):
        return {"util": util, "lat": lat}
    return lookup


class TestCompilation:
    @pytest.mark.parametrize("key", sorted(policies.ALL_POLICIES))
    def test_all_figure3_policies_compile_on_leafspine(self, key):
        topo = leafspine(2, 2, hosts_per_leaf=1)
        compiled = compile_policy(policies.ALL_POLICIES[key](), topo)
        assert set(compiled.device_configs) == set(topo.switches)
        assert compiled.num_probe_ids >= 1

    def test_compile_records_analysis_results(self, diamond):
        compiled = compile_policy(policies.congestion_aware(), diamond)
        assert compiled.monotonicity.is_monotone
        assert not compiled.isotonicity.is_isotonic
        assert compiled.num_probe_ids == 2

    def test_probe_period_respects_rtt_bound(self, diamond):
        compiled = compile_policy(policies.MU(), diamond)
        assert compiled.probe_period >= 0.5 * diamond.max_rtt()

    def test_non_monotone_policy_rejected_by_default(self, diamond):
        bad = minimize(sub(10, path.len))
        with pytest.raises(PolicyAnalysisError):
            compile_policy(bad, diamond)

    def test_non_monotone_policy_allowed_when_not_strict(self, diamond):
        bad = minimize(sub(10, path.len))
        options = CompileOptions(strict_monotonicity=False)
        compiled = compile_policy(bad, diamond, options)
        assert not compiled.monotonicity.is_monotone

    def test_empty_topology_rejected(self):
        with pytest.raises(CompilationError):
            compile_policy(policies.MU(), Topology("empty"))

    def test_compile_time_is_recorded(self, diamond):
        compiled = compile_policy(policies.MU(), diamond)
        assert compiled.compile_time > 0

    def test_phase_times_account_for_the_compile_time(self, diamond):
        compiled = compile_policy(policies.WP(("B", "C")), diamond)
        assert list(compiled.phase_times) == [
            "analysis", "product_graph", "tag_minimization", "device_configs", "probe_period"]
        assert all(seconds >= 0 for seconds in compiled.phase_times.values())
        assert sum(compiled.phase_times.values()) <= compiled.compile_time

    def test_compile_has_no_prune_option(self):
        """Dead-state pruning lives in the verification plane only."""
        with pytest.raises(TypeError):
            CompileOptions(prune_unreachable=True)

    def test_device_lookup(self, diamond):
        compiled = compile_policy(policies.MU(), diamond)
        assert compiled.device("A").switch == "A"
        with pytest.raises(CompilationError):
            compiled.device("Z")


#: Fabrics and WANs whose compiled parameters must be the §5 constants.
PARAMETER_TOPOLOGIES = {
    **{name: (lambda name=name: builtin_topology(name)) for name in builtin_topologies()},
    "fattree4": lambda: fattree(4),
    "leafspine": lambda: leafspine(3, 2, hosts_per_leaf=1),
}


class TestCompiledParameters:
    def test_defaults_are_unchanged(self, diamond):
        compiled = compile_policy(policies.MU(), diamond)
        assert compiled.probe_period == 0.5 * diamond.max_rtt()
        assert (FLOWLET_SLOTS, LOOP_TABLE_SLOTS) == (256, 256)

    @pytest.mark.parametrize("name", sorted(PARAMETER_TOPOLOGIES))
    def test_probe_period_is_half_the_worst_rtt(self, name):
        """§5.2: probes go out twice per worst-case round trip."""
        topo = PARAMETER_TOPOLOGIES[name]()
        compiled = compile_policy(policies.MU(), topo)
        assert compiled.probe_period == PROBE_PERIOD_RTT_MULTIPLIER * topo.max_rtt()
        assert compiled.probe_period == 0.5 * topo.max_rtt() > 0

    @pytest.mark.parametrize("name", sorted(PARAMETER_TOPOLOGIES))
    def test_every_device_sizes_its_tables_at_the_constants(self, name):
        topo = PARAMETER_TOPOLOGIES[name]()
        compiled = compile_policy(policies.MU(), topo)
        assert set(compiled.device_configs) == set(topo.switches)
        programs = generate_all_p4(compiled)
        for switch, config in compiled.device_configs.items():
            flowlet_rows = 256 * max(1, config.num_tags) * config.num_probe_ids
            estimate = config.state_estimate()
            assert estimate.flowlet_bytes == 7 * flowlet_rows
            assert estimate.loop_table_bytes == 6 * 256
            source = programs[switch].source
            assert f"register<bit<9>>({flowlet_rows})  flowlet_nhop;" in source
            assert "register<bit<8>>(256) loop_max_ttl;" in source

    def test_a_topology_without_latency_probes_every_quarter_ms(self):
        topo = Topology("instant")
        topo.add_switch("A")
        topo.add_switch("B")
        topo.add_link("A", "B", latency=0.0)
        assert topo.max_rtt() == 0.0
        assert compile_policy(policies.MU(), topo).probe_period == 0.25


class TestDeviceConfig:
    def test_probe_transitions_cover_product_graph_edges(self, diamond):
        compiled = compile_policy(policies.MU(), diamond)
        config_a = compiled.device("A")
        # MU has one tag everywhere; probes from B tag 0 and C tag 0 land in A tag 0.
        assert config_a.probe_transition.get(("B", 0)) == 0
        assert config_a.probe_transition.get(("C", 0)) == 0
        assert config_a.probe_transition.get(("D", 0)) is None  # no A-D link

    def test_multicast_targets_follow_topology(self, diamond):
        compiled = compile_policy(policies.MU(), diamond)
        config_d = compiled.device("D")
        assert set(config_d.multicast_targets(config_d.probe_origin_tag)) == {"B", "C"}

    def test_acceptance_for_waypoint_policy(self, diamond):
        policy = minimize(if_(matches(".* C .*"), path.util, inf))
        compiled = compile_policy(policy, diamond)
        config_a = compiled.device("A")
        accepting_tags = [tag for tag in config_a.tags
                          if any(config_a.acceptance_of(tag).values())]
        non_accepting = [tag for tag in config_a.tags
                         if not any(config_a.acceptance_of(tag).values())]
        assert accepting_tags and non_accepting

    def test_bits_accounting(self, diamond):
        compiled = compile_policy(policies.MU(), diamond)
        config = compiled.device("A")
        assert config.tag_bits() >= 1
        assert config.metric_bits() == 32
        assert config.probe_bits() > config.metric_bits()
        assert config.packet_tag_bits() >= 2

    def test_unknown_tag_raises(self, diamond):
        compiled = compile_policy(policies.MU(), diamond)
        with pytest.raises(CompilationError):
            compiled.device("A").tag_info(42)

    def test_state_estimate_positive_and_additive(self, diamond):
        compiled = compile_policy(policies.MU(), diamond)
        estimate = compiled.device("A").state_estimate()
        assert estimate.total_bytes == (estimate.fwdt_bytes + estimate.bestt_bytes
                                        + estimate.flowlet_bytes + estimate.loop_table_bytes)

    def test_state_grows_with_topology_size(self):
        small = compile_policy(policies.MU(), fattree(4, hosts_per_edge=0))
        large = compile_policy(policies.MU(), fattree(8, hosts_per_edge=0))
        assert large.max_state_bytes() > small.max_state_bytes()

    def test_regex_policy_needs_more_state_than_mu(self, diamond):
        mu = compile_policy(policies.MU(), diamond)
        wp = compile_policy(minimize(if_(matches(".* C .*"), path.util, inf)), diamond)
        assert wp.max_state_bytes() >= mu.max_state_bytes()

    def test_total_state_is_sum_over_switches(self, diamond):
        compiled = compile_policy(policies.MU(), diamond)
        assert compiled.total_state_bytes() == sum(
            cfg.state_estimate().total_bytes for cfg in compiled.device_configs.values())


class TestReferenceOracle:
    def test_shortest_path_policy_picks_direct_route(self, diamond):
        compiled = compile_policy(policies.shortest_path(), diamond)
        rank, best = compiled.reference_best_paths("A", "D", flat_metrics())
        assert rank == Rank(2)
        assert sorted(best) == [["A", "B", "D"], ["A", "C", "D"]]

    def test_min_util_policy_avoids_congested_link(self, diamond):
        def metrics(a, b):
            return {"util": 0.9 if {a, b} == {"B", "D"} else 0.1, "lat": 0.05}
        compiled = compile_policy(policies.MU(), diamond)
        rank, best = compiled.reference_best_paths("A", "D", metrics)
        assert ["A", "C", "D"] in best
        assert all("B" not in path_ or path_.index("B") != len(path_) - 2 for path_ in best)

    def test_waypoint_policy_forces_waypoint(self, diamond):
        policy = minimize(if_(matches(".* C .*"), path.util, inf))
        compiled = compile_policy(policy, diamond)
        rank, best = compiled.reference_best_paths("A", "D", flat_metrics(util=0.2))
        assert rank.is_finite
        assert all("C" in path_ for path_ in best)

    def test_impossible_policy_yields_infinite_rank(self, diamond):
        policy = minimize(if_(matches(".* Z .*"), path.util, inf))
        compiled = compile_policy(policy, diamond, CompileOptions(strict_monotonicity=False))
        rank, best = compiled.reference_best_paths("A", "D", flat_metrics())
        assert rank == INFINITY
        assert best == []

    def test_figure5_scenario_a_prefers_abd_b_prefers_bcd(self, diamond):
        """Figure 5: A must use A-B-D even though B itself prefers B-C-D."""
        def metrics(a, b):
            utils = {("B", "D"): 0.3, ("D", "B"): 0.3,
                     ("B", "C"): 0.1, ("C", "B"): 0.1,
                     ("C", "D"): 0.2, ("D", "C"): 0.2}
            return {"util": utils.get((a, b), 0.1), "lat": 0.05}
        policy = minimize(if_(matches("A B D"), 0, path.util))
        compiled = compile_policy(policy, diamond)
        rank_a, best_a = compiled.reference_best_paths("A", "D", metrics)
        assert best_a == [["A", "B", "D"]]
        rank_b, best_b = compiled.reference_best_paths("B", "D", metrics)
        assert ["B", "C", "D"] in best_b


class TestP4Generation:
    def test_program_generated_per_switch(self, diamond):
        compiled = compile_policy(policies.MU(), diamond)
        programs = generate_all_p4(compiled)
        assert set(programs) == set(diamond.switches)

    def test_program_contains_expected_sections(self, diamond):
        compiled = compile_policy(policies.MU(), diamond)
        program = generate_p4(compiled.device("A"), "MU")
        assert "contra_probe_t" in program.source
        assert "fwdt_metric" in program.source
        assert "probe_transition" in program.source
        assert "probe_multicast" in program.source
        assert "V1Switch" in program.source
        assert program.lines_of_code > 50

    def test_metric_updates_reflect_policy_attributes(self, diamond):
        compiled = compile_policy(policies.source_local_preference("A"), diamond)
        program = generate_p4(compiled.device("B"), "P8")
        assert "metric_util" in program.source
        assert "metric_lat" in program.source

    def test_table_entries_counted(self, diamond):
        compiled = compile_policy(policies.MU(), diamond)
        program = generate_p4(compiled.device("A"))
        assert program.table_entries >= len(compiled.device("A").probe_transition)
