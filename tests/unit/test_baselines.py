"""Unit tests for the baseline routing systems (ECMP, shortest path, Hula, SPAIN)."""

import pytest

from repro.baselines import (
    EcmpSystem,
    HulaSystem,
    ShortestPathSystem,
    SpainSystem,
    compute_spain_paths,
)
from repro.simulator import Flow, Network
from repro.topology import abilene, fattree, leafspine
from repro.workloads import generate_workload, uniform_distribution


def run_network(topology, system, flows, duration=40.0, **net_kwargs):
    network = Network(topology, system, **net_kwargs)
    network.schedule_flows(flows)
    stats = network.run(duration)
    return network, stats


class TestEcmp:
    def test_next_hops_on_fattree_use_all_uplinks(self):
        topo = fattree(4)
        system = EcmpSystem()
        network = Network(topo, system)
        hops = system.next_hops("e0_0", "e3_1")
        assert set(hops) == {"a0_0", "a0_1"}

    def test_single_path_topology_has_one_hop(self):
        topo = abilene(hosts_per_switch=0)
        # add two hosts so Network builds, but ECMP table is about switches
        topo2 = abilene(hosts_per_switch=1)
        system = EcmpSystem()
        Network(topo2, system)
        assert len(system.next_hops("SEA", "NYC")) >= 1

    def test_flows_complete_on_leafspine(self):
        topo = leafspine(2, 2, hosts_per_leaf=2, capacity=50.0)
        spec = generate_workload(topo, uniform_distribution(1, 8), load=0.4,
                                 duration=10.0, host_capacity=50.0, seed=0)
        _, stats = run_network(topo, EcmpSystem(), spec.flows)
        assert stats.completion_ratio() == 1.0

    def test_same_flow_uses_consistent_next_hop(self):
        topo = fattree(4)
        system = EcmpSystem()
        network = Network(topo, system)
        from repro.simulator.packet import Packet, PacketKind
        packet = Packet(kind=PacketKind.DATA, src_host="h0_0_0", dst_host="h3_1_1",
                        flow_id=42, dst_switch="e3_1")
        logic = network.switches["e0_0"].routing
        choices = {logic.on_data_packet(packet, "h0_0_0") for _ in range(10)}
        assert len(choices) == 1

    def test_failed_uplink_is_avoided(self):
        topo = fattree(4)
        system = EcmpSystem()
        network = Network(topo, system)
        network.fail_link("e0_0", "a0_0", at_time=0.0)
        network.sim.run(until=0.1)
        from repro.simulator.packet import Packet, PacketKind
        packet = Packet(kind=PacketKind.DATA, src_host="h0_0_0", dst_host="h3_1_1",
                        flow_id=1, dst_switch="e3_1")
        assert network.switches["e0_0"].routing.on_data_packet(packet, "h0_0_0") == "a0_1"


class TestShortestPath:
    def test_uses_single_next_hop(self):
        topo = fattree(4)
        system = ShortestPathSystem()
        Network(topo, system)
        assert len(system.next_hops("e0_0", "e3_1")) == 1

    def test_flows_complete_on_abilene(self):
        topo = abilene(capacity=50.0, hosts_per_switch=1)
        spec = generate_workload(topo, uniform_distribution(1, 5), load=0.3,
                                 duration=10.0, host_capacity=50.0, seed=1)
        _, stats = run_network(topo, ShortestPathSystem(), spec.flows, duration=80.0)
        assert stats.completion_ratio() == 1.0


class TestHula:
    def test_probes_build_best_hop_tables(self):
        topo = leafspine(2, 2, hosts_per_leaf=1, capacity=50.0)
        system = HulaSystem(probe_period=0.2)
        network = Network(topo, system)
        network.run(2.0)
        logic = system.logic("leaf0")
        assert "leaf1" in logic.best
        assert logic.best["leaf1"].next_hop in ("spine0", "spine1")

    def test_probes_restricted_to_shortest_path_dag(self):
        topo = fattree(4)
        system = HulaSystem(probe_period=0.25)
        network = Network(topo, system)
        network.run(1.0)
        # A core switch's best hop towards an edge origin is always one of the
        # aggregation switches in that pod (a shortest-path predecessor).
        core_logic = system.logic("c0")
        assert core_logic.best["e0_0"].next_hop in ("a0_0",)

    def test_flows_complete(self):
        topo = fattree(4, capacity=50.0)
        spec = generate_workload(topo, uniform_distribution(1, 10), load=0.5,
                                 duration=10.0, host_capacity=50.0, seed=2)
        _, stats = run_network(topo, HulaSystem(probe_period=0.25), spec.flows, duration=60.0)
        assert stats.completion_ratio() > 0.95

    def test_failure_detection_reroutes(self):
        topo = leafspine(2, 2, hosts_per_leaf=1, capacity=50.0)
        system = HulaSystem(probe_period=0.2, failure_periods=3)
        network = Network(topo, system)
        network.fail_link("spine0", "leaf1", at_time=1.0)
        network.run(5.0)
        logic = system.logic("leaf0")
        assert logic.best["leaf1"].next_hop == "spine1"

    def test_probe_overhead_accounted(self):
        topo = leafspine(2, 2, hosts_per_leaf=1, capacity=50.0)
        system = HulaSystem(probe_period=0.2)
        network = Network(topo, system)
        network.run(2.0)
        assert network.stats.probe_bytes > 0


class TestSpain:
    def test_path_sets_avoid_overlap_when_possible(self):
        topo = leafspine(2, 2, hosts_per_leaf=0, capacity=10.0)
        paths = compute_spain_paths(topo, k=2)
        pair_paths = paths[("leaf0", "leaf1")]
        assert len(pair_paths) == 2
        # The two paths use different spines.
        spines_used = {p[1] for p in pair_paths}
        assert spines_used == {"spine0", "spine1"}

    def test_paths_are_valid_walks(self):
        topo = abilene(hosts_per_switch=0)
        paths = compute_spain_paths(topo, k=3)
        for (src, dst), options in paths.items():
            for path in options:
                assert path[0] == src and path[-1] == dst
                for a, b in zip(path, path[1:]):
                    assert topo.has_link(a, b)

    def test_flows_complete_on_abilene(self):
        topo = abilene(capacity=50.0, hosts_per_switch=1)
        spec = generate_workload(topo, uniform_distribution(1, 6), load=0.3,
                                 duration=10.0, host_capacity=50.0, seed=3)
        _, stats = run_network(topo, SpainSystem(), spec.flows, duration=80.0)
        assert stats.completion_ratio() == 1.0

    def test_different_flows_spread_across_paths(self):
        topo = leafspine(2, 2, hosts_per_leaf=1, capacity=10.0)
        system = SpainSystem(k=2)
        network = Network(topo, system)
        from repro.simulator.packet import Packet, PacketKind
        chosen = set()
        for flow_id in range(16):
            packet = Packet(kind=PacketKind.DATA, src_host="h0_0", dst_host="h1_0",
                            flow_id=flow_id, dst_switch="leaf1")
            hop = network.switches["leaf0"].routing.on_data_packet(packet, "h0_0")
            chosen.add(hop)
        assert chosen == {"spine0", "spine1"}

    def test_failed_path_falls_back_to_alternative(self):
        topo = leafspine(2, 2, hosts_per_leaf=1, capacity=10.0)
        system = SpainSystem(k=2)
        network = Network(topo, system)
        network.fail_link("spine0", "leaf1", at_time=0.0)
        network.fail_link("leaf0", "spine0", at_time=0.0)
        network.sim.run(until=0.1)
        from repro.simulator.packet import Packet, PacketKind
        for flow_id in range(8):
            packet = Packet(kind=PacketKind.DATA, src_host="h0_0", dst_host="h1_0",
                            flow_id=flow_id, dst_switch="leaf1")
            hop = network.switches["leaf0"].routing.on_data_packet(packet, "h0_0")
            assert hop == "spine1"


class TestSharedTables:
    """The baselines' tables outlive a point: one per topology, handed to
    every simulation on it, so nothing a caller is given can be written to."""

    def test_ecmp_rows_are_tuples_a_caller_cannot_mutate(self):
        topo = fattree(4)
        system = EcmpSystem()
        Network(topo, system)
        hops = system.next_hops("e0_0", "e3_1")
        assert hops == ("a0_0", "a0_1")
        with pytest.raises(AttributeError):
            hops.append("c0")
        with pytest.raises(TypeError):
            hops[0] = "a0_1"
        assert system.next_hops("e0_0", "nowhere") == ()
        # The next point on the same topology is handed the same, intact table.
        again = EcmpSystem()
        Network(topo, again)
        assert again.next_hops("e0_0", "e3_1") is hops

    def test_spain_options_are_tuples_shared_per_parameters(self):
        topo = leafspine(2, 2, hosts_per_leaf=0, capacity=10.0)
        paths = compute_spain_paths(topo, k=2)
        assert paths[("leaf0", "leaf1")] == (("leaf0", "spine0", "leaf1"),
                                             ("leaf0", "spine1", "leaf1"))
        with pytest.raises(TypeError):
            paths[("leaf0", "leaf1")] = ()
        assert compute_spain_paths(topo, k=2) is paths
        assert compute_spain_paths(topo, k=1) is not paths
        assert compute_spain_paths(topo, k=2, overlap_penalty=1.0) is not paths
        topo.remove_link("leaf0", "spine1")
        assert compute_spain_paths(topo, k=2)[("leaf0", "leaf1")] == \
            (("leaf0", "spine0", "leaf1"),)

    def test_two_points_of_one_context_see_one_table(self):
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.runner import RunContext, ScenarioSpec, TopologySpec

        config = ExperimentConfig(workload_duration=1.0, run_duration=10.0,
                                  websearch_scale=0.05)
        topology = TopologySpec("fattree", k=4, capacity=config.host_capacity,
                                oversubscription=config.oversubscription)
        specs = [ScenarioSpec(name=f"shared:{system}-{seed}", system=system,
                              topology=topology, config=config, load=0.3, seed=seed,
                              stop_after_completion=True)
                 for system, seed in (("ecmp", 1), ("ecmp", 2),
                                      ("shortest-path", 1), ("shortest-path", 2))]
        context = RunContext()
        tables = []
        context.network_hook = lambda network: tables.append(
            network.routing_system._table)
        for spec in specs:
            context.run(spec)
        assert tables[0] is tables[1] and tables[2] is tables[3]
        assert tables[0] is not tables[2]
        fresh = topology.build()
        assert tables[0] == fresh.next_hop_table(True)
        assert tables[2] == fresh.next_hop_table(False)

    @pytest.mark.parametrize("make_system", (EcmpSystem, lambda: SpainSystem(k=2),
                                             HulaSystem))
    def test_the_stamped_flow_hash_is_read_in_place(self, make_system, monkeypatch):
        """Hosts stamp ``packet.flow_hash``; a baseline that recomputed it
        per hop would pay a ``packet_flow_hash`` frame per packet."""
        import repro.baselines.ecmp as ecmp, repro.baselines.hula as hula, \
            repro.baselines.spain as spain
        from repro.simulator.packet import Packet, PacketKind

        def refuse(packet):
            raise AssertionError("packet_flow_hash called for a stamped packet")

        topo = leafspine(2, 2, hosts_per_leaf=1, capacity=10.0)
        network = Network(topo, make_system())
        for module in (ecmp, hula, spain):
            monkeypatch.setattr(module, "packet_flow_hash", refuse)
        chosen = set()
        for stamp in range(8):
            packet = Packet(kind=PacketKind.DATA, src_host="h0_0", dst_host="h1_0",
                            flow_id=7, dst_switch="leaf1", flow_hash=stamp)
            chosen.add(network.switches["leaf0"].routing.on_data_packet(packet, "h0_0"))
        assert chosen <= {"spine0", "spine1"} and chosen
        if not isinstance(network.routing_system, HulaSystem):
            assert chosen == {"spine0", "spine1"}   # the stamp, not the flow id, decides
