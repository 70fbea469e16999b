"""Unit tests for the Contra protocol runtime: probes, tables, switch logic."""

import pytest

from repro.baselines.hula import HulaSystem
from repro.core.attributes import MetricVector
from repro.core.compiler import compile_policy
from repro.core.device_config import LOOP_TABLE_SLOTS
from repro.core.policies import MU
from repro.exceptions import CompilationError, SimulationError
from repro.core.builder import if_, inf, matches, minimize, path, rank_tuple
from repro.protocol.contra_switch import ContraSystem
from repro.protocol.probe import ContraProbe, probe_wire_size
from repro.protocol.tables import (
    BestChoiceTable,
    FlowletTable,
    ForwardingEntry,
    ForwardingTable,
    LOOP_ENTRY_TIMEOUT,
    LOOP_TTL_DELTA,
    LoopDetectionTable,
    StatePool,
)
from repro.simulator.flow import Flow
from repro.simulator.network import Network
from repro.simulator.packet import Packet, PacketKind
from repro.topology.leafspine import leafspine
from repro.topology.graph import Topology


class TestContraProbe:
    def test_one_object_carries_the_payload_and_the_wire_size(self):
        metrics = MetricVector(("util", "len"), (0.4, 2.0))
        probe = ContraProbe("leaf1", 0, 7, 2, metrics, probe_wire_size(96))
        assert (probe.origin, probe.pid, probe.version, probe.tag) == ("leaf1", 0, 7, 2)
        assert probe.metrics is metrics
        assert probe.kind == PacketKind.PROBE
        assert probe.size_bytes == 42 + 12 and probe.extra_header_bits == 0
        assert not hasattr(probe, "__dict__")


class TestForwardingTable:
    def entry(self, nhop="spine0", version=1, util=0.5, updated=0.0):
        return ForwardingEntry(MetricVector(("util",), (util,)), 0, nhop, version, updated)

    def test_install_and_lookup(self):
        table = ForwardingTable()
        key = ("leaf1", 0, 0)
        assert table.lookup(key) is None
        table.install(key, self.entry())
        assert table.lookup(key).next_hop == "spine0"
        assert len(table) == 1

    def test_entries_for_destination(self):
        table = ForwardingTable()
        table.install(("leaf1", 0, 0), self.entry())
        table.install(("leaf1", 1, 0), self.entry("spine1"))
        table.install(("leaf2", 0, 0), self.entry())
        assert len(table.entries_for_destination("leaf1")) == 2

    def test_remove(self):
        table = ForwardingTable()
        table.install(("leaf1", 0, 0), self.entry())
        table.remove(("leaf1", 0, 0))
        assert table.lookup(("leaf1", 0, 0)) is None
        table.remove(("leaf1", 0, 0))  # idempotent


class TestBestChoiceTable:
    def test_set_get_clear(self):
        table = BestChoiceTable(StatePool())
        assert table.get("leaf1") is None
        table.set("leaf1", ("leaf1", 0, 0))
        assert table.get("leaf1") == ("leaf1", 0, 0)
        table.clear("leaf1")
        assert table.get("leaf1") is None
        assert len(table) == 0


class TestFlowletTable:
    def test_key_includes_tag_and_pid(self):
        """Policy-aware flowlet switching: different tags pin independently (§5.3)."""
        table = FlowletTable(timeout=1.0, slots=1024)
        for tag, pid in ((0, 0), (1, 0), (0, 1)):
            table.install("leaf1", tag, pid, 3, "spine0", tag, now=0.0)
        assert len(table) == 3

    def test_expire_via_failed_next_hop(self):
        table = FlowletTable(timeout=10.0, slots=1024)
        table.install("leaf1", 0, 0, 1, "spine0", 0, now=0.0)
        table.install("leaf2", 0, 0, 2, "spine1", 0, now=0.0)
        assert table.expire_via("spine0") == 1
        assert list(table._entries) == [("leaf2", 0, 0, 2)]

    def test_expire_flowlet_everywhere(self):
        table = FlowletTable(timeout=10.0, slots=1024)
        table.install("leaf1", 0, 0, 5, "spine0", 0, now=0.0)
        table.install("leaf1", 1, 0, 5, "spine1", 1, now=0.0)
        table.install("leaf1", 0, 0, 6, "spine0", 0, now=0.0)
        assert table.expire_flowlet_everywhere(5) == 2
        assert len(table) == 1


class TestPinStep:
    """The flowlet pin step Contra and Hula share (``ProbeDrivenRouting``).

    ``leaf0`` holds one pin towards ``spine0`` for a transit packet to
    ``leaf1``, installed at t = 0 under a 1 ms flowlet timeout.  Contra keys
    it by the packet's tag and re-tags followed packets; Hula keys it with
    tag and probe id 0 and leaves the tag alone.
    """

    FID = 5

    @pytest.fixture(params=["contra", "hula"])
    def pinned(self, request):
        topo = leafspine(2, 2, hosts_per_leaf=1, capacity=50.0)
        if request.param == "contra":
            system = ContraSystem(compile_policy(MU(), topo), flowlet_timeout=1.0)
            key, next_tag = ("leaf1", 1, 0, self.FID), 2
        else:
            system = HulaSystem(flowlet_timeout=1.0)
            key, next_tag = ("leaf1", 0, 0, self.FID), 0
        network = Network(topo, system)
        routing = system.logic("leaf0")
        pin = routing.flowlets.install(*key, "spine0", next_tag, now=0.0)
        return request.param, network, routing, key, pin

    def forward(self, network, routing, now):
        network.sim.run(until=now)
        packet = Packet(PacketKind.DATA, "h0", "h1", dst_switch="leaf1", tag=1,
                        flow_hash=self.FID)
        return packet, routing.on_data_packet(packet, "spine1")

    def test_a_live_pin_is_refreshed_and_followed(self, pinned):
        system, network, routing, key, pin = pinned
        packet, next_hop = self.forward(network, routing, 0.5)
        assert next_hop == "spine0"
        assert routing.flowlets._entries[key] is pin and pin.last_seen == 0.5
        assert packet.tag == (2 if system == "contra" else 1)
        assert network.stats.flowlet_expirations == 0

    def test_a_timed_out_pin_is_dropped_silently(self, pinned):
        _, network, routing, key, pin = pinned
        self.forward(network, routing, 1.5)
        assert routing.flowlets._entries.get(key) is not pin
        assert network.stats.flowlet_expirations == 0

    @pytest.mark.parametrize("cause", ["believed-failed", "link-down"])
    def test_a_pin_to_an_unusable_next_hop_is_dropped_and_counted_once(
            self, pinned, cause):
        _, network, routing, key, pin = pinned
        if cause == "believed-failed":
            routing._believed_failed["spine0"] = True
        else:
            network.link("leaf0", "spine0").fail()
        _, next_hop = self.forward(network, routing, 0.5)
        assert next_hop != "spine0"
        assert routing.flowlets._entries.get(key) is not pin
        assert network.stats.flowlet_expirations == 1


class TestLoopDetectionTable:
    def test_stable_ttls_do_not_trigger(self):
        table = LoopDetectionTable()
        for ttl in (60, 60, 59, 60):
            assert not table.observe(("f",), ttl, now=0.1)

    def test_growing_delta_triggers(self):
        table = LoopDetectionTable()
        triggered = [table.observe(("f",), ttl, now=0.1) for ttl in (60, 58, 56, 54, 52)]
        assert any(triggered)

    def test_reset_after_detection(self):
        table = LoopDetectionTable()
        for ttl in (60, 57):
            table.observe(("f",), ttl, now=0.1)
        assert table.observe(("f",), 54, now=0.1)   # a spread of 6 > 4
        # After a detection the record restarts, so a stable TTL does not re-trigger.
        assert not table.observe(("f",), 54, now=0.2)

    def test_stale_records_expire(self):
        table = LoopDetectionTable()
        table.observe(("f",), 60, now=0.0)
        # Past the 50 ms entry timeout the old min/max are forgotten.
        assert not table.observe(("f",), 50, now=60.0)
        assert table.observe(("f",), 40, now=70.0)

    @pytest.mark.parametrize("step", [1, -1])
    def test_a_spread_of_the_delta_does_not_trigger(self, step):
        table = LoopDetectionTable()
        ttls = [60 + step * i for i in range(LOOP_TTL_DELTA + 1)]
        assert not any(table.observe(("f",), ttl, now=0.1) for ttl in ttls)

    @pytest.mark.parametrize("step", [1, -1])
    def test_a_spread_past_the_delta_triggers(self, step):
        table = LoopDetectionTable()
        for i in range(LOOP_TTL_DELTA + 1):
            table.observe(("f",), 60 + step * i, now=0.1)
        assert table.observe(("f",), 60 + step * (LOOP_TTL_DELTA + 1), now=0.1)

    def test_a_record_seen_at_the_timeout_is_kept(self):
        table = LoopDetectionTable()
        table.observe(("f",), 60, now=0.0)
        assert table.observe(("f",), 60 - LOOP_TTL_DELTA - 1, now=LOOP_ENTRY_TIMEOUT)

    def test_each_sighting_restarts_the_timeout(self):
        table = LoopDetectionTable()
        table.observe(("f",), 60, now=0.0)
        table.observe(("f",), 60, now=40.0)
        # 80 ms after the first sighting, 40 ms after the last one.
        assert table.observe(("f",), 55, now=80.0)

    def test_flows_in_one_slot_share_a_record(self):
        table = LoopDetectionTable()
        table.observe_hash(1, 60, now=0.1)
        assert table.observe_hash(1 + LOOP_TABLE_SLOTS, 50, now=0.1)

    def test_flows_in_different_slots_are_tracked_apart(self):
        table = LoopDetectionTable()
        table.observe_hash(1, 60, now=0.1)
        assert not table.observe_hash(2, 50, now=0.1)
        assert not table.observe_hash(1, 60, now=0.1)


class TestGenericMetricExtension:
    def test_a_shape_outside_the_unrolled_four_keeps_its_rows(self):
        """``(lat, util)`` is carried by no figure policy, so its probes extend
        through ``MetricVector.extend(link.metric_values())``; the rows are
        those the per-attribute extender installed."""
        topo = leafspine(2, 2, hosts_per_leaf=2, capacity=10.0)
        compiled = compile_policy(minimize(rank_tuple(path.lat, path.util)), topo)
        assert {sub.carried_attrs for sub in compiled.decomposition.subpolicies} \
            == {("lat", "util")}
        system = ContraSystem(compiled, probe_period=0.2)
        network = Network(topo, system)
        hosts = topo.hosts
        network.schedule_flows([Flow(hosts[i % 4], hosts[(i + 2) % 4], 20, 0.1 * i,
                                     flow_id=i) for i in range(8)])
        network.run(3.0)
        rows = sorted((switch, key) + row
                      for switch in network.switches
                      for key, row in system.logic(switch).forwarding_snapshot().items())
        assert rows == [
            ("leaf0", ("leaf1", 0, 0), "spine0", 15, (0.1, 0.8125)),
            ("leaf1", ("leaf0", 0, 0), "spine0", 15, (0.1, 2.125)),
            ("spine0", ("leaf0", 0, 0), "leaf0", 15, (0.05, 2.125)),
            ("spine0", ("leaf1", 0, 0), "leaf1", 15, (0.05, 0.8125)),
            ("spine1", ("leaf0", 0, 0), "leaf0", 15, (0.05, 0.6875)),
            ("spine1", ("leaf1", 0, 0), "leaf1", 15, (0.05, 0.75)),
        ]


def build_contra_network(policy=None, probe_period=0.25, **system_kwargs):
    topo = leafspine(2, 2, hosts_per_leaf=1, capacity=50.0)
    compiled = compile_policy(policy if policy is not None else MU(), topo)
    system = ContraSystem(compiled, probe_period=probe_period, **system_kwargs)
    network = Network(topo, system)
    return topo, compiled, system, network


class TestContraRouting:
    def test_probes_populate_forwarding_tables(self):
        _, _, system, network = build_contra_network()
        network.run(2.0)
        logic = system.logic("leaf0")
        snapshot = logic.forwarding_snapshot()
        assert any(key[0] == "leaf1" for key in snapshot)
        assert logic.best_next_hop("leaf1") in ("spine0", "spine1")

    def test_probe_versions_increase(self):
        _, _, system, network = build_contra_network(probe_period=0.2)
        network.run(2.0)
        logic = system.logic("leaf0")
        versions = [entry[1] for entry in logic.forwarding_snapshot().values()]
        assert max(versions) >= 5

    def test_best_next_hop_tracks_utilization(self):
        """Loading one spine path shifts the preferred next hop to the other."""
        topo, _, system, network = build_contra_network(probe_period=0.2)
        network.run(1.0)
        congested = network.link("leaf0", "spine0")
        # Saturate the leaf0->spine0 link with background transmissions.
        from repro.simulator.packet import Packet, PacketKind
        for _ in range(60):
            congested.enqueue(Packet(kind=PacketKind.DATA, src_host="x", dst_host="y"))
        network.sim.run(until=3.0)
        assert system.logic("leaf0").best_next_hop("leaf1") == "spine1"

    def test_probe_for_unknown_transition_is_dropped(self):
        topo, compiled, system, network = build_contra_network(
            policy=minimize(if_(matches("leaf0 spine0 leaf1"), 0, inf)))
        network.run(1.0)
        logic = system.logic("leaf0")
        # Only product-graph-compliant entries exist.
        for (origin, tag, pid) in logic.forwarding_snapshot():
            assert origin in topo.switches

    def test_multicast_of_an_unknown_tag_raises_the_canonical_error(self):
        # The multicast reads the tag table directly; a tag the switch does
        # not have still fails as DeviceConfig.tag_info says.
        _, compiled, system, network = build_contra_network()
        logic = system.logic("leaf0")
        unknown = max(compiled.device("leaf0").tags) + 1
        probe = ContraProbe("leaf1", 0, 1, unknown, MetricVector(("util",), (0.0,)),
                            probe_wire_size(96))
        with pytest.raises(CompilationError, match="has no tag"):
            logic._multicast(probe, exclude=None)

    def test_relayed_probes_are_not_sent_back_to_their_in_port(self):
        """Split horizon: a switch relays a probe to every multicast target
        but the neighbour it came from; only an originated probe has none."""
        topo, _, system, network = build_contra_network()
        multicasts = []
        for name, switch in network.switches.items():
            def recording(neighbors, ports, exclude, probe, groups=None,
                          name=name, inner=switch.send_probes):
                multicasts.append((name, probe.origin, exclude))
                inner(neighbors, ports, exclude, probe, groups)
            switch.send_probes = recording
        network.run(1.0)
        relayed = [(name, exclude) for name, origin, exclude in multicasts
                   if origin != name]
        assert relayed
        assert all(exclude in topo.neighbors(name) for name, exclude in relayed)
        assert all(exclude is None for name, origin, exclude in multicasts
                   if origin == name)

    def test_only_switches_with_hosts_originate_probes(self):
        _, _, system, network = build_contra_network()
        network.run(1.0)
        # The spines have no hosts, so no switch learns a route to one.
        assert {key[0] for key in system.logic("spine0").forwarding_snapshot()} \
            == {"leaf0", "leaf1"}
        logic = system.logic("leaf0")
        assert {key[0] for key in logic.forwarding_snapshot()} == {"leaf1"}
        assert logic.best_next_hop("spine0") is None

    def test_packet_header_bits_positive(self):
        _, _, system, _ = build_contra_network()
        assert system.packet_header_bits() >= 2

    def test_failure_detection_on_probe_silence(self):
        _, _, system, network = build_contra_network(probe_period=0.2, failure_periods=3)
        network.fail_link("leaf0", "spine0", at_time=2.0)
        network.run(6.0)
        logic = system.logic("leaf0")
        assert logic._believed_failed.get("spine0") is True
        assert network.stats.failure_detections >= 1
        assert logic.best_next_hop("leaf1") == "spine1"

    def test_probe_silence_tracking_starts_at_a_neighbours_first_probe(self):
        # attach() runs inside SwitchNode.__init__, before the network has
        # wired a single port, so nothing is (or ever was) pre-seeded.
        _, _, system, network = build_contra_network(probe_period=0.2)
        logic = system.logic("leaf0")
        assert network.switches["leaf0"].switch_neighbors() == ["spine0", "spine1"]
        assert logic._last_probe_from == {} and logic._believed_failed == {}
        network.run(0.5)
        assert sorted(logic._last_probe_from) == ["spine0", "spine1"]

    @pytest.mark.parametrize("system_name", ["contra", "hula"])
    def test_a_link_that_never_carries_probes_is_not_declared_failed(self, system_name):
        # A - B - C with hosts only under C: C originates, B relays to A, and
        # split horizon keeps A from echoing anything back — the A -> B
        # direction legitimately carries no probes, ever.  B must not read
        # that silence as a failure of A.
        topo = Topology("line")
        for switch in "ABC":
            topo.add_switch(switch)
        topo.add_link("A", "B")
        topo.add_link("B", "C")
        topo.add_host("h", "C")
        if system_name == "contra":
            system = ContraSystem(compile_policy(MU(), topo), probe_period=0.2,
                                  failure_periods=3)
        else:
            system = HulaSystem(probe_period=0.2, failure_periods=3)
        network = Network(topo, system)
        network.run(3.0)                  # many failure-check rounds
        relay = system.logic("B")
        assert sorted(relay._last_probe_from) == ["C"]
        assert relay._believed_failed.get("A", False) is False
        assert network.stats.failure_detections == 0
        assert sorted(system.logic("A")._last_probe_from) == ["B"]

    def test_unversioned_mode_still_converges_on_leafspine(self):
        _, _, system, network = build_contra_network(use_versioning=False)
        network.run(2.0)
        assert system.logic("leaf0").best_next_hop("leaf1") in ("spine0", "spine1")


class TestContraSystemArguments:
    """Malformed timing arguments are refused at construction.

    A NaN probe period used to fail only inside ``schedule_periodic``;
    ``failure_periods=0`` ran and declared a healthy 2x2 leaf-spine's links
    failed 396 times in 5 ms.
    """

    @pytest.mark.parametrize("name, value", [
        ("probe_period", 0.0),
        ("probe_period", -1.0),
        ("probe_period", float("nan")),
        ("probe_period", float("inf")),
        ("flowlet_timeout", -0.1),
        ("flowlet_timeout", float("nan")),
        ("failure_periods", 0),
        ("failure_periods", float("nan")),
    ])
    def test_refused(self, name, value):
        topo = leafspine(2, 2, hosts_per_leaf=1)
        compiled = compile_policy(MU(), topo)
        with pytest.raises(SimulationError, match=name):
            ContraSystem(compiled, **{name: value})

    def test_boundary_values_accepted(self):
        topo = leafspine(2, 2, hosts_per_leaf=1)
        system = ContraSystem(compile_policy(MU(), topo), flowlet_timeout=0.0,
                              failure_periods=1)
        assert system.failure_periods == 1
