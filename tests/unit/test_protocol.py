"""Unit tests for the Contra protocol runtime: probes, tables, switch logic."""

import pytest

from repro.baselines import HulaSystem
from repro.core.attributes import MetricVector
from repro.core.compiler import compile_policy
from repro.core.policies import MU
from repro.core.builder import if_, inf, matches, minimize, path
from repro.protocol import ContraSystem
from repro.protocol.probe import ProbePayload, make_probe_packet, payload_from_packet
from repro.protocol.tables import (
    BestChoiceTable,
    FlowletTable,
    ForwardingEntry,
    ForwardingTable,
    LoopDetectionTable,
)
from repro.simulator import Network
from repro.topology import leafspine
from repro.topology.graph import Topology


class TestProbePayload:
    def test_roundtrip_through_packet(self):
        payload = ProbePayload("leaf1", 0, 7, 2, MetricVector(("util", "len"), (0.4, 2.0)))
        packet = make_probe_packet(payload, "spine0", payload_bits=96)
        recovered = payload_from_packet(packet)
        assert recovered == payload
        assert packet.is_probe
        assert packet.size_bytes > 42

    def test_advanced_updates_tag_and_metrics(self):
        payload = ProbePayload("leaf1", 1, 3, 0, MetricVector(("util",), (0.1,)))
        advanced = payload.advanced(5, MetricVector(("util",), (0.7,)))
        assert advanced.tag == 5
        assert advanced.metrics.get("util") == 0.7
        assert advanced.version == payload.version
        assert payload.metrics.get("util") == 0.1


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

    def test_entries_via_next_hop(self):
        table = ForwardingTable()
        table.install(("leaf1", 0, 0), self.entry("spine0"))
        table.install(("leaf2", 0, 0), self.entry("spine1"))
        assert table.entries_via("spine0") == [("leaf1", 0, 0)]

    def test_remove(self):
        table = ForwardingTable()
        table.install(("leaf1", 0, 0), self.entry())
        table.remove(("leaf1", 0, 0))
        assert table.lookup(("leaf1", 0, 0)) is None
        table.remove(("leaf1", 0, 0))  # idempotent


class TestBestChoiceTable:
    def test_set_get_clear(self):
        table = BestChoiceTable()
        assert table.get("leaf1") is None
        table.set("leaf1", ("leaf1", 0, 0))
        assert table.get("leaf1") == ("leaf1", 0, 0)
        table.clear("leaf1")
        assert table.get("leaf1") is None
        assert len(table) == 0


class TestFlowletTable:
    def test_install_lookup_expire_by_timeout(self):
        table = FlowletTable(timeout=1.0)
        fid = table.flowlet_id(("h1", "h2", 7))
        table.install("leaf1", 0, 0, fid, "spine0", 0, now=0.0)
        assert table.lookup("leaf1", 0, 0, fid, now=0.5).next_hop == "spine0"
        assert table.lookup("leaf1", 0, 0, fid, now=2.0) is None

    def test_touch_extends_lifetime(self):
        table = FlowletTable(timeout=1.0)
        entry = table.install("leaf1", 0, 0, 3, "spine0", 0, now=0.0)
        table.touch(entry, now=0.9)
        assert table.lookup("leaf1", 0, 0, 3, now=1.5) is not None

    def test_key_includes_tag_and_pid(self):
        """Policy-aware flowlet switching: different tags pin independently (§5.3)."""
        table = FlowletTable(timeout=1.0)
        table.install("leaf1", 0, 0, 3, "spine0", 0, now=0.0)
        assert table.lookup("leaf1", 1, 0, 3, now=0.1) is None
        assert table.lookup("leaf1", 0, 1, 3, now=0.1) is None

    def test_expire_via_failed_next_hop(self):
        table = FlowletTable(timeout=10.0)
        table.install("leaf1", 0, 0, 1, "spine0", 0, now=0.0)
        table.install("leaf2", 0, 0, 2, "spine1", 0, now=0.0)
        assert table.expire_via("spine0") == 1
        assert table.lookup("leaf1", 0, 0, 1, now=0.1) is None
        assert table.lookup("leaf2", 0, 0, 2, now=0.1) is not None

    def test_expire_flowlet_everywhere(self):
        table = FlowletTable(timeout=10.0)
        table.install("leaf1", 0, 0, 5, "spine0", 0, now=0.0)
        table.install("leaf1", 1, 0, 5, "spine1", 1, now=0.0)
        table.install("leaf1", 0, 0, 6, "spine0", 0, now=0.0)
        assert table.expire_flowlet_everywhere(5) == 2
        assert len(table) == 1


class TestLoopDetectionTable:
    def test_stable_ttls_do_not_trigger(self):
        table = LoopDetectionTable(threshold=4)
        for ttl in (60, 60, 59, 60):
            assert not table.observe(("f",), ttl, now=0.1)

    def test_growing_delta_triggers(self):
        table = LoopDetectionTable(threshold=4)
        triggered = [table.observe(("f",), ttl, now=0.1) for ttl in (60, 58, 56, 54, 52)]
        assert any(triggered)

    def test_reset_after_detection(self):
        table = LoopDetectionTable(threshold=2)
        for ttl in (60, 57):
            table.observe(("f",), ttl, now=0.1)
        assert table.observe(("f",), 54, now=0.1) is False or True  # detection may fire here
        # After a detection the record restarts, so a stable TTL does not re-trigger.
        assert not table.observe(("f",), 54, now=0.2)

    def test_stale_records_expire(self):
        table = LoopDetectionTable(threshold=2, entry_timeout=1.0)
        table.observe(("f",), 60, now=0.0)
        # Far in the future the old min/max are forgotten.
        assert not table.observe(("f",), 50, now=10.0)


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

    def test_split_horizon_disabled_still_converges(self):
        _, _, system, network = build_contra_network(split_horizon=False)
        network.run(2.0)
        assert system.logic("leaf0").best_next_hop("leaf1") is not None

    def test_packet_header_bits_positive(self):
        _, _, system, _ = build_contra_network()
        assert system.packet_header_bits() >= 2

    def test_probe_all_switches_mode(self):
        _, _, system, network = build_contra_network(probe_all_switches=True)
        network.run(1.0)
        # Spines originate probes too, so leaves know routes to spines.
        assert system.logic("leaf0").best_next_hop("spine0") == "spine0"

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
