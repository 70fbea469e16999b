"""Unit tests for the discrete-event simulator substrate."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import SimulationError
from repro.simulator import (
    ACK_PACKET_BYTES,
    DATA_PACKET_BYTES,
    Flow,
    Network,
    Packet,
    PacketKind,
    ReceiverState,
    RoutingSystem,
    SenderState,
    SimLink,
    Simulator,
    StatsCollector,
)
from repro.simulator.link import send_probes
from repro.simulator.switchnode import RoutingLogic
from repro.topology import leafspine


class TestSimulator:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(2.0, order.append, "b")
        sim.schedule(1.0, order.append, "a")
        sim.schedule(3.0, order.append, "c")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_break_by_scheduling_order(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, order.append, 1)
        sim.schedule(1.0, order.append, 2)
        sim.run()
        assert order == [1, 2]

    def test_run_until_stops_clock(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, fired.append, "late")
        assert sim.run(until=2.0) == 2.0
        assert fired == []
        sim.run(until=10.0)
        assert fired == ["late"]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, fired.append, "x")
        event.cancel()
        sim.run()
        assert fired == []

    def test_stop_halts_processing(self):
        sim = Simulator()
        fired = []

        def first():
            fired.append("first")
            sim.stop()

        sim.schedule(1.0, first)
        sim.schedule(2.0, fired.append, "second")
        sim.run()
        assert fired == ["first"]

    def test_events_scheduled_during_run_are_processed(self):
        sim = Simulator()
        fired = []

        def chain(n):
            fired.append(n)
            if n < 3:
                sim.schedule(1.0, chain, n + 1)

        sim.schedule(0.0, chain, 0)
        sim.run()
        assert fired == [0, 1, 2, 3]
        assert sim.events_processed == 4

    @given(st.lists(st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
                    min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_now_is_monotone_nondecreasing(self, delays):
        sim = Simulator()
        observed = []
        for delay in delays:
            sim.schedule(delay, lambda: observed.append(sim.now))
        sim.run()
        assert observed == sorted(observed)


class TestSimLink:
    def make_link(self, capacity=10.0, latency=0.1, buffer_packets=3):
        sim = Simulator()
        delivered = []
        link = SimLink(sim, "A", "B", capacity=capacity, latency=latency,
                       buffer_packets=buffer_packets,
                       deliver=lambda pkt, inport: delivered.append((sim.now, pkt)))
        return sim, link, delivered

    def packet(self, kind=PacketKind.DATA, size=DATA_PACKET_BYTES):
        return Packet(kind=kind, src_host="h1", dst_host="h2", size_bytes=size)

    def test_delivery_includes_serialization_and_latency(self):
        sim, link, delivered = self.make_link(capacity=10.0, latency=0.1)
        link.enqueue(self.packet())
        sim.run()
        assert len(delivered) == 1
        assert delivered[0][0] == pytest.approx(0.1 + 1.0 / 10.0)

    def test_packets_delivered_in_fifo_order(self):
        sim, link, delivered = self.make_link(buffer_packets=10)
        packets = [self.packet() for _ in range(3)]
        for pkt in packets:
            link.enqueue(pkt)
        sim.run()
        assert [p.packet_id for _, p in delivered] == [p.packet_id for p in packets]

    def test_buffer_overflow_drops(self):
        sim, link, delivered = self.make_link(buffer_packets=2)
        results = [link.enqueue(self.packet()) for _ in range(5)]
        assert results.count(False) >= 1
        assert link.packets_dropped >= 1
        sim.run()
        assert len(delivered) == 5 - link.packets_dropped

    def test_probes_jump_ahead_of_data(self):
        sim, link, delivered = self.make_link(capacity=1.0, latency=0.0, buffer_packets=10)
        for _ in range(3):
            link.enqueue(self.packet())
        probe = Packet(kind=PacketKind.PROBE, src_host="A", dst_host="", size_bytes=64,
                       probe={"origin": "A"})
        send_probes(("B",), {"B": link}, None, probe)
        sim.run()
        kinds = [p.kind for _, p in delivered]
        # The probe overtakes all queued data except the packet already serializing.
        assert kinds.index(PacketKind.PROBE) <= 1

    def test_failed_link_drops_everything(self):
        sim, link, delivered = self.make_link()
        link.fail()
        assert link.enqueue(self.packet()) is False
        sim.run()
        assert delivered == []
        link.recover()
        assert link.enqueue(self.packet()) is True

    def test_utilization_rises_under_load_and_decays(self):
        sim, link, _ = self.make_link(capacity=2.0, latency=0.0, buffer_packets=100)
        for _ in range(10):
            link.enqueue(self.packet())
        sim.run()
        busy_util = link.utilization
        assert busy_util > 0.3
        # Let time pass without traffic: the estimate decays.
        sim.schedule(10.0, lambda: None)
        sim.run()
        assert link.utilization < busy_util

    def test_metric_values_exposes_util_lat_len(self):
        _, link, _ = self.make_link(latency=0.25)
        values = link.metric_values()
        assert values["lat"] == 0.25
        assert values["len"] == 1.0
        assert 0.0 <= values["util"] <= 1.0

    def test_small_packets_serialize_faster(self):
        sim, link, delivered = self.make_link(capacity=1.0, latency=0.0)
        link.enqueue(self.packet(kind=PacketKind.ACK, size=ACK_PACKET_BYTES))
        sim.run()
        assert delivered[0][0] < 0.1


class TestTransportState:
    def test_sender_window_limits_in_flight(self):
        sender = SenderState(Flow("a", "b", 10, 0.0), window=4, rto=5.0)
        sent = 0
        while sender.can_send():
            sender.next_seq += 1
            sent += 1
        assert sent == 4

    def test_sender_ack_advances_window(self):
        sender = SenderState(Flow("a", "b", 10, 0.0), window=4, rto=5.0)
        sender.next_seq = 4
        assert sender.on_ack(2, now=1.0)
        assert sender.in_flight == 2
        assert not sender.on_ack(1, now=2.0)  # stale ACK ignored

    def test_sender_completion(self):
        sender = SenderState(Flow("a", "b", 3, 0.0), window=8, rto=5.0)
        sender.next_seq = 3
        sender.on_ack(3, now=1.0)
        assert sender.completed

    def test_sender_timeout_and_retransmit(self):
        sender = SenderState(Flow("a", "b", 10, 0.0), window=4, rto=2.0)
        sender.next_seq = 4
        assert not sender.timeout_expired(1.0)
        assert sender.timeout_expired(3.0)
        sender.retransmit(3.0)
        assert sender.next_seq == 0
        assert sender.retransmissions == 1

    def test_receiver_in_order(self):
        receiver = ReceiverState(1, "a")
        assert receiver.on_data(0, 3) == 1
        assert receiver.on_data(1, 3) == 2
        assert receiver.on_data(2, 3) == 3
        assert receiver.completed

    def test_receiver_out_of_order(self):
        receiver = ReceiverState(1, "a")
        assert receiver.on_data(2, 3) == 0
        assert receiver.on_data(0, 3) == 1
        assert receiver.on_data(1, 3) == 3
        assert receiver.completed

    def test_receiver_duplicates_ignored(self):
        receiver = ReceiverState(1, "a")
        receiver.on_data(0, 2)
        assert receiver.on_data(0, 2) == 1
        assert not receiver.completed

    def test_flow_size_clamped_to_one(self):
        assert Flow("a", "b", 0, 0.0).size_packets == 1


class TestStatsCollector:
    def test_flow_lifecycle(self):
        stats = StatsCollector()
        stats.register_flow(1, "a", "b", 10, 1.0)
        assert stats.completion_ratio() == 0.0
        stats.complete_flow(1, 5.0)
        assert stats.flow_completion_times() == [4.0]
        assert stats.average_fct() == 4.0
        assert stats.completion_ratio() == 1.0

    def test_double_completion_ignored(self):
        stats = StatsCollector()
        stats.register_flow(1, "a", "b", 10, 1.0)
        stats.complete_flow(1, 5.0)
        stats.complete_flow(1, 9.0)
        assert stats.flows[1].fct == 4.0

    def test_average_fct_empty_is_nan(self):
        import math
        assert math.isnan(StatsCollector().average_fct())

    def test_queue_cdf(self):
        stats = StatsCollector()
        for length in range(101):
            stats.record_queue_length(None, length)
        cdf = stats.queue_length_cdf((0.5, 1.0))
        assert cdf[0.5] == pytest.approx(50.0)
        assert cdf[1.0] == pytest.approx(100.0)

    def test_traffic_accounting_by_kind(self):
        stats = StatsCollector()
        data = Packet(kind=PacketKind.DATA, src_host="a", dst_host="b",
                      size_bytes=1500, extra_header_bits=16)
        ack = Packet(kind=PacketKind.ACK, src_host="b", dst_host="a", size_bytes=64)
        probe = Packet(kind=PacketKind.PROBE, src_host="s", dst_host="", size_bytes=50,
                       probe={})
        stats.record_transmission(None, data)
        stats.record_transmission(None, ack)
        stats.record_transmission(None, probe)
        assert stats.data_bytes == 1500
        assert stats.ack_bytes == 64
        assert stats.probe_bytes == 50
        assert stats.tag_overhead_bytes == pytest.approx(2.0)
        assert stats.overhead_ratio() == pytest.approx(52.0 / 1500.0)

    def test_throughput_series_bins_deliveries(self):
        stats = StatsCollector(throughput_bin_ms=1.0)
        packet = Packet(kind=PacketKind.DATA, src_host="a", dst_host="b", size_bytes=1500)
        stats.record_delivery(packet, 0.2)
        stats.record_delivery(packet, 0.7)
        stats.record_delivery(packet, 1.5)
        series = dict(stats.throughput_series())
        assert series[0.0] == pytest.approx(2.0)
        assert series[1.0] == pytest.approx(1.0)

    def test_loop_fraction(self):
        stats = StatsCollector()
        assert stats.loop_fraction() == 0.0
        stats.data_packets_forwarded = 100
        stats.looped_packets = 2
        assert stats.loop_fraction() == pytest.approx(0.02)

    def test_summary_keys(self):
        summary = StatsCollector().summary()
        for key in ("flows", "avg_fct_ms", "overhead_ratio", "loop_fraction", "drops"):
            assert key in summary


class _StaticLogic(RoutingLogic):
    """Forward everything to the first available switch port (test helper)."""

    def on_data_packet(self, packet, inport):
        neighbors = self.switch.switch_neighbors()
        return neighbors[0] if neighbors else None


class _StaticSystem(RoutingSystem):
    name = "static-test"

    def create_switch_logic(self, switch):
        return _StaticLogic()


class TestNetwork:
    def test_build_wires_links_and_hosts(self):
        topo = leafspine(2, 2, hosts_per_leaf=1)
        net = Network(topo, _StaticSystem())
        assert set(net.switches) == set(topo.switches)
        assert set(net.hosts) == set(topo.hosts)
        assert len(net.links) == len(topo.links)
        assert net.hosts["h0_0"].uplink is net.links[("h0_0", "leaf0")]

    def test_destination_switches(self):
        topo = leafspine(2, 2, hosts_per_leaf=1)
        net = Network(topo, _StaticSystem())
        assert net.destination_switches() == ["leaf0", "leaf1"]

    def test_schedule_flows_validates_hosts(self):
        topo = leafspine(2, 2, hosts_per_leaf=1)
        net = Network(topo, _StaticSystem())
        with pytest.raises(SimulationError):
            net.schedule_flows([Flow("nope", "h1_0", 1, 0.0)])

    def test_fail_and_recover_link(self):
        topo = leafspine(2, 2, hosts_per_leaf=1)
        net = Network(topo, _StaticSystem())
        net.fail_link("leaf0", "spine0", at_time=1.0)
        net.recover_link("leaf0", "spine0", at_time=2.0)
        net.run(1.5)
        assert net.link("leaf0", "spine0").failed
        assert net.link("spine0", "leaf0").failed
        net.sim.run(until=3.0)
        assert not net.link("leaf0", "spine0").failed

    def test_unknown_link_lookup_raises(self):
        topo = leafspine(2, 2, hosts_per_leaf=1)
        net = Network(topo, _StaticSystem())
        with pytest.raises(SimulationError):
            net.link("leaf0", "leaf1")

    def test_link_metric_lookup_callable(self):
        topo = leafspine(2, 2, hosts_per_leaf=1)
        net = Network(topo, _StaticSystem())
        metrics = net.link_metric_lookup()("leaf0", "spine0")
        assert set(metrics) == {"util", "lat", "len"}
