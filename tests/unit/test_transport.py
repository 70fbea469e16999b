"""Unit tests for the cwnd-based transport subsystem.

Covers the sender congestion-control state machine (slow start, AIMD, fast
retransmit, RTO collapse, pacing intervals), the receiver's O(window) seq
pruning, the goodput-vs-throughput delivery accounting, and the host-level
state cleanup (stream dicts and completed-sender RTO timers).
"""

import pytest

from repro.exceptions import SimulationError
from repro.simulator.flow import Flow, ReceiverState, SenderState, TRANSPORT_MODES
from repro.simulator.network import Network
from repro.simulator.packet import DATA_PACKET_BYTES, Packet, PacketKind
from repro.simulator.stats import StatsCollector
from repro.baselines.ecmp import ShortestPathSystem
from repro.topology.leafspine import leafspine


def make_sender(transport, size=1000, window=16, rto=5.0):
    return SenderState(Flow("a", "b", size, 0.0, 0), window=window, rto=rto,
                       transport=transport)


class TestSenderCongestionControl:
    def test_unknown_transport_rejected(self):
        with pytest.raises(ValueError):
            make_sender("reno-vegas-hybrid")

    def test_fixed_mode_opens_full_window_immediately(self):
        sender = make_sender("fixed", window=8)
        assert sender.effective_window == 8
        sent = 0
        while sender.can_send():
            sender.next_seq += 1
            sent += 1
        assert sent == 8

    def test_slowstart_opens_one_segment(self):
        sender = make_sender("slowstart", window=8)
        assert sender.effective_window == 1

    def test_slowstart_doubles_per_acked_window(self):
        sender = make_sender("slowstart")
        # ACK one full cwnd at each step: exponential growth (1, 2, 4, 8...).
        for expected in (2, 4, 8, 16):
            acked = sender.effective_window
            sender.next_seq = sender.cumulative_ack + acked
            sender.on_ack(sender.cumulative_ack + acked, now=1.0)
            assert sender.effective_window == expected

    def test_cwnd_capped_by_configured_window(self):
        sender = make_sender("slowstart", window=8)
        for _ in range(10):                     # far past the cap
            acked = sender.effective_window
            sender.next_seq = sender.cumulative_ack + acked
            sender.on_ack(sender.cumulative_ack + acked, now=1.0)
        assert sender.cwnd == 8.0
        assert sender.effective_window == 8
        assert sender.max_cwnd == 8.0

    def test_ack_jump_past_next_seq_clamps_in_flight(self):
        # RTO rewind, one resend fills the hole, the receiver's cached tail
        # jumps the cumulative ACK past next_seq: in_flight must not go
        # negative (which would re-send already-ACKed segments).
        sender = make_sender("slowstart")
        sender.cwnd = 8.0
        sender.next_seq = 8
        sender.retransmit(now=10.0)             # next_seq rewinds to 0
        sender.next_seq = 1                     # the single resend
        sender.on_ack(8, now=11.0)              # ACK jumps past next_seq
        assert sender.next_seq == 8
        assert sender.in_flight == 0

    def test_congestion_avoidance_grows_linearly(self):
        sender = make_sender("slowstart")
        sender.cwnd = 10.0
        sender.ssthresh = 10.0                  # at/above threshold: AIMD
        sender.next_seq = 10
        sender.on_ack(10, now=1.0)              # 10 segments ACKed: +~1 total
        assert sender.cwnd == pytest.approx(11.0)

    def test_timeout_collapses_cwnd_and_halves_ssthresh(self):
        sender = make_sender("slowstart")
        sender.cwnd = 12.0
        sender.next_seq = 6
        sender.retransmit(now=10.0)
        assert sender.cwnd == 1.0
        assert sender.ssthresh == pytest.approx(6.0)
        assert sender.next_seq == sender.cumulative_ack
        assert sender.retransmissions == 1

    def test_fixed_mode_timeout_keeps_window(self):
        sender = make_sender("fixed", window=8)
        sender.next_seq = 6
        sender.retransmit(now=10.0)
        assert sender.effective_window == 8

    def test_triple_duplicate_ack_triggers_fast_retransmit_once(self):
        sender = make_sender("slowstart")
        sender.cwnd = 8.0
        sender.next_seq = 8
        assert not sender.on_duplicate_ack(0)
        assert not sender.on_duplicate_ack(0)
        assert sender.on_duplicate_ack(0)       # the third one fires
        assert sender.cwnd == pytest.approx(4.0)
        assert sender.fast_retransmits == 1
        # Further duplicates do not re-trigger until progress resets the count.
        assert not sender.on_duplicate_ack(0)
        sender.on_ack(4, now=2.0)
        assert sender.dup_acks == 0

    def test_stale_reordered_acks_do_not_count_as_duplicates(self):
        # An overtaken ACK (ack_seq below the cumulative ACK) says nothing
        # about loss; only an ACK for exactly the current cumulative value
        # counts toward the fast-retransmit trigger.
        sender = make_sender("slowstart")
        sender.cwnd = 8.0
        sender.next_seq = 8
        sender.on_ack(4, now=1.0)
        for _ in range(5):
            assert not sender.on_duplicate_ack(2)   # stale, reordered
        assert sender.dup_acks == 0
        assert sender.fast_retransmits == 0

    def test_fixed_mode_never_fast_retransmits(self):
        sender = make_sender("fixed")
        sender.next_seq = 8
        for _ in range(10):
            assert not sender.on_duplicate_ack(0)
        assert sender.fast_retransmits == 0

    def test_max_cwnd_tracks_peak(self):
        sender = make_sender("slowstart")
        sender.next_seq = 4
        sender.on_ack(4, now=1.0)               # slow start: cwnd 1 -> 5
        peak = sender.cwnd
        sender.next_seq = 8
        sender.retransmit(now=20.0)             # collapse to 1
        assert sender.max_cwnd == pytest.approx(peak)

    def test_rtt_estimation_and_pacing_interval(self):
        sender = make_sender("paced")
        sender.note_sent(0, now=1.0)
        sender.next_seq = 1
        sender.on_ack(1, now=1.8)
        assert sender.srtt == pytest.approx(0.8)
        sender.cwnd = 4.0
        assert sender.pacing_interval() == pytest.approx(0.8 / 4.0)

    def test_retransmitted_segment_never_sampled(self):
        sender = make_sender("paced")
        sender.note_sent(0, now=1.0)
        sender.next_seq = 1
        sender.retransmit(now=6.0)              # Karn: discard the pending sample
        # The go-back-N resend of seq 0 must not arm a fresh sample either —
        # its ACK may belong to the original copy still in flight.
        sender.note_sent(0, now=6.0)
        sender.next_seq = 1
        sender.on_ack(1, now=7.0)
        assert sender.srtt is None


class TestPerFlowRto:
    def _ack_with_rtt(self, sender, rtt, now):
        """Send one new segment at ``now`` and ACK it ``rtt`` later."""
        seq = sender.next_seq
        sender.note_sent(seq, now=now)
        sender.next_seq = seq + 1
        sender.on_ack(seq + 1, now=now + rtt)

    def test_no_sample_means_host_constant(self):
        sender = make_sender("slowstart", rto=5.0)
        assert sender.current_rto() == 5.0

    def test_fixed_mode_always_uses_host_constant(self):
        sender = make_sender("fixed", rto=5.0)
        self._ack_with_rtt(sender, rtt=0.4, now=1.0)
        assert sender.srtt is not None
        assert sender.current_rto() == 5.0

    def test_rto_derives_from_srtt_and_rttvar(self):
        sender = make_sender("slowstart", rto=5.0)
        self._ack_with_rtt(sender, rtt=0.8, now=1.0)
        # RFC 6298 init: srtt = 0.8, rttvar = 0.4 -> rto = 0.8 + 4*0.4 = 2.4.
        assert sender.srtt == pytest.approx(0.8)
        assert sender.rttvar == pytest.approx(0.4)
        assert sender.current_rto() == pytest.approx(2.4)

    def test_rto_floored_at_one_millisecond(self):
        sender = make_sender("slowstart", rto=5.0)
        self._ack_with_rtt(sender, rtt=0.1, now=1.0)
        # srtt + 4*rttvar = 0.3 in the scaled regime; the floor holds it at 1.
        assert sender.current_rto() == pytest.approx(1.0)

    def test_rto_capped_at_host_constant(self):
        sender = make_sender("slowstart", rto=5.0)
        self._ack_with_rtt(sender, rtt=10.0, now=1.0)
        assert sender.current_rto() == 5.0

    def test_rttvar_tracks_deviation(self):
        sender = make_sender("slowstart", rto=50.0)
        self._ack_with_rtt(sender, rtt=1.0, now=0.0)
        stable_var = sender.rttvar
        self._ack_with_rtt(sender, rtt=4.0, now=10.0)
        assert sender.rttvar > stable_var

    def test_backoff_doubles_per_rto_and_resets_on_progress(self):
        sender = make_sender("slowstart", rto=50.0)
        self._ack_with_rtt(sender, rtt=2.0, now=1.0)
        base = sender.current_rto()
        sender.next_seq = sender.cumulative_ack + 2
        sender.retransmit(now=20.0)
        assert sender.current_rto() == pytest.approx(2.0 * base)
        sender.retransmit(now=40.0)
        assert sender.current_rto() == pytest.approx(4.0 * base)
        sender.on_ack(sender.cumulative_ack + 1, now=41.0)
        assert sender.current_rto() <= base

    def test_fixed_mode_backoff_never_engages(self):
        sender = make_sender("fixed", rto=5.0)
        sender.next_seq = 4
        sender.retransmit(now=20.0)
        sender.retransmit(now=40.0)
        assert sender.current_rto() == 5.0

    def test_timeout_expires_at_the_per_flow_rto(self):
        sender = make_sender("slowstart", rto=5.0)
        self._ack_with_rtt(sender, rtt=0.1, now=0.0)   # rto floored to 1.0
        sender.next_seq = sender.cumulative_ack + 1    # one segment in flight
        # Progress happened at 0.1; at 1.05 the per-flow RTO (1.0) has not
        # elapsed yet, at 1.2 it has — long before the host constant (5.0).
        assert not sender.timeout_expired(1.05)
        assert sender.timeout_expired(1.2)

    def test_fixed_mode_timeout_still_waits_host_constant(self):
        sender = make_sender("fixed", rto=5.0)
        sender.note_sent(0, now=0.0)
        sender.next_seq = 1
        assert not sender.timeout_expired(4.9)
        assert sender.timeout_expired(5.0)

    def test_first_check_armed_at_floor_in_cwnd_modes(self):
        # The first timeout check fires at the RTO floor, so the flow's
        # *first* loss is already detected at the per-flow RTO once an RTT
        # sample exists — not after the host constant.
        assert make_sender("slowstart", rto=5.0).first_check_delay() == 1.0
        assert make_sender("paced", rto=5.0).first_check_delay() == 1.0
        assert make_sender("fixed", rto=5.0).first_check_delay() == 5.0
        # A host constant below the floor still wins (never check later
        # than the old schedule would have).
        assert make_sender("slowstart", rto=0.5).first_check_delay() == 0.5


class TestReceiverPruning:
    def test_in_order_delivery_keeps_no_state(self):
        receiver = ReceiverState(1, "a")
        for seq in range(1000):
            receiver.on_data(seq, 2000)
        # Every seq below the cumulative ACK is pruned: O(window), not O(flow).
        assert receiver.received == set()
        assert receiver.cumulative_ack == 1000

    def test_out_of_order_window_is_retained_then_pruned(self):
        receiver = ReceiverState(1, "a")
        for seq in (1, 2, 3):                   # hole at 0
            receiver.on_data(seq, 10)
        assert receiver.received == {1, 2, 3}
        receiver.on_data(0, 10)                 # hole filled: everything prunes
        assert receiver.received == set()
        assert receiver.cumulative_ack == 4

    def test_duplicate_below_cumulative_not_retained(self):
        receiver = ReceiverState(1, "a")
        for seq in range(5):
            receiver.on_data(seq, 10)
        assert receiver.on_data(2, 10) == 5     # go-back-N duplicate
        assert receiver.received == set()

    def test_has_seen_distinguishes_first_time_from_duplicate(self):
        receiver = ReceiverState(1, "a")
        assert not receiver.has_seen(0)
        receiver.on_data(0, 10)
        assert receiver.has_seen(0)             # below cumulative
        receiver.on_data(3, 10)
        assert receiver.has_seen(3)             # cached out-of-order
        assert not receiver.has_seen(2)


class TestPerFlowStateIsSlotted:
    def test_flow_sender_and_receiver_hold_no_instance_dict(self):
        flow = Flow("a", "b", 10, 0.0, 7)
        for state in (flow, SenderState(flow, window=4, rto=5.0),
                      ReceiverState(7, "a")):
            assert not hasattr(state, "__dict__"), type(state).__name__

    def test_flow_id_is_required(self):
        with pytest.raises(TypeError):
            Flow("a", "b", 10, 0.0)


class TestGoodputAccounting:
    def packet(self, seq=0):
        return Packet(kind=PacketKind.DATA, src_host="a", dst_host="b",
                      flow_id=1, seq=seq, size_bytes=DATA_PACKET_BYTES)

    def test_duplicates_split_goodput_from_throughput(self):
        stats = StatsCollector()
        stats.record_delivery(self.packet(0), 0.2)
        stats.record_delivery(self.packet(1), 0.4)
        stats.record_delivery(self.packet(1), 0.6, duplicate=True)
        assert stats.goodput_bytes == 2 * DATA_PACKET_BYTES
        assert stats.delivered_bytes == 3 * DATA_PACKET_BYTES
        assert stats.duplicate_deliveries == 1
        assert stats.goodput_bytes < stats.delivered_bytes

    def test_throughput_series_counts_unique_deliveries_only(self):
        stats = StatsCollector()
        stats.record_delivery(self.packet(0), 0.2)
        stats.record_delivery(self.packet(0), 0.7, duplicate=True)
        stats.record_delivery(self.packet(1), 1.5)
        series = dict(stats.throughput_series())
        assert series[0.0] == pytest.approx(1.0)   # the duplicate is excluded
        assert series[1.0] == pytest.approx(1.0)

    def test_summary_carries_transport_fields(self):
        stats = StatsCollector()
        stats.register_flow(1, "a", "b", 10, 0.0)
        stats.record_retransmission(1)
        stats.record_retransmission(1, fast=True)
        stats.record_transport(1, final_cwnd=5.0, max_cwnd=9.0)
        summary = stats.summary()
        assert summary["retransmissions"] == 2
        assert summary["fast_retransmits"] == 1
        assert summary["mean_max_cwnd"] == pytest.approx(9.0)
        assert summary["goodput_bytes"] <= summary["delivered_bytes"]


def tiny_network(transport="fixed"):
    return Network(leafspine(2, 2, hosts_per_leaf=1), ShortestPathSystem(),
                   buffer_packets=50, host_window=8, host_rto=2.0,
                   transport=transport)


class TestHostStateCleanup:
    def test_unknown_transport_mode_rejected_by_network(self):
        with pytest.raises(SimulationError):
            tiny_network(transport="warp-speed")

    @pytest.mark.parametrize("transport", TRANSPORT_MODES)
    def test_sender_state_dropped_on_completion(self, transport):
        net = tiny_network(transport)
        net.schedule_flows([Flow("h0_0", "h1_0", 20, 0.1, 0)])
        stats = net.run(30.0)
        assert stats.completion_ratio() == 1.0
        assert net.hosts["h0_0"]._senders == {}

    def test_completed_flow_stops_rescheduling_rto_timers(self):
        net = tiny_network()
        net.schedule_flows([Flow("h0_0", "h1_0", 4, 0.1, 0)])
        net.run(10.0)
        # One pending self-rescheduled timer at most drains on the next check;
        # after it fires nothing re-arms, so a long quiet run ends with an
        # empty event queue (the timer chain died with the sender state).
        net.sim.run(until=100.0)
        assert net.sim.pending_events == 0

    def test_stream_state_dropped_after_stream_ends(self):
        net = tiny_network()
        net.sim.call_at(0.5, net.hosts["h0_0"].start_constant_stream,
                        "h1_0", 5.0, 3.0)
        net.run(10.0)
        assert net.hosts["h0_0"]._streams == {}

    def test_completed_flow_reports_cwnd_summary(self):
        net = tiny_network("slowstart")
        net.schedule_flows([Flow("h0_0", "h1_0", 50, 0.1, 0)])
        stats = net.run(60.0)
        record = next(iter(stats.flows.values()))
        assert record.completed
        assert record.max_cwnd >= record.final_cwnd > 0
        assert stats.summary()["mean_max_cwnd"] > 1.0
