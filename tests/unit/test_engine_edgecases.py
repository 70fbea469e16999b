"""Edge-case tests for the event engine and link layer.

Covers the semantics the refactored fast-path engine must keep: the
``run(until=...)`` boundary, exact pending-event accounting, periodic
events, link failure during an in-flight serialization, and determinism of
identical runs.
"""

from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import SimulationError
from repro.nputil import percentile_linear
from repro.simulator.engine import PeriodicEvent, Simulator
from repro.simulator.link import SimLink, send_probes
from repro.simulator.packet import Packet, PacketKind
from repro.simulator.accumulators import ReservoirSampler, StreamingHistogram


class TestRunUntilBoundary:
    def test_event_exactly_at_until_runs(self):
        sim = Simulator()
        fired = []
        sim.call_at(2.0, fired.append, "boundary")
        assert sim.run(until=2.0) == 2.0
        assert fired == ["boundary"]

    def test_clock_never_exceeds_until(self):
        sim = Simulator()
        sim.call_at(5.0, lambda: None)
        assert sim.run(until=3.0) == 3.0
        assert sim.now == 3.0

    def test_until_with_empty_queue_advances_clock(self):
        sim = Simulator()
        assert sim.run(until=7.5) == 7.5
        assert sim.now == 7.5

    def test_resume_after_until_processes_remaining(self):
        sim = Simulator()
        fired = []
        sim.call_later(1.0, fired.append, "a")
        sim.call_later(4.0, fired.append, "b")
        sim.run(until=2.0)
        assert fired == ["a"]
        sim.run(until=10.0)
        assert fired == ["a", "b"]

    def test_max_events_limits_processing(self):
        sim = Simulator()
        fired = []
        for value in range(5):
            sim.call_later(float(value), fired.append, value)
        sim.run(max_events=2)
        assert fired == [0, 1]

    def test_until_equal_to_now_is_a_no_op(self):
        sim = Simulator()
        fired = []
        sim.call_at(5.0, fired.append, "a")
        sim.call_at(6.0, fired.append, "b")
        sim.run(until=5.0)
        assert sim.run(until=5.0) == 5.0
        assert fired == ["a"] and sim.pending_events == 1

    def test_nan_until_is_refused_before_any_event_runs(self):
        # The bound was silently ignored: both events ran, clock at 100.0.
        sim = Simulator()
        fired = []
        sim.call_at(1.0, fired.append, "a")
        sim.call_at(100.0, fired.append, "b")
        with pytest.raises(SimulationError):
            sim.run(until=float("nan"))
        assert fired == [] and sim.now == 0.0 and sim.pending_events == 2

    def test_until_before_now_is_refused_before_any_event_runs(self):
        # The clock used to move backwards to 3.0 with events pending.
        sim = Simulator()
        fired = []
        sim.call_at(5.0, fired.append, "a")
        sim.call_at(8.0, fired.append, "b")
        sim.run(until=5.0)
        with pytest.raises(SimulationError):
            sim.run(until=3.0)
        assert fired == ["a"] and sim.now == 5.0 and sim.pending_events == 1

    @pytest.mark.parametrize("max_events", [0, -1])
    def test_max_events_below_one_is_refused_before_any_event_runs(self, max_events):
        # max_events=0 used to run one event.
        sim = Simulator()
        fired = []
        sim.call_at(1.0, fired.append, "a")
        with pytest.raises(SimulationError):
            sim.run(max_events=max_events)
        assert fired == [] and sim.pending_events == 1


class TestPendingEvents:
    def test_pending_events_counts_fast_path_entries(self):
        sim = Simulator()
        sim.call_later(1.0, lambda: None)
        sim.call_later(2.0, lambda: None)
        assert sim.pending_events == 2
        sim.run()
        assert sim.pending_events == 0

    @pytest.mark.parametrize("batching", [True, False])
    def test_pending_events_counts_every_lane_delivery(self, batching):
        sim = Simulator(batching=batching)
        sim.call_multicast(1.0, "p", (_pair, "a", _pair, "b", _pair, "c"))
        sim.call_multicast(1.0, "q", (_pair, "a"))
        sim.call_later(2.0, _noop)
        assert sim.pending_events == 5
        sim.run(until=1.0)
        assert sim.pending_events == 1
        assert sim.events_processed == 4

    def test_a_periodic_handle_is_one_pending_event_every_round(self):
        sim = Simulator()
        sim.schedule_periodic(1.0, _noop)
        assert sim.pending_events == 1
        sim.run(until=3.5)
        assert sim.pending_events == 1
        assert sim.events_processed == 4


class TestMaxEvents:
    def test_a_lane_entry_is_one_step_however_many_deliveries(self):
        sim = Simulator(batching=True)
        fired = []
        deliver = lambda subject, inport: fired.append((subject, inport))  # noqa: E731
        sim.call_multicast(1.0, "p", (deliver, "a", deliver, "b"))
        sim.call_multicast(1.0, "q", (deliver, "c"))
        sim.call_at(2.0, fired.append, "late")
        sim.run(max_events=1)
        assert fired == [("p", "a"), ("p", "b"), ("q", "c")]
        assert sim.events_processed == 3
        assert sim.pending_events == 1

    def test_with_the_lane_off_each_delivery_is_one_step(self):
        sim = Simulator(batching=False)
        fired = []
        deliver = lambda subject, inport: fired.append((subject, inport))  # noqa: E731
        sim.call_multicast(1.0, "p", (deliver, "a", deliver, "b"))
        sim.run(max_events=1)
        assert fired == [("p", "a")]
        assert sim.pending_events == 1


class TestPeriodicEvents:
    def test_fires_every_period(self):
        sim = Simulator()
        times = []
        sim.schedule_periodic(1.0, lambda: times.append(sim.now))
        sim.run(until=3.5)
        assert times == [0.0, 1.0, 2.0, 3.0]

    def test_start_delay(self):
        sim = Simulator()
        times = []
        sim.schedule_periodic(1.0, lambda: times.append(sim.now), start_delay=0.5)
        sim.run(until=2.6)
        assert times == [0.5, 1.5, 2.5]

    def test_non_positive_period_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_periodic(0.0, lambda: None)

    def test_negative_start_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_periodic(1.0, _noop, start_delay=-0.5)
        assert sim.pending_events == 0

    def test_rounds_keep_their_phase_after_a_later_run(self):
        sim = Simulator()
        times = []
        sim.schedule_periodic(2.0, lambda: times.append(sim.now), start_delay=0.5)
        sim.run(until=3.0)
        sim.call_at(4.0, _noop)
        sim.run(until=7.0)
        assert times == [0.5, 2.5, 4.5, 6.5]


NAN = float("nan")


class TestNonFiniteTimes:
    """Every scheduling entry point refuses NaN, and a period and a periodic
    start delay must be finite.

    Unchecked, a NaN period re-arms at NaN forever (``run(until=5.0)`` never
    returns), a NaN time sorts first and sets the clock to NaN, and an
    infinite start delay fires at inf and re-arms at inf + period = inf, so
    ``run()`` never returns.
    """

    @pytest.mark.parametrize("schedule", [
        pytest.param(lambda sim: sim.call_later(NAN, _noop), id="call_later"),
        pytest.param(lambda sim: sim.call_at(NAN, _noop), id="call_at"),
        pytest.param(lambda sim: sim.call_multicast(NAN, "p", (_pair, "a")),
                     id="call_multicast"),
        pytest.param(lambda sim: sim.schedule_periodic(NAN, _noop),
                     id="periodic-nan-period"),
        pytest.param(lambda sim: sim.schedule_periodic(float("inf"), _noop),
                     id="periodic-infinite-period"),
        pytest.param(lambda sim: sim.schedule_periodic(1.0, _noop, start_delay=NAN),
                     id="periodic-nan-start-delay"),
        pytest.param(lambda sim: sim.schedule_periodic(
            1.0, _noop, start_delay=float("inf")), id="periodic-infinite-start-delay"),
        pytest.param(lambda sim: sim.schedule_periodic(
            1.0, _noop, start_delay=float("-inf")),
            id="periodic-negative-infinite-start-delay"),
    ])
    def test_refused_and_nothing_scheduled(self, schedule):
        sim = Simulator()
        sim.call_at(1.0, _noop)
        sim.run(until=2.0)
        with pytest.raises(SimulationError):
            schedule(sim)
        assert sim.pending_events == 0
        assert sim.run(until=5.0) == 5.0


def _noop():
    pass


def _pair(subject, inport):
    pass


class TestNoCancellableTier:
    """The engine schedules through three tiers, none of them cancellable:
    the cancellable tier and the second lane registration are gone."""

    @pytest.mark.parametrize("owner, name", [
        (Simulator, "schedule"),
        (Simulator, "schedule_at"),
        (Simulator, "call_batched"),
        (PeriodicEvent, "cancel"),
        (PeriodicEvent, "active"),
    ])
    def test_the_removed_entry_points_are_gone(self, owner, name):
        assert not hasattr(owner, name)

    def test_the_package_exports_no_event_handle(self):
        import repro.simulator
        import repro.simulator.engine

        assert not hasattr(repro.simulator, "Event")
        assert not hasattr(repro.simulator.engine, "Event")

    def test_an_engine_keeps_no_tombstone_counter(self):
        sim = Simulator()
        sim.schedule_periodic(1.0, _noop)
        sim.run(until=2.0)
        assert "_cancelled" not in vars(sim)


class TestLinkFailureInFlight:
    def make_link(self, capacity=1.0, latency=0.5):
        sim = Simulator()
        delivered = []
        link = SimLink(sim, "A", "B", capacity=capacity, latency=latency,
                       buffer_packets=10,
                       deliver=lambda pkt, inport: delivered.append(pkt))
        return sim, link, delivered

    def packet(self):
        return Packet(kind=PacketKind.DATA, src_host="h1", dst_host="h2")

    def test_fail_during_serialization_loses_packet(self):
        sim, link, delivered = self.make_link(capacity=1.0, latency=0.0)
        link.enqueue(self.packet())           # serializes until t=1.0
        sim.call_at(0.5, link.fail)           # mid-serialization
        sim.run()
        assert delivered == []

    def test_fail_and_recover_still_loses_in_flight_packet(self):
        sim, link, delivered = self.make_link(capacity=1.0, latency=2.0)
        link.enqueue(self.packet())           # delivery would be at t=3.0
        sim.call_at(1.5, link.fail)
        sim.call_at(2.0, link.recover)
        sim.run()
        assert delivered == []                # the wire went dark while in flight

    def test_traffic_after_recovery_flows(self):
        sim, link, delivered = self.make_link()
        link.enqueue(self.packet())
        sim.call_at(0.1, link.fail)
        sim.call_at(2.0, link.recover)
        sim.call_at(3.0, lambda: link.enqueue(self.packet()))
        sim.run()
        assert len(delivered) == 1

    def test_fail_clears_queued_backlog(self):
        sim, link, delivered = self.make_link(capacity=1.0, latency=0.0)
        for _ in range(5):
            link.enqueue(self.packet())
        assert link.queue_length > 0
        link.fail()
        assert link.queue_length == 0
        sim.run()
        assert delivered == []


class TestLinkStatsAccountingParity:
    PACKETS = [
        dict(kind=PacketKind.DATA, src_host="a", dst_host="b",
             size_bytes=1500, extra_header_bits=16),
        dict(kind=PacketKind.ACK, src_host="b", dst_host="a", size_bytes=64),
        dict(kind=PacketKind.PROBE, src_host="s", dst_host="", size_bytes=50),
    ]
    FIELDS = ("total_packets", "data_bytes", "ack_bytes", "probe_bytes",
              "tag_overhead_bytes")

    @pytest.mark.parametrize("entry", ["front-door", "_transmit"])
    def test_link_inlined_accounting_matches_stats_collector(self, entry):
        """The link's inlined byte accounting must track StatsCollector's.

        ``SimLink._transmit`` (data/ACK) and ``send_probes`` (probes)
        hand-inline ``StatsCollector.record_transmission`` for speed; this
        test feeds identical packets through the link — by its front doors,
        ``enqueue`` and ``send_probes``, and straight into the one transmit
        frame, whose else-branch a probe only reaches that way — and through
        the reference method, and asserts the collectors agree, so the
        copies cannot silently diverge.
        """
        from repro.simulator.stats import StatsCollector
        via_link = StatsCollector()
        reference = StatsCollector()
        sim = Simulator()
        link = SimLink(sim, "A", "B", capacity=10.0, latency=0.1,
                       deliver=lambda pkt, inport: None, stats=via_link)
        link.probe_receivers = (link.deliver, link.src)
        for fields in self.PACKETS:
            packet = Packet(**fields)
            if entry == "_transmit":
                link._transmit(packet)
            elif packet.kind == PacketKind.PROBE:
                send_probes(("B",), {"B": link}, None, packet)
            else:
                link.enqueue(packet)
            reference.record_transmission(link, packet)
        sim.run()
        for field in self.FIELDS:
            assert getattr(via_link, field) == getattr(reference, field), field
        assert link.packets_sent == 3
        assert link.bytes_sent == 1500 + 2.0 + 64 + 50

    def test_transmit_decays_the_estimator_to_now_before_adding_busy_time(self):
        sim = Simulator()
        link = SimLink(sim, "A", "B", capacity=10.0, latency=0.1, util_window=1.0)
        packet = Packet(kind=PacketKind.DATA, src_host="a", dst_host="b")
        link._transmit(packet)
        assert link._util == 0.1 and link._busy_until == 0.1
        sim.run(until=0.5)
        link._transmit(packet)
        # Decayed to now first (0.1 * (1 - 0.5/1.0)), then this packet's 0.1.
        assert link._util == 0.1 * 0.5 + 0.1
        assert link._last_util_update == 0.5
        assert link._busy_until == 0.5 + 0.1

    def test_the_old_transmit_helpers_are_gone(self):
        assert not hasattr(SimLink, "_transmit_next")
        assert not hasattr(SimLink, "_record_transmission")


class TestLinkTransmitSeam:
    """``enqueue`` and ``_drain`` reach ``_transmit`` through the instance.

    The sanitizer's conservation ledger shadows ``link._transmit`` per
    instance; a direct ``SimLink._transmit(self, ...)`` call or a bound
    method cached at construction would bypass it.
    """

    def test_every_transmission_passes_through_the_instance_attribute(self):
        sim = Simulator()
        link = SimLink(sim, "A", "B", capacity=1.0, latency=0.0,
                       deliver=lambda pkt, inport: None)
        seen = []
        inner = link._transmit

        def spy(packet):
            seen.append((sim.now, packet.seq, link.queue_length))
            inner(packet)

        link._transmit = spy
        for seq in range(3):
            link.enqueue(Packet(kind=PacketKind.DATA, src_host="a", dst_host="b",
                                seq=seq))
        # Idle serializer: the first packet transmits from enqueue and never
        # touches the deque; the other two wait for the one drain event.
        assert seen == [(0.0, 0, 0)]
        assert link.queue_length == 2
        sim.run()
        assert seen == [(0.0, 0, 0), (1.0, 1, 1), (2.0, 2, 0)]
        assert sim.events_processed == 3 + 2        # deliveries + drains

    def test_a_backlog_without_a_drain_still_goes_out_in_fifo_order(self):
        sim = Simulator()
        delivered = []
        link = SimLink(sim, "A", "B", capacity=1.0, latency=0.0,
                       deliver=lambda pkt, inport: delivered.append(
                           (sim.now, pkt.seq)))

        def data(seq):
            return Packet(kind=PacketKind.DATA, src_host="a", dst_host="b", seq=seq)

        # Only reachable by seeding the link by hand: a queued packet, an
        # idle serializer and no drain armed.
        link._queue = deque([data(0)])
        link.enqueue(data(1))
        sim.run()
        assert delivered == [(1.0, 0), (2.0, 1)]


class TestDeterminism:
    def _run_once(self):
        """A small closed simulation mixing fast-path, lane and periodic."""
        sim = Simulator()
        trace = []
        sim.schedule_periodic(0.7, lambda: trace.append(("tick", sim.now)))
        for index in range(20):
            sim.call_later(0.1 * index, lambda i=index: trace.append(("call", i, sim.now)))
        pair = (lambda subject, inport: trace.append(("lane", subject, sim.now)), None)
        for index in range(10):
            sim.call_multicast(0.35 * index, index, pair)
        sim.run(until=5.0)
        return trace, sim.events_processed

    def test_identical_runs_produce_identical_traces(self):
        first = self._run_once()
        second = self._run_once()
        assert first == second


class _EagerHistogram:
    """The accumulator as it was before it kept only its counts: count, min
    and max maintained per sample.  Reference for the read-time derivation."""

    def __init__(self):
        self.samples = []
        self.count = self.min = self.max = 0

    def record(self, value):
        if self.count == 0:
            self.min = self.max = value
        else:
            self.min = min(self.min, value)
            self.max = max(self.max, value)
        self.count += 1
        self.samples.append(value)

    def percentile(self, q):
        """numpy's default linear method on the sorted samples."""
        if not self.samples:
            return 0.0
        return percentile_linear(self.samples, q)


class TestStreamingHistogram:
    def test_matches_numpy_percentile(self):
        np = pytest.importorskip("numpy", exc_type=ImportError)
        histogram = StreamingHistogram()
        values = [0, 1, 1, 2, 3, 5, 8, 13, 21, 34]
        for value in values:
            histogram.record(value)
        for q in (0, 10, 25, 50, 75, 90, 99, 100):
            assert histogram.percentile(q) == float(np.percentile(values, q))
        pair = StreamingHistogram()
        pair.record(12)
        pair.record(15)
        # numpy lerps from the upper end at t >= 0.5: 14.97, not 14.969999999999999.
        assert pair.percentile(99) == float(np.percentile([12, 15], 99)) == 14.97

    @given(st.lists(st.integers(0, 60), min_size=1, max_size=40),
           st.floats(0.0, 100.0))
    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    def test_matches_the_pure_python_percentile(self, samples, q):
        histogram = StreamingHistogram()
        for value in samples:
            histogram.record(value)
        assert histogram.percentile(q) == percentile_linear(samples, q)

    def test_bounds_and_count(self):
        histogram = StreamingHistogram()
        for value in (5, 3, 9, 3):
            histogram.record(value)
        assert (histogram.min, histogram.max, histogram.count) == (3, 9, 4)

    def test_empty_is_zero(self):
        empty = StreamingHistogram()
        assert (empty.count, empty.min, empty.max, empty.percentile(50)) == (0, 0, 0, 0.0)
        assert empty.items() == []

    def test_reads_equal_the_eager_accumulator_on_a_seeded_stream(self):
        import random
        rng = random.Random(18)
        histogram, reference = StreamingHistogram(), _EagerHistogram()
        for step in range(2_000):
            value = int(rng.expovariate(0.2)) + (1 if step % 7 else 0)
            histogram.record(value)
            reference.record(value)
            if step in (0, 1, 10, 1_999):
                assert (histogram.count, histogram.min, histogram.max) == \
                    (reference.count, reference.min, reference.max)
                for q in (0, 1, 25, 50, 90, 99, 99.9, 100):
                    assert histogram.percentile(q) == reference.percentile(q)

    def test_bumped_in_place_equals_fed_through_record(self):
        """``SimLink.enqueue`` bumps ``_counts`` directly; nothing else is state."""
        recorded, bumped = StreamingHistogram(), StreamingHistogram()
        for value in (4, 1, 1, 7, 4, 4, 2):
            recorded.record(value)
            counts = bumped._counts
            counts[value] = counts.get(value, 0) + 1
        assert bumped.items() == recorded.items()
        assert (bumped.count, bumped.min, bumped.max) == (7, 1, 7)
        assert bumped.percentiles((50, 99)) == recorded.percentiles((50, 99))
        assert StreamingHistogram.__slots__ == ("_counts",)

    def test_link_samples_the_queue_including_the_arriving_packet(self):
        from repro.simulator.stats import StatsCollector
        stats = StatsCollector()
        sim = Simulator()
        link = SimLink(sim, "A", "B", capacity=1.0, latency=0.0, buffer_packets=2,
                       deliver=lambda pkt, inport: None, stats=stats)
        for _ in range(4):
            link.enqueue(Packet(kind=PacketKind.DATA, src_host="a", dst_host="b"))
        # Lengths seen: 1 (goes straight out), 1, 2, then a drop (no sample).
        assert stats.queue_histogram.items() == [(1, 2), (2, 1)]
        assert stats.drops == 1


class TestReservoirSampler:
    def test_keeps_everything_under_capacity(self):
        sampler = ReservoirSampler(10)
        sampler.extend(range(7))
        assert sorted(sampler.samples) == list(range(7))

    def test_bounded_and_deterministic(self):
        first = ReservoirSampler(16, seed=3)
        second = ReservoirSampler(16, seed=3)
        first.extend(range(1000))
        second.extend(range(1000))
        assert len(first) == 16
        assert first.samples == second.samples
        assert first.seen == 1000

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError):
            ReservoirSampler(0)
