"""Engine batch lane: FIFO ordering, coalescing, sealing and accounting.

The batch lane's contract is that it is *invisible* except for heap traffic
and allocation: ``call_batched(time, callback, subject, guard)`` means exactly
what ``call_at(time, callback, subject, guard)`` means, same-timestamp lane
registrations run in exact FIFO order, interleavings with non-lane events at
the same timestamp are preserved (sealing), and the event counters read
identically with the lane on or off.  A registration is a guarded delivery of
fixed arity two, stored flat — it allocates no container.
"""

import gc

import pytest

from repro.exceptions import SimulationError
from repro.simulator import SimLink, Simulator
from repro.simulator.packet import Packet, PacketKind
from repro.simulator.switchnode import RoutingLogic, SwitchNode

LANE = pytest.mark.parametrize("batching", [True, False])


def probe(seq: int = 0) -> Packet:
    return Packet(kind=PacketKind.PROBE, src_host="s", dst_host="", seq=seq,
                  size_bytes=50)


class Recorder:
    """A two-argument lane callback that records ``(subject, guard)`` calls."""

    def __init__(self):
        self.calls = []

    def __call__(self, subject, guard):
        self.calls.append((subject, guard))

    @property
    def subjects(self):
        return [subject for subject, _ in self.calls]


class TestBatchLaneOrdering:
    def test_members_fire_in_registration_order(self):
        sim = Simulator(batching=True)
        sink = Recorder()
        sim.call_batched(1.0, sink, "a", "x")
        sim.call_batched(1.0, sink, "b", "y")
        sim.call_batched(1.0, sink, "a", "z")
        sim.run()
        assert sink.calls == [("a", "x"), ("b", "y"), ("a", "z")]

    @LANE
    def test_each_registration_is_one_call_with_its_own_args(self, batching):
        # Exactly two arguments, subject and guard, and consecutive
        # registrations of one callback stay separate calls (no merging).
        sim = Simulator(batching=batching)
        first, second = Recorder(), Recorder()
        sim.call_batched(1.0, first, "x", 7)
        sim.call_batched(1.0, first, "x", 7)
        sim.call_batched(1.0, second, "y", None)
        sim.call_batched(1.0, first, ("a", "tuple"), 8)
        sim.run()
        assert first.calls == [("x", 7), ("x", 7), (("a", "tuple"), 8)]
        assert second.calls == [("y", None)]

    @LANE
    def test_arity_is_exactly_two(self, batching):
        sim = Simulator(batching=batching)
        with pytest.raises(TypeError):
            sim.call_batched(1.0, Recorder(), "subject-only")
        with pytest.raises(TypeError):
            sim.call_batched(1.0, Recorder(), "subject", "guard", "extra")
        assert sim.pending_events == 0

    def test_same_tick_registrations_share_one_heap_entry(self):
        sim = Simulator(batching=True)
        sink = Recorder()
        for value in range(100):
            sim.call_batched(1.0, sink, value, 0)
        assert len(sim._queue) == 1
        assert sim.pending_events == 100

    def test_distinct_times_use_distinct_batches(self):
        sim = Simulator(batching=True)
        calls = []

        def sink(value, guard):
            calls.append((sim.now, value))

        sim.call_batched(1.0, sink, "x", 0)
        sim.call_batched(2.0, sink, "y", 0)
        sim.call_batched(1.0, sink, "z", 0)
        sim.run()
        # The time-2.0 registration sealed nothing at 1.0 (different tick),
        # but "z" arrived after the 1.0 batch was displaced, so it runs in a
        # second same-tick batch — still in FIFO order.
        assert calls == [(1.0, "x"), (1.0, "z"), (2.0, "y")]

    def test_non_lane_event_at_same_time_seals_the_batch(self):
        sim = Simulator(batching=True)
        sink = Recorder()
        sim.call_batched(1.0, sink, "a", 0)
        sim.call_at(1.0, sink, "plain", 0)
        sim.call_batched(1.0, sink, "b", 0)
        sim.run()
        assert sink.subjects == ["a", "plain", "b"]

    def test_non_lane_event_at_other_time_does_not_seal(self):
        sim = Simulator(batching=True)
        sink = Recorder()
        sim.call_batched(1.0, sink, "a", 0)
        sim.call_at(0.5, sink, "early", 0)
        sim.call_batched(1.0, sink, "b", 0)
        sim.run()
        # "b" coalesced into the open batch: one heap entry, both members.
        assert sink.subjects == ["early", "a", "b"]
        assert sim.events_processed == 3

    @LANE
    def test_past_registration_raises(self, batching):
        sim = Simulator(batching=batching)
        sim.call_at(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.call_batched(0.5, Recorder(), "late", 0)
        assert sim.pending_events == 0


class TestBatchLaneAccounting:
    @LANE
    def test_counters_identical_with_lane_on_or_off(self, batching):
        sim = Simulator(batching=batching)
        sink = Recorder()
        for value in range(5):
            sim.call_batched(1.0, sink, value, 0)
        sim.call_batched(2.0, sink, "late", 0)
        assert sim.pending_events == 6
        sim.run()
        assert sink.subjects == [0, 1, 2, 3, 4, "late"]
        assert sim.pending_events == 0
        assert sim.events_processed == 6

    def test_stop_mid_batch_requeues_the_tail(self):
        for batching in (True, False):
            sim = Simulator(batching=batching)
            sink = Recorder()

            def stopper(value, guard):
                sink(value, guard)
                sim.stop()

            sim.call_batched(1.0, stopper, "first", 0)
            sim.call_batched(1.0, sink, "second", 0)
            sim.call_batched(1.0, sink, "third", 0)
            sim.run()
            assert sink.subjects == ["first"]
            assert sim.pending_events == 2
            assert sim.events_processed == 1
            # A registration made while stopped must queue behind the tail.
            sim.call_batched(1.0, sink, "fourth", 0)
            sim.run()
            assert sink.subjects == ["first", "second", "third", "fourth"]
            assert sim.pending_events == 0
            assert sim.events_processed == 4

    @LANE
    def test_stop_at_the_last_member_requeues_nothing(self, batching):
        sim = Simulator(batching=batching)
        sink = Recorder()

        def stopper(value, guard):
            sink(value, guard)
            sim.stop()

        sim.call_batched(1.0, sink, "first", 0)
        sim.call_batched(1.0, stopper, "last", 0)
        sim.run()
        assert sink.subjects == ["first", "last"]
        assert sim.pending_events == 0
        assert not sim._queue
        assert sim.events_processed == 2


class TestFlatMembers:
    """The member layout has one definition, and registering allocates nothing."""

    @pytest.mark.no_sanitize
    def test_members_are_stored_flat_and_a_stop_requeues_whole_triples(self):
        sim = Simulator(batching=True)
        sink = Recorder()

        def stopper(value, guard):
            sink(value, guard)
            sim.stop()

        sim.call_batched(1.0, sink, 0, 0)
        sim.call_batched(1.0, stopper, 1, -1)
        for value in (2, 3):
            sim.call_batched(1.0, sink, value, -value)
        assert sim._batch == [sink, 0, 0, stopper, 1, -1, sink, 2, -2, sink, 3, -3]
        sim.run()
        (entry,) = sim._queue
        assert entry[3][1] == [sink, 2, -2, sink, 3, -3]

    def test_a_registration_allocates_no_gc_tracked_container(self):
        # Two tuples a member — (callback, args) and (subject, guard) — were
        # 20 000 tracked allocations here, alive until the wave fired.
        sim = Simulator(batching=True)
        sink = Recorder()
        subjects = [probe(seq) for seq in range(10_000)]
        gc.collect()
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            before = gc.get_count()[0]
            for subject in subjects:
                sim.call_batched(1.0, sink, subject, 0)
            grown = gc.get_count()[0] - before
        finally:
            if was_enabled:
                gc.enable()
        assert sim.pending_events == 10_000
        assert grown < 100


class TestLinkProbeRunFifo:
    """Probes ride the lane one member each, behind the data-packet epoch guard."""

    def _link(self, sim, delivered, name="a"):
        return SimLink(sim, name, "b", capacity=100.0, latency=0.05,
                       deliver=lambda packet, inport: delivered.append(
                           (packet.seq, inport)))

    @LANE
    def test_same_tick_probes_arrive_one_by_one_in_fifo_order(self, batching):
        sim = Simulator(batching=batching)
        delivered = []
        link = self._link(sim, delivered)
        for seq in range(4):
            link.enqueue(probe(seq))
        assert len(sim._queue) == (1 if batching else 4)
        sim.run()
        assert delivered == [(0, "a"), (1, "a"), (2, "a"), (3, "a")]
        assert sim.events_processed == 4

    @LANE
    def test_run_order_preserved_across_interleaved_links(self, batching):
        sim = Simulator(batching=batching)
        delivered = []
        link_a = self._link(sim, delivered, "a")
        link_c = self._link(sim, delivered, "c")
        link_a.enqueue(probe(0))
        link_c.enqueue(probe(1))
        link_a.enqueue(probe(2))
        sim.run()
        # Interleaving across links is exactly the enqueue order: the second
        # link_a probe must NOT be pulled forward next to link_a's first.
        assert delivered == [(0, "a"), (1, "c"), (2, "a")]

    @LANE
    def test_fail_between_registrations_splits_and_drops_the_epoch(self, batching):
        sim = Simulator(batching=batching)
        delivered = []
        link = self._link(sim, delivered)
        link.enqueue(probe(0))
        link.fail()
        link.recover()
        link.enqueue(probe(1))
        sim.run()
        # Probe 0 was in flight across the failure epoch: lost.  Probe 1 was
        # registered under the new epoch and delivers alone.
        assert delivered == [(1, "a")]
        assert sim.events_processed == 2

    @LANE
    def test_mid_tick_fail_drops_exactly_the_dead_epoch_probes(self, batching):
        # Two links' probes share one arrival tick; the first delivery fails
        # the *other* link mid-tick.  Every probe that link registered under
        # the now-dead epoch is lost, the bystander's all arrive, and the
        # engine still counts one event per registration.
        sim = Simulator(batching=batching)
        delivered = []
        victim = self._link(sim, delivered, "v")

        def deliver_and_fail(packet, inport):
            delivered.append((packet.seq, inport))
            if packet.seq == 0:
                victim.fail()
                victim.recover()

        bystander = SimLink(sim, "a", "b", capacity=100.0, latency=0.05,
                            deliver=deliver_and_fail)
        bystander.enqueue(probe(0))
        victim.enqueue(probe(1))
        bystander.enqueue(probe(2))
        victim.enqueue(probe(3))
        sim.run()
        assert delivered == [(0, "a"), (2, "a")]
        assert sim.events_processed == 4
        assert sim.pending_events == 0


class RecordingLogic(RoutingLogic):
    """A routing logic that implements nothing but ``on_probe``."""

    def __init__(self):
        self.seen = []

    def on_probe(self, packet, inport):
        self.seen.append((packet.seq, inport))


class _Fabric:
    """The two attributes of ``Network`` a ``SwitchNode`` constructor reads."""

    stats = None

    def __init__(self, sim):
        self.sim = sim


class TestRoutingProbeContract:
    @LANE
    def test_on_probe_only_logic_sees_every_probe_once_in_enqueue_order(self, batching):
        sim = Simulator(batching=batching)
        logic = RecordingLogic()
        switch = SwitchNode(_Fabric(sim), "b", logic)
        links = {name: SimLink(sim, name, "b", capacity=100.0, latency=0.05,
                               deliver=switch.receive)
                 for name in ("a", "c")}
        order = [("a", 0), ("c", 1), ("a", 2), ("a", 3), ("c", 4)]
        for inport, seq in order:
            links[inport].enqueue(probe(seq))
        sim.run()
        assert logic.seen == [(seq, inport) for inport, seq in order]
        assert sim.events_processed == len(order)
