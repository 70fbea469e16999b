"""Engine batch lane: FIFO ordering, coalescing, sealing and accounting.

The batch lane's contract is that it is *invisible* except for heap traffic
and allocation: ``call_multicast(time, subject, (callback, inport))`` means
exactly what ``call_at(time, callback, subject, inport)`` means,
same-timestamp lane registrations run in exact FIFO order, interleavings
with non-lane events at the same timestamp are preserved (sealing), and the
event counters read identically with the lane on or off.  A registration is
one two-slot member, stored flat — it allocates no container — over a shared
receivers tuple of ``(callback, inport)`` pairs that stands for its
deliveries in order, accounting, drops and stops; a one-link probe send is a
multicast of one, over the link's own pair.
"""

import gc

import pytest

from repro.exceptions import SimulationError
from repro.simulator.engine import Simulator
from repro.simulator.link import SimLink, send_probes
from repro.simulator.packet import Packet, PacketKind
from repro.simulator.switchnode import RoutingLogic, SwitchNode

LANE = pytest.mark.parametrize("batching", [True, False])


def probe(seq: int = 0) -> Packet:
    return Packet(kind=PacketKind.PROBE, src_host="s", dst_host="", seq=seq,
                  size_bytes=50)


def carry_probes(link: SimLink) -> SimLink:
    """Wire a hand-built link's probes to its ``deliver``, as a network
    wires a switch-to-switch link's to the far switch."""
    link.probe_receivers = (link.deliver, link.src)
    return link


def send(link: SimLink, packet: Packet) -> None:
    """Put one probe on ``link``'s probe lane, the way a switch does."""
    send_probes((link.dst,), {link.dst: link}, None, packet)


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
        sim.call_multicast(1.0, "a", (sink, "x"))
        sim.call_multicast(1.0, "b", (sink, "y"))
        sim.call_multicast(1.0, "a", (sink, "z"))
        sim.run()
        assert sink.calls == [("a", "x"), ("b", "y"), ("a", "z")]

    @LANE
    def test_each_registration_is_one_call_with_its_own_args(self, batching):
        # Exactly two arguments, subject and guard, and consecutive
        # registrations of one callback stay separate calls (no merging).
        sim = Simulator(batching=batching)
        first, second = Recorder(), Recorder()
        sim.call_multicast(1.0, "x", (first, 7))
        sim.call_multicast(1.0, "x", (first, 7))
        sim.call_multicast(1.0, "y", (second, None))
        sim.call_multicast(1.0, ("a", "tuple"), (first, 8))
        sim.run()
        assert first.calls == [("x", 7), ("x", 7), (("a", "tuple"), 8)]
        assert second.calls == [("y", None)]

    @LANE
    def test_a_registration_is_a_subject_and_receivers(self, batching):
        sim = Simulator(batching=batching)
        with pytest.raises(TypeError):
            sim.call_multicast(1.0, "subject-only")
        with pytest.raises(TypeError):
            sim.call_multicast(1.0, "subject", (Recorder(), "guard"), "extra")
        assert sim.pending_events == 0

    def test_same_tick_registrations_share_one_heap_entry(self):
        sim = Simulator(batching=True)
        sink = Recorder()
        for value in range(100):
            sim.call_multicast(1.0, value, (sink, 0))
        assert len(sim._queue) == 1
        assert sim.pending_events == 100

    def test_distinct_times_use_distinct_batches(self):
        sim = Simulator(batching=True)
        calls = []

        def sink(value, guard):
            calls.append((sim.now, value))

        sim.call_multicast(1.0, "x", (sink, 0))
        sim.call_multicast(2.0, "y", (sink, 0))
        sim.call_multicast(1.0, "z", (sink, 0))
        sim.run()
        # The time-2.0 registration sealed nothing at 1.0 (different tick),
        # but "z" arrived after the 1.0 batch was displaced, so it runs in a
        # second same-tick batch — still in FIFO order.
        assert calls == [(1.0, "x"), (1.0, "z"), (2.0, "y")]

    def test_non_lane_event_at_same_time_seals_the_batch(self):
        sim = Simulator(batching=True)
        sink = Recorder()
        sim.call_multicast(1.0, "a", (sink, 0))
        sim.call_at(1.0, sink, "plain", 0)
        sim.call_multicast(1.0, "b", (sink, 0))
        sim.run()
        assert sink.subjects == ["a", "plain", "b"]

    def test_non_lane_event_at_other_time_does_not_seal(self):
        sim = Simulator(batching=True)
        sink = Recorder()
        sim.call_multicast(1.0, "a", (sink, 0))
        sim.call_at(0.5, sink, "early", 0)
        sim.call_multicast(1.0, "b", (sink, 0))
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
            sim.call_multicast(0.5, "late", (Recorder(), 0))
        assert sim.pending_events == 0


class TestBatchLaneAccounting:
    @LANE
    def test_counters_identical_with_lane_on_or_off(self, batching):
        sim = Simulator(batching=batching)
        sink = Recorder()
        for value in range(5):
            sim.call_multicast(1.0, value, (sink, 0))
        sim.call_multicast(2.0, "late", (sink, 0))
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

            sim.call_multicast(1.0, "first", (stopper, 0))
            sim.call_multicast(1.0, "second", (sink, 0))
            sim.call_multicast(1.0, "third", (sink, 0))
            sim.run()
            assert sink.subjects == ["first"]
            assert sim.pending_events == 2
            assert sim.events_processed == 1
            # A registration made while stopped must queue behind the tail.
            sim.call_multicast(1.0, "fourth", (sink, 0))
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

        sim.call_multicast(1.0, "first", (sink, 0))
        sim.call_multicast(1.0, "last", (stopper, 0))
        sim.run()
        assert sink.subjects == ["first", "last"]
        assert sim.pending_events == 0
        assert not sim._queue
        assert sim.events_processed == 2


class TestFlatMembers:
    """The member layout has one definition, and registering allocates nothing."""

    @pytest.mark.no_sanitize
    def test_members_are_stored_flat_and_a_stop_requeues_whole_members(self):
        sim = Simulator(batching=True)
        sink = Recorder()

        def stopper(value, guard):
            sink(value, guard)
            sim.stop()

        pairs = [(sink, 0), (stopper, -1), (sink, -2), (sink, -3)]
        for value, pair in enumerate(pairs):
            sim.call_multicast(1.0, value, pair)
        assert sim._batch == [0, pairs[0], 1, pairs[1], 2, pairs[2], 3, pairs[3]]
        assert all(sim._batch[slot] is pair for slot, pair in zip((1, 3, 5, 7), pairs))
        sim.run()
        (entry,) = sim._queue
        assert entry[3][1] == [2, pairs[2], 3, pairs[3]]

    def test_a_registration_allocates_no_gc_tracked_container(self):
        # Two tuples a member — (callback, args) and (subject, guard) — were
        # 20 000 tracked allocations here, alive until the wave fired.
        sim = Simulator(batching=True)
        pair = (Recorder(), 0)
        subjects = [probe(seq) for seq in range(10_000)]
        gc.collect()
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            before = gc.get_count()[0]
            for subject in subjects:
                sim.call_multicast(1.0, subject, pair)
            grown = gc.get_count()[0] - before
        finally:
            if was_enabled:
                gc.enable()
        assert sim.pending_events == 10_000
        assert grown < 100


class TestLinkProbeRunFifo:
    """Probes ride the lane one member each; a failure drops its link's."""

    def _link(self, sim, delivered, name="a"):
        return carry_probes(SimLink(sim, name, "b", capacity=100.0, latency=0.05,
                                    deliver=lambda packet, inport: delivered.append(
                                        (packet.seq, inport))))

    @LANE
    def test_same_tick_probes_arrive_one_by_one_in_fifo_order(self, batching):
        sim = Simulator(batching=batching)
        delivered = []
        link = self._link(sim, delivered)
        for seq in range(4):
            send(link, probe(seq))
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
        send(link_a, probe(0))
        send(link_c, probe(1))
        send(link_a, probe(2))
        sim.run()
        # Interleaving across links is exactly the enqueue order: the second
        # link_a probe must NOT be pulled forward next to link_a's first.
        assert delivered == [(0, "a"), (1, "c"), (2, "a")]

    @LANE
    def test_fail_between_registrations_drops_only_the_earlier_probe(self, batching):
        sim = Simulator(batching=batching)
        delivered = []
        link = self._link(sim, delivered)
        send(link, probe(0))
        link.fail()
        link.recover()
        send(link, probe(1))
        sim.run()
        # Probe 0 was in flight when the link failed: lost.  Probe 1 was
        # sent after the recovery and delivers alone.
        assert delivered == [(1, "a")]
        assert sim.events_processed == 2

    @LANE
    def test_mid_tick_fail_drops_exactly_the_failed_links_probes(self, batching):
        # Two links' probes share one arrival tick; the first delivery fails
        # the *other* link mid-tick.  Every probe that link still had in
        # flight — unfired members of the lane entry being fired — is lost,
        # the bystander's all arrive, and the engine still counts one event
        # per registration.
        sim = Simulator(batching=batching)
        delivered = []
        victim = self._link(sim, delivered, "v")

        def deliver_and_fail(packet, inport):
            delivered.append((packet.seq, inport))
            if packet.seq == 0:
                victim.fail()
                victim.recover()

        bystander = carry_probes(SimLink(sim, "a", "b", capacity=100.0,
                                         latency=0.05, deliver=deliver_and_fail))
        send(bystander, probe(0))
        send(victim, probe(1))
        send(bystander, probe(2))
        send(victim, probe(3))
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
        links = {name: carry_probes(SimLink(sim, name, "b", capacity=100.0,
                                            latency=0.05, deliver=switch.receive))
                 for name in ("a", "c")}
        order = [("a", 0), ("c", 1), ("a", 2), ("a", 3), ("c", 4)]
        for inport, seq in order:
            send(links[inport], probe(seq))
        sim.run()
        assert logic.seen == [(seq, inport) for inport, seq in order]
        assert sim.events_processed == len(order)


class TestMulticastMembers:
    """A multicast over links of one shape is one lane member of k deliveries."""

    TARGETS = ("b", "c", "d", "e")

    def _fabric(self, sim, delivered, latencies=None):
        """Links s -> each target, recording ``(target, seq, inport)`` per delivery."""
        ports = {}
        for index, name in enumerate(self.TARGETS):
            latency = 0.05 if latencies is None else latencies[index]
            ports[name] = carry_probes(SimLink(
                sim, "s", name, capacity=100.0, latency=latency,
                deliver=lambda packet, inport, name=name: delivered.append(
                    (name, packet.seq, inport))))
        return ports

    def _multicast(self, ports, groups, seq, exclude=None):
        send_probes(self.TARGETS, ports, exclude, probe(seq), groups)

    @LANE
    def test_a_uniform_multicast_is_one_member_counting_k_deliveries(self, batching):
        sim = Simulator(batching=batching)
        delivered = []
        ports = self._fabric(sim, delivered)
        groups = {}
        self._multicast(ports, groups, 0)
        self._multicast(ports, groups, 1, exclude="c")
        assert sim.pending_events == 7
        if batching:
            (entry,) = sim._queue
            members = entry[3][1]
            assert len(members) == 4            # two members, two slots each
            assert [packet.seq for packet in members[::2]] == [0, 1]
            # The member points at the switch's receivers tuple (a sanitized
            # engine at its tagged copy): a pair per target.
            assert len(members[1]) == len(groups[self.TARGETS][None]) == 8
            assert len(members[3]) == 6
        else:
            assert len(sim._queue) == 7
        sim.run()
        assert delivered == [(name, 0, "s") for name in self.TARGETS] + \
            [(name, 1, "s") for name in self.TARGETS if name != "c"]
        assert sim.events_processed == 7
        assert sim.pending_events == 0

    @pytest.mark.no_sanitize
    def test_mixed_links_register_one_member_per_delivery(self):
        sim = Simulator(batching=True)
        delivered = []
        ports = self._fabric(sim, delivered, latencies=(0.05, 0.05, 0.07, 0.05))
        groups = {}
        self._multicast(ports, groups, 0)
        assert groups[self.TARGETS][None] is None
        batches = sorted((entry[3][1] for entry in sim._queue), key=len)
        # b and c share a batch; d's later arrival closes it, so e opens a
        # second one at b's time (the lane's usual re-open, still FIFO).
        assert [len(members) for members in batches] == [2, 2, 4]
        # Each member's receivers is its link's own pair, by identity.
        pairs = [members[slot] for members in batches
                 for slot in range(1, len(members), 2)]
        assert sorted(map(id, pairs)) == sorted(
            id(ports[name].probe_receivers) for name in self.TARGETS)
        sim.run()
        assert [name for name, _, _ in delivered] == ["b", "c", "e", "d"]
        # A per-delivery registration allocates no GC-tracked container.
        packets = [probe(seq) for seq in range(1, 1_001)]
        send_probes(("d",), ports, None, packets[0], groups)
        gc.collect()
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            before = gc.get_count()[0]
            for packet in packets[1:]:
                send_probes(("d",), ports, None, packet, groups)
            grown = gc.get_count()[0] - before
        finally:
            if was_enabled:
                gc.enable()
        assert sim.pending_events == 1_000
        assert grown < 20

    def test_a_member_survives_a_target_link_down_at_send_time(self):
        # A target down when the multicast is sent is skipped, and the up
        # links register one delivery each, in target order.
        sim = Simulator(batching=True)
        delivered = []
        ports = self._fabric(sim, delivered)
        ports["c"].fail()
        self._multicast(ports, {}, 0)
        (entry,) = sim._queue
        assert [len(receivers) for receivers in entry[3][1][1::2]] == [2, 2, 2]
        sim.run()
        assert delivered == [("b", 0, "s"), ("d", 0, "s"), ("e", 0, "s")]

    def _pending_failure_run(self, batching):
        sim = Simulator(batching=batching)
        delivered = []
        ports = self._fabric(sim, delivered)
        groups = {}
        self._multicast(ports, groups, 0)
        self._multicast(ports, groups, 1)
        shared = groups[self.TARGETS][None]
        ports["d"].fail()
        ports["d"].recover()
        self._multicast(ports, groups, 2)
        assert groups[self.TARGETS][None] is shared     # never written
        pending = sim.pending_events
        sim.run()
        return delivered, pending, sim.events_processed, sim.pending_events

    def test_a_failure_drops_only_its_own_replicas_and_keeps_their_slots(self):
        on = self._pending_failure_run(True)
        off = self._pending_failure_run(False)
        delivered = on[0]
        assert delivered == [(name, seq, "s") for seq in (0, 1)
                             for name in self.TARGETS if name != "d"] + \
            [(name, 2, "s") for name in self.TARGETS]
        assert on == off
        assert on[1:] == (12, 12, 0)

    @LANE
    def test_a_failure_raised_by_a_replica_drops_the_unfired_ones(self, batching):
        # The first delivery fails the link of a later replica of the same
        # multicast (and of the next one): both are lost, the rest arrive.
        sim = Simulator(batching=batching)
        delivered = []
        ports = self._fabric(sim, delivered)

        def deliver_and_fail(packet, inport):
            delivered.append(("b", packet.seq, inport))
            if packet.seq == 0:
                ports["d"].fail()
                ports["d"].recover()

        ports["b"].probe_receivers = (deliver_and_fail, "s")
        groups = {}
        self._multicast(ports, groups, 0)
        self._multicast(ports, groups, 1)
        sim.run()
        assert delivered == [("b", 0, "s"), ("c", 0, "s"), ("e", 0, "s"),
                             ("b", 1, "s"), ("c", 1, "s"), ("e", 1, "s")]
        assert sim.events_processed == 8
        assert sim.pending_events == 0

    @pytest.mark.parametrize("stop_at", [0, 1, 3])
    @LANE
    def test_stop_at_a_replica_requeues_the_rest_then_the_later_members(
            self, batching, stop_at):
        sim = Simulator(batching=batching)
        delivered = []
        ports = self._fabric(sim, delivered)
        stopper = ports[self.TARGETS[stop_at]]
        record = stopper.deliver

        def deliver_and_stop(packet, inport):
            record(packet, inport)
            if packet.seq == 0:
                sim.stop()

        stopper.probe_receivers = (deliver_and_stop, "s")
        groups = {}
        self._multicast(ports, groups, 0)
        send(ports["b"], probe(1))
        self._multicast(ports, groups, 2)
        sim.run()
        assert delivered == [(name, 0, "s") for name in self.TARGETS[:stop_at + 1]]
        assert sim.events_processed == stop_at + 1
        assert sim.pending_events == 9 - (stop_at + 1)
        sim.run()
        assert delivered == [(name, 0, "s") for name in self.TARGETS] + \
            [("b", 1, "s")] + [(name, 2, "s") for name in self.TARGETS]
        assert sim.events_processed == 9
        assert sim.pending_events == 0
        assert not sim._queue

    def test_a_multicast_registration_allocates_no_gc_tracked_container(self):
        sim = Simulator(batching=True)
        ports = self._fabric(sim, [])
        groups = {}
        self._multicast(ports, groups, 0)       # builds the receivers tuple
        probes = [probe(seq) for seq in range(2_000)]
        gc.collect()
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            before = gc.get_count()[0]
            for packet in probes:
                send_probes(self.TARGETS, ports, None, packet, groups)
            grown = gc.get_count()[0] - before
        finally:
            if was_enabled:
                gc.enable()
        assert sim.pending_events == 4 * 2_001
        assert grown < 20
