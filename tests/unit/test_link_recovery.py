"""Fail → recover semantics of SimLink and Network.

The link's contract (ARCHITECTURE.md §2): ``fail()`` clears the queue and has
the engine turn every pending delivery of this link — data in the heap,
probes on the batch lane — into a no-op, so every packet in flight
(serializing or propagating) when the link fails is lost *even if the link
recovers before its scheduled delivery time*; a second link into the same
receiver keeps its deliveries, and the engine's event counts read as if each
dropped delivery had run.  Traffic enqueued after ``recover()`` flows
normally.  ``Network.fail_link``/``recover_link`` schedule those transitions
and notify the adjacent routing logic.
"""

from collections import deque

import pytest

from repro.simulator.engine import Simulator
from repro.simulator.link import SimLink, send_probes
from repro.simulator.packet import DATA_PACKET_BYTES, Packet, PacketKind


def make_link(capacity=10.0, latency=0.5, buffer_packets=10):
    sim = Simulator()
    delivered = []
    link = SimLink(sim, "A", "B", capacity=capacity, latency=latency,
                   buffer_packets=buffer_packets,
                   deliver=lambda pkt, inport: delivered.append((sim.now, pkt)))
    link.probe_receivers = (link.deliver, link.src)
    return sim, link, delivered


def packet(seq=-1):
    return Packet(kind=PacketKind.DATA, src_host="h1", dst_host="h2",
                  size_bytes=DATA_PACKET_BYTES, seq=seq)


def probe(seq):
    return Packet(kind=PacketKind.PROBE, src_host="s", dst_host="", seq=seq,
                  size_bytes=50)


def send(link, packet):
    send_probes((link.dst,), {link.dst: link}, None, packet)


LANE = pytest.mark.parametrize("batching", [True, False])


class TestFailureDrops:
    """What ``fail()`` drops: exactly its own link's in-flight deliveries."""

    @staticmethod
    def two_links_into_b(batching):
        """A->B (the victim) and C->B share one receiver function."""
        sim = Simulator(batching=batching)
        delivered = []

        def receiver(pkt, inport):
            delivered.append((round(sim.now, 6), inport, pkt.kind, pkt.seq))

        victim = SimLink(sim, "A", "B", capacity=10.0, latency=0.5, deliver=receiver)
        bystander = SimLink(sim, "C", "B", capacity=10.0, latency=0.5,
                            deliver=receiver)
        for link in (victim, bystander):
            link.probe_receivers = (receiver, link.src)
        return sim, victim, bystander, delivered

    @LANE
    def test_data_in_the_heap_and_a_probe_on_the_lane_are_both_lost(self, batching):
        sim, victim, _, delivered = self.two_links_into_b(batching)
        victim.enqueue(packet(0))         # heap delivery at 0.6
        send(victim, probe(1))            # lane delivery at 0.5033
        sim.call_at(0.2, victim.fail)
        sim.call_at(0.3, victim.recover)  # up again before either arrives
        sim.run()
        assert delivered == []
        assert sim.events_processed == 4 and sim.pending_events == 0

    @LANE
    def test_a_second_link_into_the_same_receiver_keeps_its_deliveries(self, batching):
        sim, victim, bystander, delivered = self.two_links_into_b(batching)
        for link in (victim, bystander):
            link.enqueue(packet(0))
            send(link, probe(1))
        sim.call_at(0.2, victim.fail)
        sim.run()
        assert delivered == [(0.503333, "C", "probe", 1), (0.6, "C", "data", 0)]

    @LANE
    def test_event_counts_are_the_guarded_deliveries_counts(self, batching):
        # Pinned from the fail-epoch implementation this replaced, where a
        # lost packet's delivery event still ran (and found a dead epoch):
        # two drains, the failure and the recovery by t=0.4 with six
        # deliveries pending, three of them the victim's, then ten events.
        sim, victim, bystander, delivered = self.two_links_into_b(batching)
        for link in (victim, bystander):
            link.enqueue(packet(0))
            link.enqueue(packet(1))       # behind the first: a drain event
            send(link, probe(2))
        sim.call_at(0.2, victim.fail)
        sim.call_at(0.3, victim.recover)
        sim.run(until=0.4)
        assert (sim.events_processed, sim.pending_events) == (4, 6)
        sim.run()
        assert (sim.events_processed, sim.pending_events) == (10, 0)
        assert delivered == [(0.503333, "C", "probe", 2), (0.6, "C", "data", 0),
                             (0.7, "C", "data", 1)]


class TestFailRecoverEpochs:
    def test_in_flight_packet_lost_even_if_link_recovers_before_delivery(self):
        # Serialization 0.1 ms + latency 0.5 ms: delivery would be at 0.6 ms.
        sim, link, delivered = make_link(capacity=10.0, latency=0.5)
        link.enqueue(packet())
        # Fail at 0.2 (packet propagating), recover at 0.3 (< delivery time).
        sim.call_at(0.2, link.fail)
        sim.call_at(0.3, link.recover)
        sim.run()
        assert delivered == []

    def test_queued_packets_cleared_on_fail(self):
        sim, link, delivered = make_link(capacity=1.0, latency=0.0)
        for _ in range(5):
            link.enqueue(packet())
        sim.call_at(1.5, link.fail)   # one delivered (t=1.0), rest queued
        sim.run()
        assert len(delivered) == 1
        assert link.queue_length == 0

    def test_traffic_flows_after_recover(self):
        sim, link, delivered = make_link(capacity=10.0, latency=0.1)
        link.fail()
        assert link.enqueue(packet()) is False
        link.recover()
        assert link.enqueue(packet()) is True
        sim.run()
        assert len(delivered) == 1

    def test_second_epoch_independent_of_first(self):
        sim, link, delivered = make_link(capacity=10.0, latency=0.5)
        sim.call_at(0.0, link.enqueue, packet())   # in flight across fail #1
        sim.call_at(0.2, link.fail)
        sim.call_at(0.3, link.recover)
        sim.call_at(1.0, link.enqueue, packet())   # clean second epoch
        sim.run()
        assert len(delivered) == 1
        assert delivered[0][0] == pytest.approx(1.0 + 0.1 + 0.5)

    def test_enqueue_while_failed_counts_drop(self):
        sim, link, _ = make_link()
        link.fail()
        link.enqueue(packet())
        assert link.packets_dropped == 1


class TestNetworkRecoveryScheduling:
    def _network(self):
        from repro.simulator.network import Network, RoutingSystem
        from repro.simulator.switchnode import RoutingLogic
        from repro.topology.leafspine import leafspine

        events = []

        class _Logic(RoutingLogic):
            def on_data_packet(self, pkt, inport):
                neighbors = self.switch.switch_neighbors()
                return neighbors[0] if neighbors else None

            def on_link_change(self, neighbor, failed):
                events.append((self.switch.name, neighbor, failed))

        class _System(RoutingSystem):
            name = "static-test"

            def create_switch_logic(self, switch):
                return _Logic()

        return Network(leafspine(2, 2, hosts_per_leaf=1), _System()), events

    def test_recover_link_scheduling_honored(self):
        net, _ = self._network()
        net.fail_link("leaf0", "spine0", at_time=1.0)
        net.recover_link("leaf0", "spine0", at_time=2.0)
        net.run(1.5)
        assert net.link("leaf0", "spine0").failed
        assert net.link("spine0", "leaf0").failed
        net.sim.run(until=2.5)
        assert not net.link("leaf0", "spine0").failed
        assert not net.link("spine0", "leaf0").failed

    def test_routing_notified_on_both_transitions(self):
        net, events = self._network()
        net.fail_link("leaf0", "spine0", at_time=1.0)
        net.recover_link("leaf0", "spine0", at_time=2.0)
        net.run(3.0)
        assert ("leaf0", "spine0", True) in events
        assert ("spine0", "leaf0", True) in events
        assert ("leaf0", "spine0", False) in events
        assert ("spine0", "leaf0", False) in events


class TestLazyQueue:
    def test_the_queue_is_allocated_at_the_first_backlog_and_kept(self):
        sim, link, delivered = make_link(capacity=1.0, latency=0.0)
        link.fail()                     # no queue to clear yet
        link.recover()
        link.enqueue(packet())          # idle serializer: straight to the wire
        assert not isinstance(link._queue, deque)
        link.enqueue(packet())
        link.enqueue(packet())
        queue = link._queue
        assert isinstance(queue, deque) and link.queue_length == 2
        sim.run()
        assert len(delivered) == 3 and link.queue_length == 0
        link.enqueue(packet())
        link.enqueue(packet())          # a second backlog reuses the deque
        assert link._queue is queue and link.queue_length == 1
        link.fail()
        assert link._queue is queue and link.queue_length == 0
