"""Directed link model: FIFO queue, finite buffer, serialization and propagation.

Each :class:`SimLink` models one direction of a physical link.  Packets are
serialized at the link capacity (``packets/ms`` scaled by packet size relative
to a full data segment), queued in a drop-tail buffer, and delivered after the
propagation latency.  The link also maintains the data-plane *utilization*
estimate that Contra and Hula probes read: an exponentially weighted moving
average of the transmitted load over the link capacity, the standard
data-plane estimator both systems use.

Event budget: the link uses the engine's fast path and keeps its event
count minimal.  Each transmitted packet costs exactly one delivery
event (serialization delay and propagation are folded into its timestamp);
only when a backlog exists does the link additionally keep a single *drain*
event alive that pulls the next packet off the queue when the serializer
frees up — so an uncongested link schedules one event per packet, and a
congested one two, regardless of how many packets pile up behind.

Frame budget: a data/ACK packet's whole link-side accounting — byte and kind
counters, the EWMA decay to *now* and this packet's busy time, the serializer
horizon and the event(s) above — is the one frame :meth:`SimLink._transmit`.
An idle link is ``enqueue -> _transmit -> call_at`` (the packet never touches
the deque); a backlogged one is ``enqueue`` (append, arm the drain if none is
pending) and later ``_drain -> _transmit -> call_at x2``.  The clock is read
as ``sim._now`` and the queue-length sample bumps the histogram's counts in
place: no property, accessor or builtin ``min``/``max`` frame per packet.

Probes never enter :meth:`SimLink.enqueue`: :func:`send_probes` puts one
probe on every target link of a multicast in one frame, and probes ride the
engine's **batch lane** — a whole same-arrival-time probe wave coalesces
under one heap entry, one member per multicast whose links share their
parameters (a fat-tree's) and one member per probe otherwise (a WAN's).
FIFO order — within a link and across links — is exactly the per-event
order; the lane only removes heap traffic, never reorders (see the engine's
ordering contract).  This module is the lane's only registrant under
``src/repro`` (``tools/lint_determinism.py``'s ``lane-registrant`` rule), so
the member layout has one producer.

Delivery chain: a link registers its receiver itself, with its own name as
the in-port — ``call_at(t, deliver, packet, src)`` for data and ACKs, and
``call_multicast(t, probe, receivers)`` for probes, where ``receivers`` is
either the link's own :attr:`SimLink.probe_receivers` pair ``(sink, src)``
or a precomputed tuple of several links' pairs.  ``sink`` is the receiving
switch's ``on_probe``, wired at network build on every switch-to-switch
link, so a registration allocates nothing.  A data hop is engine →
``receive``, a probe hop engine → PROCESSPROBE: no link frame in between.

Failure: :meth:`SimLink.fail` clears the queue and has the engine turn every
pending ``(receiver, in-port)`` delivery of this link — a lane member's
included — into a no-op
(:meth:`Simulator.drop_deliveries`) — so every packet serializing or
propagating when the link fails is lost, even if the link recovers before
its delivery time, and a second link into the same node keeps its
deliveries.  A failure is settled once, when it happens; a delivery checks
nothing.
"""

from __future__ import annotations

from collections import deque
from typing import (Callable, Deque, Dict, Mapping, Optional, Tuple,
                    TYPE_CHECKING)

from repro.simulator.packet import DATA_PACKET_BYTES, Packet, Probe

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulator.engine import Simulator
    from repro.simulator.stats import StatsCollector

__all__ = ["SimLink", "send_probes", "ProbeGroups"]

#: A switch's precomputed multicast receivers: target tuple -> split-horizon
#: in-port (or None) -> the flat receivers tuple :func:`send_probes`
#: registers as one lane member, or None where the targets' links differ.
ProbeGroups = Dict[Tuple[str, ...], Dict[Optional[str], Optional[Tuple]]]

#: A link's queue before its first backlog: ``len``, truth and iteration
#: read the empty tuple exactly like an empty deque.
_NO_QUEUE = ()


def _discard(packet: Packet, inport: str) -> None:
    """The receiver of a link built without one."""


class SimLink:
    """One direction of a link between two simulation nodes."""

    def __init__(
        self,
        sim: "Simulator",
        src: str,
        dst: str,
        capacity: float,
        latency: float,
        buffer_packets: int = 1000,
        deliver: Optional[Callable[[Packet, str], None]] = None,
        stats: Optional["StatsCollector"] = None,
        util_window: float = 1.0,
    ):
        self.sim = sim
        self.src = src
        self.dst = dst
        self.capacity = float(capacity)          # full-size packets per ms
        self.latency = float(latency)            # ms
        self.buffer_packets = int(buffer_packets)
        #: ``callback(packet, inport=src)`` data and ACKs are delivered to.
        self.deliver: Callable[[Packet, str], None] = \
            deliver if deliver is not None else _discard
        #: ``(sink, src)``: the one-pair receivers tuple a probe sent on this
        #: link alone is registered over, ``sink(probe, inport)`` being where
        #: it is delivered.  None on a link that carries no probes; a link
        #: between two switches is wired with the far switch's
        #: ``routing.on_probe`` at network build, so a probe skips the
        #: node's ``receive`` dispatch and a registration allocates nothing.
        self.probe_receivers: Optional[Tuple[Callable[[Probe, str], None], str]] = None
        self.stats = stats
        self.util_window = float(util_window)    # ms, EWMA window for utilization

        #: The backlog, allocated at the link's first one: most links of a
        #: large fabric never queue, and an empty ``deque`` is 760 bytes.
        self._queue: "Deque[Packet] | Tuple[()]" = _NO_QUEUE
        #: absolute time at which the serializer frees up.
        self._busy_until = 0.0
        #: whether a drain event is already scheduled for ``_busy_until``.
        self._drain_pending = False
        self.failed = False

        # Utilization estimator state.
        self._util = 0.0
        self._last_util_update = 0.0
        #: Congestion memo: probe waves read the same link's congestion many
        #: times within one tick.  The quantized value is a pure function of
        #: (now, transmissions so far, queue length) along a deterministic
        #: run, so caching on that key returns bit-identical floats while
        #: skipping the EWMA decay + quantization arithmetic.
        self._congestion_now = -1.0
        self._congestion_sent = -1
        self._congestion_qlen = -1
        self._congestion_value = 0.0

        # Counters.
        self.packets_sent = 0
        self.bytes_sent = 0.0
        self.packets_dropped = 0

    # ------------------------------------------------------------------ queue

    @property
    def queue_length(self) -> int:
        """Data packets currently queued (excluding the one being serialized)."""
        return len(self._queue)

    def enqueue(self, packet: Packet) -> bool:
        """Accept a data/ACK packet for transmission; False if it was dropped.

        Probes go through :func:`send_probes` instead.
        """
        if self.failed:
            self.packets_dropped += 1
            if self.stats is not None:
                self.stats.record_drop(self, packet)
            return False
        queue = self._queue
        depth = len(queue)
        stats = self.stats
        if depth >= self.buffer_packets:
            self.packets_dropped += 1
            if stats is not None:
                stats.record_drop(self, packet)
            return False
        if stats is not None:
            # StatsCollector.record_queue_length in place: the sample is the
            # queue length *including* this packet, taken before it transmits.
            depth += 1
            counts = stats.queue_histogram._counts
            counts[depth] = counts.get(depth, 0) + 1
        if self._drain_pending:
            queue.append(packet)
        elif self.sim._now >= self._busy_until:
            if queue:
                # No drain armed behind a backlog (only reachable by driving
                # the link by hand): the head goes first, FIFO as ever.
                queue.append(packet)
                packet = queue.popleft()
            self._transmit(packet)
        else:
            # Serializer busy with an earlier packet: one drain event
            # covers every packet queued behind it (batch scheduling).
            if queue is _NO_QUEUE:
                queue = self._queue = deque()
            queue.append(packet)
            self._drain_pending = True
            self.sim.call_at(self._busy_until, self._drain)
        return True

    def _drain(self) -> None:
        self._drain_pending = False
        # fail() clears the queue; a pending drain then expires harmlessly.
        if self._queue:
            self._transmit(self._queue.popleft())

    def _transmit(self, packet: Packet) -> None:
        """Put one data/ACK packet on the wire: the link's one transmit frame.

        Accounting, then the utilization estimator (decayed to *now* before
        this packet adds its busy time — probes read it through
        :attr:`congestion`, whose memo keys on ``packets_sent``), then the
        serializer horizon and the delivery event, then the drain event if a
        backlog waits.  Arithmetic and scheduling order are exactly
        :meth:`StatsCollector.record_transmission` + :func:`send_probes`'s,
        so every float and every heap sequence number is what it always was.
        """
        sim = self.sim
        now = sim._now
        size_bytes = packet.size_bytes
        tag_bytes = packet.extra_header_bits * 0.125
        wire_bytes = size_bytes + tag_bytes
        tx_time = wire_bytes / DATA_PACKET_BYTES / self.capacity
        self.packets_sent += 1
        self.bytes_sent += wire_bytes
        stats = self.stats
        if stats is not None:
            stats.total_packets += 1
            kind = packet.kind
            if kind == "data":
                stats.data_bytes += size_bytes
                stats.tag_overhead_bytes += tag_bytes
            elif kind == "ack":
                stats.ack_bytes += wire_bytes
            else:
                stats.probe_bytes += wire_bytes
        elapsed = now - self._last_util_update
        if elapsed > 0:
            decay = 1.0 - elapsed / self.util_window
            self._util *= decay if decay > 0.0 else 0.0
            self._last_util_update = now
        util = self._util + tx_time / self.util_window
        self._util = util if util < 1.5 else 1.5
        busy_until = self._busy_until = now + tx_time
        # One event delivers the packet after serialization + propagation;
        # fail() turns it into a no-op if the link fails while it is in flight.
        sim.call_at(busy_until + self.latency, self.deliver, packet, self.src)
        if self._queue:
            self._drain_pending = True
            sim.call_at(busy_until, self._drain)

    # ----------------------------------------------------------- utilization

    def _decay_util(self) -> None:
        now = self.sim._now
        elapsed = now - self._last_util_update
        if elapsed > 0:
            decay = 1.0 - elapsed / self.util_window
            self._util *= decay if decay > 0.0 else 0.0
            self._last_util_update = now

    @property
    def utilization(self) -> float:
        """Current utilization estimate in [0, ~1.5] (decayed to *now*)."""
        self._decay_util()
        return min(1.0, self._util)

    # ---------------------------------------------------------------- failure

    def fail(self) -> None:
        """Bring the link down: queued and in-flight packets are lost.

        In flight means registered with the engine and not yet delivered;
        those deliveries become no-ops, and stay lost if the link recovers
        before their time.
        """
        self.failed = True
        if self._queue:
            self._queue.clear()
        pair = self.probe_receivers
        self.sim.drop_deliveries(
            (self.deliver,) if pair is None else (self.deliver, pair[0]), self.src)

    def recover(self) -> None:
        """Bring the link back up."""
        self.failed = False

    def close(self) -> None:
        """Unhook the receivers at the end of a run (``Network.close``).

        ``deliver`` and ``probe_receivers`` are a link's edges into the
        nodes, whose ports lead back to the link; with the no-op receiver in
        their place no cycle runs through it.  Counters, the estimator and
        the serializer horizon stay as the run left them.
        """
        self.deliver = _discard
        if self.probe_receivers is not None:
            self.probe_receivers = (_discard, self.src)

    #: Probe-visible utilization is quantized to this many steps, modelling
    #: the n-bit utilization register a real switch pipeline carries.  The
    #: quantization is what lets near-equal paths tie *exactly*, so switches
    #: keep ECMP groups over them instead of chasing microscopic utilization
    #: differences — without it, every fresh flowlet of a ToR steers to the
    #: single momentarily-least-utilized uplink and the tail queue overshoots
    #: ECMP's (the Figure 13 interaction).
    UTIL_QUANTUM = 16

    @property
    def congestion(self) -> float:
        """Quantized utilization estimate plus standing-queue pressure.

        The transmit EWMA alone saturates at 1.0 and decays within one
        ``util_window`` regardless of backlog, so two uplinks — one idle, one
        with 50 queued packets — can look identical to a probe a quarter
        millisecond later.  Adding the queue's time-to-drain (in units of the
        averaging window) keeps a congested link's rank elevated until its
        queue actually empties; this is local data-plane state every switch
        has, exactly like the utilization register (cf. the
        flowlet-timeout/util-window tail interaction of Figure 13).
        """
        now = self.sim._now
        sent = self.packets_sent
        qlen = len(self._queue)
        if now == self._congestion_now and sent == self._congestion_sent \
                and qlen == self._congestion_qlen:
            return self._congestion_value
        backlog = qlen / (self.capacity * self.util_window)
        # _decay_util inlined: this read advances the estimator to *now*.
        elapsed = now - self._last_util_update
        if elapsed > 0:
            decay = 1.0 - elapsed / self.util_window
            self._util *= decay if decay > 0.0 else 0.0
            self._last_util_update = now
        util = self._util
        value = (util if util < 1.0 else 1.0) + backlog
        quantum = self.UTIL_QUANTUM
        value = round(value * quantum) / quantum
        self._congestion_now = now
        self._congestion_sent = sent
        self._congestion_qlen = qlen
        self._congestion_value = value
        return value

    def metric_values(self) -> dict:
        """The per-link metric values probes fold into their metric vectors."""
        return {"util": self.congestion, "lat": self.latency, "len": 1.0}

    def __repr__(self) -> str:
        return (f"SimLink({self.src}->{self.dst}, cap={self.capacity}, "
                f"lat={self.latency}, q={len(self._queue)})")


def send_probes(neighbors: Tuple[str, ...], ports: Mapping[str, SimLink],
                exclude: Optional[str], probe: "Packet | Probe",
                groups: Optional[ProbeGroups] = None) -> None:
    """Put ``probe`` on the probe lane of every up link towards ``neighbors``.

    The only way a probe enters a link: one call a multicast, skipping
    ``exclude`` (the split-horizon in-port, or None), neighbours without a
    port and failed links.  Probes have strict priority over data (the
    standard treatment for in-band control traffic — Hula and Contra both
    assume probes are not delayed behind full data queues): they never
    occupy the data serializer, and the delivery fires after the probe's own
    serialization + propagation delay.  Its wire time still feeds the
    utilization estimator and the byte accounting, in
    :meth:`SimLink._transmit`'s arithmetic order — the accumulators, then
    the EWMA decay to *now*, then this probe's busy time.

    ``groups`` is the sending switch's :attr:`SwitchNode.probe_groups`.
    Given it, a multicast whose targets share one capacity, latency,
    estimator window, engine and collector — every arrival time is then one
    float — is registered as **one** lane member over the receivers tuple
    precomputed for ``(neighbors, exclude)``
    (:meth:`Simulator.call_multicast`), unless a target link is down, when
    each up link registers its own delivery.  Without ``groups``, or over
    mixed links, every target registers its own delivery.  A delivery of
    its own is a multicast of one, over the link's
    :attr:`SimLink.probe_receivers` pair.
    """
    wire_bytes = probe.size_bytes + probe.extra_header_bits * 0.125
    receivers = None
    if groups is not None:
        by_exclude = groups.get(neighbors)
        if by_exclude is None:
            by_exclude = groups[neighbors] = {}
        try:
            receivers = by_exclude[exclude]
        except KeyError:
            receivers = by_exclude[exclude] = _receivers(neighbors, ports, exclude)
    lost = False
    for neighbor in neighbors:
        if neighbor == exclude:
            continue
        link = ports.get(neighbor)
        if link is None:
            continue
        if link.failed:
            lost = True
            continue
        sim = link.sim
        now = sim._now
        tx_time = wire_bytes / DATA_PACKET_BYTES / link.capacity
        link.packets_sent += 1
        link.bytes_sent += wire_bytes
        stats = link.stats
        if stats is not None:
            stats.total_packets += 1
            stats.probe_bytes += wire_bytes
        elapsed = now - link._last_util_update
        if elapsed > 0:
            decay = 1.0 - elapsed / link.util_window
            link._util *= decay if decay > 0.0 else 0.0
            link._last_util_update = now
        util = link._util + tx_time / link.util_window
        link._util = util if util < 1.5 else 1.5      # min(1.5, util), frameless
        time = now + tx_time + link.latency
        if receivers is None:
            sim.call_multicast(time, probe, link.probe_receivers)
    if receivers is None:
        return
    if not lost:                    # one arrival time: the group's links agree
        sim.call_multicast(time, probe, receivers)
        return
    for neighbor in neighbors:      # a target is down: one delivery per up link
        link = ports.get(neighbor)
        if neighbor != exclude and link is not None and not link.failed:
            sim.call_multicast(time, probe, link.probe_receivers)


def _receivers(neighbors: Tuple[str, ...], ports: Mapping[str, SimLink],
               exclude: Optional[str]) -> Optional[Tuple]:
    """The flat ``(sink, in-port, ...)`` tuple a multicast registers: the
    links' :attr:`SimLink.probe_receivers` pairs, concatenated.

    None — register per delivery — unless at least two links qualify and
    they share every input of the arrival time and the accounting: capacity,
    latency, estimator window, engine and collector.
    """
    links = [ports[neighbor] for neighbor in neighbors
             if neighbor != exclude and neighbor in ports]
    if len(links) < 2:
        return None
    first = links[0]
    shape = (first.capacity, first.latency, first.util_window)
    for link in links:
        if (link.capacity, link.latency, link.util_window) != shape \
                or link.sim is not first.sim or link.stats is not first.stats:
            return None
    receivers = []
    for link in links:
        receivers += link.probe_receivers
    return tuple(receivers)
