"""End hosts: traffic sources and sinks.

Hosts implement the cwnd-based transport described in
:mod:`repro.simulator.flow` — a ``transport`` mode of ``"fixed"`` (full
window from the first segment, the historical default), ``"slowstart"``
(slow start + AIMD congestion avoidance + fast retransmit on triple
duplicate ACKs) or ``"paced"`` (slow start plus packet pacing at one cwnd
per smoothed RTT) — plus an optional constant-rate (UDP-like) stream mode
used by the failure-recovery experiment (Figure 14).  The cwnd modes run
their RTO timers at each flow's srtt-derived timeout
(:meth:`~repro.simulator.flow.SenderState.current_rto`); ``"fixed"`` keeps
the host-level constant.

Delivery accounting distinguishes *goodput* from raw throughput: the host
asks the receiver state whether a data segment is a first-time delivery
before recording it, so go-back-N duplicates never inflate the goodput
series (see :meth:`repro.simulator.stats.StatsCollector.record_delivery`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from repro.exceptions import SimulationError
from repro.simulator.flow import Flow, ReceiverState, SenderState
from repro.simulator.packet import (ACK_PACKET_BYTES, DATA_PACKET_BYTES, Packet, PacketKind,
                                    stable_flow_hash)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulator.network import Network

__all__ = ["Host"]


class Host:
    """A traffic endpoint attached to one edge switch."""

    def __init__(
        self,
        network: "Network",
        name: str,
        window: int = 12,
        rto: float = 5.0,
        transport: str = "fixed",
    ):
        self.network = network
        self.sim = network.sim
        self.stats = network.stats
        self.name = name
        self.window = window
        self.rto = rto
        self.transport = transport

        self.uplink = None  # type: ignore[assignment]  # set by Network wiring
        #: host -> attachment switch, the topology's own map: both ends of
        #: every packet are stamped from it.
        self._attachment = network.host_attachments
        self._senders: Dict[int, SenderState] = {}
        self._receivers: Dict[int, ReceiverState] = {}
        self._streams: Dict[int, dict] = {}
        self._stream_counter = 0

    # ------------------------------------------------------------------ flows

    def start_flow(self, flow: Flow) -> None:
        """Begin transmitting a flow (called by the network at the arrival time)."""
        if flow.src_host != self.name:
            raise SimulationError(f"flow {flow.flow_id} does not originate at host {self.name}")
        sender = SenderState(flow, self.window, self.rto, transport=self.transport)
        self._senders[flow.flow_id] = sender
        self.stats.register_flow(flow.flow_id, flow.src_host, flow.dst_host,
                                 flow.size_packets, self.sim._now)
        self._pump(flow.flow_id)
        self.sim.call_later(sender.first_check_delay(), self._check_timeout,
                            flow.flow_id)

    def _pump(self, flow_id: int) -> None:
        """Send as many new segments as the (congestion) window allows."""
        sender = self._senders.get(flow_id)
        if sender is None or sender.completed:
            return
        if sender.transport == "paced":
            self._pump_paced(flow_id, sender)
            return
        while sender.can_send():
            self._send_segment(sender)

    def _pump_paced(self, flow_id: int, sender: SenderState) -> None:
        """Send one segment and arm a pacing tick for the next."""
        if sender.pacing_armed or not sender.can_send():
            return
        self._send_segment(sender)
        sender.pacing_armed = True
        self.sim.call_later(sender.pacing_interval(), self._pace_tick, flow_id)

    def _pace_tick(self, flow_id: int) -> None:
        sender = self._senders.get(flow_id)
        if sender is None or sender.completed:
            return
        sender.pacing_armed = False
        self._pump_paced(flow_id, sender)

    def _send_segment(self, sender: SenderState) -> None:
        seq = sender.next_seq
        sender.note_sent(seq, self.sim._now)
        sender.next_seq = seq + 1
        self._transmit(self._data_packet(sender, seq))

    def _data_packet(self, sender: SenderState, seq: int) -> Packet:
        return Packet(
            kind=PacketKind.DATA,
            src_host=self.name,
            dst_host=sender.flow.dst_host,
            flow_id=sender.flow.flow_id,
            seq=seq,
            size_bytes=DATA_PACKET_BYTES,
            created_at=self.sim._now,
            flow_hash=sender.flow_hash,
        )

    def _transmit(self, packet: Packet) -> None:
        attachment = self._attachment
        try:
            packet.src_switch = attachment[packet.src_host]
            packet.dst_switch = attachment[packet.dst_host]
        except KeyError:
            # Not a host of this topology: raise the canonical error.
            self.network.attachment_switch(packet.src_host)
            self.network.attachment_switch(packet.dst_host)
            raise
        if self.uplink is None:
            raise SimulationError(f"host {self.name} has no uplink")
        self.uplink.enqueue(packet)

    def _check_timeout(self, flow_id: int) -> None:
        sender = self._senders.get(flow_id)
        if sender is None:
            return
        if sender.completed:
            self._finish_sender(flow_id, sender)
            return
        now = self.sim._now
        if sender.timeout_expired(now):
            sender.retransmit(now)
            self.stats.record_retransmission(flow_id)
            self._pump(flow_id)
        # Re-arm at the earliest instant the flow could possibly time out
        # (last_progress + rto), so no check ever fires before an expiry is
        # possible.  In the cwnd modes the cadence is the srtt-derived
        # per-flow RTO — faster loss detection inherently means more checks
        # per flow, bounded by the flow's (short) lifetime.  "fixed" mode
        # keeps the host-constant cadence, leaving its event schedule
        # unchanged.
        delay = sender.current_rto()
        if sender.transport != "fixed":
            remaining = sender.last_progress_time + delay - now
            if remaining > 0:
                delay = remaining
        self.sim.call_later(delay, self._check_timeout, flow_id)

    def _finish_sender(self, flow_id: int, sender: SenderState) -> None:
        """Report transport summaries and drop sender state on completion."""
        self.stats.record_transport(flow_id, final_cwnd=sender.cwnd,
                                    max_cwnd=sender.max_cwnd)
        del self._senders[flow_id]

    # --------------------------------------------------------------- streams

    def start_constant_stream(self, dst_host: str, rate: float, duration: float) -> int:
        """Send full-size packets to ``dst_host`` at ``rate`` packets/ms for ``duration`` ms.

        Used by the failure-recovery experiment; no ACKs or retransmissions
        (so every delivered packet counts as goodput).  Returns a stream id;
        the stream's state is dropped when it ends.
        """
        if rate <= 0:
            raise SimulationError("stream rate must be positive")
        self._stream_counter += 1
        stream_id = self._stream_counter
        self._streams[stream_id] = {
            "dst": dst_host,
            "interval": 1.0 / rate,
            "end": self.sim._now + duration,
            "seq": 0,
            # negative ids mark unreliable streams
            "flow_hash": stable_flow_hash((self.name, dst_host, -stream_id)),
        }
        self.sim.call_later(0.0, self._stream_tick, stream_id)
        return stream_id

    def _stream_tick(self, stream_id: int) -> None:
        stream = self._streams.get(stream_id)
        if stream is None:
            return
        now = self.sim._now
        if now > stream["end"]:
            del self._streams[stream_id]
            return
        packet = Packet(
            kind=PacketKind.DATA,
            src_host=self.name,
            dst_host=stream["dst"],
            flow_id=-stream_id,           # negative ids mark unreliable streams
            seq=stream["seq"],
            size_bytes=DATA_PACKET_BYTES,
            created_at=now,
            flow_hash=stream["flow_hash"],
        )
        stream["seq"] += 1
        self._transmit(packet)
        self.sim.call_later(stream["interval"], self._stream_tick, stream_id)

    # ---------------------------------------------------------------- receive

    def receive(self, packet: Packet, inport: str) -> None:
        """Entry point for packets delivered by the attachment switch."""
        kind = packet.kind
        if kind == "data":
            self._receive_data(packet)
        elif kind == "ack":
            self._receive_ack(packet)
        # Probes terminating at a host are silently ignored (should not happen).

    def _receive_data(self, packet: Packet) -> None:
        now = self.sim._now
        stats = self.stats
        flow_id = packet.flow_id
        if flow_id < 0:
            # Unreliable stream: no retransmissions, every delivery is unique;
            # no ACKs, no completion tracking.
            stats.record_delivery(packet, now)
            return
        receiver = self._receivers.get(flow_id)
        if receiver is None:
            receiver = ReceiverState(flow_id, packet.src_host)
            receiver.ack_flow_hash = stable_flow_hash((self.name, packet.src_host, flow_id))
            self._receivers[flow_id] = receiver
        stats.record_delivery(packet, now,
                              duplicate=receiver.has_seen(packet.seq))
        record = stats.flows.get(flow_id)
        total = record.size_packets if record is not None else packet.seq + 1
        ack_seq = receiver.on_data(packet.seq, total)
        if receiver.completed:
            stats.complete_flow(flow_id, now)
        self._send_ack(receiver, ack_seq)

    def _send_ack(self, receiver: ReceiverState, ack_seq: int) -> None:
        self._transmit(Packet(
            kind=PacketKind.ACK,
            src_host=self.name,
            dst_host=receiver.src_host,
            flow_id=receiver.flow_id,
            ack_seq=ack_seq,
            size_bytes=ACK_PACKET_BYTES,
            created_at=self.sim._now,
            flow_hash=receiver.ack_flow_hash,
        ))

    def _receive_ack(self, packet: Packet) -> None:
        sender = self._senders.get(packet.flow_id)
        if sender is None:
            return
        if sender.on_ack(packet.ack_seq, self.sim._now):
            if sender.completed:
                self._finish_sender(packet.flow_id, sender)
            else:
                self._pump(packet.flow_id)
        elif sender.on_duplicate_ack(packet.ack_seq):
            # Fast retransmit: resend only the first unacked segment — the
            # receiver caches out-of-order segments, so one resend advances
            # the cumulative ACK past the cached tail.
            self.stats.record_retransmission(packet.flow_id, fast=True)
            self._transmit(self._data_packet(sender, sender.cumulative_ack))
            self._pump(packet.flow_id)

    def __repr__(self) -> str:
        return f"Host({self.name})"
