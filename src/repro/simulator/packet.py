"""Packet model.

The simulator works in units of one MSS-sized data packet.  Three packet
kinds exist:

* ``DATA``  — one segment of a flow (a :class:`Packet`),
* ``ACK``   — cumulative acknowledgement flowing back to the sender (a
  :class:`Packet`),
* ``PROBE`` — a Contra/Hula control probe carrying a metric payload (a
  :class:`Probe`: each routing system subclasses it with its payload's own
  fields).

Contra-specific header fields (tag, probe id, TTL) live directly on the packet
object; routing systems that do not use them simply ignore them.  Header sizes
are tracked in bits so the traffic-overhead experiment (Figure 16) can account
for the extra bytes Contra and Hula place on the wire.
"""

from __future__ import annotations

import itertools
import zlib
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

__all__ = ["Packet", "PacketKind", "Probe", "DATA_PACKET_BYTES", "ACK_PACKET_BYTES", "BASE_PROBE_BYTES",
           "stable_flow_hash", "packet_flow_hash"]

#: Nominal wire size of a full data segment (one MSS plus headers).
DATA_PACKET_BYTES = 1500
#: Nominal wire size of an ACK.
ACK_PACKET_BYTES = 64
#: Probe size excluding the Contra metric payload (Ethernet/IP framing).
BASE_PROBE_BYTES = 42

_packet_ids = itertools.count()


class PacketKind:
    DATA = "data"
    ACK = "ack"
    PROBE = "probe"


class Probe:
    """One control probe on the wire: what a probe hop reads and nothing more.

    The link reads the wire size (``size_bytes`` plus ``extra_header_bits``,
    always 0 for a probe) and a node dispatches on ``kind``; a routing system
    subclasses this with its payload's own fields as further slots, so a
    probe is one small object however many links it is multicast on.
    Probes are immutable by convention: one object rides every target link
    of a multicast, so mutating one would corrupt every in-flight copy.
    """

    __slots__ = ("size_bytes",)

    kind = PacketKind.PROBE
    extra_header_bits = 0

    def __init__(self, size_bytes: int):
        self.size_bytes = size_bytes


@dataclass(slots=True)
class Packet:
    """One simulated data or ACK packet.

    Only the fields relevant to the packet's kind are meaningful; e.g.
    Contra data-plane tags live in :attr:`tag` / :attr:`pid`.  The class is
    slotted: millions of packets are created per run and the per-instance
    dict would dominate allocation cost.  Probes are :class:`Probe` objects.
    """

    kind: str
    src_host: str
    dst_host: str
    flow_id: int = -1
    seq: int = -1
    size_bytes: int = DATA_PACKET_BYTES
    created_at: float = 0.0

    # Destination/next-hop bookkeeping filled in by switches.
    dst_switch: str = ""
    src_switch: str = ""

    # Contra data-plane header (also reused by Hula for its best-path tag).
    tag: Optional[int] = None
    pid: int = 0
    ttl: int = 64
    extra_header_bits: int = 0

    # SPAIN-style source routing: remaining switch path chosen at ingress.
    source_route: Optional[Tuple[str, ...]] = None

    # Cumulative-ACK payload.
    ack_seq: int = -1

    # Stable flow hash: the same value is used by every switch the packet
    # traverses for ECMP/flowlet/loop hashing.  Hosts stamp it from their
    # per-flow state; :func:`packet_flow_hash` fills it in on first use for
    # hand-built packets.
    flow_hash: Optional[int] = None

    # Measurement-only fields (not part of any protocol): the switches this
    # packet visited (populated when StatsCollector.record_paths is on) and
    # whether a revisit — i.e. a forwarding loop — was observed.
    path_trace: Optional[List[str]] = None
    looped: bool = False

    packet_id: int = field(default_factory=_packet_ids.__next__)

    @property
    def wire_bytes(self) -> float:
        """Bytes this packet occupies on the wire including extra header bits."""
        return self.size_bytes + self.extra_header_bits / 8.0

    def flow_key(self) -> Tuple[str, str, int]:
        """Identifier used for flowlet hashing (stands in for the 5-tuple)."""
        return (self.src_host, self.dst_host, self.flow_id)

    def __repr__(self) -> str:
        return (f"Packet({self.kind} flow={self.flow_id} seq={self.seq} "
                f"{self.src_host}->{self.dst_host})")


def stable_flow_hash(flow_key: Tuple) -> int:
    """A deterministic hash of a flow identifier.

    Python's builtin ``hash`` is randomized per interpreter process
    (PYTHONHASHSEED), which made flowlet and loop-table slot assignment — and
    through it entire experiment outcomes — vary between invocations.  The
    synthesized switch programs use a fixed CRC on the 5-tuple, so the model
    does too.
    """
    data = "\x1f".join(map(str, flow_key)).encode("utf-8", "surrogatepass")
    return zlib.crc32(data)


def packet_flow_hash(packet: Packet) -> int:
    """The stable flow hash of a packet, computed once and cached on it."""
    cached = packet.flow_hash
    if cached is None:
        cached = packet.flow_hash = stable_flow_hash(packet.flow_key())
    return cached
