"""Contra probe payloads.

A probe carries five fields (§4.3 plus the §5.1 refinement): the *origin*
switch (the traffic destination it advertises), the *probe id* of the
decomposed subpolicy it belongs to, a *version* number incremented every
probe period by the origin, the product-graph *tag* of the virtual node the
probe currently sits at, and the accumulated *metric vector*.
"""

from __future__ import annotations

from repro.core.attributes import MetricVector
from repro.simulator.packet import BASE_PROBE_BYTES, Packet, PacketKind

__all__ = ["ProbePayload", "make_probe_packet", "payload_from_packet"]


class ProbePayload:
    """The Contra-specific contents of one probe packet.

    A plain slotted class rather than a (frozen) dataclass: one payload is
    allocated per *accepted* probe hop — the hottest allocation site of a
    probe round — and the frozen-dataclass ``object.__setattr__`` init costs
    several times a plain ``__init__``.  Payloads are immutable by
    convention: they ride by reference in multicast packets shared across
    links, so mutating one would corrupt every in-flight copy.
    """

    __slots__ = ("origin", "pid", "version", "tag", "metrics")

    def __init__(self, origin: str, pid: int, version: int, tag: int,
                 metrics: MetricVector):
        self.origin = origin
        self.pid = pid
        self.version = version
        self.tag = tag
        self.metrics = metrics

    def advanced(self, tag: int, metrics: MetricVector) -> "ProbePayload":
        """A copy with an updated tag and metric vector (one hop of propagation)."""
        return ProbePayload(self.origin, self.pid, self.version, tag, metrics)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ProbePayload):
            return NotImplemented
        return (self.origin == other.origin and self.pid == other.pid
                and self.version == other.version and self.tag == other.tag
                and self.metrics == other.metrics)

    def __hash__(self) -> int:
        return hash((self.origin, self.pid, self.version, self.tag, self.metrics))

    def __repr__(self) -> str:
        return (f"ProbePayload(origin={self.origin!r}, pid={self.pid}, "
                f"version={self.version}, tag={self.tag}, metrics={self.metrics})")


def make_probe_packet(payload: ProbePayload, src_switch: str, payload_bits: int) -> Packet:
    """Wrap a probe payload into a simulator packet.

    ``payload_bits`` is the compiled probe size (origin + pid + version + tag +
    metric vector); the wire size adds the base framing so the overhead
    experiment (Figure 16) counts realistic bytes.  The (immutable) payload
    object itself rides in the packet — the wire size is accounted for, but
    nothing is marshalled to and from a dict on every hop.
    """
    return Packet(
        kind=PacketKind.PROBE,
        src_host=src_switch,
        dst_host="",
        size_bytes=int(BASE_PROBE_BYTES + payload_bits / 8.0),
        probe=payload,
    )


def payload_from_packet(packet: Packet) -> ProbePayload:
    """Recover the probe payload from a simulator packet."""
    return packet.probe
