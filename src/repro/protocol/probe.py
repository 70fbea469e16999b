"""Contra probes.

A probe carries five fields (§4.3 plus the §5.1 refinement): the *origin*
switch (the traffic destination it advertises), the *probe id* of the
decomposed subpolicy it belongs to, a *version* number incremented every
probe period by the origin, the product-graph *tag* of the virtual node the
probe currently sits at, and the accumulated *metric vector*.
"""

from __future__ import annotations

from repro.core.attributes import MetricVector
from repro.simulator.packet import BASE_PROBE_BYTES, Probe

__all__ = ["ContraProbe", "probe_wire_size"]


def probe_wire_size(payload_bits: int) -> int:
    """Bytes one probe of a compiled ``payload_bits`` occupies on the wire.

    ``payload_bits`` is the compiled probe size (origin + pid + version + tag
    + metric vector); the wire size adds the base framing so the overhead
    experiment (Figure 16) counts realistic bytes.
    """
    return int(BASE_PROBE_BYTES + payload_bits / 8.0)


class ContraProbe(Probe):
    """One Contra probe: the wire size and the five payload fields, one object.

    Allocated once per origination and per *accepted* probe hop — the
    hottest allocation site of a probe round — and shared by every target of
    its multicast, so it is a plain slotted class (a frozen dataclass's
    ``object.__setattr__`` init costs several times a plain ``__init__``).
    The payload rides by reference: the wire size is accounted for, but
    nothing is marshalled on a hop.
    """

    __slots__ = ("origin", "pid", "version", "tag", "metrics")

    def __init__(self, origin: str, pid: int, version: int, tag: int,
                 metrics: MetricVector, size_bytes: int):
        self.size_bytes = size_bytes
        self.origin = origin
        self.pid = pid
        self.version = version
        self.tag = tag
        self.metrics = metrics

    def __repr__(self) -> str:
        return (f"ContraProbe(origin={self.origin!r}, pid={self.pid}, "
                f"version={self.version}, tag={self.tag}, metrics={self.metrics})")
