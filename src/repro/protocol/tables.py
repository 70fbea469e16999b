"""Switch-local state tables of the Contra data plane.

These classes model, in Python, the register arrays the synthesized P4
programs allocate:

* :class:`ForwardingTable` — FwdT, keyed by (destination, tag, probe id),
  storing the best metric vector, next tag, next hop and probe version
  (§4.2, §5.1);
* :class:`BestChoiceTable` — BestT, the per-destination pointer to the entry a
  source switch currently prefers (the asterisk in Figure 6e);
* :class:`FlowletTable` — policy-aware flowlet switching entries keyed by
  (destination, tag, probe id, flowlet id) (§5.3);
* :class:`LoopDetectionTable` — per-flow TTL-delta tracking used to lazily
  break transient loops (§5.5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.attributes import MetricVector
from repro.core.rank import Rank
# Re-exported: the flow hash lives beside ``Packet.flow_key`` so hosts can
# stamp it without ``simulator/`` importing ``protocol/``.
from repro.simulator.packet import packet_flow_hash, stable_flow_hash

__all__ = [
    "FwdKey",
    "ForwardingEntry",
    "ForwardingTable",
    "BestChoiceTable",
    "FlowletEntry",
    "FlowletTable",
    "LoopDetectionTable",
    "stable_flow_hash",
    "packet_flow_hash",
]


#: FwdT key: (destination switch, local tag, probe id).
FwdKey = Tuple[str, int, int]


@dataclass(slots=True)
class ForwardingEntry:
    """One FwdT row.

    ``prop_key`` and ``rank`` are caches computed once at install time: the
    raw propagation-rank tuple ``f(pid, mv)`` used to compare same-version
    probes, and the full policy rank ``s`` of the entry.  Both are pure
    functions of the (immutable) metric vector, so caching them keeps probe
    processing and best-choice rescans off the policy-evaluation slow path.

    ``alternates`` holds further ``(next_hop, next_tag)`` pairs whose probes
    tied the row's propagation rank exactly in the same version round — the
    software analogue of the ECMP action group a P4 switch keeps for
    equal-rank entries.  Fresh flowlets spread across primary + alternates by
    flowlet id, which is what keeps a ToR's simultaneous flow arrivals from
    herding onto a single uplink while probes (correctly) report both as
    equally good.
    """

    metrics: MetricVector
    next_tag: int
    next_hop: str
    version: int
    updated_at: float
    prop_key: Tuple[float, ...] = ()
    rank: Optional[Rank] = None
    alternates: Tuple[Tuple[str, int], ...] = ()

    #: Alternates kept per row (primary + 3 matches a 4-way ECMP group).
    MAX_ALTERNATES = 3

    def add_alternate(self, next_hop: str, next_tag: int) -> None:
        """Record an equal-rank (next hop, next tag) pair for this row."""
        pair = (next_hop, next_tag)
        if next_hop != self.next_hop and pair not in self.alternates and \
                len(self.alternates) < self.MAX_ALTERNATES:
            self.alternates = self.alternates + (pair,)


class ForwardingTable:
    """FwdT: the per-switch forwarding table populated by probes."""

    def __init__(self) -> None:
        self._entries: Dict[FwdKey, ForwardingEntry] = {}

    def lookup(self, key: FwdKey) -> Optional[ForwardingEntry]:
        return self._entries.get(key)

    def install(self, key: FwdKey, entry: ForwardingEntry) -> None:
        self._entries[key] = entry

    def remove(self, key: FwdKey) -> None:
        self._entries.pop(key, None)

    def entries_for_destination(self, destination: str) -> Dict[FwdKey, ForwardingEntry]:
        """All rows advertising ``destination`` (across tags and probe ids)."""
        return {k: v for k, v in self._entries.items() if k[0] == destination}

    def entries_via(self, next_hop: str) -> List[FwdKey]:
        """Keys of rows whose next hop is ``next_hop`` (for failure expiry)."""
        return [k for k, v in self._entries.items() if v.next_hop == next_hop]

    def __len__(self) -> int:
        return len(self._entries)

    def items(self):
        return self._entries.items()


class BestChoiceTable:
    """BestT: per-destination tuple of the co-best (equal-rank) FwdT keys."""

    def __init__(self) -> None:
        self._best: Dict[str, Tuple[FwdKey, ...]] = {}

    def get(self, destination: str) -> Optional[Tuple[FwdKey, ...]]:
        return self._best.get(destination)

    def set(self, destination: str, keys: Tuple[FwdKey, ...]) -> None:
        self._best[destination] = keys

    def clear(self, destination: str) -> None:
        self._best.pop(destination, None)

    def __len__(self) -> int:
        return len(self._best)


@dataclass(slots=True)
class FlowletEntry:
    """One policy-aware flowlet pinning decision."""

    next_hop: str
    next_tag: int
    last_seen: float


class FlowletTable:
    """Flowlet table keyed by (destination, tag, pid, flowlet id) (§5.3).

    Including the tag and probe id in the key is exactly what makes flowlet
    switching *policy-aware*: a preference change that re-tags packets starts
    a fresh flowlet entry instead of reusing a pin that would violate the
    policy.

    Expiry is **lazy**: :meth:`lookup` drops an expired entry on touch, and a
    high-water-mark sweep (:meth:`_sweep`, triggered from :meth:`install`)
    reclaims entries whose flows ended and are never touched again — without
    it the table grows monotonically with every (destination, flowlet) pair a
    run ever pins, which is what made large fabrics accumulate unbounded
    switch state.  The sweep removes only entries :meth:`lookup` would
    already refuse to return, so forwarding decisions are unaffected, and it
    is amortized O(1) per install (the threshold doubles with the surviving
    live set, classic table-halving style).
    """

    #: Default sweep threshold floor; per-table the trigger is
    #: ``max(high_water, 2 * live entries after the last sweep)``.
    DEFAULT_HIGH_WATER = 4096

    def __init__(self, timeout: float, slots: int = 1024,
                 sweep_high_water: Optional[int] = None):
        self.timeout = timeout
        self.slots = slots
        self.sweep_high_water = (sweep_high_water if sweep_high_water is not None
                                 else self.DEFAULT_HIGH_WATER)
        self._sweep_at = self.sweep_high_water
        #: Entries reclaimed by high-water sweeps (observability/tests only;
        #: swept entries are *not* flowlet expirations in the stats sense —
        #: they were already dead to every lookup).
        self.swept_entries = 0
        self._entries: Dict[Tuple[str, int, int, int], FlowletEntry] = {}

    def flowlet_id(self, flow_key: Tuple) -> int:
        """Hash a flow identifier into a table slot (stable across processes)."""
        return stable_flow_hash(flow_key) % self.slots

    def lookup(self, destination: str, tag: int, pid: int, fid: int,
               now: float) -> Optional[FlowletEntry]:
        """A live (non-expired) entry, or None."""
        key = (destination, tag, pid, fid)
        entry = self._entries.get(key)
        if entry is None:
            return None
        if now - entry.last_seen > self.timeout:
            del self._entries[key]
            return None
        return entry

    def install(self, destination: str, tag: int, pid: int, fid: int,
                next_hop: str, next_tag: int, now: float) -> FlowletEntry:
        if len(self._entries) >= self._sweep_at:
            self._sweep(now)
        entry = FlowletEntry(next_hop, next_tag, now)
        self._entries[(destination, tag, pid, fid)] = entry
        return entry

    def _sweep(self, now: float) -> None:
        """Reclaim every expired entry (high-water-mark memory bound)."""
        timeout = self.timeout
        entries = self._entries
        expired = [key for key, entry in entries.items()
                   if now - entry.last_seen > timeout]
        for key in expired:
            del entries[key]
        self.swept_entries += len(expired)
        self._sweep_at = max(self.sweep_high_water, 2 * len(entries))

    def touch(self, entry: FlowletEntry, now: float) -> None:
        entry.last_seen = now

    def expire(self, destination: str, tag: int, pid: int, fid: int) -> None:
        self._entries.pop((destination, tag, pid, fid), None)

    def expire_flowlet_everywhere(self, fid: int) -> int:
        """Flush every entry with the given flowlet id (loop breaking, §5.5)."""
        keys = [k for k in self._entries if k[3] == fid]
        for key in keys:
            del self._entries[key]
        return len(keys)

    def expire_via(self, next_hop: str) -> int:
        """Flush entries pinned to a next hop believed to have failed (§5.4)."""
        keys = [k for k, v in self._entries.items() if v.next_hop == next_hop]
        for key in keys:
            del self._entries[key]
        return len(keys)

    def __len__(self) -> int:
        return len(self._entries)


@dataclass(slots=True)
class _LoopRecord:
    max_ttl: int
    min_ttl: int
    last_seen: float


class LoopDetectionTable:
    """TTL-delta loop detector (§5.5).

    For every flow hash the switch tracks the maximum and minimum TTL observed;
    in the absence of loops the difference is bounded by the spread of path
    lengths in use, while a loop makes it grow without bound.  When the delta
    exceeds ``threshold`` the switch reports a (possible) loop and the caller
    flushes the offending flowlet entries.
    """

    def __init__(self, threshold: int = 4, slots: int = 1024, entry_timeout: float = 50.0):
        self.threshold = threshold
        self.slots = slots
        self.entry_timeout = entry_timeout
        self._records: Dict[int, _LoopRecord] = {}

    def observe(self, flow_key: Tuple, ttl: int, now: float) -> bool:
        """Record a packet's TTL; returns True when a loop is suspected."""
        return self.observe_hash(stable_flow_hash(flow_key), ttl, now)

    def observe_hash(self, flow_hash: int, ttl: int, now: float) -> bool:
        """Like :meth:`observe` for callers that already hold the flow hash."""
        slot = flow_hash % self.slots
        record = self._records.get(slot)
        if record is None or now - record.last_seen > self.entry_timeout:
            self._records[slot] = _LoopRecord(ttl, ttl, now)
            return False
        if ttl > record.max_ttl:
            record.max_ttl = ttl
        elif ttl < record.min_ttl:
            record.min_ttl = ttl
        record.last_seen = now
        if record.max_ttl - record.min_ttl > self.threshold:
            # Reset so one loop is reported once, then tracking restarts.
            self._records[slot] = _LoopRecord(ttl, ttl, now)
            return True
        return False
