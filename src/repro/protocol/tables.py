"""Switch-local state tables of the Contra data plane.

These classes model, in Python, the register arrays the synthesized P4
programs allocate:

* :class:`ForwardingTable` — FwdT, keyed by (destination, tag, probe id),
  storing the best metric vector, next tag, next hop and probe version
  (§4.2, §5.1);
* :class:`BestChoiceTable` — BestT, the per-destination pointer to the entry a
  source switch currently prefers (the asterisk in Figure 6e);
* :class:`FlowletTable` — policy-aware flowlet switching entries keyed by
  (destination, tag, probe id, flowlet id) (§5.3); it lives beside the pin
  step Contra and Hula share (``repro.simulator.switchnode``) and is
  re-exported here;
* :class:`LoopDetectionTable` — per-flow TTL-delta tracking used to lazily
  break transient loops (§5.5).

:class:`StatePool` is not a switch table: it hash-conses the immutable values
the FwdT and BestT rows of one deployment hold (ARCHITECTURE.md §2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.attributes import MetricVector
from repro.core.device_config import LOOP_TABLE_SLOTS
from repro.core.rank import Rank
# Re-exported: the flow hash lives beside ``Packet.flow_key`` so hosts can
# stamp it, and the flowlet table beside the pin step Contra and Hula share,
# without ``simulator/`` importing ``protocol/``.
from repro.simulator.packet import packet_flow_hash, stable_flow_hash
from repro.simulator.switchnode import FlowletEntry, FlowletTable

__all__ = [
    "FwdKey",
    "StatePool",
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

#: A flow's max-minus-min TTL spread above which a loop is suspected (§5.5).
LOOP_TTL_DELTA = 4
#: Milliseconds after which an unseen flow's loop record is forgotten.
LOOP_ENTRY_TIMEOUT = 50.0


class StatePool:
    """Hash-consing of the immutable values FwdT and BestT rows hold.

    One pool per :class:`~repro.protocol.contra_switch.ContraSystem`, shared
    by all of its switches.  A fabric's thousands of rows hold a handful of
    distinct metric vectors, keys and next-hop groups (on the k=16 fat-tree
    40 832 rows share 19 vectors), so an accepted probe installs the pool's
    canonical object for each instead of a private copy.  Every pooled value
    is immutable and compared by value only — no code reads a pooled
    object's identity — so sharing changes no result.  The pool lives and
    dies with its system; nothing outlives a run.
    """

    __slots__ = ("vectors", "prop_keys", "keys", "groups")

    def __init__(self) -> None:
        #: Carried attribute names -> values tuple -> (the metric vector,
        #: its policy rank, or None when the rank depends on the tag).
        self.vectors: Dict[Tuple[str, ...], Dict[
            Tuple[float, ...], Tuple[MetricVector, Optional[Rank]]]] = {}
        #: Propagation keys that are not the carried values tuple itself.
        self.prop_keys: Dict[Tuple[float, ...], Tuple[float, ...]] = {}
        #: FwdT keys ``(destination, local tag, probe id)``.
        self.keys: Dict[FwdKey, FwdKey] = {}
        #: BestT co-best key sets and ``ForwardingEntry.alternates`` groups.
        self.groups: Dict[Tuple[tuple, ...], Tuple[tuple, ...]] = {}


@dataclass(slots=True)
class ForwardingEntry:
    """One FwdT row.

    ``prop_key`` and ``rank`` are caches computed once at install time: the
    raw propagation-rank tuple ``f(pid, mv)`` used to compare same-version
    probes, and the full policy rank ``s`` of the entry.  Both are pure
    functions of the (immutable) metric vector, so caching them keeps probe
    processing and best-choice rescans off the policy-evaluation slow path.
    ``metrics``, ``prop_key``, ``alternates``, the key the row is filed
    under and, under a fast-rank policy, ``rank`` are :class:`StatePool`
    objects shared with every equal row; the row itself is its own.

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

    def add_alternate(self, next_hop: str, next_tag: int, pool: StatePool) -> None:
        """Record an equal-rank (next hop, next tag) pair for this row."""
        pair = (next_hop, next_tag)
        if next_hop != self.next_hop and pair not in self.alternates and \
                len(self.alternates) < self.MAX_ALTERNATES:
            alternates = self.alternates + (pair,)
            self.alternates = pool.groups.setdefault(alternates, alternates)


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

    def __len__(self) -> int:
        return len(self._entries)

    def items(self):
        return self._entries.items()


class BestChoiceTable:
    """BestT: per-destination tuple of the co-best (equal-rank) FwdT keys.

    :meth:`set` stores the pool's canonical copy of the tuple.
    """

    def __init__(self, pool: StatePool) -> None:
        self._best: Dict[str, Tuple[FwdKey, ...]] = {}
        self._intern = pool.groups.setdefault

    def get(self, destination: str) -> Optional[Tuple[FwdKey, ...]]:
        return self._best.get(destination)

    def set(self, destination: str, keys: Tuple[FwdKey, ...]) -> None:
        self._best[destination] = self._intern(keys, keys)

    def clear(self, destination: str) -> None:
        self._best.pop(destination, None)

    def __len__(self) -> int:
        return len(self._best)


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
    exceeds :data:`LOOP_TTL_DELTA` the switch reports a (possible) loop and
    the caller flushes the offending flowlet entries; a record unseen for
    :data:`LOOP_ENTRY_TIMEOUT` ms is forgotten.  Flow hashes share the
    :data:`~repro.core.device_config.LOOP_TABLE_SLOTS` records by residue.
    """

    def __init__(self) -> None:
        self._records: Dict[int, _LoopRecord] = {}

    def observe(self, flow_key: Tuple, ttl: int, now: float) -> bool:
        """Record a packet's TTL; returns True when a loop is suspected."""
        return self.observe_hash(stable_flow_hash(flow_key), ttl, now)

    def observe_hash(self, flow_hash: int, ttl: int, now: float) -> bool:
        """Like :meth:`observe` for callers that already hold the flow hash."""
        slot = flow_hash % LOOP_TABLE_SLOTS
        record = self._records.get(slot)
        if record is None or now - record.last_seen > LOOP_ENTRY_TIMEOUT:
            self._records[slot] = _LoopRecord(ttl, ttl, now)
            return False
        if ttl > record.max_ttl:
            record.max_ttl = ttl
        elif ttl < record.min_ttl:
            record.min_ttl = ttl
        record.last_seen = now
        if record.max_ttl - record.min_ttl > LOOP_TTL_DELTA:
            # Reset so one loop is reported once, then tracking restarts.
            self._records[slot] = _LoopRecord(ttl, ttl, now)
            return True
        return False
