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
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.attributes import MetricVector
from repro.core.rank import Rank
from repro.nputil import np
# Re-exported: the flow hash lives beside ``Packet.flow_key`` so hosts can
# stamp it without ``simulator/`` importing ``protocol/``.
from repro.simulator.packet import packet_flow_hash, stable_flow_hash

__all__ = [
    "FwdKey",
    "ForwardingEntry",
    "ForwardingTable",
    "ForwardingShadow",
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


class ForwardingShadow:
    """Dense (version, propagation-key) mirror of FwdT for the wave prefilter.

    The array probe plane rejects the bulk of a wave by comparing each probe's
    (version, prop_key) against the installed entry for its (origin, tag, pid)
    key — as one fancy-indexed array read instead of N dict lookups.  This
    class is that lowered view: flat arrays indexed by
    ``(origin_id * num_tags + tag) * num_pids + pid``, holding the version
    (``-1`` = no entry) and the propagation-key columns of the entry most
    recently *recorded*.

    Soundness contract (see ARCHITECTURE.md): the shadow may **lag** the real
    table — a missed :meth:`record` only makes a later prefilter treat the key
    as worse/absent, producing extra scalar-path survivors, never a wrong
    reject.  It must never run *ahead*: the only writes happen at install /
    alternate-record time with the exact installed values.  Installs are
    monotone improvements under versioning, so a probe rejected against a
    shadow state stays rejected against every later in-tick install.

    Beyond (version, prop_key), the shadow mirrors the entry's tie-handling
    state — the interned next-hop id, and the ``alternates`` pairs as
    ``MAX_ALTERNATES`` parallel (hop id, tag) slots plus a count — so the
    prefilter can also flag exact ties whose ``add_alternate`` would be a
    no-op (own next hop, already-recorded pair, or a full group).  Alternate
    state is only trusted when the recorded version matches the probe's, and
    :meth:`record` resets it exactly like a fresh install resets
    ``ForwardingEntry.alternates``.
    """

    __slots__ = ("num_tags", "num_pids", "key_width", "versions", "prop_cols",
                 "nexthop_ids", "alt_count", "alt_hops", "alt_tags")

    def __init__(self, num_origins: int, num_tags: int, num_pids: int,
                 key_width: int):
        if np is None:  # pragma: no cover - callers gate on numpy themselves
            raise RuntimeError("ForwardingShadow requires numpy")
        self.num_tags = num_tags
        self.num_pids = num_pids
        self.key_width = key_width
        size = num_origins * num_tags * num_pids
        self.versions = np.full(size, -1, dtype=np.int64)
        #: One flat float column per propagation-key position: scalar writes
        #: at install time and fancy-indexed bulk reads per wave are both
        #: cheaper on parallel 1-D columns than on one (size, K) matrix.
        self.prop_cols: List = [np.zeros(size, dtype=np.float64)
                                for _ in range(key_width)]
        self.nexthop_ids = np.full(size, -1, dtype=np.int64)
        self.alt_count = np.zeros(size, dtype=np.int64)
        self.alt_hops: List = [np.full(size, -1, dtype=np.int64)
                               for _ in range(ForwardingEntry.MAX_ALTERNATES)]
        self.alt_tags: List = [np.full(size, -1, dtype=np.int64)
                               for _ in range(ForwardingEntry.MAX_ALTERNATES)]

    def _flat(self, origin_id: Optional[int], tag: int, pid: int) -> int:
        """Flat index for an in-range key, or ``-1`` when outside the dims."""
        if origin_id is None or origin_id < 0 or not 0 <= tag < self.num_tags \
                or not 0 <= pid < self.num_pids:
            return -1
        index = (origin_id * self.num_tags + tag) * self.num_pids + pid
        return index if index < self.versions.shape[0] else -1

    def record(self, origin_id: Optional[int], tag: int, pid: int,
               version: int, prop_key: Tuple[float, ...],
               nexthop_id: int = -1) -> None:
        """Mirror one install.  Silently skips keys outside the lowered dims
        (unassigned origin ids, foreign tags/pids) — the shadow then lags,
        which the prefilter treats conservatively."""
        if len(prop_key) > self.key_width:
            return
        index = self._flat(origin_id, tag, pid)
        if index < 0:
            return
        self.versions[index] = version
        cols = self.prop_cols
        for position, value in enumerate(prop_key):
            cols[position][index] = value
        # A fresh install replaces the entry object wholesale, emptying its
        # alternate group; the mirror resets identically.  The slots are
        # cleared too: the judge matches against every slot, and a stale
        # (hop, tag) pair would make the new entry's first tie look repeated.
        self.nexthop_ids[index] = nexthop_id if nexthop_id is not None else -1
        self.alt_count[index] = 0
        for hops in self.alt_hops:
            hops[index] = -1

    def record_alternate(self, origin_id: Optional[int], tag: int, pid: int,
                         version: int, hop_id: Optional[int],
                         next_tag: int) -> None:
        """Mirror one ``ForwardingEntry.add_alternate`` call.

        Applies the same dedup / own-next-hop / capacity conditions against
        the shadow's own slots.  Both alternate sets start empty at the same
        install and see the same attempt sequence, so they evolve
        identically — unless this record is skipped (unsynced version,
        unassigned hop id), in which case the shadow's set lags reality and
        the prefilter under-kills, never over-kills.
        """
        if hop_id is None or hop_id < 0:
            return
        index = self._flat(origin_id, tag, pid)
        if index < 0 or self.versions[index] != version:
            return
        primary = self.nexthop_ids[index]
        if primary == hop_id or primary < 0:
            # Own next hop (real add_alternate refuses it too), or an entry
            # whose hop id was never assigned — then the ``!= next_hop``
            # condition cannot be mirrored faithfully, so the shadow's set
            # stays behind reality (under-kill) rather than risk a phantom.
            return
        count = self.alt_count[index]
        if count >= ForwardingEntry.MAX_ALTERNATES:
            return
        hops, tags = self.alt_hops, self.alt_tags
        for slot in range(count):
            if hops[slot][index] == hop_id and tags[slot][index] == next_tag:
                return
        hops[count][index] = hop_id
        tags[count][index] = next_tag
        self.alt_count[index] = count + 1


def lexicographic_gt(columns_a: Sequence, columns_b: Sequence):
    """Elementwise tuple-compare ``a > b`` over parallel column arrays.

    ``columns_a[j][i]`` is position ``j`` of row ``i``'s key; both sides must
    have the same (non-zero) number of columns.  Exactly Python's tuple
    ordering for equal-length float tuples, vectorized.
    """
    gt = columns_a[0] > columns_b[0]
    if len(columns_a) > 1:
        eq = columns_a[0] == columns_b[0]
        for a, b in zip(columns_a[1:], columns_b[1:]):
            gt = gt | (eq & (a > b))
            eq = eq & (a == b)
    return gt


def lexicographic_gt_eq(columns_a: Sequence, columns_b: Sequence):
    """Like :func:`lexicographic_gt` but also returns the exact-equality mask.

    The tie mask is what lets the prefilter reason about the ECMP-alternate
    side effect separately from strict rejects.
    """
    gt = columns_a[0] > columns_b[0]
    eq = columns_a[0] == columns_b[0]
    for a, b in zip(columns_a[1:], columns_b[1:]):
        gt = gt | (eq & (a > b))
        eq = eq & (a == b)
    return gt, eq


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
