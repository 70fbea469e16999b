"""Fluid flow model: epoch-driven max-min rate allocation.

Packet-level fidelity caps every grid point at ~10^4 flows because the cost
*is* the per-packet event structure (the PR 6 probe-plane measurements made
that explicit).  This module replaces per-packet events with per-**epoch**
rate recomputation: every in-flight flow is a fluid rate share on its
policy-chosen path, and the allocation — weighted progressive-filling max-min
fairness over path groups, capped per group by the window-limited rate
``host_window / RTT`` — is recomputed only when the set of contenders
changes:

* **flow arrival** — the flow is resolved onto a concrete path (by the fluid
  analogue of its routing system, see :func:`build_path_model`) and joins
  that path's group;
* **flow completion** — computed analytically from the current rates via
  per-group virtual-service finish tags and re-queued as one engine event
  (never one event per flow: same-instant completions coalesce);
* **link fail/recover** — every flow is deterministically re-resolved against
  the new liveness map.

A run therefore costs O(epochs × links) instead of O(packets): one epoch per
arrival, roughly one per completion batch, one per link event.

Finish tags
-----------
Each group tracks a *virtual service* integral ``S(t)`` — the cumulative
per-flow packets served on that path.  A flow joining with ``r`` remaining
packets gets finish tag ``S(join) + r`` and completes exactly when ``S``
reaches its tag; tags live in a per-group min-heap, so the next completion
epoch is ``min over groups of  updated + (top_tag - S) / rate``, one O(1)
formula per group.  At a completion epoch the group's service is snapped to
the due tag (no accumulated float drift decides completion order) and every
tag ``<= due`` pops together.

Byte-stability contract (ARCHITECTURE.md §7)
--------------------------------------------
All allocation arithmetic is pure Python floats over deterministically
ordered structures (sorted link ids, sorted group keys, insertion-ordered
dicts); the solver is exactly permutation-invariant over its input order, and
FCT summaries fold through :mod:`repro.nputil`.  Fluid summaries are
byte-stable run-to-run, serial == parallel == resumed, but are **not**
comparable byte-for-byte with packet summaries — fidelity is validated
statistically by the ``fluid-vs-packet`` scenario instead.

The conservation invariant is adapted for rate integrals: the total service
poured into groups must equal completed sizes plus in-flight progress.  The
check (:meth:`FluidSimulation._check_conservation`) runs at the end of every
run — it is O(flows) once, not per-epoch, so it stays on even without the
sanitizer.
"""

from __future__ import annotations

import heapq
from array import array
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.exceptions import FLUID_SYSTEM_NAMES, SimulationError
from repro.nputil import mean as _mean, percentile_linear as _percentile
from repro.simulator.accumulators import HyperLogLog
from repro.simulator.engine import Simulator
from repro.simulator.packet import DATA_PACKET_BYTES, stable_flow_hash
from repro.topology.graph import Topology

__all__ = [
    "max_min_rates",
    "build_path_model",
    "FluidPathModel",
    "FluidStats",
    "FluidSimulation",
    "FLUID_SYSTEM_NAMES",
]


# =============================================================================
# Max-min solver
# =============================================================================

def max_min_rates(
    paths: Mapping,
    capacities: Mapping,
    weights: Optional[Mapping] = None,
    rate_caps: Optional[Mapping] = None,
) -> Dict:
    """Weighted max-min fair rates via progressive filling.

    Parameters
    ----------
    paths:
        group key -> sequence of link ids the group traverses (non-empty).
        Keys and link ids must be mutually sortable (the solver iterates both
        in sorted order so the result is exactly permutation-invariant).
    capacities:
        link id -> capacity (must cover every link referenced by ``paths``).
    weights:
        group key -> positive integer demand weight (default 1); a group's
        consumption on each of its links is ``weight * rate``.
    rate_caps:
        group key -> optional per-group rate ceiling (e.g. the window-limited
        rate); groups without an entry are uncapped.

    Returns the group -> rate dict.  Determinism contract: the result is a
    pure function of the *set* of (group, path, weight, cap) tuples — feeding
    any permutation of the same groups produces bit-identical floats.  Each
    filling round freezes every group at the winning level (the smallest link
    fair share ``remaining / weight_sum`` or the smallest unfrozen cap) and
    debits each link once with a single multiply (``remaining -=
    delta_weight * level``) so no float depends on accumulation order.

    Cost: O(nnz log n) where nnz is the total path length over groups —
    candidate levels live in lazy min-heaps (entries are invalidated by a
    per-link version counter instead of rescanning every link each round),
    which is what keeps the congested epochs of a million-flow fluid run
    affordable.  Keys and link ids are mapped to dense indices up front, so
    the hot loop runs on plain lists.
    """
    group_keys = sorted(paths)
    group_count = len(group_keys)
    link_ids = sorted({link for key in group_keys for link in paths[key]})
    link_index = {link: i for i, link in enumerate(link_ids)}
    link_count = len(link_ids)

    group_paths: List[List[int]] = []
    group_weight: List[int] = []
    for key in group_keys:
        weight = 1 if weights is None else int(weights[key])
        if weight <= 0:
            raise ValueError(f"group {key!r} has non-positive weight {weight}")
        if not paths[key]:
            raise ValueError(f"group {key!r} has an empty path")
        group_weight.append(weight)
        group_paths.append([link_index[link] for link in paths[key]])

    remaining = [float(capacities[link]) for link in link_ids]
    weight_sum = [0] * link_count
    link_groups: List[List[int]] = [[] for _ in range(link_count)]
    for gid in range(group_count):
        weight = group_weight[gid]
        for link in group_paths[gid]:
            weight_sum[link] += weight
            link_groups[link].append(gid)

    # Lazy candidate heaps: (level, id, version) for links, (cap, gid) for
    # groups.  A link entry is current iff its version matches; consumed or
    # superseded entries are discarded on pop.  Tie-breaking by dense id is
    # deterministic, and dense ids follow sorted key order, so permuting the
    # input cannot reorder anything.
    version = [0] * link_count
    share_heap = [(remaining[l] / weight_sum[l], l, 0) for l in range(link_count)]
    heapq.heapify(share_heap)
    cap_heap: List[Tuple[float, int]] = []
    if rate_caps is not None:
        for gid, key in enumerate(group_keys):
            cap = rate_caps.get(key)
            if cap is not None:
                cap_heap.append((float(cap), gid))
        heapq.heapify(cap_heap)

    frozen = [False] * group_count
    rates = [0.0] * group_count
    unfrozen = group_count
    while unfrozen:
        while share_heap and share_heap[0][2] != version[share_heap[0][1]]:
            heapq.heappop(share_heap)
        link_level = share_heap[0][0] if share_heap else None
        while cap_heap and frozen[cap_heap[0][1]]:
            heapq.heappop(cap_heap)
        cap_level = cap_heap[0][0] if cap_heap else None
        if link_level is None and cap_level is None:  # pragma: no cover
            raise ValueError("unfrozen groups left but no candidate level")

        batch: List[int] = []
        if cap_level is not None and (link_level is None or cap_level <= link_level):
            level = cap_level
            while cap_heap and cap_heap[0][0] == level:
                _cap, gid = heapq.heappop(cap_heap)
                if not frozen[gid]:
                    frozen[gid] = True
                    batch.append(gid)
        else:
            level = link_level if link_level > 0.0 else 0.0
            while share_heap and share_heap[0][0] == link_level:
                _share, link, ver = heapq.heappop(share_heap)
                if ver != version[link]:
                    continue
                version[link] += 1  # consumed: no current entry until re-push
                for gid in link_groups[link]:
                    if not frozen[gid]:
                        frozen[gid] = True
                        batch.append(gid)

        delta: Dict[int, int] = {}
        for gid in batch:
            rates[gid] = level
            unfrozen -= 1
            weight = group_weight[gid]
            for link in group_paths[gid]:
                delta[link] = delta.get(link, 0) + weight
        for link, delta_weight in delta.items():
            new_sum = weight_sum[link] - delta_weight
            weight_sum[link] = new_sum
            debited = remaining[link] - delta_weight * level
            remaining[link] = debited if debited > 0.0 else 0.0
            version[link] += 1
            if new_sum > 0:
                heapq.heappush(share_heap,
                               (remaining[link] / new_sum, link, version[link]))
    return {key: rates[gid] for gid, key in enumerate(group_keys)}


# =============================================================================
# Path resolution: fluid analogues of the routing systems
# =============================================================================

#: switch -> destination switch -> ``(next hop, link id)`` per equal-cost hop.
_NextHopRows = Mapping[str, Mapping[str, Tuple[Tuple[str, int], ...]]]


class _Fabric:
    """Directed-link index shared by the path models and the simulation."""

    __slots__ = ("topology", "links", "index", "capacity", "latency", "hosts")

    def __init__(self, topology: Topology):
        self.topology = topology
        rows = topology.link_params()
        self.links = [key for key, _ in rows]
        self.index = {key: i for i, key in enumerate(self.links)}
        self.capacity = [params.capacity for _, params in rows]
        self.latency = [params.latency for _, params in rows]
        #: host -> (attachment switch, uplink id, downlink id).
        self.hosts: Dict[str, Tuple[str, int, int]] = {}
        for host in topology.hosts:
            switch = topology.attachment_switch(host)
            self.hosts[host] = (switch, self.index[(host, switch)],
                                self.index[(switch, host)])

    def next_hop_rows(self, all_hops: bool) -> _NextHopRows:
        """:meth:`Topology.next_hop_table` lowered once per topology: switch ->
        destination switch -> ``(next hop, link id)`` pairs in the table's hop
        order, so a walk builds no ``(switch, hop)`` key and probes no index
        per candidate.  Link ids are positions in the topology's sorted links,
        the same for every fabric built on it, so the rows are a
        :meth:`Topology.derived` table like the one they lower: shared and
        read-only."""
        return self.topology.derived(("fluid_next_hop_rows", all_hops),
                                     lambda topology: self._lowered(all_hops))

    def _lowered(self, all_hops: bool) -> _NextHopRows:
        index = self.index
        rows = {}
        for switch, table_row in self.topology.next_hop_table(all_hops).items():
            # One shared pair per neighbour; map keeps the lowering to a C
            # loop per row (a comprehension is a Python frame per row).
            pair = {hop: (hop, index[(switch, hop)])
                    for hop in self.topology.switch_neighbors(switch)}.__getitem__
            rows[switch] = MappingProxyType(
                {dst_switch: tuple(map(pair, hops))
                 for dst_switch, hops in table_row.items()})
        return MappingProxyType(rows)


class FluidPathModel:
    """Resolves one flow onto a tuple of directed link indices.

    ``resolve`` is a pure function of (flow hash, endpoints, utilization map,
    liveness map): the fluid analogue of a routing system's forwarding state.
    It returns ``None`` when no live path exists — the flow is *blocked* and
    re-resolved at the next link event, mirroring a packet plane that
    blackholes until the protocol reconverges.
    """

    name = "fluid"

    def __init__(self, fabric: _Fabric):
        self.fabric = fabric

    def resolve(self, fhash: int, src_host: str, dst_host: str,
                util: Sequence[float],
                failed: Sequence[bool]) -> Optional[Tuple[int, ...]]:
        raise NotImplementedError


class _HashWalkModel(FluidPathModel):
    """ECMP / single shortest path: hash across the equal-cost next hops.

    The walk mirrors the packet plane's per-switch decision exactly: hash
    over the full next-hop set, and only when the chosen link is down re-hash
    over the live subset (so unaffected flows never move when an unrelated
    link fails).  Every hop strictly decreases the distance to the
    destination, so the walk cannot loop.
    """

    def __init__(self, fabric: _Fabric, all_hops: bool):
        super().__init__(fabric)
        self.name = "ecmp" if all_hops else "shortest-path"
        self._rows = fabric.next_hop_rows(all_hops)

    def resolve(self, fhash, src_host, dst_host, util, failed):
        hosts = self.fabric.hosts
        switch, up, _ = hosts[src_host]
        dst_switch, _, down = hosts[dst_host]
        if failed[up] or failed[down]:
            return None
        if switch == dst_switch:
            return (up, down)
        rows = self._rows
        path = [up]
        while switch != dst_switch:
            hops = rows[switch].get(dst_switch)
            if not hops:
                return None
            choice, link = hops[fhash % len(hops)]
            if failed[link]:
                usable = [hop for hop in hops if not failed[hop[1]]]
                if not usable:
                    return None
                choice, link = usable[fhash % len(usable)]
            path.append(link)
            switch = choice
        path.append(down)
        return tuple(path)


class _GreedyUtilModel(FluidPathModel):
    """Shortest-path DAG walk picking the least-utilized live egress.

    The fluid analogue of both Contra's MU-datacenter policy
    (``minimize((path.len, path.util))``) and HULA's probe-maintained best
    tables: restrict to shortest paths, steer each hop to the neighbour with
    the lowest current utilization, break exact ties by flow hash.  Flowlet
    granularity collapses to per-epoch flow granularity — in a rate model a
    flow *is* its rate, so re-resolution happens at epochs, which is also
    when utilizations change.  Greedy per-hop minimization is how the real
    distributed protocols behave (each switch only knows its local best
    table); it is not guaranteed to find the global min-utilization shortest
    path, and ARCHITECTURE.md §7 records that approximation.
    """

    name = "contra-datacenter"

    def __init__(self, fabric: _Fabric):
        super().__init__(fabric)
        self._rows = fabric.next_hop_rows(all_hops=True)

    def resolve(self, fhash, src_host, dst_host, util, failed):
        hosts = self.fabric.hosts
        switch, up, _ = hosts[src_host]
        dst_switch, _, down = hosts[dst_host]
        if failed[up] or failed[down]:
            return None
        if switch == dst_switch:
            return (up, down)
        rows = self._rows
        path = [up]
        while switch != dst_switch:
            hops = rows[switch].get(dst_switch)
            if not hops:
                return None
            best = None
            ties: List[Tuple[str, int]] = []
            for hop in hops:
                link = hop[1]
                if failed[link]:
                    continue
                u = util[link]
                if best is None or u < best:
                    best = u
                    ties = [hop]
                elif u == best:
                    ties.append(hop)
            if not ties:
                return None
            switch, link = ties[fhash % len(ties)]
            path.append(link)
        path.append(down)
        return tuple(path)


class _BottleneckModel(FluidPathModel):
    """Exact ``minimize(path.util)``: bottleneck-shortest path by Dijkstra.

    The fluid analogue of the MU-wan policy on WAN fabrics, where taking a
    longer detour around a hot link is the whole point.  Labels are
    ``(max link util, hop count, path)`` compared lexicographically, so
    tie-breaking is deterministic without any hashing.  O(E log V) per
    resolution — WAN topologies are small, and fidelity matters more than
    the datacenter-scale fast path here.
    """

    name = "contra-wan"

    def resolve(self, fhash, src_host, dst_host, util, failed):
        hosts = self.fabric.hosts
        switch, up, _ = hosts[src_host]
        dst_switch, _, down = hosts[dst_host]
        if failed[up] or failed[down]:
            return None
        if switch == dst_switch:
            return (up, down)
        topology = self.fabric.topology
        index = self.fabric.index
        heap: List[Tuple[float, int, Tuple[str, ...]]] = [(0.0, 0, (switch,))]
        visited = set()
        while heap:
            bottleneck, hops, path = heapq.heappop(heap)
            node = path[-1]
            if node in visited:
                continue
            visited.add(node)
            if node == dst_switch:
                links = [up]
                links.extend(index[(a, b)] for a, b in zip(path, path[1:]))
                links.append(down)
                return tuple(links)
            for neighbor in topology.switch_neighbors(node):
                if neighbor in visited:
                    continue
                link = index[(node, neighbor)]
                if failed[link]:
                    continue
                heapq.heappush(
                    heap,
                    (max(bottleneck, util[link]), hops + 1, path + (neighbor,)))
        return None


class _SpainModel(FluidPathModel):
    """Static SPAIN path sets: the flow hash selects a VLAN.

    Paths come from the same :func:`~repro.baselines.spain.compute_spain_paths`
    greedy disjoint-path computation the packet plane installs; a failed VLAN
    falls back to the next live path in hash-rotated order (the packet
    plane's per-flow VLAN reselection).
    """

    name = "spain"

    def __init__(self, fabric: _Fabric):
        super().__init__(fabric)
        from repro.baselines.spain import compute_spain_paths
        self._paths = compute_spain_paths(fabric.topology)

    def resolve(self, fhash, src_host, dst_host, util, failed):
        hosts = self.fabric.hosts
        switch, up, _ = hosts[src_host]
        dst_switch, _, down = hosts[dst_host]
        if failed[up] or failed[down]:
            return None
        if switch == dst_switch:
            return (up, down)
        options = self._paths.get((switch, dst_switch))
        if not options:
            return None
        index = self.fabric.index
        count = len(options)
        for offset in range(count):
            nodes = options[(fhash + offset) % count]
            links = [index[(a, b)] for a, b in zip(nodes, nodes[1:])]
            if not any(failed[link] for link in links):
                return (up, *links, down)
        return None


def build_path_model(system: str, topology: Topology,
                     policy: str = "datacenter") -> FluidPathModel:
    """The fluid path-resolution analogue of one routing system.

    ``policy`` selects the Contra objective by the same names the spec layer
    uses (``POLICY_BUILDERS``): ``"datacenter"`` maps to the greedy
    least-utilized shortest-path walk, ``"wan"`` to the exact bottleneck
    search.
    """
    fabric = _Fabric(topology)
    name = system.lower()
    if name == "ecmp":
        return _HashWalkModel(fabric, all_hops=True)
    if name == "shortest-path":
        return _HashWalkModel(fabric, all_hops=False)
    if name == "spain":
        return _SpainModel(fabric)
    if name == "hula":
        return _GreedyUtilModel(fabric)
    if name == "contra":
        if policy == "datacenter":
            return _GreedyUtilModel(fabric)
        if policy == "wan":
            return _BottleneckModel(fabric)
        raise SimulationError(
            f"no fluid analogue for contra policy {policy!r}; "
            "available: 'datacenter', 'wan'")
    raise SimulationError(
        f"unknown routing system {system!r}; available: {FLUID_SYSTEM_NAMES}")


# =============================================================================
# Stats
# =============================================================================

class FluidStats:
    """What one fluid run measures, summarised as the packet collector is.

    A million-flow run must not hold a million flow records: flows are
    counted and completion times kept as one flat ``array("d")`` (8 B a
    sample, not a 24 B boxed float and its 8 B list slot).  The
    ``summary()`` key set and order are identical to
    :class:`~repro.simulator.stats.StatsCollector`'s — packet-only
    quantities (drops, retransmissions, cwnd, ACK/probe bytes) are
    structurally zero because the fluid model has no segments to lose —
    plus one fluid-only key, ``"epochs"``: the number of allocation
    recomputations, the model's native cost unit (the packet plane's
    analogue is its event count).  Only this plane feeds the per-switch
    flow sketch.
    """

    def __init__(self, fct_percentiles: Sequence[float] = (),
                 flow_sketch: bool = False):
        self.flow_count = 0
        self.fcts = array("d")
        self.epochs = 0
        self.goodput_bytes = 0.0
        self.failure_detections = 0
        # Opt-in extensions (both default off, keeping the historical summary
        # key set byte-identical).
        #: Extra FCT percentiles to report, e.g. ``(50.0,)`` adds
        #: ``"p50_fct_ms"``.
        self.fct_percentiles: Tuple[float, ...] = tuple(fct_percentiles)
        #: Per-switch flow-cardinality HyperLogLog sketches (the fluid-scale
        #: telemetry): exact per-switch flow sets would cost O(flows) memory
        #: per switch at 10^6 flows, the sketch is constant-size.
        self.flow_sketch = flow_sketch
        self._flow_sketches: Dict[str, HyperLogLog] = {}

    def record_path_flow(self, switches: Sequence[str], flow_id: int) -> None:
        """Offer one flow to the cardinality sketch of every switch on its path.

        One digest per call: every sketch has the same registers, so the flow
        hashes to the same (register, rank) in each of them.  No-op unless
        ``flow_sketch`` was requested; callers may invoke it unconditionally
        on every flow placement.
        """
        if not self.flow_sketch:
            return
        sketches = self._flow_sketches
        index = -1
        for switch in switches:
            sketch = sketches.get(switch)
            if sketch is None:
                sketch = sketches[switch] = HyperLogLog()
            if index < 0:
                index, rank = sketch.slot(flow_id)
            registers = sketch.registers
            if rank > registers[index]:
                registers[index] = rank

    def flow_sketch_estimates(self) -> Dict[str, float]:
        """Per-switch distinct-flow estimates, in sorted switch order."""
        return {name: self._flow_sketches[name].estimate()
                for name in sorted(self._flow_sketches)}

    def note_flow(self) -> None:
        self.flow_count += 1

    def note_completion(self, fct: float) -> None:
        self.fcts.append(fct)

    def average_fct(self) -> float:
        return _mean(self.fcts) if self.fcts else float("nan")

    def percentile_fct(self, percentile: float) -> float:
        return _percentile(self.fcts, percentile) if self.fcts else float("nan")

    def completion_ratio(self) -> float:
        if not self.flow_count:
            return 1.0
        return len(self.fcts) / self.flow_count

    def summary(self) -> Dict[str, float]:
        summary = {
            "flows": self.flow_count,
            "completed_flows": len(self.fcts),
            "completion_ratio": self.completion_ratio(),
            "avg_fct_ms": self.average_fct(),
            "p99_fct_ms": self.percentile_fct(99.0),
            "drops": 0,
            "goodput_bytes": self.goodput_bytes,
            "delivered_bytes": self.goodput_bytes,
            "duplicate_deliveries": 0,
            "retransmissions": 0,
            "fast_retransmits": 0,
            "mean_max_cwnd": 0.0,
            "data_bytes": self.goodput_bytes,
            "ack_bytes": 0.0,
            "probe_bytes": 0.0,
            "tag_overhead_bytes": 0.0,
            "overhead_ratio": 0.0,
            "loop_fraction": 0.0,
            "loop_detections": 0,
            "flowlet_expirations": 0,
            "failure_detections": self.failure_detections,
            "epochs": self.epochs,
        }
        for q in self.fct_percentiles:
            summary[f"p{q:g}_fct_ms"] = self.percentile_fct(q)
        if self.flow_sketch:
            estimates = list(self.flow_sketch_estimates().values())
            summary["flow_sketch_switches"] = len(estimates)
            summary["flow_sketch_max_flows"] = max(estimates) if estimates else 0.0
            summary["flow_sketch_mean_flows"] = _mean(estimates) if estimates else 0.0
        return summary


# =============================================================================
# The epoch-driven simulation
# =============================================================================

class _FlowState:
    __slots__ = ("uid", "fhash", "src", "dst", "start", "size",
                 "path", "tag", "remaining")

    def __init__(self, uid: int, fhash: int, src: str, dst: str,
                 start: float, size: float):
        self.uid = uid
        self.fhash = fhash
        self.src = src
        self.dst = dst
        self.start = start
        self.size = size
        self.path: Optional[Tuple[int, ...]] = None
        self.tag = 0.0
        #: Packets still to serve; authoritative only while blocked
        #: (``path is None``) — placed flows carry it implicitly as
        #: ``tag - group.service``.
        self.remaining = size


class _PathGroup:
    """All in-flight flows sharing one exact link path."""

    __slots__ = ("links", "switches", "count", "rate", "service", "updated",
                 "tags", "rate_cap", "delay", "gid", "version", "applied")

    def __init__(self, links: Tuple[int, ...], switches: Tuple[str, ...],
                 rate_cap: float, delay: float, now: float, gid: int):
        self.links = links
        #: The switches the links enter, for the per-switch cardinality
        #: sketch; empty unless the run sketches.
        self.switches = switches
        self.count = 0
        self.rate = 0.0           # per-flow rate, packets/ms
        self.service = 0.0        # cumulative per-flow packets served
        self.updated = now        # time the (service, rate) anchor is valid at
        self.tags: List[Tuple[float, int]] = []  # (finish tag, flow uid) heap
        self.rate_cap = rate_cap
        self.delay = delay        # one-way base path delay, ms
        self.gid = gid            # creation-order id: deterministic heap ties
        self.version = 0          # invalidates stale completion candidates
        self.applied = 0.0        # total load (count*rate) reflected in _load


class FluidSimulation:
    """One fluid-model run: the counterpart of
    :class:`~repro.simulator.network.Network` for ``flow_model="fluid"``.

    The hot path exploits *per-link* locality, so one congested sender never
    slows the other thousand down:

    * An **arrival** whose window cap fits into the residual capacity of every
      link on its path provably leaves the rest of the max-min allocation
      unchanged (nobody's capacity shrank below their bottleneck, and the new
      flow is at its own ceiling), so the epoch costs O(path length).
    * A **completion batch** whose due groups all run at their rate cap and
      cross only unsaturated links frees capacity no other group can claim
      (anyone who could claim it would be bottlenecked on one of those links,
      i.e. the link would be saturated), so it too is O(due × path length).

    Every other epoch falls back to the exact progressive-filling solver.
    Both paths produce the same deterministic floats for the same event
    sequence; saturation is judged against a 1e-9 relative slack so solver
    float dust on a binding link can only force a (harmless) extra solve.

    Completion scheduling is a lazy candidate heap of ``(due, gid, version)``
    triples — one valid entry per group, invalidated by bumping
    ``group.version`` — so an epoch never scans the full group table.
    """

    def __init__(self, topology: Topology, path_model: FluidPathModel,
                 stats: Optional[FluidStats] = None, host_window: int = 16,
                 sanitize: Optional[bool] = None,
                 force_global_solve: bool = False):
        self.topology = topology
        self.model = path_model
        self.fabric = path_model.fabric
        self.stats = stats if stats is not None else FluidStats()
        self.sim = Simulator(sanitize=sanitize)
        self.host_window = max(1, int(host_window))
        link_count = len(self.fabric.links)
        self._failed = [False] * link_count
        self._util = [0.0] * link_count
        self._load = [0.0] * link_count  # packets/ms currently allocated
        #: Saturation slack threshold per link (absolute, 1e-9 relative).
        self._eps = [1e-9 * cap for cap in self.fabric.capacity]
        self._groups: Dict[Tuple[int, ...], _PathGroup] = {}
        self._by_gid: Dict[int, Tuple[Tuple[int, ...], _PathGroup]] = {}
        #: Per-link group membership (gid -> group, join order) for the
        #: region-local solver's saturated-link BFS.
        self._link_members: List[Dict[int, _PathGroup]] = [
            {} for _ in range(link_count)]
        self._gid_counter = 0
        #: Verification hook: route every congested epoch through the global
        #: solver instead of the region-local one.  The two solve the same
        #: exact max-min problem, so summaries agree to float round-off
        #: (residual-capacity arithmetic differs at the ulp level).
        self._force_global = bool(force_global_solve)
        self._flows: Dict[int, _FlowState] = {}
        self._flow_iter = None
        self._exhausted = True
        self._generation = 0
        self._cand: List[Tuple[float, int, int]] = []  # (due, gid, version)
        self._sched: Optional[float] = None  # time of the live engine event
        self._service_total = 0.0
        self._completed_service = 0.0
        self._stop_after = False
        self._closed = False
        topo = self.fabric.topology
        #: link index -> traversed switch (the link's head end) or None for
        #: host-terminating links; feeds the per-switch cardinality sketch.
        self._link_switch = [dst if topo.is_switch(dst) else None
                             for (_src, dst) in self.fabric.links]

    # -------------------------------------------------------------- workload

    def add_flows(self, flows) -> None:
        """Accept the run's flows: an eager list or a lazy time-ordered
        iterator (the streaming workload path).  Arrival order must be
        non-decreasing in ``start_time``; only one flow is scheduled into the
        engine at a time, so a 10^6-flow stream never materializes."""
        self._refuse_if_closed("add flows to")
        self._flow_iter = iter(flows)
        self._exhausted = False

    def fail_link(self, a: str, b: str, at_time: float = 0.0) -> None:
        self._refuse_if_closed("fail a link of")
        self.sim.call_at(at_time, self._apply_link_event, a, b, True)

    def recover_link(self, a: str, b: str, at_time: float = 0.0) -> None:
        self._refuse_if_closed("recover a link of")
        self.sim.call_at(at_time, self._apply_link_event, a, b, False)

    # ------------------------------------------------------------------- run

    def run(self, duration: float, stop_after_completion: bool = False) -> FluidStats:
        self._refuse_if_closed("run")
        self._stop_after = stop_after_completion
        self._pump()
        self._maybe_stop()
        self.sim.run(until=duration)
        self._settle_all(self.sim.now)
        self.stats.goodput_bytes = self._service_total * DATA_PACKET_BYTES
        self._check_conservation()
        return self.stats

    def close(self) -> None:
        """End the run's life: drop the engine's pending events.

        They hold this simulation's bound methods, and the simulation holds
        the engine, so until then a finished run is a reference cycle.  The
        stats stay readable.  A closed simulation refuses :meth:`run`,
        :meth:`add_flows`, :meth:`fail_link` and :meth:`recover_link`;
        closing twice does nothing.
        """
        if self._closed:
            return
        self._closed = True
        self.sim.close()

    def _refuse_if_closed(self, action: str) -> None:
        if self._closed:
            raise SimulationError(f"cannot {action} a closed fluid simulation")

    # ------------------------------------------------------------ event pump

    def _pump(self) -> None:
        if self._flow_iter is None:
            return
        try:
            flow = next(self._flow_iter)
        except StopIteration:
            self._flow_iter = None
            self._exhausted = True
            return
        self.sim.call_at(flow.start_time, self._on_arrival, flow)

    def _maybe_stop(self) -> None:
        if self._stop_after and self._exhausted and not self._flows:
            self.sim.stop()

    # --------------------------------------------------------------- service

    def _settle(self, group: _PathGroup, now: float) -> None:
        dt = now - group.updated
        if dt > 0.0:
            if group.rate > 0.0 and group.count:
                advance = group.rate * dt
                group.service += advance
                self._service_total += group.count * advance
            group.updated = now

    def _settle_all(self, now: float) -> None:
        for group in self._groups.values():
            self._settle(group, now)

    def _new_group(self, path: Tuple[int, ...], now: float) -> _PathGroup:
        fabric = self.fabric
        delay = 0.0
        for link in path:
            delay += fabric.latency[link] + 1.0 / fabric.capacity[link]
        # Window-limited per-flow ceiling: host_window packets per RTT, the
        # fluid image of the packet plane's fixed-window ACK clock.
        gid = self._gid_counter
        self._gid_counter = gid + 1
        # filter/map rather than a generator: no Python frame per link.
        switches = tuple(filter(None, map(self._link_switch.__getitem__, path))) \
            if self.stats.flow_sketch else ()
        return _PathGroup(path, switches, self.host_window / (2.0 * delay),
                          delay, now, gid)

    # ---------------------------------------------------------------- epochs

    def _on_arrival(self, flow) -> None:
        now = self.sim.now
        stats = self.stats
        stats.epochs += 1
        stats.note_flow()
        state = _FlowState(flow.flow_id,
                           stable_flow_hash((flow.src_host, flow.dst_host,
                                             flow.flow_id)),
                           flow.src_host, flow.dst_host, now,
                           float(flow.size_packets))
        self._flows[state.uid] = state
        self._pump()

        path = self.model.resolve(state.fhash, state.src, state.dst,
                                  self._util, self._failed)
        if path is None:
            # Blocked: no live path. Holds its remaining size until a link
            # event re-resolves it; contributes no load.
            return

        group = self._groups.get(path)
        if group is None:
            group = self._new_group(path, now)
        else:
            self._settle(group, now)
        fits = self._cap_fits(group)
        self._join(state, group, path)
        if fits:
            # Local exactness: the current allocation is max-min; giving the
            # arrival its cap saturates no link below anyone's bottleneck and
            # the arrival itself is at its ceiling, so old rates + cap *is*
            # the max-min allocation of the new contender set.  (A group
            # running below its cap is link-frozen on a saturated link, where
            # the cap cannot fit — such arrivals always reach the solver.)
            self._fast_arrival(group, now)
        elif self._force_global:
            self._reallocate(now)
        else:
            self._local_reallocate(now, [group], ())
        self._resched(now)

    def _cap_fits(self, group: _PathGroup) -> bool:
        load = self._load
        capacity = self.fabric.capacity
        cap = group.rate_cap
        for link in group.links:
            if load[link] + cap > capacity[link]:
                return False
        return True

    def _join(self, state: _FlowState, group: _PathGroup,
              path: Tuple[int, ...]) -> None:
        """Place ``state`` in ``group``, whose service anchor is current (a
        group just created, or settled to now): register the group on its
        first member, tag the flow, count it, sketch it."""
        if not group.count:
            self._groups[path] = group
            self._by_gid[group.gid] = (path, group)
            members = self._link_members
            for link in path:
                members[link][group.gid] = group
        state.path = path
        state.tag = group.service + state.remaining
        heapq.heappush(group.tags, (state.tag, state.uid))
        group.count += 1
        if group.switches:
            self.stats.record_path_flow(group.switches, state.uid)

    def _apply_total(self, group: _PathGroup, new_total: float) -> None:
        """Move the group's reflected load (``count * rate``) to ``new_total``."""
        diff = new_total - group.applied
        if diff:
            load = self._load
            util = self._util
            capacity = self.fabric.capacity
            for link in group.links:
                updated = load[link] + diff
                if updated < 0.0:
                    updated = 0.0
                load[link] = updated
                util[link] = updated / capacity[link]
            group.applied = new_total

    def _drop_group(self, path: Tuple[int, ...], group: _PathGroup) -> None:
        del self._groups[path]
        del self._by_gid[group.gid]
        members = self._link_members
        for link in group.links:
            del members[link][group.gid]
        group.version += 1
        self._apply_total(group, 0.0)

    def _fast_arrival(self, group: _PathGroup, now: float) -> None:
        """Cap-fitting arrival: everyone else stays put, only ``group`` moves."""
        cap = group.rate_cap
        group.rate = cap
        self._apply_total(group, group.count * cap)
        self._push_candidate(group)

    def _push_candidate(self, group: _PathGroup) -> None:
        """Refresh ``group``'s completion candidate (older entries go stale)."""
        group.version += 1
        if group.rate > 0.0 and group.tags:
            due = group.updated + (group.tags[0][0] - group.service) / group.rate
            heapq.heappush(self._cand, (due, group.gid, group.version))

    def _resched(self, now: float) -> None:
        """Point the single live engine event at the earliest valid candidate.

        Every epoch handler ends here.  Stale heap entries (version mismatch
        or deleted gid) are discarded lazily; a superseded engine event is
        killed by bumping the generation.
        """
        cand = self._cand
        by_gid = self._by_gid
        while cand:
            due, gid, version = cand[0]
            entry = by_gid.get(gid)
            if entry is not None and entry[1].version == version:
                if due < now:
                    due = now
                if due != self._sched:
                    self._generation += 1
                    self._sched = due
                    self.sim.call_at(due, self._on_completions, self._generation)
                return
            heapq.heappop(cand)
        if self._sched is not None:
            self._generation += 1
            self._sched = None

    def _on_completions(self, generation: int) -> None:
        if generation != self._generation:
            return
        now = self.sim.now
        stats = self.stats
        stats.epochs += 1
        self._sched = None
        # Pop every group whose candidate is due.  Candidate times are exact
        # (any rate/tag change re-pushed a fresh entry), so pop order —
        # (time, creation id) — is deterministic.
        cand = self._cand
        by_gid = self._by_gid
        due: List[Tuple[Tuple[int, ...], _PathGroup, int]] = []
        while cand and cand[0][0] <= now:
            _due, gid, version = heapq.heappop(cand)
            entry = by_gid.get(gid)
            if entry is not None and entry[1].version == version:
                due.append((entry[0], entry[1], 0))
        flows = self._flows
        fast = True
        capacity = self.fabric.capacity
        load = self._load
        eps = self._eps
        for index, (path, group, _none) in enumerate(due):
            # A due group off its cap is link-frozen (freed share must
            # redistribute); a due group crossing a saturated link may be
            # what somebody else is bottlenecked on.  Either forces a solve.
            if fast:
                if group.rate != group.rate_cap:
                    fast = False
                else:
                    for link in path:
                        if capacity[link] - load[link] <= eps[link]:
                            fast = False
                            break
            # Snap the service integral to the due tag: completion identity
            # is decided by tag arithmetic, never by accumulated drift.
            due_tag = group.tags[0][0]
            delta = due_tag - group.service
            if delta > 0.0:
                group.service = due_tag
                self._service_total += group.count * delta
            group.updated = now
            tags = group.tags
            removed = 0
            while tags and tags[0][0] <= due_tag:
                _tag, uid = heapq.heappop(tags)
                state = flows.pop(uid)
                group.count -= 1
                removed += 1
                self._completed_service += state.size
                stats.note_completion(now - state.start + group.delay)
            due[index] = (path, group, removed)
        if fast:
            for path, group, _removed in due:
                if not group.count:
                    self._drop_group(path, group)
                else:
                    self._apply_total(group, group.count * group.rate_cap)
                    self._push_candidate(group)
        elif self._force_global:
            self._reallocate(now)
        else:
            # Freed capacity on a *pre-free* saturated link must be offered
            # to that link's other groups even when the freeing group empties
            # out, so collect those links before dropping anything.
            dirty_links: List[int] = []
            survivors: List[_PathGroup] = []
            eps_ = eps
            for path, group, _removed in due:
                if not group.count:
                    for link in path:
                        if capacity[link] - load[link] <= eps_[link]:
                            dirty_links.append(link)
                    self._drop_group(path, group)
                else:
                    survivors.append(group)
            self._local_reallocate(now, survivors, dirty_links)
        self._resched(now)
        self._maybe_stop()

    def _apply_link_event(self, a: str, b: str, down: bool) -> None:
        now = self.sim.now
        self.stats.epochs += 1
        index = self.fabric.index
        for key in ((a, b), (b, a)):
            link = index.get(key)
            if link is not None:
                self._failed[link] = down
        if down:
            # One detection per event: the fluid model has no per-switch
            # probe convergence, so this counter is not comparable with the
            # packet plane's per-switch detections (ARCHITECTURE.md §7).
            self.stats.failure_detections += 1
        self._reroute_all(now)
        self._resched(now)
        self._maybe_stop()

    def _reroute_all(self, now: float) -> None:
        """Re-resolve every flow against the new liveness map.

        Paths are chosen against the pre-event utilizations (the information
        a just-reconverged protocol would have), in flow-uid order; remaining
        work carries over exactly as ``tag - service``.
        """
        self._settle_all(now)
        old_groups = self._groups
        states = sorted(self._flows.values(), key=lambda s: s.uid)
        self._groups = {}
        self._by_gid = {}
        self._link_members = [{} for _ in self._link_members]
        finished: List[_FlowState] = []
        for state in states:
            if state.path is not None:
                state.remaining = state.tag - old_groups[state.path].service
            if state.remaining <= 0.0:
                finished.append(state)
                continue
            state.path = None
            path = self.model.resolve(state.fhash, state.src, state.dst,
                                      self._util, self._failed)
            if path is None:
                continue
            group = self._groups.get(path)
            if group is None:
                group = self._new_group(path, now)
            self._join(state, group, path)
        for state in finished:
            del self._flows[state.uid]
            self._completed_service += state.size
            assert state.path is not None
            self.stats.note_completion(now - state.start
                                       + old_groups[state.path].delay)
        self._reallocate(now)

    # ------------------------------------------------------------ allocation

    def _reallocate(self, now: float) -> None:
        """Full exact solve: settle changed groups, re-run progressive filling.

        Groups whose rate survives the solve unchanged keep their service
        anchor (the due formula is time-invariant while the rate holds), so
        the settle cost tracks how much of the allocation actually moved.
        Scheduling is the caller's job (every epoch handler ends in
        ``_resched``).
        """
        groups = self._groups
        empties = [(path, group) for path, group in groups.items()
                   if not group.count]
        for path, group in empties:
            self._drop_group(path, group)
        link_count = len(self._load)
        if not groups:
            self._load = [0.0] * link_count
            self._util = [0.0] * link_count
            return
        capacity = self.fabric.capacity
        capacities: Dict[int, float] = {}
        weights: Dict[Tuple[int, ...], int] = {}
        caps: Dict[Tuple[int, ...], float] = {}
        for path, group in groups.items():
            weights[path] = group.count
            caps[path] = group.rate_cap
            for link in path:
                capacities[link] = capacity[link]
        rates = max_min_rates({path: path for path in groups}, capacities,
                              weights, caps)
        load = [0.0] * link_count
        util = [0.0] * link_count
        for path, group in groups.items():
            rate = rates[path]
            if rate != group.rate:
                self._settle(group, now)
                group.rate = rate
            total = group.count * rate
            group.applied = total
            for link in path:
                load[link] += total
        for link, total in enumerate(load):
            if total:
                util[link] = total / capacity[link]
        self._load = load
        self._util = util
        # Tag heaps may have changed even where rates did not (the epoch's
        # join or pops), so refresh every candidate; compact the heap when
        # stale entries pile up.
        for group in groups.values():
            self._push_candidate(group)
        self._compact_candidates()

    def _compact_candidates(self) -> None:
        if len(self._cand) > 4 * len(self._groups) + 64:
            by_gid = self._by_gid
            fresh = [entry for entry in self._cand
                     if (pair := by_gid.get(entry[1])) is not None
                     and pair[1].version == entry[2]]
            heapq.heapify(fresh)
            self._cand = fresh

    def _local_reallocate(self, now: float, seed_groups: List[_PathGroup],
                          seed_links: Sequence[int]) -> None:
        """Exact max-min re-solve restricted to the bottleneck-coupled region.

        The groups whose rates can change after a local perturbation (a join,
        or a completion batch) are exactly those reachable from the perturbed
        groups through **saturated** links: slack on an unsaturated link is
        free by definition — nobody is bottlenecked there — so the max-min
        certificate of every group outside the closure is untouched when the
        region is re-solved against the residual capacities (link capacity
        minus the frozen outside load).  If the region solve *newly* saturates
        a link, that link's outside groups lose their certificate headroom, so
        they are pulled in and the region is re-solved; the loop terminates
        because the region only grows.  In a fat-tree this makes a congested
        epoch cost O(one sender's flows), not O(all groups).
        """
        load = self._load
        capacity = self.fabric.capacity
        eps = self._eps
        members = self._link_members
        region: Dict[int, _PathGroup] = {}
        scanned = set()
        pending: List[_PathGroup] = [g for g in seed_groups if g.count]
        for link in seed_links:
            if link not in scanned:
                scanned.add(link)
                pending.extend(members[link].values())
        while True:
            # Closure: admit pending groups, expanding through every
            # saturated link they touch.
            while pending:
                group = pending.pop()
                if group.gid in region:
                    continue
                region[group.gid] = group
                for link in group.links:
                    if link not in scanned \
                            and capacity[link] - load[link] <= eps[link]:
                        scanned.add(link)
                        pending.extend(members[link].values())
            if not region:
                return
            if 2 * len(region) >= len(self._groups):
                # The coupled component spans most of the allocation: the
                # global solve is cheaper than the residual bookkeeping.
                self._reallocate(now)
                return
            # Residual sub-problem: region loads come off, outside loads stay.
            order = sorted(region)
            paths: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
            weights: Dict[Tuple[int, ...], int] = {}
            caps: Dict[Tuple[int, ...], float] = {}
            region_load: Dict[int, float] = {}
            for gid in order:
                group = region[gid]
                path = group.links
                paths[path] = path
                weights[path] = group.count
                caps[path] = group.rate_cap
                applied = group.applied
                for link in path:
                    region_load[link] = region_load.get(link, 0.0) + applied
            residual: Dict[int, float] = {}
            for link, taken in region_load.items():
                free = capacity[link] - load[link] + taken
                residual[link] = free if free > 0.0 else 0.0
            rates = max_min_rates(paths, residual, weights, caps)
            for gid in order:
                group = region[gid]
                rate = rates[group.links]
                if rate != group.rate:
                    self._settle(group, now)
                    group.rate = rate
                self._apply_total(group, group.count * rate)
            # Expansion check: links the region solve just saturated.
            pending = []
            for link in region_load:
                if link not in scanned \
                        and capacity[link] - load[link] <= eps[link]:
                    scanned.add(link)
                    for member in members[link].values():
                        if member.gid not in region:
                            pending.append(member)
            if not pending:
                break
        for gid in sorted(region):
            self._push_candidate(region[gid])
        self._compact_candidates()

    # ---------------------------------------------------------- verification

    def _check_conservation(self) -> None:
        """Rate-integral conservation: service poured into groups must equal
        completed sizes plus in-flight progress.  The fluid adaptation of the
        sanitizer's packet-conservation ledger (ARCHITECTURE.md §7)."""
        expected = self._completed_service
        groups = self._groups
        for state in self._flows.values():
            if state.path is None:
                expected += state.size - state.remaining
            else:
                expected += state.size - (state.tag - groups[state.path].service)
        tolerance = 1e-6 * max(1.0, self._service_total) + 1e-3
        if abs(self._service_total - expected) > tolerance:
            raise SimulationError(
                "fluid conservation violated: served "
                f"{self._service_total!r} packets but flow progress accounts "
                f"for {expected!r}")
