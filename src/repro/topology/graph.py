"""Core topology model.

A :class:`Topology` is a collection of named switches and hosts connected by
bidirectional links with capacities and propagation delays.  It is the input
to both the Contra compiler (which only needs the switch-level graph) and the
discrete-event simulator (which also needs the hosts and link parameters).

The model deliberately keeps units abstract:

* capacity is expressed in *packets per millisecond* so the simulator does not
  have to track bytes at 10 Gbps scale, and
* latency is expressed in *milliseconds*.

Relative comparisons between routing systems (the thing the Contra evaluation
measures) are invariant to this scaling; see DESIGN.md §4.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from types import MappingProxyType
from typing import (Callable, Dict, Hashable, List, Mapping, NamedTuple, Optional, Sequence,
                    Set, Tuple, TypeVar)

from repro.exceptions import TopologyError

__all__ = ["Link", "LinkParams", "Topology", "NodeKind", "NextHopTable"]

_INF = float("inf")

_Table = TypeVar("_Table")

#: switch -> destination switch -> the neighbours one hop closer, in name order.
NextHopTable = Mapping[str, Mapping[str, Tuple[str, ...]]]


class NodeKind:
    """Symbolic names for the node roles used by topology generators."""

    SWITCH = "switch"
    HOST = "host"
    # Finer-grained roles used by datacenter generators; all are switches.
    CORE = "core"
    AGGREGATION = "aggregation"
    EDGE = "edge"
    SPINE = "spine"
    LEAF = "leaf"

    SWITCH_ROLES = frozenset({SWITCH, CORE, AGGREGATION, EDGE, SPINE, LEAF})


def _check_link(src: str, dst: str, capacity: float, latency: float) -> None:
    """Refuse what no directed link may be: a self-loop, or a parameter out of range.

    The one check :class:`Link` and :meth:`Topology.add_link` both run.
    """
    if src == dst:
        raise TopologyError(f"self-loop link {src!r} -> {dst!r} is not allowed")
    # Chained so that NaN, which compares false with everything, is refused.
    if not 0 < capacity < _INF:
        raise TopologyError(
            f"link {src}->{dst} capacity must be positive and finite, got {capacity!r}")
    if not 0 <= latency < _INF:
        raise TopologyError(
            f"link {src}->{dst} latency must be non-negative and finite, got {latency!r}")


class LinkParams(NamedTuple):
    """The parameters of a directed link: what a :class:`Topology` stores per link.

    Both directions of a bidirectional link share one row.
    """

    capacity: float
    latency: float


@dataclass(frozen=True)
class Link:
    """A directed link between two nodes.

    A :class:`Topology` keeps each direction's parameters as a
    :class:`LinkParams` row — so the simulator can model asymmetric queues and
    per-direction utilization — and builds a :class:`Link` only when asked for
    one (:meth:`Topology.link`, :attr:`Topology.links`).
    """

    src: str
    dst: str
    capacity: float = 10.0
    latency: float = 0.05

    def __post_init__(self) -> None:
        _check_link(self.src, self.dst, self.capacity, self.latency)

    @property
    def key(self) -> Tuple[str, str]:
        """The (src, dst) pair identifying this directed link."""
        return (self.src, self.dst)

    def reversed(self) -> "Link":
        """Return the same link in the opposite direction.

        ``__post_init__`` is not run again: swapping the ends of a link it
        accepted leaves nothing it would refuse.  The fields are written
        into the instance dict, where ``__init__`` puts them, so the mirror
        compares, hashes, prints, pickles and ``replace``-s like any link.
        """
        mirror = object.__new__(type(self))
        mirror.__dict__.update(self.__dict__, src=self.dst, dst=self.src)
        return mirror


class _SwitchGraphIndex(NamedTuple):
    """The switch graph on dense integer ids, derived from a :class:`Topology`.

    Ids are positions in the sorted switch tuple, so id order is name order:
    a heap or sort that breaks a tie on an id breaks it exactly as the name
    would.  Every row is sorted the same way.
    """

    #: All switch names, sorted; ``switches[i]`` names id ``i``.
    switches: Tuple[str, ...]
    #: Switch name -> dense id.
    ids: Dict[str, int]
    #: All host names, sorted.
    hosts: Tuple[str, ...]
    #: Per id, the switch-to-switch out-links as (neighbour id, latency).
    out_rows: List[List[Tuple[int, float]]]
    #: Per id, the out-neighbour ids alone, in the same order.
    out_ids: List[List[int]]
    #: Every node (hosts too) -> sorted out-neighbour names.
    neighbors: Dict[str, List[str]]
    #: Every node (hosts too) -> sorted out-neighbours that are switches.
    switch_neighbors: Dict[str, List[str]]
    #: Tables computed from the graph on first request (:meth:`Topology.derived`),
    #: by key.  They live and die with this index, so the mutators' one
    #: invalidation drops them too.
    derived: Dict[Hashable, object]
    #: (src, dst) -> the :class:`Link` :meth:`Topology.link` built for it on request.
    link_objects: Dict[Tuple[str, str], Link]


def _dijkstra(adjacency: Sequence[Sequence[Tuple[int, float]]],
              source: int) -> Tuple[List[float], List[int]]:
    """Shortest distances from ``source`` over ``(neighbour id, step)`` rows.

    Returns the distance per id (``inf`` where unreachable) and the reached
    ids in discovery order.  Float addition is monotone, so the distances do
    not depend on how the heap breaks ties; each relaxation adds ``d + step``
    in that operand order.
    """
    inf = float("inf")
    dist = [inf] * len(adjacency)
    dist[source] = 0.0
    reached = [source]
    heap = [(0.0, source)]
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        d, node = pop(heap)
        if d > dist[node]:
            continue
        for nbr, step in adjacency[node]:
            nd = d + step
            known = dist[nbr]
            if nd < known:
                if known == inf:
                    reached.append(nbr)
                dist[nbr] = nd
                push(heap, (nd, nbr))
    return dist, reached


def _hop_sweep(out: Sequence[Sequence[int]]) -> Tuple[int, List[int]]:
    """The largest hop distance between a switch and one it reaches, and who reaches whom.

    ``reach[v]`` is a bitset (bit ``i`` for id ``i``) of the switches within
    ``r`` hops of ``v`` after round ``r``; a round ORs into it the previous
    round's sets of ``v``'s out-neighbours, so the last round that changes
    anything is the largest hop distance.  Costs that many passes over the
    links, each an OR as wide as the switch count.
    """
    reach = [1 << node for node in range(len(out))]
    hops = 0
    while True:
        widened = []
        for within, nbrs in zip(reach, out):
            for nbr in nbrs:
                within |= reach[nbr]
            widened.append(within)
        if widened == reach:
            return hops, reach
        reach = widened
        hops += 1


def _hop_rows(out: Sequence[Sequence[int]]) -> List[List[Tuple[int, float]]]:
    """Out-neighbour id rows as :func:`_dijkstra` adjacency of one hop each."""
    return [[(nbr, 1.0) for nbr in row] for row in out]


def _next_hop_table(index: _SwitchGraphIndex) -> NextHopTable:
    """Every equal-cost next hop, by hop count, for every ordered switch pair.

    One breadth-first search per destination over the reversed rows gives each
    switch its hop distance, and the switches at each distance as a bitset
    (bit ``i`` for id ``i``).  The next hops of a switch ``depth`` hops out are
    its out-neighbours in the ``depth - 1`` set: one AND, decoded to names
    once per distinct result, so the pairs that share a hop set (on a
    fat-tree, nearly all of them) share one tuple.  Ids are name-ordered, so
    hops and row keys come out sorted; a pair with no path has no entry.
    """
    switches = index.switches
    out = index.out_ids
    into: List[List[int]] = [[] for _ in out]
    out_bits = []
    for node, nbrs in enumerate(out):
        bits = 0
        for nbr in nbrs:
            into[nbr].append(node)
            bits |= 1 << nbr
        out_bits.append(bits)
    rows: List[Dict[str, Tuple[str, ...]]] = [{} for _ in out]
    named: Dict[int, Tuple[str, ...]] = {}
    for target, dst in enumerate(switches):
        depth_of = [0] * len(out)
        at_depth = [1 << target]
        frontier = [target]
        while frontier:
            depth = len(at_depth)
            reached = []
            bits = 0
            for node in frontier:
                for pred in into[node]:
                    if not depth_of[pred] and pred != target:
                        depth_of[pred] = depth
                        bits |= 1 << pred
                        reached.append(pred)
            at_depth.append(bits)
            frontier = reached
        for node, depth in enumerate(depth_of):
            if depth:
                closer = out_bits[node] & at_depth[depth - 1]
                hops = named.get(closer)
                if hops is None:
                    hops = named[closer] = tuple(
                        [switches[nbr] for nbr in out[node] if closer >> nbr & 1])
                rows[node][dst] = hops
    return MappingProxyType(
        {src: MappingProxyType(row) for src, row in zip(switches, rows)})


def _first_hops(table: NextHopTable) -> NextHopTable:
    """``table`` cut down to the first next hop, in name order, of every pair."""
    return MappingProxyType(
        {src: MappingProxyType({dst: hops[:1] for dst, hops in row.items()})
         for src, row in table.items()})


def _named(switches: Sequence[str], dist: Sequence[float],
           reached: Sequence[int]) -> Dict[str, float]:
    """A :func:`_dijkstra` result keyed by switch name, in discovery order."""
    return {switches[node]: dist[node] for node in reached}


class Topology:
    """A network topology of switches, hosts and links.

    Parameters
    ----------
    name:
        Human readable topology name, used in reports.
    """

    def __init__(self, name: str = "topology"):
        self.name = name
        self._nodes: Dict[str, str] = {}              # node -> kind
        self._links: Dict[Tuple[str, str], LinkParams] = {}  # directed
        self._host_attachment: Dict[str, str] = {}     # host -> switch
        #: Lazily built by :meth:`_index`; every mutator resets it to None,
        #: so an accessor can never serve a row — or a :meth:`derived` table
        #: — older than the last change.
        self._switch_index: Optional[_SwitchGraphIndex] = None

    # ------------------------------------------------------------------ nodes

    def add_switch(self, node: str, role: str = NodeKind.SWITCH) -> None:
        """Add a switch (optionally with a datacenter role such as ``core``)."""
        if role not in NodeKind.SWITCH_ROLES:
            raise TopologyError(f"unknown switch role {role!r}")
        existing = self._nodes.get(node)
        if existing is not None and existing not in NodeKind.SWITCH_ROLES:
            raise TopologyError(f"node {node!r} already exists as a host")
        self._nodes[node] = role
        self._switch_index = None

    def add_host(self, host: str, switch: str) -> None:
        """Add a host attached to ``switch``; the attachment link is added separately."""
        if host in self._nodes and self._nodes[host] in NodeKind.SWITCH_ROLES:
            raise TopologyError(f"node {host!r} already exists as a switch")
        if switch not in self._nodes or self._nodes[switch] not in NodeKind.SWITCH_ROLES:
            raise TopologyError(f"host {host!r} attaches to unknown switch {switch!r}")
        self._nodes[host] = NodeKind.HOST
        self._host_attachment[host] = switch
        self._switch_index = None

    def has_node(self, node: str) -> bool:
        return node in self._nodes

    def node_role(self, node: str) -> str:
        try:
            return self._nodes[node]
        except KeyError:
            raise TopologyError(f"unknown node {node!r}") from None

    def is_switch(self, node: str) -> bool:
        return self._nodes.get(node) in NodeKind.SWITCH_ROLES

    def is_host(self, node: str) -> bool:
        return self._nodes.get(node) == NodeKind.HOST

    @property
    def switches(self) -> List[str]:
        """All switch names, sorted for determinism."""
        return list(self._index().switches)

    @property
    def hosts(self) -> List[str]:
        """All host names, sorted for determinism."""
        return list(self._index().hosts)

    @property
    def nodes(self) -> List[str]:
        return sorted(self._nodes)

    def switches_with_role(self, role: str) -> List[str]:
        """Switches whose role equals ``role`` (e.g. ``core``)."""
        return sorted(n for n, kind in self._nodes.items() if kind == role)

    def attachment_switch(self, host: str) -> str:
        """The switch a host is attached to."""
        try:
            return self._host_attachment[host]
        except KeyError:
            raise TopologyError(f"unknown host {host!r}") from None

    @property
    def host_attachments(self) -> Mapping[str, str]:
        """host -> attachment switch: the live map, for per-packet readers."""
        return self._host_attachment

    def hosts_of_switch(self, switch: str) -> List[str]:
        """Hosts attached to the given switch."""
        return sorted(h for h, s in self._host_attachment.items() if s == switch)

    # ------------------------------------------------------------------ links

    def add_link(
        self,
        a: str,
        b: str,
        capacity: float = 10.0,
        latency: float = 0.05,
        bidirectional: bool = True,
    ) -> None:
        """Add a link between existing nodes ``a`` and ``b``.

        By default both directions are added with identical parameters,
        checked once and stored as one shared :class:`LinkParams` row.
        Every check runs before anything is written, so a refused call
        leaves the topology as it was.
        """
        for node in (a, b):
            if node not in self._nodes:
                raise TopologyError(f"cannot link unknown node {node!r}")
        links = self._links
        if (a, b) in links:
            raise TopologyError(f"duplicate link {a!r} -> {b!r}")
        _check_link(a, b, capacity, latency)
        if bidirectional and (b, a) in links:
            raise TopologyError(f"duplicate link {b!r} -> {a!r}")
        self._switch_index = None
        row = links[(a, b)] = LinkParams(capacity, latency)
        if bidirectional:
            links[(b, a)] = row

    def remove_link(self, a: str, b: str, bidirectional: bool = True) -> None:
        """Remove the link(s) between ``a`` and ``b``."""
        if (a, b) not in self._links:
            raise TopologyError(f"no link {a!r} -> {b!r} to remove")
        del self._links[(a, b)]
        if bidirectional and (b, a) in self._links:
            del self._links[(b, a)]
        self._switch_index = None

    def has_link(self, a: str, b: str) -> bool:
        return (a, b) in self._links

    def link(self, a: str, b: str) -> Link:
        """The directed link ``a -> b``, built on first request and kept until the next mutation."""
        objects = self._index().link_objects
        link = objects.get((a, b))
        if link is None:
            try:
                capacity, latency = self._links[(a, b)]
            except KeyError:
                raise TopologyError(f"no link {a!r} -> {b!r}") from None
            link = objects[(a, b)] = Link(a, b, capacity, latency)
        return link

    @property
    def links(self) -> List[Link]:
        """All directed links, sorted for determinism."""
        return [self.link(a, b) for a, b in sorted(self._links)]

    @property
    def undirected_links(self) -> List[Link]:
        """One representative per bidirectional pair (src < dst)."""
        seen: Set[Tuple[str, str]] = set()
        result: List[Link] = []
        for key in sorted(self._links):
            a, b = key
            if (b, a) in seen:
                continue
            seen.add(key)
            result.append(self.link(a, b))
        return result

    def link_params(self) -> List[Tuple[Tuple[str, str], LinkParams]]:
        """Every directed link as ``((src, dst), parameters)``, in :attr:`links` order.

        For readers that want the numbers, not :class:`Link` objects.
        """
        return sorted(self._links.items())

    def _index(self) -> _SwitchGraphIndex:
        """The switch-graph index, built on first use after any mutation."""
        index = self._switch_index
        if index is None:
            roles = NodeKind.SWITCH_ROLES
            switches = tuple(sorted(
                node for node, kind in self._nodes.items() if kind in roles))
            ids = {name: position for position, name in enumerate(switches)}
            hosts = tuple(sorted(
                node for node, kind in self._nodes.items() if kind == NodeKind.HOST))
            neighbors: Dict[str, List[str]] = {node: [] for node in self._nodes}
            for (src, dst) in self._links:
                neighbors[src].append(dst)
            switch_neighbors: Dict[str, List[str]] = {}
            for node, row in neighbors.items():
                row.sort()
                only_switches = [nbr for nbr in row if nbr in ids]
                # Accessors hand out copies, so a row without hosts is shared.
                switch_neighbors[node] = row if len(only_switches) == len(row) else only_switches
            links = self._links
            out_rows: List[List[Tuple[int, float]]] = []
            out_ids: List[List[int]] = []
            for name in switches:
                row = []
                id_row = []
                for nbr in switch_neighbors[name]:
                    nbr_id = ids[nbr]
                    row.append((nbr_id, links[(name, nbr)].latency))
                    id_row.append(nbr_id)
                out_rows.append(row)
                out_ids.append(id_row)
            index = self._switch_index = _SwitchGraphIndex(
                switches, ids, hosts, out_rows, out_ids, neighbors, switch_neighbors, {}, {})
        return index

    def derived(self, key: Hashable, build: Callable[["Topology"], _Table]) -> _Table:
        """The table ``build(self)`` returns, computed once per ``key``.

        For anything that is a function of the graph alone and that every
        simulation on it would otherwise recompute: the table is kept on the
        switch-graph index, so it is served until the next mutation and never
        after it.  It is shared by every caller — ``build`` must return
        something immutable.
        """
        tables = self._index().derived
        try:
            return tables[key]              # type: ignore[return-value]
        except KeyError:
            table = tables[key] = build(self)
            return table

    def next_hop_table(self, all_hops: bool) -> NextHopTable:
        """For every switch, the shortest-path next hops towards every other switch.

        By hop count.  ``all_hops`` keeps every equal-cost next hop (ECMP);
        otherwise only the first in name order (single shortest path).  A
        :meth:`derived` table: read-only mappings down to tuple rows.
        """
        if all_hops:
            return self.derived(("next_hops", True),
                                lambda topology: _next_hop_table(topology._index()))
        return self.derived(("next_hops", False),
                            lambda topology: _first_hops(topology.next_hop_table(True)))

    def neighbors(self, node: str) -> List[str]:
        """Nodes reachable from ``node`` over a single directed link (sorted).

        The caller owns the returned list: it is a copy of the index row.
        """
        try:
            return list(self._index().neighbors[node])
        except KeyError:
            raise TopologyError(f"unknown node {node!r}") from None

    def switch_neighbors(self, node: str) -> List[str]:
        """Neighboring switches of ``node`` (hosts excluded); the caller owns the list."""
        try:
            return list(self._index().switch_neighbors[node])
        except KeyError:
            raise TopologyError(f"unknown node {node!r}") from None

    def degree(self, node: str) -> int:
        return len(self.neighbors(node))

    # ------------------------------------------------------------- algorithms

    def switch_graph(self) -> Dict[str, List[str]]:
        """Adjacency mapping restricted to switches (the compiler's view)."""
        index = self._index()
        return {s: list(index.switch_neighbors[s]) for s in index.switches}

    def switch_id_rows(self) -> Tuple[Tuple[str, ...], List[List[int]]]:
        """The switch graph on dense ids: the sorted switch names, and per id
        its out-neighbour ids in name order.

        The index's own rows, not copies: read only, and valid until the
        next mutation.
        """
        index = self._index()
        return index.switches, index.out_ids

    def shortest_path_lengths(self) -> Dict[str, Dict[str, float]]:
        """All-pairs shortest path lengths over the switch graph, in hops.

        Only switches are considered; a row holds the switches its source
        reaches.
        """
        index = self._index()
        adjacency = _hop_rows(index.out_ids)
        return {src: _named(index.switches, *_dijkstra(adjacency, source))
                for source, src in enumerate(index.switches)}

    def _lengths_around(self, node: str,
                        adjacency: Sequence[Sequence[Tuple[int, float]]]) -> Dict[str, float]:
        """Named :func:`_dijkstra` distances from switch ``node`` over ``adjacency``."""
        index = self._index()
        try:
            source = index.ids[node]
        except KeyError:
            raise TopologyError(f"unknown switch {node!r}") from None
        return _named(index.switches, *_dijkstra(adjacency, source))

    def _single_source_lengths(self, src: str) -> Dict[str, float]:
        """Shortest path length in hops from ``src`` to every switch it reaches."""
        return self._lengths_around(src, _hop_rows(self._index().out_ids))

    def shortest_paths(self, src: str, dst: str) -> List[List[str]]:
        """All shortest switch-level paths from ``src`` to ``dst``.

        Returns a list of node sequences (including endpoints), sorted for
        determinism.  An analysis helper: the routing baselines build their
        tables from :meth:`shortest_path_lengths` instead.
        """
        if src == dst:
            return [[src]]
        dist_from_src = self._single_source_lengths(src)
        if dst not in dist_from_src:
            return []
        dist_to_dst = self._reverse_lengths(dst)
        total = dist_from_src[dst]
        paths: List[List[str]] = []

        def extend(prefix: List[str]) -> None:
            node = prefix[-1]
            if node == dst:
                paths.append(list(prefix))
                return
            for nbr in self.switch_neighbors(node):
                if nbr in dist_to_dst and (
                    abs(dist_from_src[node] + 1.0 + dist_to_dst[nbr] - total) < 1e-9
                ):
                    prefix.append(nbr)
                    extend(prefix)
                    prefix.pop()

        extend([src])
        return sorted(paths)

    def _reverse_lengths(self, dst: str) -> Dict[str, float]:
        """Shortest path length in hops to ``dst`` from every switch that reaches it."""
        forward = _hop_rows(self._index().out_ids)
        towards: List[List[Tuple[int, float]]] = [[] for _ in forward]
        # Sources are visited in id order, so every reversed row is id-sorted.
        for source, row in enumerate(forward):
            for nbr, step in row:
                towards[nbr].append((source, step))
        return self._lengths_around(dst, towards)

    def all_simple_paths(self, src: str, dst: str, cutoff: Optional[int] = None) -> List[List[str]]:
        """All simple switch-level paths up to ``cutoff`` hops (inclusive)."""
        if cutoff is None:
            cutoff = len(self.switches)
        paths: List[List[str]] = []

        def walk(prefix: List[str], visited: Set[str]) -> None:
            node = prefix[-1]
            if node == dst:
                paths.append(list(prefix))
                return
            if len(prefix) - 1 >= cutoff:
                return
            for nbr in self.switch_neighbors(node):
                if nbr in visited:
                    continue
                visited.add(nbr)
                prefix.append(nbr)
                walk(prefix, visited)
                prefix.pop()
                visited.remove(nbr)

        walk([src], {src})
        return sorted(paths)

    def is_connected(self) -> bool:
        """Whether the switch graph is connected (ignoring hosts)."""
        out = self._index().out_ids
        if not out:
            return True
        seen = [False] * len(out)
        seen[0] = True
        reached = 1
        stack = [0]
        while stack:
            for nbr in out[stack.pop()]:
                if not seen[nbr]:
                    seen[nbr] = True
                    reached += 1
                    stack.append(nbr)
        return reached == len(out)

    def diameter(self) -> int:
        """Switch-graph diameter in hops; raises if disconnected."""
        out = self._index().out_ids
        hops, reach = _hop_sweep(out)
        everyone = (1 << len(out)) - 1
        if any(reached != everyone for reached in reach):
            raise TopologyError("cannot compute diameter of a disconnected topology")
        return hops

    def max_rtt(self) -> float:
        """The highest round-trip propagation time between any pair of switches.

        Contra's probe period must be at least 0.5x this value (§5.2).

        When every switch-to-switch link carries one latency ``s`` (the
        fat-tree, leaf-spine and random generators), :func:`_dijkstra` gives a
        switch ``h`` hops away the distance ``f(h)``, where ``f(0) = 0.0`` and
        ``f(h + 1) = f(h) + s``: ``f`` is non-decreasing, so the smallest
        relaxation a switch receives is the one from a neighbour one hop
        closer.  The worst distance is then ``f(H)`` for the largest hop
        distance ``H`` between a switch and one it reaches, which
        :func:`_hop_sweep` finds without a search per switch; adding ``s`` up
        ``H`` times (never ``H * s``) yields the very float the searches
        would.  Fabrics with mixed latencies take the search per switch.
        """
        index = self._index()
        rows = index.out_rows
        steps = {latency for row in rows for _, latency in row}
        worst = 0.0
        if len(steps) > 1:
            for source in range(len(rows)):
                dist, reached = _dijkstra(rows, source)
                worst = max(worst, max(map(dist.__getitem__, reached)))
        elif steps:
            step = steps.pop()
            for _ in range(_hop_sweep(index.out_ids)[0]):
                worst = worst + step
        return 2.0 * worst

    # ------------------------------------------------------------------ misc

    def copy(self, name: Optional[str] = None) -> "Topology":
        """A deep copy, optionally renamed."""
        clone = Topology(name or self.name)
        clone._nodes = dict(self._nodes)
        clone._links = dict(self._links)
        clone._host_attachment = dict(self._host_attachment)
        return clone

    def with_failed_link(self, a: str, b: str) -> "Topology":
        """A copy of this topology with the ``a``–``b`` link removed (both directions)."""
        clone = self.copy(name=f"{self.name}-failed-{a}-{b}")
        clone.remove_link(a, b, bidirectional=True)
        return clone

    def validate(self) -> None:
        """Raise :class:`TopologyError` if the topology is structurally invalid."""
        for (src, dst) in self._links:
            if src not in self._nodes or dst not in self._nodes:
                raise TopologyError(f"link {src}->{dst} references unknown node")
        for host, switch in self._host_attachment.items():
            if not self.has_link(host, switch) or not self.has_link(switch, host):
                raise TopologyError(f"host {host!r} has no link to its attachment switch {switch!r}")
        if not self.is_connected():
            raise TopologyError(f"topology {self.name!r} switch graph is disconnected")

    def __contains__(self, node: str) -> bool:
        return node in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def __repr__(self) -> str:
        return (f"Topology({self.name!r}, switches={len(self.switches)}, "
                f"hosts={len(self.hosts)}, links={len(self._links)})")
