"""Product graph construction (§4.1).

The product graph (PG) combines the policy's regular expressions with the
network topology into one compact structure that represents *all*
policy-compliant paths.  Its nodes — "virtual nodes" — are pairs of a physical
switch and a vector of automaton states (one per regex); its edges follow
topology links whose traversal advances every automaton consistently.

Probes are disseminated along PG edges starting from *probe sending states*
(the virtual node a destination's probes are born in), in the direction
opposite to traffic.  Because the automata are built from the **reversed**
regular expressions, a probe that reaches the virtual node ``(S, q)`` tells
switch ``S`` which regexes the corresponding *traffic* path ``S → ... → dst``
satisfies: exactly those whose automaton state in ``q`` is accepting.

Every virtual node receives a small integer *tag*, unique per physical switch;
tags are what probes and packets carry on the wire.  Tag minimisation merges
behaviourally equivalent virtual nodes of the same switch (same acceptance
signature, bisimilar successors), one of the compiler optimisations §6.1
mentions.

The graph is held as integer rows — per node id its switch id, its
state-vector id, its successor ids and its tag — and those rows are its only
state.  Everything keyed by :class:`PGNode` (``nodes``, ``tags``,
``out_edges``, ``in_edges``, ``probe_sending_nodes``, ...) is a view built
from them on first access and kept until the rows are next rewritten.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import attrgetter
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.automata import DEAD_STATE, DFA, dfa_from_regex
from repro.core.regex import PathRegex
from repro.exceptions import CompilationError
from repro.topology.graph import Topology

__all__ = ["PGNode", "ProductGraph", "build_product_graph"]


class PGNode(NamedTuple):
    """A virtual node: a physical switch paired with one state per policy regex.

    A tuple, so a node hashes, compares and sorts as the plain
    ``(switch, states)`` pair does: a view can be searched with that pair.
    """

    switch: str
    states: Tuple[int, ...]

    def __str__(self) -> str:
        if not self.states:
            return self.switch
        rendered = ",".join("-" if s == DEAD_STATE else str(s) for s in self.states)
        return f"({self.switch};{rendered})"


def _view(make):
    """A read-only property of :class:`ProductGraph` built by ``make`` from the
    rows on first access, and kept until the rows are next rewritten."""
    name = make.__name__

    def get(graph: "ProductGraph"):
        views = graph._views
        view = views.get(name)
        if view is None:
            view = views[name] = make(graph)
        return view

    return property(get, doc=make.__doc__)


class ProductGraph:
    """The product of the topology with the (reversed) policy automata."""

    def __init__(
        self,
        topology: Topology,
        regexes: Sequence[PathRegex],
        dfas: Sequence[DFA],
    ):
        self.topology = topology
        self.regexes: Tuple[PathRegex, ...] = tuple(regexes)
        self.dfas: Tuple[DFA, ...] = tuple(dfas)
        if len(self.regexes) != len(self.dfas):
            raise CompilationError("one DFA is required per policy regex")

        # The rows: read only outside this class.
        #: Switch names by switch id (the topology's sorted switch names).
        self.switch_names: Tuple[str, ...] = ()
        #: State vectors by vector id, one automaton state per regex.
        self.vectors: List[Tuple[int, ...]] = []
        #: Per node id: its switch id, its vector id, its per-switch tag, and
        #: its successors (towards traffic sources) — at most one per
        #: topology neighbour, in neighbour-name order.
        self.switch_ids: List[int] = []
        self.vector_ids: List[int] = []
        self.node_tags: List[int] = []
        self.successor_rows: List[List[int]] = []
        #: Per switch id, the node its own probes are born in.
        self.origin_ids: List[int] = []
        #: Node ids in the order their successor rows were written, which is
        #: the order ``in_edges`` lists a node's predecessors in.
        self._row_order: List[int] = []
        #: state vector -> its acceptance signature (:meth:`acceptance_of`).
        self._acceptance: Dict[Tuple[int, ...], Tuple[bool, ...]] = {}
        #: The node-keyed views, by name, built on first access.
        self._views: Dict[str, object] = {}

    # ------------------------------------------------------------ construction

    def build(self) -> None:
        """Explore the product graph from every probe-sending state.

        Over ids: a node is a (switch id, vector id) pair, and every automaton
        moves a whole *symbol class* at once, so a vector's successor per
        class is computed once and every edge is a list lookup plus one probe
        of the pair's dict.  Origins take ids in switch order, then nodes are
        numbered as the last-in, first-out exploration discovers them.
        """
        switches, adjacency = self.topology.switch_id_rows()
        count = len(switches)
        class_rows = [dfa._rows for dfa in self.dfas]
        # Per switch id, the symbol class it falls in under every automaton
        # (None outside an automaton's alphabet: the dead state), interned so
        # switches that move every automaton alike share one combined class.
        positions = [dict(zip(dfa.alphabet, dfa._class_of)) for dfa in self.dfas]
        combined: Dict[Tuple[Optional[int], ...], int] = {}
        class_of = [combined.setdefault(tuple([position.get(name) for position in positions]),
                                        len(combined))
                    for name in switches]
        classes = list(combined)

        vectors: List[Tuple[int, ...]] = []
        vector_index: Dict[Tuple[int, ...], int] = {}
        #: vector id -> its successor vector id per combined class, on first use.
        steps: List[Optional[List[int]]] = []

        def intern(states: Tuple[int, ...]) -> int:
            vector = vector_index.get(states)
            if vector is None:
                vector = vector_index[states] = len(vectors)
                vectors.append(states)
                steps.append(None)
            return vector

        def advance(vector: int) -> List[int]:
            states = vectors[vector]
            row = steps[vector] = [
                intern(tuple([
                    DEAD_STATE if symbol_class is None or state not in rows
                    else rows[state][symbol_class]
                    for rows, state, symbol_class in zip(class_rows, states, key)]))
                for key in classes]
            return row

        initial = advance(intern(tuple(dfa.initial for dfa in self.dfas)))
        switch_ids = list(range(count))
        vector_ids = [initial[class_of[switch]] for switch in switch_ids]
        successor_rows: List[Optional[List[int]]] = [None] * count
        row_order: List[int] = []
        #: vector id * count + switch id -> node id.
        interned = {vector * count + switch: switch for switch, vector in enumerate(vector_ids)}
        stack = list(switch_ids)
        while stack:
            node = stack.pop()
            row_order.append(node)
            vector = vector_ids[node]
            step = steps[vector] or advance(vector)
            row = []
            # Neighbours are distinct, so each one adds a distinct successor.
            for neighbor in adjacency[switch_ids[node]]:
                successor_vector = step[class_of[neighbor]]
                key = successor_vector * count + neighbor
                successor = interned.get(key)
                if successor is None:
                    successor = interned[key] = len(switch_ids)
                    switch_ids.append(neighbor)
                    vector_ids.append(successor_vector)
                    successor_rows.append(None)
                    stack.append(successor)
                row.append(successor)
            successor_rows[node] = row

        self.switch_names = switches
        self.vectors = vectors
        self.switch_ids = switch_ids
        self.vector_ids = vector_ids
        self.successor_rows = successor_rows            # type: ignore[assignment]
        self.origin_ids = list(range(count))
        self._row_order = row_order
        self._rewritten()

    def _rewritten(self) -> None:
        """Re-tag after the rows changed, and drop every view built from the old rows.

        Tags number a switch's nodes in ``(switch, states)`` order; switch ids
        are in name order, so that is the order of switch id, then the
        vector's rank among the sorted vectors — one integer key per node.
        """
        vectors = self.vectors
        rank = [0] * len(vectors)
        for position, vector in enumerate(sorted(range(len(vectors)), key=vectors.__getitem__)):
            rank[vector] = position
        width = len(vectors)
        switch_ids = self.switch_ids
        keys = [switch * width + rank[vector]
                for switch, vector in zip(switch_ids, self.vector_ids)]
        tags = [0] * len(keys)
        previous = tag = -1
        for node in sorted(range(len(keys)), key=keys.__getitem__):
            switch = switch_ids[node]
            tag = tag + 1 if switch == previous else 0
            tags[node] = tag
            previous = switch
        self.node_tags = tags
        self._views = {}

    # ------------------------------------------------------------------ views

    @_view
    def nodes(self) -> List[PGNode]:
        """All virtual nodes, in id order."""
        names, vectors = self.switch_names, self.vectors
        return [PGNode(names[switch], vectors[vector])
                for switch, vector in zip(self.switch_ids, self.vector_ids)]

    @_view
    def tags(self) -> Dict[PGNode, int]:
        """Tag assignment: node -> per-switch tag id, in ``(switch, states)`` order."""
        nodes, switch_ids, node_tags = self.nodes, self.switch_ids, self.node_tags
        order = sorted(range(len(nodes)), key=lambda node: (switch_ids[node], node_tags[node]))
        return {nodes[node]: node_tags[node] for node in order}

    @_view
    def _by_tag(self) -> Dict[Tuple[str, int], PGNode]:
        """Reverse tag lookup: (switch, tag) -> node."""
        return {(node.switch, tag): node for node, tag in self.tags.items()}

    @_view
    def out_edges(self) -> Dict[PGNode, List[PGNode]]:
        """Probe-propagation edges: node -> successors, in ``nodes`` order."""
        nodes = self.nodes
        return {node: [nodes[successor] for successor in row]
                for node, row in zip(nodes, self.successor_rows)}

    @_view
    def in_edges(self) -> Dict[PGNode, List[PGNode]]:
        """node -> predecessors, each row in edge-creation order."""
        nodes, rows = self.nodes, self.successor_rows
        predecessors: List[List[PGNode]] = [[] for _ in nodes]
        for node in self._row_order:
            for successor in rows[node]:
                predecessors[successor].append(nodes[node])
        return dict(zip(nodes, predecessors))

    @_view
    def probe_sending_nodes(self) -> Dict[str, PGNode]:
        """switch -> the node probes originating there start in."""
        nodes = self.nodes
        return {name: nodes[origin] for name, origin in zip(self.switch_names, self.origin_ids)}

    @_view
    def _nodes_by_switch(self) -> Dict[str, List[PGNode]]:
        """switch -> its virtual nodes, in ``nodes`` order."""
        by_switch: Dict[str, List[PGNode]] = {}
        for node in self.nodes:
            by_switch.setdefault(node.switch, []).append(node)
        return by_switch

    @_view
    def _node_index(self) -> Dict[PGNode, int]:
        """node -> its id."""
        return {node: position for position, node in enumerate(self.nodes)}

    # ---------------------------------------------------------------- queries

    def node_for(self, switch: str, states: Sequence[int]) -> Optional[PGNode]:
        position = self._node_index.get((switch, tuple(states)))
        return None if position is None else self.nodes[position]

    def node_by_tag(self, switch: str, tag: int) -> PGNode:
        try:
            return self._by_tag[(switch, tag)]
        except KeyError:
            raise CompilationError(f"switch {switch!r} has no virtual node with tag {tag}") from None

    def tag_of(self, node: PGNode) -> int:
        return self.tags[node]

    def nodes_of_switch(self, switch: str) -> List[PGNode]:
        return list(self._nodes_by_switch.get(switch, ()))

    def successors(self, node: PGNode) -> List[PGNode]:
        """Probe-propagation successors (towards traffic sources)."""
        return list(self.out_edges.get(node, []))

    def predecessors(self, node: PGNode) -> List[PGNode]:
        return list(self.in_edges.get(node, []))

    def successor_at(self, node: PGNode, neighbor: str) -> Optional[PGNode]:
        """The successor of ``node`` located at topology neighbor ``neighbor``."""
        successors = self.out_edges.get(node, ())
        position = bisect_left(successors, neighbor, key=attrgetter("switch"))
        if position < len(successors) and successors[position].switch == neighbor:
            return successors[position]
        return None

    def acceptance_of(self, states: Tuple[int, ...]) -> Tuple[bool, ...]:
        """Which policy regexes a traffic path whose probe reached ``states`` satisfies.

        Computed once per state vector: the same vectors recur at switch
        after switch.
        """
        accepted = self._acceptance.get(states)
        if accepted is None:
            accepted = self._acceptance[states] = tuple(
                [dfa.is_accepting(state) for dfa, state in zip(self.dfas, states)])
        return accepted

    def acceptance(self, node: PGNode) -> Tuple[bool, ...]:
        """Which policy regexes the traffic path ending at this node satisfies."""
        return self.acceptance_of(node.states)

    def acceptance_by_regex(self, node: PGNode) -> Dict[PathRegex, bool]:
        """Acceptance keyed by the original (traffic-direction) regex objects."""
        return dict(zip(self.regexes, self.acceptance(node)))

    @property
    def num_nodes(self) -> int:
        return len(self.switch_ids)

    @property
    def num_edges(self) -> int:
        return sum(map(len, self.successor_rows))

    def max_tags_per_switch(self) -> int:
        """The largest number of virtual nodes any single switch has."""
        # A switch's tags are 0 .. n-1.
        return max(self.node_tags, default=-1) + 1

    # ----------------------------------------------------- reference path tools

    def trace_traffic_path(self, path: Sequence[str]) -> Optional[List[PGNode]]:
        """Map a traffic path ``[src, ..., dst]`` to the probe-direction PG walk.

        Returns the list of PG nodes the corresponding probe would visit (from
        the destination's probe-sending node to the source's virtual node), or
        ``None`` if any hop is missing from the topology.  Used by tests and by
        the reference optimal-path oracle.
        """
        if len(path) < 1:
            return None
        reversed_path = list(reversed(path))
        dst = reversed_path[0]
        if dst not in self.probe_sending_nodes:
            return None
        current = self.probe_sending_nodes[dst]
        walk = [current]
        for hop in reversed_path[1:]:
            if not self.topology.has_link(current.switch, hop):
                return None
            next_states = tuple(
                dfa.transition(state, hop) for dfa, state in zip(self.dfas, current.states))
            current = PGNode(hop, next_states)
            walk.append(current)
        return walk

    def traffic_path_acceptance(self, path: Sequence[str]) -> Optional[Dict[PathRegex, bool]]:
        """Regex acceptance of a traffic path, computed through the automata."""
        walk = self.trace_traffic_path(path)
        if walk is None:
            return None
        return self.acceptance_by_regex(walk[-1])

    # --------------------------------------------------------------- rewriting

    def _keep(self, kept: Sequence[int], renumber: Dict[int, int],
              rows: List[List[int]], row_order: List[int], origins: List[int]) -> None:
        """Install the nodes ``kept`` (old ids, in their new order) and their new rows."""
        self.switch_ids = [self.switch_ids[node] for node in kept]
        self.vector_ids = [self.vector_ids[node] for node in kept]
        self.successor_rows = rows
        self._row_order = row_order
        self.origin_ids = [renumber[node] for node in origins]
        self._rewritten()

    def restrict_to(self, keep: Iterable[PGNode]) -> None:
        """Drop every virtual node not in ``keep`` and reassign tags.

        Used by the reachability pass to prune dead states.  Probe-sending
        nodes can never be dropped — they anchor ``probe_origin_tag`` on every
        device — so asking to remove one is a caller bug.
        """
        keep_set = set(keep)
        missing = sorted(
            switch for switch, node in self.probe_sending_nodes.items()
            if node not in keep_set)
        if missing:
            raise CompilationError(
                "cannot prune probe-sending nodes of switches: "
                + ", ".join(missing))
        kept = [position for position, node in enumerate(self.nodes) if node in keep_set]
        if len(kept) == self.num_nodes:
            return
        renumber = {node: position for position, node in enumerate(kept)}
        rows = [[renumber[successor] for successor in self.successor_rows[node]
                 if successor in renumber] for node in kept]
        row_order = [renumber[node] for node in self._row_order if node in renumber]
        self._keep(kept, renumber, rows, row_order, self.origin_ids)

    def merge_tags(self) -> List[int]:
        """Merge behaviourally equivalent virtual nodes of the same switch, in place.

        Two virtual nodes of the same switch are equivalent when they have the
        same acceptance signature and, for every topology neighbour, their
        successors are equivalent (a bisimulation over the PG).  Each class
        keeps its smallest ``(switch, states)`` node.  Returns, per node id
        before the call, the id (before the call) of its representative; the
        rows are rewritten only when something merges.  Reduces the number of
        tags packets must carry (§6.1).
        """
        switch_ids, rows = self.switch_ids, self.successor_rows
        accepted = [self.acceptance_of(states) for states in self.vectors]
        # Initial partition: (switch, acceptance signature).
        blocks: Dict[Tuple[int, Tuple[bool, ...]], int] = {}
        block_of = [blocks.setdefault((switch, accepted[vector]), len(blocks))
                    for switch, vector in zip(switch_ids, self.vector_ids)]
        count = len(blocks)
        # Refinement only ever splits blocks, so all singletons is final.
        if count < len(block_of):
            # A block never spans two switches, so a successor's block names
            # its switch, and a row — one successor per neighbour, in
            # neighbour order — is the sorted (switch, block) signature.
            while True:
                signatures: Dict[Tuple[int, Tuple[int, ...]], int] = {}
                block_of = [
                    signatures.setdefault(
                        (block, tuple([block_of[succ] for succ in row])), len(signatures))
                    for block, row in zip(block_of, rows)]
                # It has converged exactly when the block count stops growing.
                if len(signatures) == count:
                    break
                count = len(signatures)
        if count == len(block_of):
            return list(range(count))

        # A switch's tags follow (switch, states) order, so the smallest
        # node of a block is its smallest-tagged one.
        tags = self.node_tags
        chosen: Dict[int, int] = {}
        for node, block in enumerate(block_of):
            known = chosen.get(block)
            if known is None or tags[node] < tags[known]:
                chosen[block] = node
        representative = [chosen[block] for block in block_of]

        # Representatives are numbered, and write their rows, in the order
        # their first member comes.  The members of a block have the same
        # successor blocks in the same order, so the first member's row,
        # mapped, is the representative's whole row.
        first: Dict[int, int] = {}
        for node, rep in enumerate(representative):
            first.setdefault(rep, node)
        kept = list(first)
        renumber = {rep: position for position, rep in enumerate(kept)}
        new_rows = [[renumber[representative[succ]] for succ in rows[member]]
                    for member in first.values()]
        self._keep(kept, renumber, new_rows, list(range(len(kept))),
                   [representative[origin] for origin in self.origin_ids])
        return representative

    def minimize_tags(self) -> Dict[PGNode, PGNode]:
        """:meth:`merge_tags`, returning the mapping from each original node to
        its representative."""
        nodes = self.nodes
        return {node: nodes[rep] for node, rep in zip(nodes, self.merge_tags())}

    def __repr__(self) -> str:
        return (f"ProductGraph(nodes={self.num_nodes}, edges={self.num_edges}, "
                f"regexes={len(self.regexes)})")


def build_product_graph(
    topology: Topology,
    regexes: Sequence[PathRegex],
    minimize_automata: bool = True,
    minimize_tags: bool = True,
) -> ProductGraph:
    """Build the product graph of a topology and the policy's regexes.

    The automata are built from the *reversed* regexes because probes travel
    from destinations towards sources (§4.1).
    """
    alphabet = topology.switches
    if not alphabet:
        raise CompilationError("topology has no switches")
    dfas = [dfa_from_regex(r.reverse(), alphabet, minimize=minimize_automata) for r in regexes]
    graph = ProductGraph(topology, regexes, dfas)
    graph.build()
    if minimize_tags and regexes:
        graph.merge_tags()
    return graph
