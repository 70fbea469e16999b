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
"""

from __future__ import annotations

from bisect import bisect_left
from operator import attrgetter
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

from repro.core.automata import DEAD_STATE, DFA, dfa_from_regex
from repro.core.regex import PathRegex
from repro.exceptions import CompilationError
from repro.topology.graph import Topology

__all__ = ["PGNode", "ProductGraph", "build_product_graph"]


class PGNode(NamedTuple):
    """A virtual node: a physical switch paired with one state per policy regex.

    A tuple, so a node hashes and compares in C — and as the plain
    ``(switch, states)`` pair does, which lets :meth:`ProductGraph.build`
    look a successor up by that pair before making the node.
    """

    switch: str
    states: Tuple[int, ...]

    def __str__(self) -> str:
        if not self.states:
            return self.switch
        rendered = ",".join("-" if s == DEAD_STATE else str(s) for s in self.states)
        return f"({self.switch};{rendered})"


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

        #: All virtual nodes, in deterministic order.
        self.nodes: List[PGNode] = []
        self._node_index: Dict[PGNode, int] = {}
        #: switch -> its virtual nodes, in ``nodes`` order.
        self._nodes_by_switch: Dict[str, List[PGNode]] = {}
        #: Probe-propagation edges: node -> successors (towards traffic
        #: sources).  A row holds at most one successor per topology
        #: neighbour, in neighbour-name order.
        self.out_edges: Dict[PGNode, List[PGNode]] = {}
        self.in_edges: Dict[PGNode, List[PGNode]] = {}
        #: The virtual node probes originating at a destination switch start in.
        self.probe_sending_nodes: Dict[str, PGNode] = {}
        #: tag assignment: node -> per-switch tag id.
        self.tags: Dict[PGNode, int] = {}
        #: reverse lookup: (switch, tag) -> node.
        self._by_tag: Dict[Tuple[str, int], PGNode] = {}
        #: state vector -> its acceptance signature (:meth:`acceptance`).
        self._acceptance: Dict[Tuple[int, ...], Tuple[bool, ...]] = {}

    # ------------------------------------------------------------ construction

    def _add_node(self, switch: str, states: Tuple[int, ...]) -> PGNode:
        """Make and register the virtual node ``(switch, states)``, known to be new."""
        node = PGNode(switch, states)
        self._node_index[node] = len(self.nodes)
        self.nodes.append(node)
        self._nodes_by_switch.setdefault(switch, []).append(node)
        self.out_edges[node] = []
        self.in_edges[node] = []
        return node

    def _set_nodes(self, nodes: List[PGNode]) -> None:
        """Replace the node list (and the indexes derived from it)."""
        self.nodes = nodes
        self._node_index = {n: i for i, n in enumerate(nodes)}
        by_switch: Dict[str, List[PGNode]] = {}
        for node in nodes:
            by_switch.setdefault(node.switch, []).append(node)
        self._nodes_by_switch = by_switch

    def build(self) -> None:
        """Explore the product graph from every probe-sending state."""
        adjacency = self.topology.switch_graph()
        deltas = [dfa._delta for dfa in self.dfas]
        initial = tuple(dfa.initial for dfa in self.dfas)
        #: (switch, states) -> its node; a plain pair finds the node it equals.
        interned: Dict[Tuple[str, Tuple[int, ...]], PGNode] = {}
        #: (states, symbol) -> the states after every automaton consumed symbol.
        advanced: Dict[Tuple[Tuple[int, ...], str], Tuple[int, ...]] = {}
        in_edges = self.in_edges
        queue: List[PGNode] = []
        for switch in adjacency:
            states = tuple([delta.get((state, switch), DEAD_STATE)
                            for delta, state in zip(deltas, initial)])
            # One per switch, so none of them is known yet.
            node = interned[(switch, states)] = self._add_node(switch, states)
            self.probe_sending_nodes[switch] = node
            queue.append(node)

        while queue:
            node = queue.pop()
            switch, states = node
            successors = self.out_edges[node]
            # Neighbours are distinct, so each one adds a distinct successor.
            for neighbor in adjacency[switch]:
                move = (states, neighbor)
                next_states = advanced.get(move)
                if next_states is None:
                    next_states = advanced[move] = tuple([
                        delta.get((state, neighbor), DEAD_STATE)
                        for delta, state in zip(deltas, states)])
                key = (neighbor, next_states)
                successor = interned.get(key)
                if successor is None:
                    successor = interned[key] = self._add_node(neighbor, next_states)
                    queue.append(successor)
                successors.append(successor)
                in_edges[successor].append(node)

        self._assign_tags()

    def _assign_tags(self) -> None:
        """Assign per-switch tag ids in a deterministic order."""
        self.tags.clear()
        self._by_tag.clear()
        per_switch: Dict[str, int] = {}
        for node in sorted(self.nodes, key=lambda n: (n.switch, n.states)):
            tag = per_switch.get(node.switch, 0)
            per_switch[node.switch] = tag + 1
            self.tags[node] = tag
            self._by_tag[(node.switch, tag)] = node

    # ---------------------------------------------------------------- queries

    def node_for(self, switch: str, states: Sequence[int]) -> Optional[PGNode]:
        node = PGNode(switch, tuple(states))
        return node if node in self._node_index else None

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

    def acceptance(self, node: PGNode) -> Tuple[bool, ...]:
        """Which policy regexes the traffic path ending at this node satisfies.

        A function of the state vector alone, computed once per vector: the
        same vectors recur at switch after switch.
        """
        states = node.states
        accepted = self._acceptance.get(states)
        if accepted is None:
            accepted = self._acceptance[states] = tuple(
                [dfa.is_accepting(state) for dfa, state in zip(self.dfas, states)])
        return accepted

    def acceptance_by_regex(self, node: PGNode) -> Dict[PathRegex, bool]:
        """Acceptance keyed by the original (traffic-direction) regex objects."""
        return dict(zip(self.regexes, self.acceptance(node)))

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        return sum(len(v) for v in self.out_edges.values())

    def max_tags_per_switch(self) -> int:
        """The largest number of virtual nodes any single switch has."""
        return max(map(len, self._nodes_by_switch.values()), default=0)

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

    # ------------------------------------------------------------- restriction

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
        if keep_set >= set(self.nodes):
            return
        new_nodes = [n for n in self.nodes if n in keep_set]
        self._set_nodes(new_nodes)
        self.out_edges = {
            n: [s for s in self.out_edges[n] if s in keep_set] for n in new_nodes}
        self.in_edges = {
            n: [p for p in self.in_edges[n] if p in keep_set] for n in new_nodes}
        self._assign_tags()

    # --------------------------------------------------------- tag minimisation

    def minimize_tags(self) -> Dict[PGNode, PGNode]:
        """Merge behaviourally equivalent virtual nodes of the same switch.

        Two virtual nodes of the same switch are equivalent when they have the
        same acceptance signature and, for every topology neighbour, their
        successors are equivalent (a bisimulation over the PG).  Returns the
        mapping from original node to representative and rebuilds the graph in
        place.  Reduces the number of tags packets must carry (§6.1).
        """
        nodes = self.nodes
        acceptance = self.acceptance
        # Initial partition: (switch, acceptance signature).
        blocks: Dict[Tuple[str, Tuple[bool, ...]], int] = {}
        block_of = [blocks.setdefault((node.switch, acceptance(node)), len(blocks))
                    for node in nodes]
        count = len(blocks)
        # Refinement only ever splits blocks, so all singletons is final.
        if count < len(nodes):
            # On dense ids.  A block never spans two switches, so a successor's
            # block names its switch, and a row — one successor per neighbour,
            # in neighbour order — is the sorted (switch, block) signature.
            index = self._node_index
            rows = [[index[succ] for succ in self.out_edges[node]] for node in nodes]
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
        if count == len(nodes):
            return {node: node for node in nodes}

        # One representative per block: its smallest (switch, states) node.
        representative: Dict[int, PGNode] = {}
        for node, block in zip(nodes, block_of):
            known = representative.get(block)
            if known is None or node < known:
                representative[block] = node
        mapping = {node: representative[block] for node, block in zip(nodes, block_of)}

        # Rebuild nodes/edges/probe-sending states under the mapping.
        new_nodes = list(dict.fromkeys(mapping.values()))
        new_out: Dict[PGNode, List[PGNode]] = {n: [] for n in new_nodes}
        new_in: Dict[PGNode, List[PGNode]] = {n: [] for n in new_nodes}
        linked: Set[Tuple[PGNode, PGNode]] = set()
        for node, successors in self.out_edges.items():
            rep = mapping[node]
            row = new_out[rep]
            for succ in successors:
                succ_rep = mapping[succ]
                edge = (rep, succ_rep)
                if edge not in linked:
                    linked.add(edge)
                    row.append(succ_rep)
                    new_in[succ_rep].append(rep)
        self._set_nodes(new_nodes)
        self.out_edges = new_out
        self.in_edges = new_in
        self.probe_sending_nodes = {
            switch: mapping[node] for switch, node in self.probe_sending_nodes.items()}
        self._assign_tags()
        return mapping

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
        graph.minimize_tags()
    return graph
