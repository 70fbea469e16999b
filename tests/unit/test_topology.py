"""Unit tests for the topology substrate."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import TopologyError
from repro.topology import (
    ABILENE_NODES,
    FATTREE_SWITCH_COUNTS,
    Topology,
    abilene,
    builtin_topologies,
    builtin_topology,
    erdos_renyi,
    fattree,
    fattree_for_switch_count,
    from_adjacency,
    from_edge_list,
    from_edge_list_file,
    leafspine,
    random_regular,
    waxman,
)
from repro.topology.graph import Link, NodeKind


class TestLink:
    def test_self_loop_rejected(self):
        with pytest.raises(TopologyError):
            Link("A", "A")

    def test_nonpositive_capacity_rejected(self):
        with pytest.raises(TopologyError):
            Link("A", "B", capacity=0)

    def test_negative_latency_rejected(self):
        with pytest.raises(TopologyError):
            Link("A", "B", latency=-1)

    @pytest.mark.parametrize("field", ("capacity", "latency", "weight"))
    @pytest.mark.parametrize("value", (float("nan"), float("inf"), float("-inf")))
    def test_non_finite_parameters_rejected(self, field, value):
        """``nan < 0`` is false: a comparison against zero alone lets NaN through."""
        with pytest.raises(TopologyError, match=field):
            Link("A", "B", **{field: value})

    def test_negative_weight_rejected(self):
        with pytest.raises(TopologyError, match="weight"):
            Link("A", "B", weight=-0.5)

    def test_zero_latency_and_weight_accepted(self):
        link = Link("A", "B", latency=0.0, weight=0.0)
        assert link.latency == 0.0 and link.weight == 0.0

    def test_add_link_refuses_a_non_finite_latency_and_writes_nothing(self):
        topo = Topology("t")
        topo.add_switch("A")
        topo.add_switch("B")
        with pytest.raises(TopologyError):
            topo.add_link("A", "B", latency=float("nan"))
        assert not topo.has_link("A", "B") and not topo.has_link("B", "A")

    def test_reversed(self):
        link = Link("A", "B", capacity=5, latency=0.1)
        rev = link.reversed()
        assert rev.src == "B" and rev.dst == "A" and rev.capacity == 5


class TestTopologyBasics:
    def build(self):
        topo = Topology("t")
        topo.add_switch("A")
        topo.add_switch("B")
        topo.add_switch("C")
        topo.add_link("A", "B")
        topo.add_link("B", "C")
        topo.add_host("h1", "A")
        topo.add_link("h1", "A")
        return topo

    def test_switches_and_hosts(self):
        topo = self.build()
        assert topo.switches == ["A", "B", "C"]
        assert topo.hosts == ["h1"]
        assert topo.is_switch("A") and topo.is_host("h1")
        assert topo.attachment_switch("h1") == "A"
        assert topo.hosts_of_switch("A") == ["h1"]

    def test_duplicate_link_rejected(self):
        topo = self.build()
        with pytest.raises(TopologyError):
            topo.add_link("A", "B")

    def test_link_to_unknown_node_rejected(self):
        topo = self.build()
        with pytest.raises(TopologyError):
            topo.add_link("A", "Z")

    def test_host_attached_to_unknown_switch_rejected(self):
        topo = self.build()
        with pytest.raises(TopologyError):
            topo.add_host("h2", "Z")

    def test_host_and_switch_name_collision_rejected(self):
        topo = self.build()
        with pytest.raises(TopologyError):
            topo.add_host("A", "B")
        with pytest.raises(TopologyError):
            topo.add_switch("h1")

    def test_unknown_role_rejected(self):
        topo = Topology("t")
        with pytest.raises(TopologyError):
            topo.add_switch("X", role="router")

    def test_neighbors_and_degree(self):
        topo = self.build()
        assert topo.neighbors("A") == ["B", "h1"]
        assert topo.switch_neighbors("A") == ["B"]
        assert topo.degree("B") == 2

    def test_remove_link(self):
        topo = self.build()
        topo.remove_link("A", "B")
        assert not topo.has_link("A", "B")
        assert not topo.has_link("B", "A")
        with pytest.raises(TopologyError):
            topo.remove_link("A", "B")

    def test_with_failed_link_copies(self):
        topo = self.build()
        failed = topo.with_failed_link("A", "B")
        assert not failed.has_link("A", "B")
        assert topo.has_link("A", "B")

    def test_node_role_and_contains(self):
        topo = self.build()
        assert topo.node_role("A") == NodeKind.SWITCH
        assert "A" in topo and "Z" not in topo
        with pytest.raises(TopologyError):
            topo.node_role("Z")

    def test_link_lookup(self):
        topo = self.build()
        assert topo.link("A", "B").key == ("A", "B")
        with pytest.raises(TopologyError):
            topo.link("A", "C")

    def test_undirected_links_deduplicate(self):
        topo = self.build()
        undirected = {(l.src, l.dst) for l in topo.undirected_links}
        assert len(undirected) == len(topo.links) // 2

    def test_validate_detects_disconnection(self):
        topo = Topology("t")
        topo.add_switch("A")
        topo.add_switch("B")
        with pytest.raises(TopologyError):
            topo.validate()

    def test_repr_and_len(self):
        topo = self.build()
        assert "Topology" in repr(topo)
        assert len(topo) == 4


class TestTopologyAlgorithms:
    def build_square(self):
        topo = Topology("square")
        for s in "ABCD":
            topo.add_switch(s)
        for a, b in (("A", "B"), ("B", "C"), ("C", "D"), ("D", "A")):
            topo.add_link(a, b)
        return topo

    def test_shortest_path_lengths(self):
        topo = self.build_square()
        lengths = topo.shortest_path_lengths()
        assert lengths["A"]["C"] == 2
        assert lengths["A"]["B"] == 1

    def test_shortest_paths_enumerates_all(self):
        topo = self.build_square()
        paths = topo.shortest_paths("A", "C")
        assert sorted(paths) == [["A", "B", "C"], ["A", "D", "C"]]
        assert topo.shortest_paths("A", "A") == [["A"]]

    def test_all_simple_paths_with_cutoff(self):
        topo = self.build_square()
        assert len(topo.all_simple_paths("A", "C", cutoff=2)) == 2
        assert len(topo.all_simple_paths("A", "C")) == 2
        assert topo.all_simple_paths("A", "C", cutoff=1) == []

    def test_diameter_and_connectivity(self):
        topo = self.build_square()
        assert topo.is_connected()
        assert topo.diameter() == 2

    def test_max_rtt(self):
        topo = self.build_square()
        assert topo.max_rtt() == pytest.approx(2 * 2 * 0.05)

    def test_to_networkx(self):
        graph = self.build_square().to_networkx()
        assert graph.number_of_nodes() == 4
        assert graph.number_of_edges() == 8


class TestFattree:
    def test_k4_counts(self):
        topo = fattree(4)
        assert len(topo.switches) == 20
        assert len(topo.switches_with_role(NodeKind.CORE)) == 4
        assert len(topo.switches_with_role(NodeKind.AGGREGATION)) == 8
        assert len(topo.switches_with_role(NodeKind.EDGE)) == 8
        assert len(topo.hosts) == 16

    def test_odd_k_rejected(self):
        with pytest.raises(TopologyError):
            fattree(5)

    def test_oversubscription_reduces_fabric_capacity(self):
        topo = fattree(4, capacity=40.0, oversubscription=4.0)
        edge = topo.switches_with_role(NodeKind.EDGE)[0]
        agg = [n for n in topo.switch_neighbors(edge)][0]
        host = topo.hosts_of_switch(edge)[0]
        assert topo.link(edge, agg).capacity == pytest.approx(10.0)
        assert topo.link(host, edge).capacity == pytest.approx(40.0)

    def test_every_pair_of_edges_has_multiple_shortest_paths(self):
        topo = fattree(4)
        edges = topo.switches_with_role(NodeKind.EDGE)
        inter_pod = (edges[0], edges[-1])
        assert len(topo.shortest_paths(*inter_pod)) >= 2

    def test_fattree_for_switch_count(self):
        topo = fattree_for_switch_count(100)
        assert len(topo.switches) >= 100
        assert len(topo.hosts) == 0

    def test_switch_count_table_matches_formula(self):
        for k, count in FATTREE_SWITCH_COUNTS.items():
            assert count == 5 * (k // 2) ** 2

    def test_invalid_oversubscription_rejected(self):
        with pytest.raises(TopologyError):
            fattree(4, oversubscription=0)


class TestLeafSpine:
    def test_structure(self):
        topo = leafspine(3, 2, hosts_per_leaf=1)
        assert len(topo.switches_with_role(NodeKind.LEAF)) == 3
        assert len(topo.switches_with_role(NodeKind.SPINE)) == 2
        assert len(topo.hosts) == 3
        for leaf in topo.switches_with_role(NodeKind.LEAF):
            assert set(topo.switch_neighbors(leaf)) == {"spine0", "spine1"}

    def test_invalid_sizes_rejected(self):
        with pytest.raises(TopologyError):
            leafspine(0, 2)
        with pytest.raises(TopologyError):
            leafspine(2, 2, hosts_per_leaf=-1)


class TestAbilene:
    def test_node_set(self):
        topo = abilene()
        assert set(topo.switches) == set(ABILENE_NODES)
        assert len(topo.switches) == 11
        assert topo.is_connected()

    def test_hosts_per_switch(self):
        topo = abilene(hosts_per_switch=2)
        assert len(topo.hosts) == 22

    def test_multiple_paths_exist_coast_to_coast(self):
        topo = abilene(hosts_per_switch=0)
        assert len(topo.all_simple_paths("SEA", "NYC", cutoff=6)) >= 2


class TestRandomGraphs:
    @given(st.integers(min_value=5, max_value=40), st.integers(min_value=0, max_value=5))
    @settings(max_examples=20, deadline=None)
    def test_random_regular_is_connected(self, n, seed):
        topo = random_regular(n, degree=3, seed=seed)
        assert topo.is_connected()
        assert len(topo.switches) == n

    @given(st.integers(min_value=5, max_value=30), st.integers(min_value=0, max_value=5))
    @settings(max_examples=15, deadline=None)
    def test_erdos_renyi_is_connected(self, n, seed):
        assert erdos_renyi(n, seed=seed).is_connected()

    def test_waxman_is_connected_and_has_varied_latency(self):
        topo = waxman(30, seed=1)
        assert topo.is_connected()
        latencies = {l.latency for l in topo.links}
        assert len(latencies) > 1

    def test_determinism(self):
        a = random_regular(20, seed=7)
        b = random_regular(20, seed=7)
        assert [(l.src, l.dst) for l in a.links] == [(l.src, l.dst) for l in b.links]

    def test_invalid_parameters_rejected(self):
        with pytest.raises(TopologyError):
            random_regular(1)
        with pytest.raises(TopologyError):
            random_regular(10, degree=10)
        with pytest.raises(TopologyError):
            erdos_renyi(10, p=2.0)


class TestZoo:
    def test_builtin_list(self):
        names = builtin_topologies()
        assert "abilene" in names and "nsfnet" in names

    def test_builtin_topologies_are_connected(self):
        for name in builtin_topologies():
            assert builtin_topology(name).is_connected()

    def test_unknown_builtin_rejected(self):
        with pytest.raises(TopologyError):
            builtin_topology("arpanet-1969")

    def test_from_edge_list_with_attributes(self):
        topo = from_edge_list([("A", "B", 5.0), ("B", "C", 5.0, 0.2)], hosts_per_switch=1)
        assert topo.link("B", "C").latency == pytest.approx(0.2)
        assert topo.link("A", "B").capacity == pytest.approx(5.0)
        assert len(topo.hosts) == 3

    def test_from_edge_list_bad_tuple_rejected(self):
        with pytest.raises(TopologyError):
            from_edge_list([("A",)])

    def test_from_adjacency(self):
        topo = from_adjacency({"A": ["B", "C"], "B": ["C"], "C": []})
        assert topo.has_link("A", "B") and topo.has_link("C", "B")

    def test_from_edge_list_file(self, tmp_path):
        path = tmp_path / "net.edges"
        path.write_text("# comment\nA B 10 0.1\nB C\n")
        topo = from_edge_list_file(path)
        assert topo.name == "net"
        assert topo.link("A", "B").capacity == pytest.approx(10.0)

    def test_from_edge_list_file_bad_line(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("A B ten\n")
        with pytest.raises(TopologyError):
            from_edge_list_file(path)


# ------------------------------------------------- switch-graph index oracle
#
# The bodies below are the name-keyed, scan-per-call implementations the
# switch-graph index replaced (commit 00c691b), kept verbatim as references:
# the indexed versions must return the very same floats — ``==``, never
# ``approx`` — in the very same dict order.

def reference_neighbors(topo, node):
    if node not in topo._nodes:
        raise TopologyError(f"unknown node {node!r}")
    return sorted(dst for (src, dst) in topo._links if src == node)


def reference_switch_neighbors(topo, node):
    is_switch = topo._nodes.get
    return [n for n in reference_neighbors(topo, node)
            if is_switch(n) in NodeKind.SWITCH_ROLES]


def reference_switches(topo):
    return sorted(n for n, kind in topo._nodes.items() if kind in NodeKind.SWITCH_ROLES)


def reference_single_source_lengths(topo, src, weighted):
    import heapq

    dist = {src: 0.0}
    heap = [(0.0, src)]
    while heap:
        d, node = heapq.heappop(heap)
        if d > dist.get(node, float("inf")):
            continue
        for nbr in reference_switch_neighbors(topo, node):
            step = topo._links[(node, nbr)].weight if weighted else 1.0
            nd = d + step
            if nd < dist.get(nbr, float("inf")):
                dist[nbr] = nd
                heapq.heappush(heap, (nd, nbr))
    return dist


def reference_shortest_path_lengths(topo, weighted=False):
    lengths = {}
    for src in reference_switches(topo):
        lengths[src] = reference_single_source_lengths(topo, src, weighted)
    return lengths


def reference_reverse_lengths(topo, dst, weighted):
    import heapq

    dist = {dst: 0.0}
    heap = [(0.0, dst)]
    while heap:
        d, node = heapq.heappop(heap)
        if d > dist.get(node, float("inf")):
            continue
        for src_node in reference_switches(topo):
            if (src_node, node) not in topo._links:
                continue
            step = topo._links[(src_node, node)].weight if weighted else 1.0
            nd = d + step
            if nd < dist.get(src_node, float("inf")):
                dist[src_node] = nd
                heapq.heappush(heap, (nd, src_node))
    return dist


def reference_max_rtt(topo):
    import heapq

    worst = 0.0
    for src in reference_switches(topo):
        dist = {src: 0.0}
        heap = [(0.0, src)]
        while heap:
            d, node = heapq.heappop(heap)
            if d > dist.get(node, float("inf")):
                continue
            for nbr in reference_switch_neighbors(topo, node):
                nd = d + topo._links[(node, nbr)].latency
                if nd < dist.get(nbr, float("inf")):
                    dist[nbr] = nd
                    heapq.heappush(heap, (nd, nbr))
        if dist:
            worst = max(worst, max(dist.values()))
    return 2.0 * worst


def reference_is_connected(topo):
    switches = reference_switches(topo)
    if not switches:
        return True
    seen = {switches[0]}
    stack = [switches[0]]
    while stack:
        node = stack.pop()
        for nbr in reference_switch_neighbors(topo, node):
            if nbr not in seen:
                seen.add(nbr)
                stack.append(nbr)
    return len(seen) == len(switches)


def reference_diameter(topo):
    """Largest BFS hop count over every ordered pair; None when some pair has no path."""
    adjacency = {s: reference_switch_neighbors(topo, s) for s in reference_switches(topo)}
    worst = 0
    for src in adjacency:
        hops = {src: 0}
        frontier = [src]
        while frontier:
            reached = []
            for node in frontier:
                for nbr in adjacency[node]:
                    if nbr not in hops:
                        hops[nbr] = hops[node] + 1
                        reached.append(nbr)
            frontier = reached
        if len(hops) != len(adjacency):
            return None
        worst = max(worst, max(hops.values()))
    return worst


def reference_next_hop_table(topo, all_hops):
    """The name-keyed table computation ``baselines/ecmp.py`` carried until
    the table moved onto the index: all-pairs lengths, then one membership
    probe per (source, destination, neighbour)."""
    switches = reference_switches(topo)
    table = {s: {} for s in switches}
    lengths = reference_shortest_path_lengths(topo)
    for src in switches:
        for dst in switches:
            if src == dst or dst not in lengths[src]:
                continue
            hops = [
                nbr for nbr in reference_switch_neighbors(topo, src)
                if dst in lengths[nbr] and lengths[nbr][dst] + 1 == lengths[src][dst]
            ]
            hops.sort()
            if not hops:
                continue
            table[src][dst] = tuple(hops if all_hops else hops[:1])
    return table


def in_order(mapping):
    """Items in iteration order: equality of these is equality of dict order too."""
    return list(mapping.items())


def assert_next_hop_tables_match(topo):
    for all_hops in (True, False):
        table = topo.next_hop_table(all_hops)
        reference = reference_next_hop_table(topo, all_hops)
        assert list(table) == list(reference)
        for src in reference:
            assert in_order(table[src]) == in_order(reference[src])
            assert all(type(hops) is tuple for hops in table[src].values())


def assert_latency_passes_match(topo):
    """``max_rtt`` by ``repr`` — the very float — and ``diameter`` against BFS."""
    assert repr(topo.max_rtt()) == repr(reference_max_rtt(topo))
    expected = reference_diameter(topo)
    if expected is None:
        with pytest.raises(TopologyError):
            topo.diameter()
    else:
        diameter = topo.diameter()
        assert type(diameter) is int and diameter == expected


def assert_matches_reference(topo):
    assert topo.switches == reference_switches(topo)
    assert topo.hosts == sorted(n for n, kind in topo._nodes.items() if kind == NodeKind.HOST)
    assert_next_hop_tables_match(topo)
    for node in topo.nodes:
        assert topo.neighbors(node) == reference_neighbors(topo, node)
        assert topo.switch_neighbors(node) == reference_switch_neighbors(topo, node)
    assert topo.switch_graph() == {
        s: reference_switch_neighbors(topo, s) for s in reference_switches(topo)}
    assert_latency_passes_match(topo)
    assert topo.is_connected() == reference_is_connected(topo)
    for weighted in (False, True):
        lengths = topo.shortest_path_lengths(weighted)
        reference = reference_shortest_path_lengths(topo, weighted)
        assert in_order(lengths) == in_order(reference)
        for src in reference:
            assert in_order(lengths[src]) == in_order(reference[src])
        for dst in reference_switches(topo):
            assert in_order(topo._reverse_lengths(dst, weighted)) == \
                in_order(reference_reverse_lengths(topo, dst, weighted))


def _one_way_detour():
    """A ring with a directed-only chord and uneven latencies and weights."""
    topo = Topology("one-way")
    for s in "ABCDE":
        topo.add_switch(s)
    for (a, b), (latency, weight) in zip(
            (("A", "B"), ("B", "C"), ("C", "D"), ("D", "E"), ("E", "A")),
            ((0.1, 3.0), (0.2, 1.0), (0.3, 0.5), (0.7, 2.0), (0.15, 1.5))):
        topo.add_link(a, b, latency=latency, weight=weight)
    topo.add_link("A", "C", latency=0.05, weight=0.25, bidirectional=False)
    topo.add_host("h", "D")
    topo.add_link("h", "D")
    return topo


def _two_islands():
    topo = Topology("islands")
    for s in ("A", "B", "C", "X", "Y"):
        topo.add_switch(s)
    topo.add_link("A", "B", latency=0.3)
    topo.add_link("B", "C", latency=0.1)
    topo.add_link("X", "Y", latency=0.9)
    return topo


ORACLE_TOPOLOGIES = {
    "fattree4": lambda: fattree(4),
    "fattree8": lambda: fattree(8, hosts_per_edge=1),
    "leafspine": lambda: leafspine(4, 3, hosts_per_leaf=2),
    "abilene": lambda: abilene(),
    "nsfnet": lambda: builtin_topology("nsfnet"),
    "geant_small": lambda: builtin_topology("geant_small"),
    "ring8": lambda: builtin_topology("ring8"),
    "random_regular": lambda: random_regular(30, degree=3, seed=11),
    "waxman": lambda: waxman(25, seed=5),
    "erdos_renyi": lambda: erdos_renyi(25, seed=3),
    "directed_only_link": _one_way_detour,
    "disconnected": _two_islands,
    "failed_link_copy": lambda: abilene().with_failed_link("DEN", "KSC"),
}


class TestSwitchGraphIndexOracle:
    @pytest.mark.parametrize("name", sorted(ORACLE_TOPOLOGIES))
    def test_indexed_passes_equal_the_scanning_reference(self, name):
        assert_matches_reference(ORACLE_TOPOLOGIES[name]())

    def test_failed_link_copy_starts_cold_and_leaves_the_original_alone(self):
        topo = abilene()
        before = topo.max_rtt()          # warms the original's index
        failed = topo.with_failed_link("DEN", "KSC")
        assert "KSC" not in failed.switch_neighbors("DEN")
        assert "KSC" in topo.switch_neighbors("DEN")
        assert topo.max_rtt() == before
        assert_matches_reference(failed)

    def test_accessors_hand_out_copies(self):
        topo = fattree(4)
        for accessor in (lambda: topo.switches,
                         lambda: topo.neighbors("e0_0"),
                         lambda: topo.switch_neighbors("e0_0"),
                         lambda: topo.switch_graph()["e0_0"]):
            accessor().clear()
            assert accessor()
        assert_matches_reference(topo)

    def test_disconnected_diameter_raises(self):
        with pytest.raises(TopologyError):
            _two_islands().diameter()

    def test_lengths_from_a_non_switch_are_refused(self):
        topo = _one_way_detour()
        with pytest.raises(TopologyError):
            topo._single_source_lengths("h", False)
        with pytest.raises(TopologyError):
            topo._reverse_lengths("nowhere", False)

    def test_refused_reverse_duplicate_writes_nothing(self):
        """``add_link`` checks both directions before it writes either."""
        topo = Topology("t")
        for s in "ABC":
            topo.add_switch(s)
        topo.add_link("A", "B")
        topo.add_link("C", "B", bidirectional=False)
        assert topo.switch_neighbors("B") == ["A"]
        index = topo._index()
        links = dict(topo._links)
        rows = {node: topo.neighbors(node) for node in topo.nodes}
        with pytest.raises(TopologyError, match="duplicate link 'C' -> 'B'"):
            topo.add_link("B", "C")
        assert topo._links == links and list(topo._links) == list(links)
        assert {node: topo.neighbors(node) for node in topo.nodes} == rows
        assert topo._switch_index is index
        assert not topo.has_link("B", "C")
        assert_matches_reference(topo)

    def test_a_pair_shares_one_parameter_row_and_links_are_built_on_request(self):
        topo = Topology("t")
        for s in "AB":
            topo.add_switch(s)
        topo.add_link("A", "B", capacity=5, latency=0.1, weight=2.0)
        assert topo._links[("A", "B")] is topo._links[("B", "A")]
        assert topo.link_params() == [(("A", "B"), (5, 0.1, 2.0)), (("B", "A"), (5, 0.1, 2.0))]
        link = topo.link("A", "B")
        assert link == Link("A", "B", 5, 0.1, 2.0) and topo.link("A", "B") is link
        assert topo.link("B", "A") == link.reversed()
        assert topo.links == [link, topo.link("B", "A")]
        assert topo.undirected_links == [link]
        topo.add_switch("C")                  # a mutation drops the built links
        assert topo.link("A", "B") is not link and topo.link("A", "B") == link


# ------------------------------------------------ one latency: the hop sweep
#
# When every switch-to-switch link carries one latency, ``max_rtt`` adds it up
# along the longest hop distance instead of searching from every switch.  The
# reference above still searches, so these compare the two by ``repr``.

def _line(n, latency, closed=False, bidirectional=True, prefix="s"):
    """``n`` switches in a chain (or a ring when ``closed``), one latency throughout."""
    topo = Topology(f"{'ring' if closed else 'chain'}{n}")
    names = [f"{prefix}{i:03d}" for i in range(n)]
    for name in names:
        topo.add_switch(name)
    for a, b in zip(names, names[1:] + names[:1] if closed else names[1:]):
        topo.add_link(a, b, latency=latency, bidirectional=bidirectional)
    return topo


def _uniform_islands(latency):
    """A five-switch chain beside a three-switch one: the longer island sets the RTT."""
    topo = _line(5, latency, prefix="a")
    for name in ("b0", "b1", "b2"):
        topo.add_switch(name)
    topo.add_link("b0", "b1", latency=latency)
    topo.add_link("b1", "b2", latency=latency)
    return topo


#: Latencies whose repeated sums are inexact (``63 * 0.1`` is not ``0.1`` added
#: 63 times), and zero.
UNIFORM_LATENCIES = (0.1, 1 / 3, 0.7, 1e-3, 0.0)


class TestUniformLatencySweep:
    @pytest.mark.parametrize("latency", UNIFORM_LATENCIES)
    @pytest.mark.parametrize("closed", (False, True), ids=("chain64", "ring61"))
    def test_long_chain_and_ring(self, closed, latency):
        topo = _line(61 if closed else 64, latency, closed=closed)
        assert_latency_passes_match(topo)
        assert topo.diameter() == (30 if closed else 63)

    def test_the_sum_is_accumulated_not_multiplied(self):
        """The cases above have teeth: ``H * s`` is a different float."""
        topo = _line(64, 0.1)
        accumulated = 0.0
        for _ in range(63):
            accumulated = accumulated + 0.1
        assert topo.max_rtt() == 2.0 * accumulated
        assert topo.max_rtt() != 2.0 * (63 * 0.1)

    def test_single_switch(self):
        topo = Topology("one")
        topo.add_switch("only")
        topo.add_host("h", "only")
        topo.add_link("h", "only", latency=0.4)    # a host link is not a switch step
        assert repr(topo.max_rtt()) == "0.0"
        assert topo.diameter() == 0
        assert_matches_reference(topo)

    def test_no_switches(self):
        topo = Topology("empty")
        assert repr(topo.max_rtt()) == "0.0"
        assert topo.diameter() == 0

    @pytest.mark.parametrize("latency", UNIFORM_LATENCIES)
    def test_two_islands_of_different_diameter(self, latency):
        topo = _uniform_islands(latency)
        assert_matches_reference(topo)
        with pytest.raises(TopologyError):
            topo.diameter()

    @pytest.mark.parametrize("latency", UNIFORM_LATENCIES)
    def test_one_directional_chain_and_ring(self, latency):
        chain = _line(12, latency, bidirectional=False)
        assert_matches_reference(chain)
        with pytest.raises(TopologyError):
            chain.diameter()               # s011 reaches nobody
        ring = _line(12, latency, closed=True, bidirectional=False)
        assert_matches_reference(ring)
        assert ring.diameter() == 11

    def test_index_invalidation_picks_the_path(self, monkeypatch):
        """Uniform, mixed by one ``add_link``, uniform again by ``remove_link``."""
        from repro.topology import graph

        searches = []
        dijkstra = graph._dijkstra
        monkeypatch.setattr(
            graph, "_dijkstra",
            lambda adjacency, source: searches.append(source) or dijkstra(adjacency, source))

        def max_rtt_and_searches(topo):
            del searches[:]
            value = topo.max_rtt()
            return repr(value), len(searches)

        topo = _line(16, 0.7)
        uniform = max_rtt_and_searches(topo)
        assert uniform == (repr(reference_max_rtt(topo)), 0)
        topo.add_link("s000", "s015", latency=0.05)
        mixed = max_rtt_and_searches(topo)
        assert mixed == (repr(reference_max_rtt(topo)), 16)
        assert mixed[0] != uniform[0]
        topo.remove_link("s000", "s015")
        assert max_rtt_and_searches(topo) == uniform

    @given(st.lists(st.sampled_from((0.1, 1 / 3, 0.7)), min_size=1, max_size=3, unique=True),
           st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8), st.integers(0, 2),
                              st.booleans()),
                    max_size=24))
    @settings(max_examples=120, deadline=None)
    def test_random_graphs_with_one_to_three_latencies(self, palette, edges):
        topo = Topology("random")
        for i in range(9):
            topo.add_switch(f"s{i}")
        for a, b, choice, bidirectional in edges:
            try:
                topo.add_link(f"s{a}", f"s{b}", latency=palette[choice % len(palette)],
                              bidirectional=bidirectional)
            except TopologyError:
                pass                         # a self-loop or a duplicate
        assert_latency_passes_match(topo)


MUTATION_NODES = ("s0", "s1", "s2", "s3", "s4", "h0", "h1")
mutation_steps = st.lists(
    st.tuples(
        st.sampled_from(("add_switch", "add_host", "add_link", "add_one_way", "remove_link")),
        st.sampled_from(MUTATION_NODES),
        st.sampled_from(MUTATION_NODES),
        st.sampled_from((0.05, 0.1, 0.25)),
    ),
    max_size=30,
)


class TestIndexInvalidation:
    @given(mutation_steps)
    @settings(max_examples=60, deadline=None)
    def test_no_query_ever_sees_a_stale_row(self, steps):
        topo = Topology("mutating")
        topo.add_switch("s0")
        assert_matches_reference(topo)       # the index is warm from here on
        for action, a, b, latency in steps:
            try:
                if action == "add_switch":
                    topo.add_switch(a, role=NodeKind.EDGE if latency > 0.05 else NodeKind.SWITCH)
                elif action == "add_host":
                    topo.add_host(a, b)
                elif action == "add_link":
                    topo.add_link(a, b, latency=latency, weight=latency * 4)
                elif action == "add_one_way":
                    topo.add_link(a, b, latency=latency, bidirectional=False)
                else:
                    topo.remove_link(a, b)
            except TopologyError:
                pass                         # a refused mutation must not corrupt the index either
            assert_matches_reference(topo)


# ------------------------------------------------------------ derived tables
#
# A table computed from the graph (:meth:`Topology.derived`) lives on the
# switch-graph index, so the one invalidation every mutator performs drops it.

def _weighted_random():
    """A random graph whose links carry unequal weights and latencies."""
    topo = waxman(18, seed=7)
    for position, link in enumerate(topo.undirected_links):
        if topo.is_switch(link.src) and topo.is_switch(link.dst):
            topo.remove_link(link.src, link.dst)
            topo.add_link(link.src, link.dst, latency=0.05 + 0.01 * (position % 7),
                          weight=1.0 + position % 5)
    return topo


DERIVED_FABRICS = {
    "fattree4": lambda: fattree(4),
    "abilene": lambda: abilene(),
    "weighted_random": _weighted_random,
}


def _add_switch(topo):
    topo.add_switch("zz-new")


def _add_host(topo):
    topo.add_host("zz-host", topo.switches[0])


def _add_link(topo):
    # The first pair of switches, in name order, that no link joins.
    switches = topo.switches
    a, b = next((a, b) for a in switches for b in switches
                if a < b and not topo.has_link(a, b))
    topo.add_link(a, b, latency=0.02, weight=3.0)


def _remove_link(topo):
    link = next(link for link in topo.undirected_links
                if topo.is_switch(link.src) and topo.is_switch(link.dst))
    topo.remove_link(link.src, link.dst)


class TestDerivedTables:
    @pytest.mark.parametrize("mutate", (_add_switch, _add_host, _add_link, _remove_link),
                             ids=lambda mutate: mutate.__name__.lstrip("_"))
    @pytest.mark.parametrize("fabric", sorted(DERIVED_FABRICS))
    def test_every_mutator_drops_every_derived_table(self, fabric, mutate):
        topo = DERIVED_FABRICS[fabric]()
        assert_next_hop_tables_match(topo)
        builds = []
        build = lambda topology: builds.append(len(topology)) or len(builds)
        before = [topo.next_hop_table(True), topo.next_hop_table(False),
                  topo.derived("mine", build)]
        assert topo.derived("mine", build) == 1 and builds == [len(topo)]
        mutate(topo)
        after = [topo.next_hop_table(True), topo.next_hop_table(False),
                 topo.derived("mine", build)]
        assert all(new is not old for new, old in zip(after, before))
        assert after[2] == 2 and builds[1] == len(topo)
        assert_next_hop_tables_match(topo)

    def test_a_table_is_built_once_and_served_until_the_next_mutation(self):
        topo = fattree(4)
        assert topo.next_hop_table(True) is topo.next_hop_table(True)
        assert topo.next_hop_table(False) is topo.next_hop_table(False)
        assert topo.next_hop_table(True) is not topo.next_hop_table(False)
        assert topo.copy().next_hop_table(True) is not topo.next_hop_table(True)

    def test_tables_are_read_only_down_to_their_rows(self):
        table = fattree(4).next_hop_table(True)
        with pytest.raises(TypeError):
            table["e0_0"] = {}
        with pytest.raises(TypeError):
            table["e0_0"]["e3_1"] = ()
        with pytest.raises(TypeError):
            table["e0_0"]["e3_1"][0] = "a0_1"
        with pytest.raises(AttributeError):
            table["e0_0"]["e3_1"].append("a0_1")

    def test_equal_hop_sets_share_one_tuple(self):
        """102 080 pairs on the k=16 fat-tree must not mean 102 080 tuples."""
        table = fattree(8, hosts_per_edge=0).next_hop_table(True)
        rows = [hops for row in table.values() for hops in row.values()]
        assert len(rows) == 80 * 79
        assert len({id(hops) for hops in rows}) < len(rows) // 10

    def test_no_path_means_no_entry(self):
        table = _two_islands().next_hop_table(True)
        assert list(table) == ["A", "B", "C", "X", "Y"]
        assert dict(table["A"]) == {"B": ("B",), "C": ("B",)}
        assert dict(table["X"]) == {"Y": ("Y",)}
