"""Unit tests for product graph construction (§4.1, Figure 6)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import regex as rx
from repro.core.builder import if_, inf, matches, minimize, path
from repro.core.product_graph import PGNode, build_product_graph
from repro.core.regex import parse_regex
from repro.exceptions import CompilationError
from repro.topology.graph import Topology


@pytest.fixture
def diamond():
    """The Figure 6(a) topology: A-B, A-C, B-C, B-D, C-D."""
    topo = Topology("figure6")
    for switch in ("A", "B", "C", "D"):
        topo.add_switch(switch)
    for a, b in (("A", "B"), ("A", "C"), ("B", "C"), ("B", "D"), ("C", "D")):
        topo.add_link(a, b)
    return topo


class TestTopologyOnlyGraph:
    def test_no_regexes_gives_one_virtual_node_per_switch(self, diamond):
        pg = build_product_graph(diamond, [])
        assert pg.num_nodes == 4
        assert pg.max_tags_per_switch() == 1
        for switch in diamond.switches:
            assert pg.probe_sending_nodes[switch].switch == switch

    def test_edges_follow_topology_links(self, diamond):
        pg = build_product_graph(diamond, [])
        node_a = pg.probe_sending_nodes["A"]
        successors = {n.switch for n in pg.successors(node_a)}
        assert successors == {"B", "C"}

    def test_acceptance_is_empty_without_regexes(self, diamond):
        pg = build_product_graph(diamond, [])
        assert pg.acceptance(pg.probe_sending_nodes["A"]) == ()

    def test_empty_topology_rejected(self):
        with pytest.raises(CompilationError):
            build_product_graph(Topology("empty"), [])


class TestFigure6Example:
    """The running example: allow A-B-D, allow B .* D by least utilization."""

    @pytest.fixture
    def pg(self, diamond):
        regexes = [parse_regex("A B D"), parse_regex("B .* D")]
        return build_product_graph(diamond, regexes, minimize_tags=False)

    def test_physical_node_b_has_multiple_virtual_nodes(self, pg):
        assert len(pg.nodes_of_switch("B")) >= 2

    def test_abd_path_is_accepted_for_first_regex(self, pg):
        acceptance = pg.traffic_path_acceptance(["A", "B", "D"])
        assert acceptance[parse_regex("A B D")] is True
        assert acceptance[parse_regex("B .* D")] is False

    def test_bcd_path_is_accepted_for_second_regex(self, pg):
        acceptance = pg.traffic_path_acceptance(["B", "C", "D"])
        assert acceptance[parse_regex("A B D")] is False
        assert acceptance[parse_regex("B .* D")] is True

    def test_acd_path_matches_neither(self, pg):
        acceptance = pg.traffic_path_acceptance(["A", "C", "D"])
        assert acceptance[parse_regex("A B D")] is False
        assert acceptance[parse_regex("B .* D")] is False

    def test_probe_sending_state_of_d_consumed_d(self, pg):
        node = pg.probe_sending_nodes["D"]
        assert node.switch == "D"
        # Probes start having consumed the destination symbol; neither regex
        # accepts the single-node path "D".
        assert pg.acceptance(node) == (False, False)

    def test_invalid_traffic_path_returns_none(self, pg):
        assert pg.trace_traffic_path(["A", "D"]) is None  # no A-D link
        assert pg.traffic_path_acceptance(["Z", "D"]) is None

    def test_tags_are_unique_per_switch(self, pg):
        for switch in ("A", "B", "C", "D"):
            tags = [pg.tag_of(node) for node in pg.nodes_of_switch(switch)]
            assert len(tags) == len(set(tags))

    def test_node_by_tag_roundtrip(self, pg):
        for node in pg.nodes:
            assert pg.node_by_tag(node.switch, pg.tag_of(node)) == node

    def test_node_by_tag_unknown_raises(self, pg):
        with pytest.raises(CompilationError):
            pg.node_by_tag("A", 999)

    def test_successor_at_returns_matching_neighbor(self, pg):
        node_d = pg.probe_sending_nodes["D"]
        successor = pg.successor_at(node_d, "B")
        assert successor is not None and successor.switch == "B"
        assert pg.successor_at(node_d, "A") is None  # D has no link to A

    def test_successor_at_agrees_with_a_scan_of_the_row(self, pg, diamond):
        for node, successors in pg.out_edges.items():
            for neighbor in diamond.switches:
                scanned = [s for s in successors if s.switch == neighbor]
                assert pg.successor_at(node, neighbor) == (scanned[0] if scanned else None)
        assert pg.successor_at(PGNode("nowhere", ()), "A") is None

    def test_every_edge_respects_topology(self, pg, diamond):
        for node, successors in pg.out_edges.items():
            for successor in successors:
                assert diamond.has_link(node.switch, successor.switch)


class TestWaypointGraph:
    def test_waypoint_acceptance(self, diamond):
        pg = build_product_graph(diamond, [parse_regex(".* C .*")])
        assert pg.traffic_path_acceptance(["A", "C", "D"])[parse_regex(".* C .*")] is True
        assert pg.traffic_path_acceptance(["A", "B", "D"])[parse_regex(".* C .*")] is False

    def test_acceptance_by_regex_keys_are_original_direction(self, diamond):
        pattern = parse_regex(".* C .*")
        pg = build_product_graph(diamond, [pattern])
        node = pg.probe_sending_nodes["C"]
        assert pattern in pg.acceptance_by_regex(node)


class TestTagMinimization:
    def test_minimization_never_increases_nodes(self, diamond):
        regexes = [parse_regex("A B D"), parse_regex("B .* D")]
        raw = build_product_graph(diamond, regexes, minimize_tags=False)
        minimized = build_product_graph(diamond, regexes, minimize_tags=True)
        assert minimized.num_nodes <= raw.num_nodes

    def test_minimization_preserves_acceptance_of_paths(self, diamond):
        regexes = [parse_regex("A B D"), parse_regex("B .* D"), parse_regex(".* C .*")]
        raw = build_product_graph(diamond, regexes, minimize_tags=False)
        minimized = build_product_graph(diamond, regexes, minimize_tags=True)
        for traffic_path in (["A", "B", "D"], ["B", "C", "D"], ["A", "C", "D"],
                             ["B", "A", "C", "D"], ["C", "D"]):
            assert raw.traffic_path_acceptance(traffic_path) == \
                minimized.traffic_path_acceptance(traffic_path)

    def test_minimization_mapping_is_idempotent(self, diamond):
        pg = build_product_graph(diamond, [parse_regex(".* C .*")], minimize_tags=False)
        first = pg.minimize_tags()
        second = pg.minimize_tags()
        assert all(node == target for node, target in second.items())
        assert first  # non-empty mapping

    def test_repr(self, diamond):
        pg = build_product_graph(diamond, [])
        assert "ProductGraph" in repr(pg)


class TestPerSwitchNodeIndex:
    """``nodes_of_switch`` is served from an index: it must track every rebuild."""

    REGEXES = ("A B D", "B .* D", ".* C .*")

    @staticmethod
    def assert_index_matches_a_scan(pg):
        switches = pg.topology.switches
        for switch in switches + ["nowhere"]:
            assert pg.nodes_of_switch(switch) == [n for n in pg.nodes if n.switch == switch]
        assert pg.max_tags_per_switch() == max(
            len([n for n in pg.nodes if n.switch == switch]) for switch in switches)

    def test_after_build_and_after_minimization(self, diamond):
        # Unminimised automata leave bisimilar virtual nodes for the tags to merge.
        pg = build_product_graph(
            diamond, [parse_regex(r) for r in self.REGEXES],
            minimize_automata=False, minimize_tags=False)
        self.assert_index_matches_a_scan(pg)
        before = pg.num_nodes
        pg.minimize_tags()
        assert pg.num_nodes < before
        self.assert_index_matches_a_scan(pg)

    def test_after_restriction(self, diamond):
        pg = build_product_graph(
            diamond, [parse_regex(r) for r in self.REGEXES], minimize_tags=False)
        origins = set(pg.probe_sending_nodes.values())
        dropped = next(n for n in pg.nodes if n not in origins)
        pg.restrict_to(n for n in pg.nodes if n != dropped)
        assert dropped not in pg.nodes_of_switch(dropped.switch)
        self.assert_index_matches_a_scan(pg)

    def test_the_caller_owns_the_returned_list(self, diamond):
        pg = build_product_graph(diamond, [])
        pg.nodes_of_switch("A").clear()
        assert len(pg.nodes_of_switch("A")) == 1


class TestPGNodeIsThePairItHolds:
    """A node hashes, compares and sorts as ``(switch, states)``; it prints as before."""

    def test_hash_and_equality_are_the_pairs(self):
        for switch, states in (("A", ()), ("B", (1, -1, 0)), ("e0_1", (2,))):
            node = PGNode(switch, states)
            assert hash(node) == hash((switch, states))
            assert node == (switch, states) and node == PGNode(switch, states)
            assert {node: "found"}[(switch, states)] == "found"
            assert (node.switch, node.states) == (switch, states)

    def test_str_and_repr_unchanged(self):
        assert str(PGNode("A", ())) == "A"
        assert str(PGNode("B", (1, -1, 0))) == "(B;1,-,0)"
        assert repr(PGNode("B", (1, -1))) == "PGNode(switch='B', states=(1, -1))"

    def test_sorts_as_the_key_every_caller_sorts_by(self, diamond):
        pg = build_product_graph(
            diamond, [parse_regex(r) for r in TestPerSwitchNodeIndex.REGEXES],
            minimize_tags=False)
        assert sorted(pg.nodes) == sorted(pg.nodes, key=lambda n: (n.switch, n.states))


SWITCH_NAMES = ("A", "B", "C", "D", "E")


@st.composite
def small_topologies(draw):
    """Up to five switches; a drawn link is two-way, or one-way in either direction."""
    names = SWITCH_NAMES[:draw(st.integers(2, len(SWITCH_NAMES)))]
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
    topology = Topology("drawn")
    for name in names:
        topology.add_switch(name)
    for a, b in draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True)):
        direction = draw(st.sampled_from(("both", "forward", "backward")))
        if direction == "backward":
            a, b = b, a
        topology.add_link(a, b, bidirectional=direction == "both")
    return topology


def small_regexes():
    leaf = st.one_of(st.sampled_from(SWITCH_NAMES).map(rx.node), st.just(rx.any_node()))
    return st.recursive(leaf, lambda children: st.one_of(
        st.tuples(children, children).map(lambda pair: rx.concat(*pair)),
        st.tuples(children, children).map(lambda pair: rx.union(*pair)),
        children.map(rx.star)), max_leaves=6)


def reference_build(pg):
    """The exploration one ``DFA.transition`` call at a time, over name-keyed dicts."""
    adjacency = pg.topology.switch_graph()
    nodes, out_edges, in_edges, origins, queue = [], {}, {}, {}, []

    def add(key):
        if key in out_edges:
            return
        nodes.append(key)
        out_edges[key], in_edges[key] = [], []
        queue.append(key)

    for switch in adjacency:
        origins[switch] = (switch, tuple(dfa.transition(dfa.initial, switch) for dfa in pg.dfas))
        add(origins[switch])
    while queue:
        node = queue.pop()
        for neighbor in adjacency[node[0]]:
            successor = (neighbor, tuple(
                dfa.transition(state, neighbor) for dfa, state in zip(pg.dfas, node[1])))
            add(successor)
            out_edges[node].append(successor)
            in_edges[successor].append(node)
    return nodes, out_edges, in_edges, origins


def reference_views(pg, nodes, out_edges, in_edges, origins):
    """Every view of ``pg`` as the node-keyed graph ``nodes`` .. ``origins`` defines it."""
    tags = {}
    for node in sorted(nodes, key=lambda n: (n[0], n[1])):
        tags[node] = len([known for known in tags if known[0] == node[0]])
    by_switch = {}
    for node in nodes:
        by_switch.setdefault(node[0], []).append(node)
    return {
        "nodes": nodes,
        "out_edges": list(out_edges.items()),
        "in_edges": list(in_edges.items()),
        "probe_sending_nodes": list(origins.items()),
        "tags": list(tags.items()),
        "by_tag": [((node[0], tag), node) for node, tag in tags.items()],
        "nodes_by_switch": list(by_switch.items()),
        "num_edges": sum(map(len, out_edges.values())),
        "max_tags_per_switch": max(map(len, by_switch.values()), default=0),
    }


def assert_views_equal(pg, reference):
    """Every view, in order, made of :class:`PGNode` objects; every query agrees."""
    views = {
        "nodes": pg.nodes,
        "out_edges": list(pg.out_edges.items()),
        "in_edges": list(pg.in_edges.items()),
        "probe_sending_nodes": list(pg.probe_sending_nodes.items()),
        "tags": list(pg.tags.items()),
        "by_tag": list(pg._by_tag.items()),
        "nodes_by_switch": list(pg._nodes_by_switch.items()),
        "num_edges": pg.num_edges,
        "max_tags_per_switch": pg.max_tags_per_switch(),
    }
    assert views == reference
    assert pg.num_nodes == len(pg.nodes)
    every_node = list(pg.nodes) + list(pg.probe_sending_nodes.values()) + list(pg.tags) \
        + [node for row in pg.out_edges.values() for node in row] \
        + [node for row in pg.in_edges.values() for node in row] \
        + list(pg._by_tag.values())
    assert all(type(node) is PGNode for node in every_node)
    assert all(type(node) is PGNode for node in pg.out_edges)
    assert all(type(node) is PGNode for node in pg.in_edges)
    switches = pg.topology.switches
    for node in pg.nodes:
        found = pg.node_for(node.switch, list(node.states))
        assert found == node and type(found) is PGNode
        assert pg.node_by_tag(node.switch, pg.tag_of(node)) == node
        for neighbor in switches:
            scanned = [s for s in pg.out_edges[node] if s.switch == neighbor]
            assert pg.successor_at(node, neighbor) == (scanned[0] if scanned else None)
    assert pg.node_for("nowhere", ()) is None
    TestPerSwitchNodeIndex.assert_index_matches_a_scan(pg)


class TestBuildMatchesThePerTransitionReference:
    """Node, row and predecessor order decide tags and ``probe_transition`` order."""

    @staticmethod
    def assert_same_graph(pg):
        assert_views_equal(pg, reference_views(pg, *reference_build(pg)))

    @pytest.mark.parametrize("minimize_automata", (True, False))
    def test_figure6_regexes(self, diamond, minimize_automata):
        self.assert_same_graph(build_product_graph(
            diamond, [parse_regex(r) for r in TestPerSwitchNodeIndex.REGEXES],
            minimize_automata=minimize_automata, minimize_tags=False))

    def test_no_regexes(self, diamond):
        self.assert_same_graph(build_product_graph(diamond, []))

    def test_waypoints_on_a_fattree(self):
        from repro.experiments.scalability import waypoint_policy_for
        from repro.topology import fattree

        topology = fattree(6, hosts_per_edge=0)
        self.assert_same_graph(build_product_graph(
            topology, waypoint_policy_for(topology).regexes(), minimize_tags=False))

    @given(small_topologies(), st.lists(small_regexes(), max_size=3), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_drawn_topologies_and_regexes(self, topology, regexes, minimize_automata):
        self.assert_same_graph(build_product_graph(
            topology, regexes, minimize_automata=minimize_automata, minimize_tags=False))


def reference_minimize_tags(pg):
    """The refinement loop over node-keyed dicts, a sorted successor signature
    per node per round, and a list scan per merged edge.  Reads ``pg``'s views
    and returns the mapping and the node-keyed graph it rebuilds."""
    block_of, blocks = {}, {}
    for node in pg.nodes:
        key = (node.switch, pg.acceptance(node))
        block_of[node] = blocks.setdefault(key, len(blocks))
    changed = True
    while changed:
        signature_blocks, new_block_of = {}, {}
        for node in pg.nodes:
            signature = tuple(sorted((succ.switch, block_of[succ]) for succ in pg.out_edges[node]))
            new_block_of[node] = signature_blocks.setdefault(
                (block_of[node], signature), len(signature_blocks))
        changed = len(set(new_block_of.values())) != len(set(block_of.values()))
        block_of = new_block_of
    representative = {}
    for node in sorted(pg.nodes, key=lambda n: (n.switch, n.states)):
        representative.setdefault(block_of[node], node)
    mapping = {node: representative[block_of[node]] for node in pg.nodes}
    if all(mapping[node] == node for node in pg.nodes):
        return mapping, (list(pg.nodes), dict(pg.out_edges), dict(pg.in_edges),
                         dict(pg.probe_sending_nodes))
    new_nodes = []
    for node in pg.nodes:
        if mapping[node] not in new_nodes:
            new_nodes.append(mapping[node])
    new_out = {n: [] for n in new_nodes}
    new_in = {n: [] for n in new_nodes}
    for node, successors in pg.out_edges.items():
        rep = mapping[node]
        for succ in successors:
            if mapping[succ] not in new_out[rep]:
                new_out[rep].append(mapping[succ])
                new_in[mapping[succ]].append(rep)
    origins = {switch: mapping[node] for switch, node in pg.probe_sending_nodes.items()}
    return mapping, (new_nodes, new_out, new_in, origins)


def reference_restrict_to(graph, keep):
    """Every node-keyed structure of ``graph`` filtered to ``keep``, order kept."""
    nodes, out_edges, in_edges, origins = graph
    kept = [n for n in nodes if n in keep]
    return (kept, {n: [s for s in out_edges[n] if s in keep] for n in kept},
            {n: [p for p in in_edges[n] if p in keep] for n in kept}, origins)


class TestTagMinimizationMatchesTheReference:
    """Dense-id refinement, the singleton short-circuit and the row rewrite give
    the mapping and graph the node-keyed loop gave, in every view."""

    @staticmethod
    def assert_same_minimization(topology, regexes, minimize_automata):
        built = build_product_graph(topology, regexes, minimize_tags=False,
                                    minimize_automata=minimize_automata)
        expected, graph = reference_minimize_tags(built)
        mapping = built.minimize_tags()
        assert list(mapping.items()) == list(expected.items())
        assert all(type(node) is PGNode for pair in mapping.items() for node in pair)
        assert_views_equal(built, reference_views(built, *graph))
        return mapping

    def test_diamond_where_tags_merge(self, diamond):
        regexes = [parse_regex(r) for r in TestPerSwitchNodeIndex.REGEXES]
        mapping = self.assert_same_minimization(diamond, regexes, minimize_automata=False)
        assert len(set(mapping.values())) < len(mapping)

    def test_merge_tags_returns_representative_ids(self, diamond):
        regexes = [parse_regex(r) for r in TestPerSwitchNodeIndex.REGEXES]
        pg = build_product_graph(diamond, regexes, minimize_tags=False, minimize_automata=False)
        expected, _ = reference_minimize_tags(pg)
        nodes = pg.nodes
        assert [nodes[rep] for rep in pg.merge_tags()] == list(expected.values())

    @given(small_topologies(), st.lists(small_regexes(), min_size=1, max_size=3),
           st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_drawn_topologies_and_regexes(self, topology, regexes, minimize_automata):
        self.assert_same_minimization(topology, regexes, minimize_automata)

    def test_all_singletons_leave_the_graph_untouched(self):
        from repro.experiments.scalability import waypoint_policy_for
        from repro.topology import fattree

        topology = fattree(6, hosts_per_edge=0)
        pg = build_product_graph(topology, waypoint_policy_for(topology).regexes(),
                                 minimize_tags=False)
        acceptance = {(node.switch, pg.acceptance(node)) for node in pg.nodes}
        assert len(acceptance) == pg.num_nodes      # the initial partition
        nodes, out_edges, tags = pg.nodes, pg.out_edges, pg.tags
        mapping = pg.minimize_tags()
        assert all(node is target for node, target in mapping.items())
        assert list(mapping) == nodes
        assert pg.nodes is nodes and pg.out_edges is out_edges and pg.tags is tags


class TestRestrictionMatchesTheReference:
    """``restrict_to`` rewrites the rows; every view is the old one, filtered."""

    @staticmethod
    def assert_same_restriction(pg, keep):
        graph = reference_restrict_to(
            (list(pg.nodes), dict(pg.out_edges), dict(pg.in_edges),
             dict(pg.probe_sending_nodes)), keep)
        pg.restrict_to(keep)
        assert_views_equal(pg, reference_views(pg, *graph))

    def test_after_a_merge(self, diamond):
        pg = build_product_graph(
            diamond, [parse_regex(r) for r in TestPerSwitchNodeIndex.REGEXES],
            minimize_automata=False)
        origins = set(pg.probe_sending_nodes.values())
        dropped = [node for node in pg.nodes if node not in origins][::2]
        assert dropped
        self.assert_same_restriction(pg, set(pg.nodes) - set(dropped))

    @given(small_topologies(), st.lists(small_regexes(), min_size=1, max_size=3),
           st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_drawn_topologies_and_regexes(self, topology, regexes, random):
        pg = build_product_graph(topology, regexes, minimize_tags=False)
        origins = set(pg.probe_sending_nodes.values())
        keep = {node for node in pg.nodes if node in origins or random.random() < 0.6}
        self.assert_same_restriction(pg, keep)
        self.assert_same_restriction(pg, {node for node in keep if random.random() < 0.8}
                                     | origins)

    def test_views_are_rebuilt_only_after_a_rewrite(self, diamond):
        pg = build_product_graph(diamond, [parse_regex(".* C .*")], minimize_tags=False)
        nodes, in_edges = pg.nodes, pg.in_edges
        pg.restrict_to(pg.nodes)                    # keeps everything: no rewrite
        assert pg.nodes is nodes and pg.in_edges is in_edges
        pg.restrict_to(set(pg.nodes) - {pg.nodes[-1]})
        assert pg.nodes is not nodes and pg.nodes == nodes[:-1]


def reference_device_configs(compiled):
    """The node-keyed loop the compiler ran before it read the rows: every
    local node's predecessors mapped to its tag, then the neighbours' nodes
    looked up in that map."""
    graph = compiled.product_graph
    configs = []
    for switch, switch_neighbors in compiled.topology.switch_graph().items():
        tags, incoming = [], {}
        for node in graph.nodes_of_switch(switch):
            tag = graph.tags[node]
            tags.append((tag, node.states, graph.acceptance(node),
                         tuple(succ.switch for succ in graph.out_edges[node])))
            incoming.update(dict.fromkeys(graph.in_edges[node], tag))
        transition = []
        for neighbor in switch_neighbors:
            for neighbor_node in graph.nodes_of_switch(neighbor):
                tag = incoming.get(neighbor_node)
                if tag is not None:
                    transition.append(((neighbor, graph.tags[neighbor_node]), tag))
        configs.append((switch, tags, transition,
                        graph.tags[graph.probe_sending_nodes[switch]]))
    return configs


class TestDeviceConfigsMatchTheNodeKeyedReference:
    """Configs read off the rows equal the node-keyed loop's, in dict order —
    including a neighbour with no link back, which sends the switch nothing."""

    @staticmethod
    def assert_same_configs(compiled):
        built = [(switch, [(tag, info.states, info.acceptance, info.multicast_neighbors)
                           for tag, info in config.tags.items()],
                  list(config.probe_transition.items()), config.probe_origin_tag)
                 for switch, config in compiled.device_configs.items()]
        assert built == reference_device_configs(compiled)
        assert all(info.tag == tag for config in compiled.device_configs.values()
                   for tag, info in config.tags.items())

    @given(small_topologies(), st.lists(small_regexes(), max_size=3), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_drawn_topologies_and_regexes(self, topology, regexes, minimize_tags):
        from repro.core.compiler import CompileOptions, compile_policy

        expression = inf
        for regex in reversed(regexes):
            expression = if_(matches(regex), path.util, expression)
        options = CompileOptions(strict_monotonicity=False, minimize_tags=minimize_tags)
        self.assert_same_configs(compile_policy(minimize(expression), topology, options))

    def test_a_one_way_link_sends_nothing_back(self):
        from repro.core.compiler import compile_policy
        from repro.core.policies import MU

        topology = Topology("one-way")
        for switch in "ABC":
            topology.add_switch(switch)
        topology.add_link("A", "B")
        topology.add_link("B", "C", bidirectional=False)
        compiled = compile_policy(MU(), topology)
        self.assert_same_configs(compiled)
        assert list(compiled.device("C").probe_transition) == []
        assert list(compiled.device("B").probe_transition) == [("A", 0)]
        assert compiled.device("B").multicast_targets(0) == ("A", "C")
