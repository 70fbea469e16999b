"""Unit tests for product-graph reachability analysis and dead-state pruning."""

import pytest

from repro.core import policies
from repro.core.analysis import analyze_reachability, prune_dead_nodes
from repro.core.analysis.reachability import _maybe_finite, _resolve_bool
from repro.core import ast
from repro.core.builder import if_, inf, lt, matches, minimize, path
from repro.core.compiler import CompileOptions, compile_policy
from repro.core.product_graph import build_product_graph
from repro.core.regex import parse_regex
from repro.exceptions import CompilationError, PolicyAnalysisError
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


FAILOVER = policies.failover_preference(("A", "B", "D"), ("B", ".*", "D"))


class TestFigure6DeadState:
    """failover(A B D | B .* D) on the diamond has one provably dead node."""

    @pytest.fixture
    def graph(self, diamond):
        return build_product_graph(diamond, FAILOVER.regexes(),
                                   minimize_tags=False)

    def test_exactly_one_dead_node(self, graph):
        report = analyze_reachability(FAILOVER, graph)
        assert report.num_dead == 1
        dead = report.dead_nodes[0]
        # (D;-,-): probes that re-enter D with both automata dead — no
        # continuation can ever match either regex, so the rank is inf forever.
        assert dead.switch == "D"
        assert str(dead) == "(D;-,-)"
        assert report.per_switch_dead == {"D": 1}
        assert report.dead_nodes == report.never_finite

    def test_origins_never_classified_dead(self, graph):
        report = analyze_reachability(FAILOVER, graph)
        origins = set(graph.probe_sending_nodes.values())
        assert origins.isdisjoint(report.dead_nodes)
        assert origins <= set(report.kept_nodes)

    def test_prune_shrinks_graph_and_reports_tags(self, graph):
        before = graph.num_nodes
        report = prune_dead_nodes(FAILOVER, graph)
        assert graph.num_nodes == before - 1
        assert report.tags_total_before == before
        assert report.tags_total_after == before - 1
        assert report.tags_total_after < report.tags_total_before
        # Tags were reassigned: still dense per switch.
        for switch in ("A", "B", "C", "D"):
            tags = sorted(graph.tag_of(n) for n in graph.nodes_of_switch(switch))
            assert tags == list(range(len(tags)))

    def test_report_serialises_and_renders(self, graph):
        report = prune_dead_nodes(FAILOVER, graph)
        data = report.to_json_dict()
        assert data["nodes_dead"] == 1
        assert data["dead_nodes"] == ["(D;-,-)"]
        assert data["tags_total_before"] == data["tags_total_after"] + 1
        text = report.render()
        assert "1 dead" in text and "(D;-,-)" in text


class TestRegexFreePolicies:
    """Without regexes every switch has one virtual node and none are dead."""

    @pytest.mark.parametrize("factory", [policies.minimum_utilization,
                                         policies.shortest_path,
                                         policies.congestion_aware])
    def test_no_dead_nodes(self, diamond, factory):
        policy = factory()
        graph = build_product_graph(diamond, policy.regexes())
        report = prune_dead_nodes(policy, graph)
        assert report.num_dead == 0
        assert graph.num_nodes == 4
        assert report.tags_total_before == report.tags_total_after == 4


class TestHandMutatedGraph:
    """Orphaned nodes (possible after hand edits / minimisation) are dead."""

    def test_origin_unreachable_node_detected(self, diamond):
        policy = policies.waypointing(("C",))
        graph = build_product_graph(diamond, policy.regexes(),
                                    minimize_tags=False)
        # Orphan one non-origin node by severing every edge into it.
        origins = set(graph.probe_sending_nodes.values())
        victim = next(n for n in graph.nodes
                      if n not in origins and graph.in_edges[n])
        for pred in list(graph.in_edges[victim]):
            graph.out_edges[pred].remove(victim)
        graph.in_edges[victim] = []
        report = analyze_reachability(policy, graph)
        assert victim in report.origin_unreachable
        assert victim in report.dead_nodes

    def test_restrict_to_refuses_to_drop_origins(self, diamond):
        policy = policies.minimum_utilization()
        graph = build_product_graph(diamond, policy.regexes())
        keep = [n for n in graph.nodes if n.switch != "A"]
        with pytest.raises(CompilationError):
            graph.restrict_to(keep)

    def test_restrict_to_superset_is_noop(self, diamond):
        policy = policies.minimum_utilization()
        graph = build_product_graph(diamond, policy.regexes())
        nodes_before = list(graph.nodes)
        graph.restrict_to(list(graph.nodes))
        assert graph.nodes == nodes_before


class TestCompilerIntegration:
    def test_compile_never_prunes(self, diamond):
        """The compiled graph keeps the node the verification plane finds dead."""
        compiled = compile_policy(FAILOVER, diamond, CompileOptions(minimize_tags=False))
        assert not hasattr(compiled, "reachability")
        graph = build_product_graph(diamond, FAILOVER.regexes(), minimize_tags=False)
        report = prune_dead_nodes(FAILOVER, graph)
        assert report.num_dead == 1
        assert compiled.product_graph.num_nodes == report.nodes_total

    def test_regex_free_compile_has_nothing_to_prune(self, diamond):
        policy = policies.minimum_utilization()
        compiled = compile_policy(policy, diamond)
        report = analyze_reachability(policy, compiled.product_graph)
        assert report.num_dead == 0
        assert report.kept_nodes == tuple(compiled.product_graph.nodes)


class TestFiniteCapability:
    """The conservative three-valued core of the dead-state classifier."""

    def test_resolve_bool_three_valued(self):
        pattern = parse_regex(".* C .*")
        test = ast.RegexTest(pattern)
        assert _resolve_bool(test, {pattern: True}) is True
        assert _resolve_bool(test, {pattern: False}) is False
        assert _resolve_bool(test, {}) is None
        assert _resolve_bool(ast.Not(test), {pattern: True}) is False
        cmp = ast.Compare("<", ast.Attr("util"), ast.Const(0.5))
        assert _resolve_bool(cmp, {}) is None
        assert _resolve_bool(ast.And(test, cmp), {pattern: False}) is False
        assert _resolve_bool(ast.Or(test, cmp), {pattern: True}) is True
        assert _resolve_bool(ast.Or(test, cmp), {pattern: False}) is None

    def test_maybe_finite_resolved_branches(self):
        pattern = parse_regex(".* C .*")
        expr = ast.If(ast.RegexTest(pattern), ast.Attr("util"), ast.Infinite())
        assert _maybe_finite(expr, {pattern: True})
        assert not _maybe_finite(expr, {pattern: False})
        # Unknown acceptance: conservatively finite-capable.
        assert _maybe_finite(expr, {})

    def test_maybe_finite_operators(self):
        util, infinite = ast.Attr("util"), ast.Infinite()
        assert _maybe_finite(ast.BinOp("min", util, infinite), {})
        assert not _maybe_finite(ast.BinOp("+", util, infinite), {})
        assert not _maybe_finite(ast.BinOp("max", util, infinite), {})
        # Tuple rank: infinite iff the leading component is.
        assert not _maybe_finite(ast.TupleExpr((infinite, util)), {})
        assert _maybe_finite(ast.TupleExpr((util, infinite)), {})

    def test_metric_guard_keeps_both_branches_alive(self):
        expr = if_(lt(path.util, 0.5), inf, path.lat)
        policy = minimize(expr)
        assert _maybe_finite(policy.expression, {})

    def test_analyze_rejects_garbage_policy(self, diamond):
        graph = build_product_graph(diamond, [])
        with pytest.raises(PolicyAnalysisError):
            analyze_reachability("not a policy", graph)
