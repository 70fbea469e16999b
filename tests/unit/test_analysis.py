"""Unit tests for the policy analyses: monotonicity, isotonicity, decomposition."""

import pytest

from repro.core import ast, policies
from repro.core.analysis.decomposition import decompose
from repro.core.analysis.isotonicity import branch_is_isotonic, check_isotonicity
from repro.core.analysis.monotonicity import check_monotonicity, require_monotone
from repro.core.attributes import MetricVector
from repro.core.builder import add, if_, inf, lt, matches, minimize, path, rank_tuple, sub
from repro.core.rank import Rank
from repro.exceptions import PolicyAnalysisError


class TestMonotonicity:
    @pytest.mark.parametrize("factory", [
        policies.shortest_path,
        policies.minimum_utilization,
        policies.widest_shortest_paths,
        policies.shortest_widest_paths,
        policies.waypointing,
        policies.link_preference,
        policies.weighted_link,
        policies.source_local_preference,
        policies.congestion_aware,
        policies.minimize_latency,
    ])
    def test_all_figure3_policies_are_monotone(self, factory):
        assert check_monotonicity(factory()).is_monotone

    def test_subtracting_a_metric_is_not_monotone(self):
        policy = minimize(sub(const_ten(), path.len))
        assert not check_monotonicity(policy).is_monotone

    def test_subtracting_a_constant_is_monotone(self):
        policy = minimize(sub(path.lat, 1))
        assert check_monotonicity(policy).is_monotone

    def test_require_monotone_raises_for_bad_policy(self):
        policy = minimize(sub(const_ten(), path.util))
        with pytest.raises(PolicyAnalysisError):
            require_monotone(policy)

    def test_regex_conditional_produces_warning_not_failure(self):
        result = check_monotonicity(policies.waypointing())
        assert result.is_monotone
        assert result.warnings

    def test_metric_guard_produces_warning(self):
        result = check_monotonicity(policies.congestion_aware())
        assert result.is_monotone
        assert any("decomposition" in w for w in result.warnings)

    def test_bare_expression_accepted(self):
        assert check_monotonicity(path.util).is_monotone


def const_ten():
    return ast.Const(10.0)


class TestIsotonicity:
    def test_single_metric_is_isotonic(self):
        assert check_isotonicity(policies.minimum_utilization()).is_isotonic
        assert check_isotonicity(policies.shortest_path()).is_isotonic

    def test_sum_first_tuple_is_isotonic(self):
        # (path.len, path.util): sum-like first, max-like last.
        assert check_isotonicity(policies.shortest_widest_paths()).is_isotonic

    def test_max_first_tuple_needs_decomposition(self):
        # (path.util, path.len): the bottleneck metric ordered before hop count.
        result = check_isotonicity(policies.widest_shortest_paths())
        assert not result.is_isotonic
        assert result.needs_metric_decomposition

    def test_regex_conditional_flagged_for_product_graph(self):
        result = check_isotonicity(policies.waypointing())
        assert result.needs_regex_decomposition
        assert not result.needs_metric_decomposition

    def test_metric_guard_flagged_for_decomposition(self):
        result = check_isotonicity(policies.congestion_aware())
        assert result.needs_metric_decomposition

    def test_min_operator_not_isotonic(self):
        policy = minimize(ast.BinOp("min", path.util, path.lat))
        assert check_isotonicity(policy).needs_metric_decomposition

    def test_adding_two_max_like_terms_not_isotonic(self):
        policy = minimize(add(path.util, path.util))
        assert check_isotonicity(policy).needs_metric_decomposition

    def test_weight_plus_len_is_isotonic(self):
        assert check_isotonicity(policies.weighted_link()).is_isotonic or \
            check_isotonicity(policies.weighted_link()).needs_regex_decomposition

    def test_branch_is_isotonic_resolves_regexes(self):
        branch = if_(matches(".* W .*"), path.util, inf)
        assert branch_is_isotonic(branch)

    def test_branch_with_metric_guard_not_isotonic(self):
        branch = if_(lt(path.util, 0.5), path.len, path.lat)
        assert not branch_is_isotonic(branch)


class TestDecomposition:
    def test_single_metric_policy_has_one_probe(self):
        decomposition = decompose(policies.minimum_utilization())
        assert decomposition.num_probes == 1
        assert decomposition.subpolicies[0].propagation_attrs == ("util",)
        assert decomposition.carried_attrs == ("util",)

    def test_waypointing_has_one_probe(self):
        decomposition = decompose(policies.waypointing())
        assert decomposition.num_probes == 1

    def test_congestion_aware_gets_one_probe_per_guard_branch(self):
        decomposition = decompose(policies.congestion_aware())
        assert decomposition.num_probes == 2
        guards = [sub.guards for sub in decomposition.subpolicies]
        assert all(len(g) == 1 for g in guards)
        truths = {g[0][1] for g in guards}
        assert truths == {True, False}

    def test_congestion_aware_carries_both_metrics(self):
        decomposition = decompose(policies.congestion_aware())
        assert set(decomposition.carried_attrs) == {"util", "len"}

    def test_non_isotonic_tuple_gets_extra_propagation_order(self):
        decomposition = decompose(policies.widest_shortest_paths())
        assert decomposition.num_probes == 2
        orders = {sub.propagation_attrs for sub in decomposition.subpolicies}
        assert ("util", "len") in orders
        assert ("len", "util") in orders

    def test_isotonic_tuple_keeps_single_probe(self):
        decomposition = decompose(policies.shortest_widest_paths())
        assert decomposition.num_probes == 1
        assert decomposition.subpolicies[0].propagation_attrs == ("len", "util")

    def test_source_local_preference_carries_both_metrics(self):
        decomposition = decompose(policies.source_local_preference())
        assert set(decomposition.carried_attrs) == {"util", "lat"}
        assert decomposition.num_probes == 1

    def test_propagation_rank_orders_metric_vectors(self):
        decomposition = decompose(policies.minimum_utilization())
        sub = decomposition.subpolicies[0]
        low = MetricVector(("util",), (0.1,))
        high = MetricVector(("util",), (0.9,))
        assert sub.propagation_rank(low) < sub.propagation_rank(high)

    def test_static_policy_propagation_rank_is_constant(self):
        policy = minimize(if_(matches("A B D"), 0, if_(matches("A C D"), 1, inf)))
        decomposition = decompose(policy)
        sub = decomposition.subpolicies[0]
        assert sub.propagation_rank(MetricVector(())) == Rank(0)

    def test_subpolicy_lookup_by_pid(self):
        decomposition = decompose(policies.congestion_aware())
        for sub in decomposition.subpolicies:
            assert decomposition.subpolicy(sub.pid) is sub
        with pytest.raises(PolicyAnalysisError):
            decomposition.subpolicy(99)

    def test_describe_is_informative(self):
        decomposition = decompose(policies.congestion_aware())
        text = decomposition.subpolicies[0].describe()
        assert "pid=0" in text

    def test_too_many_guards_rejected(self):
        expr = path.util
        for threshold in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7):
            expr = if_(lt(path.lat, threshold), expr, add(expr, 1))
        with pytest.raises(PolicyAnalysisError):
            decompose(minimize(expr))

    def test_initial_metrics_match_carried_attrs(self):
        decomposition = decompose(policies.congestion_aware())
        mv = decomposition.subpolicies[0].initial_metrics()
        assert set(mv.names) == set(decomposition.carried_attrs)
