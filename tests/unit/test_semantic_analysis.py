"""Unit tests for the semantic monotonicity/isotonicity checker.

The key contracts: a *witness* is always a genuine counterexample (it replays
through ``Rank`` comparison on re-evaluation), the bundled isotonic policies
are certified, and the semantic verdict is sound with respect to the
syntactic passes (hypothesis property: syntactic pass => no semantic
witness).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ast, policies
from repro.core.analysis.isotonicity import check_isotonicity
from repro.core.analysis.monotonicity import check_monotonicity, coerce_expression
from repro.core.analysis.semantic import (
    IsotonicityWitness,
    MonotonicityWitness,
    SearchDomain,
    check_semantic_isotonicity,
    check_semantic_monotonicity,
    _extend,
)
from repro.core.builder import if_, lt, matches, minimize, path, sub
from repro.core.rank import Rank
from repro.exceptions import PolicyAnalysisError


def rank_at(expr, metrics, regexes=None):
    """Re-evaluate ``expr`` on an abstract (pathless) context."""
    return expr.evaluate(ast.PathContext((), dict(metrics), dict(regexes or {})))


class TestCertification:
    """Policies the syntactic passes accept must be semantically clean."""

    @pytest.mark.parametrize("name", sorted(policies.ALL_POLICIES))
    def test_all_bundled_policies_semantically_monotone(self, name):
        result = check_semantic_monotonicity(policies.ALL_POLICIES[name]())
        assert result.is_monotone
        assert result.witness is None
        assert result.points_checked > 0

    @pytest.mark.parametrize("name", ["P1", "P2", "P4", "P5", "P6", "P7", "P8"])
    def test_isotonic_bundled_policies_certified(self, name):
        result = check_semantic_isotonicity(policies.ALL_POLICIES[name]())
        assert result.is_isotonic
        assert result.witness is None
        assert bool(result)

    def test_semantic_agrees_with_syntactic_on_the_registry(self):
        # Non-isotonic by the syntactic pass AND a concrete witness exists:
        # P3 (max-like metric ordered first) and P9 (threshold guard).
        for name in ("P3", "P9"):
            assert check_isotonicity(
                policies.ALL_POLICIES[name]()).needs_metric_decomposition
            assert not check_semantic_isotonicity(
                policies.ALL_POLICIES[name]()).is_isotonic


class TestP9Witness:
    """The paper's congestion-aware policy: the canonical non-isotonic case."""

    @pytest.fixture(scope="class")
    def result(self):
        return check_semantic_isotonicity(policies.congestion_aware())

    def test_witness_found(self, result):
        assert not result.is_isotonic
        assert not bool(result)
        assert isinstance(result.witness, IsotonicityWitness)

    def test_witness_replays_through_rank_comparison(self, result):
        w = result.witness
        expr = policies.congestion_aware().expression
        # The recorded ranks are what the policy actually computes...
        assert rank_at(expr, w.metrics_a) == w.rank_a
        assert rank_at(expr, w.metrics_b) == w.rank_b
        assert rank_at(expr, _extend(w.metrics_a, w.extension)) == w.extended_rank_a
        assert rank_at(expr, _extend(w.metrics_b, w.extension)) == w.extended_rank_b
        # ...and they witness a genuine preference inversion.
        assert w.rank_a < w.rank_b
        assert w.extended_rank_a > w.extended_rank_b

    def test_witness_straddles_the_threshold(self, result):
        w = result.witness
        extended = _extend(w.metrics_a, w.extension)
        # The inversion mechanism is the utilization threshold: path a starts
        # below 0.8 and the extension pushes it across.
        assert w.metrics_a["util"] < 0.8 <= extended["util"]

    def test_describe_mentions_both_paths(self, result):
        text = result.witness.describe()
        assert "path a" in text and "path b" in text
        assert "inverts" in text


class TestMonotonicityWitness:
    def test_subtracting_a_metric_yields_witness(self):
        policy = minimize(sub(ast.Const(10.0), path.len))
        result = check_semantic_monotonicity(policy)
        assert not result.is_monotone
        w = result.witness
        assert isinstance(w, MonotonicityWitness)
        # Replay: the extended path really ranks strictly better.
        expr = policy.expression
        assert rank_at(expr, w.metrics) == w.base_rank
        assert rank_at(expr, _extend(w.metrics, w.extension)) == w.extended_rank
        assert w.extended_rank < w.base_rank
        assert "rank decreases" in w.describe()

    def test_monotone_policy_has_no_witness(self):
        result = check_semantic_monotonicity(minimize(sub(path.lat, 1)))
        assert result.is_monotone and result.witness is None


class TestSearchDomain:
    def test_grids_enriched_with_guard_constants(self):
        domain = SearchDomain.for_expression(
            policies.congestion_aware(0.8).expression)
        grid = domain.value_grids["util"]
        # Points on both sides of the threshold, and the threshold itself.
        assert 0.8 in grid
        assert any(0.8 - 0.06 < v < 0.8 for v in grid)
        assert any(0.8 < v < 0.8 + 0.06 for v in grid)

    def test_vector_and_extension_caps_respected(self):
        domain = SearchDomain.for_expression(
            policies.congestion_aware().expression)
        assert len(domain.vectors(("util", "len"))) <= domain.max_vectors
        assert len(domain.extensions(("util", "len"))) <= domain.max_extensions

    def test_extensions_iterate_worst_first(self):
        domain = SearchDomain.for_expression(policies.minimum_utilization().expression)
        extensions = domain.extensions(("util",))
        utils = [e["util"] for e in extensions]
        assert utils == sorted(utils, reverse=True)


class TestInputValidation:
    def test_coerce_expression_rejects_garbage(self):
        with pytest.raises(PolicyAnalysisError, match="check_monotonicity"):
            check_monotonicity("minimize(path.util)")  # text, not a Policy
        with pytest.raises(PolicyAnalysisError, match="check_isotonicity"):
            check_isotonicity(42)
        with pytest.raises(PolicyAnalysisError):
            check_semantic_monotonicity(None)
        with pytest.raises(PolicyAnalysisError):
            check_semantic_isotonicity(object())

    def test_coerce_expression_passthrough(self):
        policy = policies.minimum_utilization()
        assert coerce_expression(policy, "t") is policy.expression
        assert coerce_expression(policy.expression, "t") is policy.expression

    def test_results_are_not_truthiness_traps(self):
        # bool(result) mirrors the verdict, so `if check_...(p):` is safe.
        assert bool(check_monotonicity(policies.shortest_path()))
        assert bool(check_isotonicity(policies.shortest_path()))
        assert not bool(check_isotonicity(policies.congestion_aware()))


# --------------------------------------------------------------------------
# Hypothesis property: semantic witnesses imply syntactic rejection
# --------------------------------------------------------------------------

_ATTR = st.sampled_from([ast.Attr("util"), ast.Attr("lat"), ast.Attr("len")])
_CONST = st.sampled_from([0.0, 0.5, 1.0, 2.0]).map(ast.Const)
_LEAF = st.one_of(_ATTR, _CONST)


def _guard():
    return st.tuples(st.sampled_from(["util", "lat"]),
                     st.sampled_from([0.4, 0.8, 1.5])).map(
        lambda pair: ast.Compare("<", ast.Attr(pair[0]), ast.Const(pair[1])))


_EXPR = st.recursive(
    _LEAF,
    lambda children: st.one_of(
        st.tuples(st.sampled_from(["+", "min", "max"]), children, children).map(
            lambda t: ast.BinOp(t[0], t[1], t[2])),
        st.tuples(children, children).map(
            lambda t: ast.BinOp("-", t[0], t[1])),
        st.tuples(_guard(), children, children).map(
            lambda t: ast.If(t[0], t[1], t[2])),
        st.tuples(children, children).map(
            lambda t: ast.If(ast.RegexTest(matches(".* W .*").pattern),
                             t[0], t[1])),
    ),
    max_leaves=6,
)


class TestSoundnessProperty:
    @settings(max_examples=40, deadline=None)
    @given(expr=_EXPR)
    def test_syntactic_monotone_implies_no_semantic_witness(self, expr):
        if check_monotonicity(expr).is_monotone:
            result = check_semantic_monotonicity(expr)
            assert result.is_monotone, (
                f"syntactic pass but semantic witness for {expr}:\n"
                f"{result.witness.describe()}")

    @settings(max_examples=40, deadline=None)
    @given(expr=_EXPR)
    def test_syntactic_isotonic_implies_no_semantic_witness(self, expr):
        iso = check_isotonicity(expr)
        # Regex decomposition is handled structurally by the product graph,
        # so only metric-decomposition cases may carry semantic witnesses.
        if not iso.needs_metric_decomposition:
            result = check_semantic_isotonicity(expr)
            assert result.is_isotonic, (
                f"syntactic pass but semantic witness for {expr}:\n"
                f"{result.witness.describe()}")
