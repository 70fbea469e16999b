"""Isotonicity analysis of Contra policies.

A policy is *isotonic* when upstream and downstream switches agree on
preferences: if a switch prefers path ``a`` over path ``b``, then any common
extension of the two paths preserves that preference (§2, §3 challenge #3,
Griffin & Sobrinho's metarouting condition).  Only isotonic policies may
safely discard "worse" probes during propagation; non-isotonic policies must
be decomposed into isotonic subpolicies that travel in separate probes.

The analysis classifies a policy into one of three buckets:

* fully isotonic,
* isotonic once regex conditionals are resolved by the product graph
  (``needs_regex_decomposition``),
* requires metric decomposition (``needs_metric_decomposition``) — e.g. the
  congestion-aware policy P9 or a max-like-first lexicographic tuple.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.core import ast
from repro.core.analysis.monotonicity import PolicyOrExpr, coerce_expression
from repro.core.attributes import ATTRIBUTES
from repro.exceptions import PolicyAnalysisError

__all__ = ["IsotonicityResult", "check_isotonicity", "branch_is_isotonic"]


@dataclass
class IsotonicityResult:
    """Outcome of the isotonicity analysis."""

    is_isotonic: bool
    needs_regex_decomposition: bool = False
    needs_metric_decomposition: bool = False
    reasons: List[str] = field(default_factory=list)

    @property
    def needs_decomposition(self) -> bool:
        return self.needs_regex_decomposition or self.needs_metric_decomposition

    def __bool__(self) -> bool:
        return self.is_isotonic


def check_isotonicity(policy_or_expr: PolicyOrExpr) -> IsotonicityResult:
    """Classify a policy (or bare expression) for isotonicity."""
    expr = coerce_expression(policy_or_expr, "check_isotonicity")
    result = IsotonicityResult(True)
    _walk(expr, result)
    if result.needs_decomposition:
        result.is_isotonic = False
    return result


def branch_is_isotonic(expr: ast.Expr) -> bool:
    """Whether a single (already decomposed) branch expression is isotonic.

    Regex conditionals are treated as resolved (the product graph fixes the
    automaton state per tag, and probe comparisons only happen within a tag),
    so only the metric structure matters here.
    """
    return _expr_isotonic(expr)


# ---------------------------------------------------------------------------
# Whole-policy classification
# ---------------------------------------------------------------------------

def _walk(expr: ast.Expr, result: IsotonicityResult) -> None:
    if isinstance(expr, (ast.Const, ast.Infinite, ast.Attr)):
        return
    if isinstance(expr, ast.TupleExpr):
        if not _tuple_isotonic(expr):
            result.needs_metric_decomposition = True
            result.reasons.append(
                f"lexicographic tuple {expr} orders a max-composed metric before "
                "other metric-dependent components")
        for item in expr.items:
            _walk(item, result)
        return
    if isinstance(expr, ast.BinOp):
        if expr.op in ("min", "max"):
            result.needs_metric_decomposition = True
            result.reasons.append(f"{expr.op}() of metric expressions is not isotonic: {expr}")
        if expr.op in ("+", "-") and not _sum_isotonic(expr):
            result.needs_metric_decomposition = True
            result.reasons.append(f"binary {expr.op} mixing max-composed metrics is not "
                                  f"provably isotonic: {expr}")
        _walk(expr.left, result)
        _walk(expr.right, result)
        return
    if isinstance(expr, ast.If):
        condition = expr.condition
        if condition.attributes():
            result.needs_metric_decomposition = True
            result.reasons.append(f"metric-dependent guard ({condition}) is not isotonic; "
                                  "each branch becomes a separate probe")
        elif condition.regexes():
            result.needs_regex_decomposition = True
            result.reasons.append(f"regex conditional ({condition}) is resolved by the "
                                  "product graph")
        _walk(expr.then_branch, result)
        _walk(expr.else_branch, result)
        return
    raise PolicyAnalysisError(f"unsupported expression node {type(expr).__name__}")


# ---------------------------------------------------------------------------
# Branch-level structural rules
# ---------------------------------------------------------------------------

def _uses_max_like(expr: ast.Expr) -> bool:
    return any(ATTRIBUTES[a].is_max_like for a in expr.attributes())


def _is_constant(expr: ast.Expr) -> bool:
    return not expr.attributes() and not expr.regexes()


def _tuple_isotonic(expr: ast.TupleExpr) -> bool:
    """A lexicographic tuple is isotonic iff everything after the first
    max-composed component is metric-free.

    Example: ``(path.len, path.util)`` is isotonic (sum-like first), while
    ``(path.util, path.len)`` is not — extending two paths with a congested
    link can equalise their bottleneck utilization and flip the tie-break.
    """
    seen_max_like = False
    for item in expr.items:
        if seen_max_like and item.attributes():
            return False
        if _uses_max_like(item):
            seen_max_like = True
    return True


def _sum_isotonic(expr: ast.BinOp) -> bool:
    """``e1 + e2`` (or ``-``) is isotonic if at most one side depends on
    max-composed metrics and the other side is either constant or sum-like."""
    left_max = _uses_max_like(expr.left)
    right_max = _uses_max_like(expr.right)
    if left_max and right_max:
        return False
    if left_max:
        return _is_constant(expr.right)
    if right_max:
        return _is_constant(expr.left)
    return True


def _expr_isotonic(expr: ast.Expr) -> bool:
    if isinstance(expr, (ast.Const, ast.Infinite, ast.Attr)):
        return True
    if isinstance(expr, ast.TupleExpr):
        return _tuple_isotonic(expr) and all(_expr_isotonic(i) for i in expr.items)
    if isinstance(expr, ast.BinOp):
        if expr.op in ("min", "max"):
            return False
        return (_sum_isotonic(expr)
                and _expr_isotonic(expr.left)
                and _expr_isotonic(expr.right))
    if isinstance(expr, ast.If):
        if expr.condition.attributes():
            return False
        return (_expr_isotonic(expr.then_branch)
                and _expr_isotonic(expr.else_branch))
    raise PolicyAnalysisError(f"unsupported expression node {type(expr).__name__}")
