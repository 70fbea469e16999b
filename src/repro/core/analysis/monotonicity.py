"""Monotonicity analysis of Contra policies.

A policy is *monotonic* when extending a path can never improve (decrease) its
rank.  Contra requires monotonicity so that probes are not propagated forever
around loops (§2, §4.3, §5.1): a probe whose metric only degrades as it
travels will eventually stop improving any switch's table and die out.

The analysis is a conservative structural walk over the policy AST.  It only
answers "provably monotone" / "not provably monotone"; when in doubt it says
no and reports the offending sub-expression, which is exactly what an operator
needs in order to repair the policy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Union

from repro.core import ast
from repro.core.attributes import ATTRIBUTES
from repro.exceptions import PolicyAnalysisError

__all__ = ["MonotonicityResult", "check_monotonicity", "require_monotone",
           "coerce_expression"]

PolicyOrExpr = Union[ast.Policy, ast.Expr]


def coerce_expression(policy_or_expr: PolicyOrExpr, caller: str) -> ast.Expr:
    """Unwrap a :class:`~repro.core.ast.Policy` to its rank expression.

    Every analysis entry point accepts either a whole policy or a bare rank
    expression; anything else is a caller bug that used to propagate as an
    ``AttributeError`` deep inside the walk — reject it up front instead.
    """
    if isinstance(policy_or_expr, ast.Policy):
        return policy_or_expr.expression
    if isinstance(policy_or_expr, ast.Expr):
        return policy_or_expr
    raise PolicyAnalysisError(
        f"{caller}() expects a Policy or a rank expression, "
        f"got {type(policy_or_expr).__name__}: {policy_or_expr!r}")


@dataclass
class MonotonicityResult:
    """Outcome of the monotonicity analysis."""

    is_monotone: bool
    reasons: List[str] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.is_monotone


def check_monotonicity(policy_or_expr: PolicyOrExpr) -> MonotonicityResult:
    """Check whether a policy (or bare expression) is provably monotone."""
    expr = coerce_expression(policy_or_expr, "check_monotonicity")
    result = MonotonicityResult(True)
    _check(expr, result)
    return result


def require_monotone(policy_or_expr: PolicyOrExpr) -> None:
    """Raise :class:`PolicyAnalysisError` if the policy is not provably monotone."""
    result = check_monotonicity(policy_or_expr)
    if not result.is_monotone:
        raise PolicyAnalysisError(
            "policy is not monotone: " + "; ".join(result.reasons))


def _fail(result: MonotonicityResult, message: str) -> None:
    result.is_monotone = False
    result.reasons.append(message)


def _is_constant(expr: ast.Expr) -> bool:
    """True when the expression never depends on path metrics or regexes."""
    if isinstance(expr, (ast.Const, ast.Infinite)):
        return True
    if isinstance(expr, ast.Attr):
        return False
    if isinstance(expr, ast.TupleExpr):
        return all(_is_constant(i) for i in expr.items)
    if isinstance(expr, ast.BinOp):
        return _is_constant(expr.left) and _is_constant(expr.right)
    if isinstance(expr, ast.If):
        return False
    return False


def _check(expr: ast.Expr, result: MonotonicityResult) -> None:
    if isinstance(expr, (ast.Const, ast.Infinite)):
        return
    if isinstance(expr, ast.Attr):
        if not ATTRIBUTES[expr.name].is_monotone:  # pragma: no cover - all builtins monotone
            _fail(result, f"attribute {expr.name!r} is not monotone")
        return
    if isinstance(expr, ast.TupleExpr):
        for item in expr.items:
            _check(item, result)
        return
    if isinstance(expr, ast.BinOp):
        _check(expr.left, result)
        _check(expr.right, result)
        if expr.op == "-" and not _is_constant(expr.right):
            _fail(result, f"subtraction of a metric-dependent expression in {expr} "
                          "can make longer paths look better")
        return
    if isinstance(expr, ast.If):
        _check(expr.then_branch, result)
        _check(expr.else_branch, result)
        condition = expr.condition
        if isinstance(condition, (ast.RegexTest,)) or _only_regex(condition):
            # Branch selection by path shape is resolved structurally by the
            # product graph; monotonicity is then required per branch only.
            result.warnings.append(
                f"conditional on path shape ({condition}) is handled by the product graph")
            return
        if condition.attributes():
            # Metric-dependent guards (e.g. path.util < .8) flip as metrics
            # degrade; the decomposition pass gives each branch its own probe,
            # so we only require per-branch monotonicity, but we surface a
            # warning because ranks may step between branches.
            result.warnings.append(
                f"metric-dependent guard ({condition}) requires policy decomposition")
            return
        return
    raise PolicyAnalysisError(f"unsupported expression node {type(expr).__name__}")


def _only_regex(condition: ast.BoolExpr) -> bool:
    """True when a boolean test only combines regex matches (no metric comparisons)."""
    if isinstance(condition, ast.RegexTest):
        return True
    if isinstance(condition, ast.BoolConst):
        return True
    if isinstance(condition, ast.Not):
        return _only_regex(condition.inner)
    if isinstance(condition, (ast.And, ast.Or)):
        return _only_regex(condition.left) and _only_regex(condition.right)
    if isinstance(condition, ast.Compare):
        return False
    return False
