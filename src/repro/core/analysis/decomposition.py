"""Decomposition of non-isotonic policies into isotonic subpolicies.

Non-isotonic policies cannot be implemented by propagating a single "best"
probe, because a switch's locally best path may not remain best once extended
upstream (§3 challenge #3, §4).  Contra's answer is to decompose the policy
into *isotonic subpolicies*, give each its own probe id (``pid``), propagate
them independently, and let every switch re-combine the information when it
picks its overall best entry (the ``f`` / ``s`` split in Figure 7).

Two sources of non-isotonicity are handled:

* **metric guards** — conditionals such as ``if path.util < .8 then ... else
  ...`` (policy P9).  Each truth assignment of the guards yields one branch
  expression and therefore one subpolicy / probe id.
* **max-first lexicographic tuples** — e.g. ``(path.util, path.len)``.  The
  branch is covered by additional probes whose propagation orders are
  isotonic permutations (sum-like metrics first), so the best paths under
  each component ordering all reach the deciding switch.

Regex conditionals are *not* decomposed here: the product graph already keeps
paths with different automaton states in different tags, and probe comparisons
only ever happen within a (tag, pid) pair, which restores isotonicity for the
regex part of the policy.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import List, Mapping, Sequence, Tuple

from repro.core import ast
from repro.core.analysis.isotonicity import branch_is_isotonic, check_isotonicity
from repro.core.attributes import ATTRIBUTES, MetricVector
from repro.core.rank import Rank
from repro.exceptions import PolicyAnalysisError

__all__ = ["SubPolicy", "Decomposition", "decompose"]

#: Refuse to enumerate more than this many metric guards (2^n assignments).
_MAX_METRIC_GUARDS = 6


@dataclass(frozen=True)
class SubPolicy:
    """One isotonic subpolicy produced by the decomposition.

    Attributes
    ----------
    pid:
        Probe id; probes of different subpolicies never compete with each
        other inside switch tables.
    expression:
        The branch expression with metric guards already fixed.
    guards:
        The (comparison, truth) assignments that select this branch; recorded
        for reporting and for the final policy evaluation tests.
    propagation_attrs:
        Attribute names, in order, used as the isotonic lexicographic key
        ``f(pid, mv)`` during probe propagation.
    carried_attrs:
        Attribute names the probe's metric vector carries (always the full
        policy attribute set so the deciding switch can evaluate the original
        policy on any entry).
    """

    pid: int
    expression: ast.Expr
    guards: Tuple[Tuple[ast.Compare, bool], ...]
    propagation_attrs: Tuple[str, ...]
    carried_attrs: Tuple[str, ...]

    def initial_metrics(self) -> MetricVector:
        """The metric vector carried by a freshly generated probe."""
        return MetricVector(self.carried_attrs)

    def propagation_rank(self, metrics: MetricVector) -> Rank:
        """The isotonic propagation key ``f(pid, mv)`` for a metric vector.

        Lower is better.  Purely static subpolicies (no dynamic attributes)
        map every vector to rank 0, so the first probe for a (tag, pid) wins
        and later identical probes do not churn the tables.
        """
        if not self.propagation_attrs:
            return Rank(0.0)
        return Rank(tuple(metrics.get(name) for name in self.propagation_attrs))

    def describe(self) -> str:
        guard_text = ", ".join(
            f"{comparison}={'T' if truth else 'F'}" for comparison, truth in self.guards)
        return (f"pid={self.pid} expr=({self.expression}) "
                f"propagate-by={list(self.propagation_attrs)}"
                + (f" guards=[{guard_text}]" if guard_text else ""))


@dataclass
class Decomposition:
    """The full decomposition of one policy."""

    policy: ast.Policy
    subpolicies: List[SubPolicy]
    is_isotonic: bool
    reasons: List[str] = field(default_factory=list)

    @property
    def num_probes(self) -> int:
        """How many distinct probe ids the data plane must propagate."""
        return len(self.subpolicies)

    @property
    def carried_attrs(self) -> Tuple[str, ...]:
        """The union of attributes carried on the wire (same for every probe)."""
        if not self.subpolicies:
            return ()
        return self.subpolicies[0].carried_attrs

    def subpolicy(self, pid: int) -> SubPolicy:
        for sub in self.subpolicies:
            if sub.pid == pid:
                return sub
        raise PolicyAnalysisError(f"unknown probe id {pid}")


def decompose(policy: ast.Policy) -> Decomposition:
    """Decompose a policy into isotonic subpolicies (one per probe id)."""
    expr = policy.expression
    carried = _attr_order(expr)
    isotonicity = check_isotonicity(policy)

    guards = _collect_metric_guards(expr)
    if len(guards) > _MAX_METRIC_GUARDS:
        raise PolicyAnalysisError(
            f"policy has {len(guards)} metric guards; decomposition enumerates 2^n branches "
            f"and is capped at {_MAX_METRIC_GUARDS} guards")

    raw: List[Tuple[ast.Expr, Tuple[Tuple[ast.Compare, bool], ...]]] = []
    if not guards:
        raw.append((expr, ()))
    else:
        for assignment in itertools.product((True, False), repeat=len(guards)):
            mapping = dict(zip(guards, assignment))
            fixed = _fix_guards(expr, mapping)
            raw.append((fixed, tuple(zip(guards, assignment))))

    subpolicies: List[SubPolicy] = []
    seen: set = set()
    pid = 0
    for branch_expr, guard_assignment in raw:
        for order in _propagation_orders(branch_expr, carried):
            key = (branch_expr, order, guard_assignment)
            if key in seen:
                continue
            seen.add(key)
            subpolicies.append(SubPolicy(
                pid=pid,
                expression=branch_expr,
                guards=guard_assignment,
                propagation_attrs=order,
                carried_attrs=tuple(carried),
            ))
            pid += 1

    return Decomposition(
        policy=policy,
        subpolicies=subpolicies,
        is_isotonic=isotonicity.is_isotonic,
        reasons=list(isotonicity.reasons),
    )


# ---------------------------------------------------------------------------
# Guard handling
# ---------------------------------------------------------------------------

def _collect_metric_guards(expr: ast.Expr) -> List[ast.Compare]:
    """All metric comparisons appearing in conditional guards, in order."""
    guards: List[ast.Compare] = []

    def visit_expr(node: ast.Expr) -> None:
        if isinstance(node, ast.If):
            visit_bool(node.condition)
            visit_expr(node.then_branch)
            visit_expr(node.else_branch)
            return
        for child in node.children():
            visit_expr(child)

    def visit_bool(node: ast.BoolExpr) -> None:
        if isinstance(node, ast.Compare):
            if node.attributes() and node not in guards:
                guards.append(node)
            return
        if isinstance(node, ast.Not):
            visit_bool(node.inner)
            return
        if isinstance(node, (ast.And, ast.Or)):
            visit_bool(node.left)
            visit_bool(node.right)
            return

    visit_expr(expr)
    return guards


def _fix_guards(expr: ast.Expr, mapping: Mapping[ast.Compare, bool]) -> ast.Expr:
    """Replace metric guards by their assigned truth value and simplify conditionals."""
    if isinstance(expr, (ast.Const, ast.Infinite, ast.Attr)):
        return expr
    if isinstance(expr, ast.TupleExpr):
        return ast.TupleExpr(tuple(_fix_guards(i, mapping) for i in expr.items))
    if isinstance(expr, ast.BinOp):
        return ast.BinOp(expr.op, _fix_guards(expr.left, mapping), _fix_guards(expr.right, mapping))
    if isinstance(expr, ast.If):
        condition = _fix_bool(expr.condition, mapping)
        then_branch = _fix_guards(expr.then_branch, mapping)
        else_branch = _fix_guards(expr.else_branch, mapping)
        if isinstance(condition, ast.BoolConst):
            return then_branch if condition.value else else_branch
        return ast.If(condition, then_branch, else_branch)
    raise PolicyAnalysisError(f"unsupported expression node {type(expr).__name__}")


def _fix_bool(node: ast.BoolExpr, mapping: Mapping[ast.Compare, bool]) -> ast.BoolExpr:
    if isinstance(node, ast.Compare) and node in mapping:
        return ast.BoolConst(mapping[node])
    if isinstance(node, ast.Not):
        inner = _fix_bool(node.inner, mapping)
        if isinstance(inner, ast.BoolConst):
            return ast.BoolConst(not inner.value)
        return ast.Not(inner)
    if isinstance(node, ast.And):
        left = _fix_bool(node.left, mapping)
        right = _fix_bool(node.right, mapping)
        if isinstance(left, ast.BoolConst):
            return right if left.value else ast.BoolConst(False)
        if isinstance(right, ast.BoolConst):
            return left if right.value else ast.BoolConst(False)
        return ast.And(left, right)
    if isinstance(node, ast.Or):
        left = _fix_bool(node.left, mapping)
        right = _fix_bool(node.right, mapping)
        if isinstance(left, ast.BoolConst):
            return ast.BoolConst(True) if left.value else right
        if isinstance(right, ast.BoolConst):
            return ast.BoolConst(True) if right.value else left
        return ast.Or(left, right)
    return node


# ---------------------------------------------------------------------------
# Propagation orders
# ---------------------------------------------------------------------------

def _attr_order(expr: ast.Expr) -> List[str]:
    """Attribute names in order of first syntactic appearance (left-to-right)."""
    order: List[str] = []

    def visit_expr(node: ast.Expr) -> None:
        if isinstance(node, ast.Attr):
            if node.name not in order:
                order.append(node.name)
            return
        if isinstance(node, ast.If):
            visit_bool(node.condition)
            visit_expr(node.then_branch)
            visit_expr(node.else_branch)
            return
        for child in node.children():
            visit_expr(child)

    def visit_bool(node: ast.BoolExpr) -> None:
        for sub in node.expr_children():
            visit_expr(sub)
        for child in node.children():
            visit_bool(child)

    visit_expr(expr)
    return order


def _propagation_orders(branch_expr: ast.Expr, carried: Sequence[str]) -> List[Tuple[str, ...]]:
    """Isotonic propagation orders covering one branch expression.

    For an isotonic branch a single order (attributes in syntactic order,
    padded with any remaining carried attributes) suffices.  For a
    non-isotonic branch — a max-like metric ordered before other metrics —
    we additionally emit the "sum-like first" permutation so that the paths
    optimal under each component ordering all survive propagation and reach
    the deciding switch.
    """
    base = _attr_order(branch_expr)
    padded = tuple(base + [a for a in carried if a not in base])
    orders: List[Tuple[str, ...]] = [padded]

    if not branch_is_isotonic(branch_expr) and len(padded) > 1:
        sum_like = [a for a in padded if not ATTRIBUTES[a].is_max_like]
        max_like = [a for a in padded if ATTRIBUTES[a].is_max_like]
        alternative = tuple(sum_like + max_like)
        if alternative != padded:
            orders.append(alternative)

    return orders
