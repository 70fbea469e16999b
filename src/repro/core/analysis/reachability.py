"""Product-graph reachability analysis and dead-state pruning.

A virtual node of the product graph is *dead* when it can never influence
routing:

* it is unreachable from every probe-sending origin (cannot happen for graphs
  built by :meth:`ProductGraph.build`, which explores from the origins, but
  can for hand-constructed or minimised graphs), or
* no node reachable from it (in probe-propagation direction, towards traffic
  sources) can ever produce a **finite** rank — every acceptance signature on
  that cone evaluates to ``inf`` regardless of metric values.

Entries installed at dead nodes are never preferred over any finite
alternative and the probes they relay can never create a finite entry
downstream, so dropping dead nodes preserves routing outcomes while shrinking
per-switch tag spaces (and with them FwdT/BestT state,
``DeviceConfig.total_state_bytes``).

Finite-capability is decided conservatively by :func:`_maybe_finite`: an
expression is assumed finite-capable unless it is *definitely* infinite under
the node's (fixed) regex acceptance signature.  Being conservative can only
keep extra nodes, never drop live ones.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Set, Tuple

from repro.core import ast
from repro.core.analysis.monotonicity import PolicyOrExpr, coerce_expression
from repro.core.product_graph import PGNode, ProductGraph
from repro.core.regex import PathRegex
from repro.exceptions import PolicyAnalysisError

__all__ = ["ReachabilityReport", "analyze_reachability", "prune_dead_nodes"]


@dataclass
class ReachabilityReport:
    """Dead/live classification of every virtual node for one policy×topology."""

    nodes_total: int
    origin_unreachable: Tuple[PGNode, ...]
    never_finite: Tuple[PGNode, ...]
    dead_nodes: Tuple[PGNode, ...]
    kept_nodes: Tuple[PGNode, ...]
    tags_before: int = 0
    tags_after: int = 0
    tags_total_before: int = 0
    tags_total_after: int = 0
    per_switch_dead: Dict[str, int] = field(default_factory=dict)

    @property
    def num_dead(self) -> int:
        return len(self.dead_nodes)

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "nodes_total": self.nodes_total,
            "nodes_kept": len(self.kept_nodes),
            "nodes_dead": self.num_dead,
            "origin_unreachable": [str(n) for n in self.origin_unreachable],
            "never_finite": [str(n) for n in self.never_finite],
            "dead_nodes": [str(n) for n in self.dead_nodes],
            "per_switch_dead": dict(sorted(self.per_switch_dead.items())),
            "tags_before": self.tags_before,
            "tags_after": self.tags_after,
            "tags_total_before": self.tags_total_before,
            "tags_total_after": self.tags_total_after,
        }

    def render(self) -> str:
        lines = [f"product graph: {self.nodes_total} virtual nodes, "
                 f"{self.num_dead} dead"]
        if self.origin_unreachable:
            lines.append("  unreachable from any probe origin: "
                         + ", ".join(str(n) for n in self.origin_unreachable))
        if self.never_finite:
            lines.append("  can never produce a finite rank: "
                         + ", ".join(str(n) for n in self.never_finite))
        for switch, count in sorted(self.per_switch_dead.items()):
            lines.append(f"  {switch}: {count} dead virtual node(s)")
        if self.tags_before:
            lines.append(f"  max tags/switch: {self.tags_before} -> "
                         f"{self.tags_after} after pruning")
        if self.tags_total_before:
            lines.append(f"  total tags (FwdT rows across switches): "
                         f"{self.tags_total_before} -> {self.tags_total_after}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Finite-capability of an expression under a fixed regex assignment
# ---------------------------------------------------------------------------

def _resolve_bool(cond: ast.BoolExpr,
                  regexes: Mapping[PathRegex, bool]) -> Optional[bool]:
    """Three-valued evaluation: True/False when decidable from the regex
    assignment alone, None when it depends on metric values."""
    if isinstance(cond, ast.BoolConst):
        return cond.value
    if isinstance(cond, ast.RegexTest):
        return regexes.get(cond.pattern)
    if isinstance(cond, ast.Not):
        inner = _resolve_bool(cond.inner, regexes)
        return None if inner is None else not inner
    if isinstance(cond, ast.And):
        left = _resolve_bool(cond.left, regexes)
        right = _resolve_bool(cond.right, regexes)
        if left is False or right is False:
            return False
        if left is True and right is True:
            return True
        return None
    if isinstance(cond, ast.Or):
        left = _resolve_bool(cond.left, regexes)
        right = _resolve_bool(cond.right, regexes)
        if left is True or right is True:
            return True
        if left is False and right is False:
            return False
        return None
    if isinstance(cond, ast.Compare):
        return None
    raise PolicyAnalysisError(f"unsupported boolean node {type(cond).__name__}")


def _maybe_finite(expr: ast.Expr, regexes: Mapping[PathRegex, bool]) -> bool:
    """Could ``expr`` evaluate to a finite rank for *some* metric values?

    Conservative: only answers False when the expression is definitely
    infinite under the given regex assignment.
    """
    if isinstance(expr, (ast.Const, ast.Attr)):
        return True
    if isinstance(expr, ast.Infinite):
        return False
    if isinstance(expr, ast.TupleExpr):
        # A rank tuple is infinite exactly when its leading flat component is.
        return _maybe_finite(expr.items[0], regexes)
    if isinstance(expr, ast.BinOp):
        if expr.op == "min":
            return (_maybe_finite(expr.left, regexes)
                    or _maybe_finite(expr.right, regexes))
        # "+", "-", "max" are infinite as soon as either side is.
        return (_maybe_finite(expr.left, regexes)
                and _maybe_finite(expr.right, regexes))
    if isinstance(expr, ast.If):
        taken = _resolve_bool(expr.condition, regexes)
        if taken is True:
            return _maybe_finite(expr.then_branch, regexes)
        if taken is False:
            return _maybe_finite(expr.else_branch, regexes)
        return (_maybe_finite(expr.then_branch, regexes)
                or _maybe_finite(expr.else_branch, regexes))
    raise PolicyAnalysisError(f"unsupported expression node {type(expr).__name__}")


# ---------------------------------------------------------------------------
# Graph analysis
# ---------------------------------------------------------------------------

def analyze_reachability(policy_or_expr: PolicyOrExpr,
                         graph: ProductGraph) -> ReachabilityReport:
    """Classify every virtual node of ``graph`` as live or dead.

    Probe-sending origin nodes are always kept: they anchor
    ``probe_origin_tag`` on every device, and the destination itself is a
    zero-length policy-compliant path for regex-free policies.
    """
    expr = coerce_expression(policy_or_expr, "analyze_reachability")

    # Finite-capability per acceptance signature (memoised — many nodes share
    # a signature).
    finite_by_signature: Dict[Tuple[bool, ...], bool] = {}
    finite_capable: Set[PGNode] = set()
    for node in graph.nodes:
        signature = graph.acceptance(node)
        if signature not in finite_by_signature:
            assignment = dict(zip(graph.regexes, signature))
            finite_by_signature[signature] = _maybe_finite(expr, assignment)
        if finite_by_signature[signature]:
            finite_capable.add(node)

    # Useful = can reach a finite-capable node along probe propagation
    # (out_edges): backward closure from the finite-capable set via in_edges.
    useful: Set[PGNode] = set(finite_capable)
    queue = deque(finite_capable)
    while queue:
        node = queue.popleft()
        for pred in graph.in_edges.get(node, []):
            if pred not in useful:
                useful.add(pred)
                queue.append(pred)

    # Origin-reachable = forward closure from the probe-sending nodes.
    reachable: Set[PGNode] = set(graph.probe_sending_nodes.values())
    queue = deque(reachable)
    while queue:
        node = queue.popleft()
        for succ in graph.out_edges.get(node, []):
            if succ not in reachable:
                reachable.add(succ)
                queue.append(succ)

    origins = set(graph.probe_sending_nodes.values())
    origin_unreachable = tuple(n for n in graph.nodes if n not in reachable)
    never_finite = tuple(n for n in graph.nodes
                         if n not in useful and n not in origins)
    dead = tuple(n for n in graph.nodes
                 if n not in origins and (n not in reachable or n not in useful))
    kept = tuple(n for n in graph.nodes if n not in dead)

    per_switch_dead: Dict[str, int] = {}
    for node in dead:
        per_switch_dead[node.switch] = per_switch_dead.get(node.switch, 0) + 1

    return ReachabilityReport(
        nodes_total=graph.num_nodes,
        origin_unreachable=origin_unreachable,
        never_finite=never_finite,
        dead_nodes=dead,
        kept_nodes=kept,
        tags_before=graph.max_tags_per_switch(),
        tags_after=graph.max_tags_per_switch(),
        # Every virtual node owns one per-switch tag (one FwdT row family), so
        # the total tag count across the fabric is exactly the node count.
        tags_total_before=graph.num_nodes,
        tags_total_after=graph.num_nodes,
        per_switch_dead=per_switch_dead,
    )


def prune_dead_nodes(policy_or_expr: PolicyOrExpr,
                     graph: ProductGraph) -> ReachabilityReport:
    """Analyze ``graph`` and drop its dead nodes in place.

    Returns the report with ``tags_after`` reflecting the pruned graph.
    """
    report = analyze_reachability(policy_or_expr, graph)
    if report.dead_nodes:
        graph.restrict_to(report.kept_nodes)
        report.tags_after = graph.max_tags_per_switch()
        report.tags_total_after = graph.num_nodes
    return report
