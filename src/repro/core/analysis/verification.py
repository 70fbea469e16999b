"""One-stop policy verification: semantic checks, reachability, cross-check.

:func:`verify_policy` runs the whole verification plane over one policy —
optionally against a concrete topology — and folds the results into a single
:class:`VerificationReport` that renders for humans (``contra check-policy``)
and serialises to JSON (the CI verification artifact):

1. syntactic + semantic monotonicity/isotonicity, with a concrete
   rank-inversion witness whenever the bounded semantic search finds one;
2. product-graph reachability (given a topology): dead virtual nodes and the
   tag/state reduction pruning them would achieve;
3. the lowered-table cross-check (given a topology): dense int64 rows and
   protocol mirrors diffed against the symbolic tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from repro.core import ast
from repro.core.rank import Rank
from repro.core.analysis.crosscheck import CrosscheckReport, crosscheck_lowered_tables
from repro.core.analysis.isotonicity import IsotonicityResult, check_isotonicity
from repro.core.analysis.monotonicity import MonotonicityResult, check_monotonicity
from repro.core.analysis.reachability import ReachabilityReport, prune_dead_nodes
from repro.core.analysis.semantic import (
    SearchDomain,
    SemanticIsotonicityResult,
    SemanticMonotonicityResult,
    check_semantic_isotonicity,
    check_semantic_monotonicity,
)

__all__ = ["VerificationReport", "verify_policy"]


@dataclass
class VerificationReport:
    """Everything the verification plane learned about one policy."""

    policy_name: str
    monotonicity: MonotonicityResult
    isotonicity: IsotonicityResult
    semantic_monotonicity: SemanticMonotonicityResult
    semantic_isotonicity: SemanticIsotonicityResult
    topology_name: Optional[str] = None
    reachability: Optional[ReachabilityReport] = None
    crosscheck: Optional[CrosscheckReport] = None

    @property
    def ok(self) -> bool:
        """No witness of non-monotonicity and no lowered-table disagreement.

        Non-isotonic policies are *not* failures — the compiler decomposes
        them — but their witness is surfaced so operators understand why
        extra probes are needed.
        """
        return (self.semantic_monotonicity.is_monotone
                and self.monotonicity.is_monotone
                and (self.crosscheck is None or self.crosscheck.ok))

    def to_json_dict(self) -> Dict[str, object]:
        def witness(w: object) -> Optional[Dict[str, object]]:
            if w is None:
                return None
            data: Dict[str, object] = {}
            for key, value in vars(w).items():
                if isinstance(value, Rank):
                    data[key] = list(value.values)
                elif isinstance(value, Mapping):
                    data[key] = dict(value)
                else:
                    data[key] = value
            data["description"] = w.describe()  # type: ignore[attr-defined]
            return data

        payload: Dict[str, object] = {
            "policy": self.policy_name,
            "ok": self.ok,
            "syntactic": {
                "is_monotone": self.monotonicity.is_monotone,
                "is_isotonic": self.isotonicity.is_isotonic,
                "needs_regex_decomposition":
                    self.isotonicity.needs_regex_decomposition,
                "needs_metric_decomposition":
                    self.isotonicity.needs_metric_decomposition,
                "reasons": list(self.monotonicity.reasons)
                + list(self.isotonicity.reasons),
            },
            "semantic": {
                "is_monotone": self.semantic_monotonicity.is_monotone,
                "is_isotonic": self.semantic_isotonicity.is_isotonic,
                "points_checked": {
                    "monotonicity": self.semantic_monotonicity.points_checked,
                    "isotonicity": self.semantic_isotonicity.points_checked,
                },
                "monotonicity_witness":
                    witness(self.semantic_monotonicity.witness),
                "isotonicity_witness":
                    witness(self.semantic_isotonicity.witness),
            },
        }
        if self.topology_name is not None:
            payload["topology"] = self.topology_name
        if self.reachability is not None:
            payload["reachability"] = self.reachability.to_json_dict()
        if self.crosscheck is not None:
            payload["crosscheck"] = self.crosscheck.to_json_dict()
        return payload

    def render(self) -> str:
        lines = [f"policy {self.policy_name}:"]
        lines.append(
            f"  monotone:  syntactic={'yes' if self.monotonicity.is_monotone else 'NO'}"
            f"  semantic={'yes' if self.semantic_monotonicity.is_monotone else 'NO'}"
            f" ({self.semantic_monotonicity.points_checked} points)")
        iso_kind = ("isotonic" if self.isotonicity.is_isotonic
                    else "isotonic after regex decomposition"
                    if not self.isotonicity.needs_metric_decomposition
                    else "needs metric decomposition")
        lines.append(
            f"  isotonic:  syntactic={iso_kind}"
            f"  semantic={'certified' if self.semantic_isotonicity.is_isotonic else 'WITNESS FOUND'}"
            f" ({self.semantic_isotonicity.points_checked} points)")
        if self.semantic_monotonicity.witness is not None:
            lines.append("  monotonicity counterexample:")
            lines.extend("    " + line for line
                         in self.semantic_monotonicity.witness.describe().splitlines())
        if self.semantic_isotonicity.witness is not None:
            lines.append("  isotonicity counterexample:")
            lines.extend("    " + line for line
                         in self.semantic_isotonicity.witness.describe().splitlines())
        if self.topology_name is not None:
            lines.append(f"  topology {self.topology_name}:")
            if self.reachability is not None:
                lines.extend("    " + line
                             for line in self.reachability.render().splitlines())
            if self.crosscheck is not None:
                lines.extend("    " + line
                             for line in self.crosscheck.render().splitlines())
        lines.append(f"  verdict: {'OK' if self.ok else 'FAILED'}")
        return "\n".join(lines)


def verify_policy(
    policy: ast.Policy,
    topology: Optional[object] = None,
    domain: Optional[SearchDomain] = None,
) -> VerificationReport:
    """Run every verification pass applicable to ``policy``.

    With a ``topology``, additionally prunes the dead nodes of a fresh
    product graph (the reachability numbers) and compiles the policy to
    cross-check its lowered tables.
    """
    report = VerificationReport(
        policy_name=policy.name,
        monotonicity=check_monotonicity(policy),
        isotonicity=check_isotonicity(policy),
        semantic_monotonicity=check_semantic_monotonicity(policy, domain),
        semantic_isotonicity=check_semantic_isotonicity(policy, domain),
    )
    if topology is not None:
        # Local import: compiler imports analysis, not the other way around.
        from repro.core.compiler import CompileOptions, compile_policy
        from repro.core.product_graph import build_product_graph

        report.topology_name = getattr(topology, "name", str(topology))
        graph = build_product_graph(topology, policy.regexes())
        report.reachability = prune_dead_nodes(policy, graph)
        compiled = compile_policy(policy, topology, CompileOptions())
        report.crosscheck = crosscheck_lowered_tables(compiled)
    return report
