"""Static analyses of Contra policies.

Classification passes (monotonicity, isotonicity, decomposition) plus the
verification plane: semantic counterexample search, product-graph
reachability/dead-state pruning, and the lowered-table cross-checker.
"""

from repro import lazy_exports

_EXPORTS = {
    "Decomposition": "decomposition",
    "SubPolicy": "decomposition",
    "decompose": "decomposition",
    "IsotonicityResult": "isotonicity",
    "branch_is_isotonic": "isotonicity",
    "check_isotonicity": "isotonicity",
    "MonotonicityResult": "monotonicity",
    "check_monotonicity": "monotonicity",
    "coerce_expression": "monotonicity",
    "require_monotone": "monotonicity",
    "SearchDomain": "semantic",
    "MonotonicityWitness": "semantic",
    "IsotonicityWitness": "semantic",
    "SemanticMonotonicityResult": "semantic",
    "SemanticIsotonicityResult": "semantic",
    "check_semantic_monotonicity": "semantic",
    "check_semantic_isotonicity": "semantic",
    "ReachabilityReport": "reachability",
    "analyze_reachability": "reachability",
    "prune_dead_nodes": "reachability",
    "CrosscheckReport": "crosscheck",
    "crosscheck_lowered_tables": "crosscheck",
    "verify_lowered_tables": "crosscheck",
    "VerificationReport": "verification",
    "verify_policy": "verification",
}

__all__ = list(_EXPORTS)

__getattr__ = lazy_exports(__name__, _EXPORTS)
