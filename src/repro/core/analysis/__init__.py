"""Static analyses of Contra policies.

Classification passes (monotonicity, isotonicity, decomposition) plus the
verification plane: semantic counterexample search, product-graph
reachability/dead-state pruning, and the lowered-table cross-checker.
"""
