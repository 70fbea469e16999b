"""Contra's core contribution: the policy language, analyses and compiler."""

from repro import lazy_exports

_EXPORTS = {
    "Policy": "ast",
    "PathContext": "ast",
    "Rank": "rank",
    "INFINITY": "rank",
    "MetricVector": "attributes",
    "PathAttribute": "attributes",
    "ATTRIBUTES": "attributes",
    "PathRegex": "regex",
    "parse_regex": "regex",
    "parse_policy": "parser",
    "parse_expression": "parser",
    "minimize": "builder",
    "if_": "builder",
    "matches": "builder",
    "path": "builder",
    "inf": "builder",
    "rank_tuple": "builder",
    "check_monotonicity": "analysis.monotonicity",
    "check_isotonicity": "analysis.isotonicity",
    "decompose": "analysis.decomposition",
    "Decomposition": "analysis.decomposition",
    "SubPolicy": "analysis.decomposition",
    "MonotonicityResult": "analysis.monotonicity",
    "IsotonicityResult": "analysis.isotonicity",
    "ProductGraph": "product_graph",
    "PGNode": "product_graph",
    "build_product_graph": "product_graph",
    "DeviceConfig": "device_config",
    "TagInfo": "device_config",
    "StateEstimate": "device_config",
    "CompiledPolicy": "compiler",
    "CompileOptions": "compiler",
    "compile_policy": "compiler",
}

__all__ = list(_EXPORTS)

__getattr__ = lazy_exports(__name__, _EXPORTS)
