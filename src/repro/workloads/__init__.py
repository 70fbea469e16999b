"""Workload substrate: flow-size distributions, the random generator and
load-targeted workload generators."""

from repro import lazy_exports

_EXPORTS = {
    "Generator": "distributions",
    "EmpiricalCDF": "distributions",
    "WEB_SEARCH_CDF": "distributions",
    "CACHE_CDF": "distributions",
    "WORKLOAD_NAMES": "distributions",
    "web_search_distribution": "distributions",
    "cache_distribution": "distributions",
    "uniform_distribution": "distributions",
    "distribution_by_name": "distributions",
    "WorkloadSpec": "generator",
    "FlowStream": "generator",
    "generate_workload": "generator",
    "stream_workload": "generator",
    "resolve_endpoints": "generator",
    "split_senders_receivers": "generator",
    "incast_pairs": "generator",
    "permutation_pairs": "generator",
}

__all__ = list(_EXPORTS)

__getattr__ = lazy_exports(__name__, _EXPORTS)
