"""Workload substrate: flow-size distributions, the random generator and
load-targeted workload generators."""

from repro.workloads.distributions import (
    CACHE_CDF,
    WEB_SEARCH_CDF,
    WORKLOAD_NAMES,
    EmpiricalCDF,
    Generator,
    cache_distribution,
    distribution_by_name,
    uniform_distribution,
    web_search_distribution,
)
from repro.workloads.generator import (
    FlowStream,
    WorkloadSpec,
    generate_workload,
    incast_pairs,
    permutation_pairs,
    resolve_endpoints,
    split_senders_receivers,
    stream_workload,
)

__all__ = [
    "Generator",
    "EmpiricalCDF",
    "WEB_SEARCH_CDF",
    "CACHE_CDF",
    "WORKLOAD_NAMES",
    "web_search_distribution",
    "cache_distribution",
    "uniform_distribution",
    "distribution_by_name",
    "WorkloadSpec",
    "FlowStream",
    "generate_workload",
    "stream_workload",
    "resolve_endpoints",
    "split_senders_receivers",
    "incast_pairs",
    "permutation_pairs",
]
