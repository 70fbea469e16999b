"""The settable values left on the types whose test-only options became constants.

Each entry is the whole parameter list (or dataclass field list) a caller may
set.  A value that no scenario, command, example or benchmark sets to anything
but its default is a module constant instead; adding a knob back means
editing this census and saying which caller needs it.
"""

import dataclasses
import inspect

import pytest

from repro.baselines.spain import SpainSystem, compute_spain_paths
from repro.core.compiler import CompileOptions
from repro.experiments.coordinator import (
    CoordinatedBackend,
    drain_store,
    gc_leases,
    live_leases,
    read_lease,
    reclaim_lease,
    release_lease,
    renew_lease,
    sweep_status,
    try_acquire_lease,
)
from repro.experiments.registry import run_scenario_coordinated, sweep_status_scenario
from repro.experiments.results import ResultsStore
from repro.experiments.runner import default_backend, run_grid
from repro.protocol.contra_switch import ContraSystem
from repro.protocol.tables import LoopDetectionTable
from repro.simulator.accumulators import HyperLogLog
from repro.simulator.network import ProbeDrivenSystem
from repro.simulator.stats import StatsCollector
from repro.simulator.switchnode import FlowletTable
from repro.workloads.distributions import Generator
from repro.workloads.generator import generate_workload

CENSUS = {
    ContraSystem: ("compiled", "probe_period", "flowlet_timeout", "failure_periods",
                   "use_versioning"),
    LoopDetectionTable: (),
    FlowletTable: ("timeout", "slots"),
    StatsCollector: ("record_paths", "fct_percentiles", "flow_sketch"),
    HyperLogLog: (),
    SpainSystem: (),
    compute_spain_paths: ("network_topology",),
    generate_workload: ("topology", "distribution", "load", "duration", "host_capacity",
                        "seed", "senders", "receivers", "pair_senders_receivers",
                        "start_after"),
    Generator.random: ("self",),
    Generator.exponential: ("self", "scale"),
    Generator.integers: ("self", "low", "high"),
    Generator.choice: ("self", "options", "size", "replace"),
    Generator.poisson_arrivals: ("self", "scale", "start", "end", "marks"),
    run_grid: ("specs", "processes", "backend"),
    default_backend: ("processes", "tasks"),
    # The lease TTL, the poll and the heartbeat are coordinator constants, and
    # time is read through ``coordinator.wall_now`` alone: no knob or clock
    # argument on the drain, the lease functions or the store-backed runs.
    CoordinatedBackend: ("directory", "inner", "owner"),
    CoordinatedBackend.drain: ("self", "specs"),
    drain_store: ("specs", "directory", "owner"),
    try_acquire_lease: ("directory", "key", "owner", "spec_name"),
    renew_lease: ("directory", "key", "owner", "spec_name"),
    release_lease: ("directory", "key", "owner"),
    reclaim_lease: ("directory", "key", "owner"),
    read_lease: ("directory", "key"),
    live_leases: ("directory",),
    gc_leases: ("directory", "valid_keys", "completed_keys"),
    sweep_status: ("specs", "directory"),
    run_scenario_coordinated: ("name", "config", "results_dir", "processes", "shard",
                               "flow_model"),
    sweep_status_scenario: ("name", "config", "results_dir", "flow_model"),
    ResultsStore.record: ("self", "spec", "result", "wall_s", "owner", "stolen",
                          "reclaimed"),
}


@pytest.mark.parametrize("target", CENSUS, ids=lambda target: target.__qualname__)
def test_parameters_are_the_census(target):
    assert tuple(inspect.signature(target).parameters) == CENSUS[target]


def test_compile_options_are_the_census():
    assert tuple(field.name for field in dataclasses.fields(CompileOptions)) == (
        "minimize_tags", "strict_monotonicity")


def test_removed_members_stay_removed():
    assert not hasattr(ProbeDrivenSystem, "probe_all_switches")
    assert not hasattr(HyperLogLog, "merge")
    for member in ("lookup", "touch", "expire", "sweep_high_water"):
        assert not hasattr(FlowletTable, member)
