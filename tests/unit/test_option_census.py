"""The settable values left on the types whose test-only options became constants.

Each entry is the whole parameter list (or dataclass field list) a caller may
set.  A value that no scenario, command, example or benchmark sets to anything
but its default is a module constant instead; adding a knob back means
editing this census and saying which caller needs it.  In the experiment
layer the census is complete: every public function or method there with an
optional parameter has an entry (the AST sweep below fails otherwise).
"""

import argparse
import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import pytest

from repro import cli
from repro.baselines.spain import SpainSystem, compute_spain_paths
from repro.core.compiler import CompileOptions
from repro.experiments import report
from repro.experiments.ablations import (
    flowlet_timeout_specs,
    probe_period_specs,
    run_tag_minimization_ablation,
    versioning_specs,
)
from repro.experiments.config import PRESETS, ExperimentConfig
from repro.experiments.coordinator import (
    CoordinatedBackend,
    LeaseInfo,
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
from repro.experiments.failure_recovery import (
    analyse_recovery_curve,
    analyse_recovery_results,
    analyse_recovery_sweep_results,
    failure_recovery_specs,
    multi_failure_specs,
    multi_failure_topology,
    recovery_curve_specs,
    recovery_sweep_specs,
)
from repro.experiments.fct import (
    abilene_fct_specs,
    abilene_pairs,
    agg_core_failure,
    fattree_fct_specs,
    flow_size_sensitivity_specs,
    incast_specs,
    queue_cdf_specs,
    transport_sensitivity_specs,
)
from repro.experiments.fluid_scale import fluid_million_specs
from repro.experiments.overhead import overhead_specs, to_overhead_points
from repro.experiments.race import race_check
from repro.experiments.registry import (
    gc_scenario,
    merge_scenario,
    run_scenario,
    run_scenario_coordinated,
    sweep_status_scenario,
)
from repro.experiments.results import ResultsStore, StoreFiles
from repro.experiments import registry, runner
from repro.experiments.runner import (
    RunContext,
    SerialBackend,
    build_routing_system,
    grid_map,
    run_grid,
)
from repro.experiments.scalability import run_scalability_sweep, waypoint_policy_for
from repro.protocol.contra_switch import ContraSystem
from repro.protocol.tables import LoopDetectionTable
from repro.simulator.accumulators import HyperLogLog
from repro.simulator.fluid import FluidSimulation, FluidStats
from repro.simulator.network import Network, ProbeDrivenSystem
from repro.simulator.stats import StatsCollector
from repro.simulator.switchnode import FlowletTable
from repro.workloads.distributions import Generator
from repro.workloads.generator import generate_workload

CENSUS = {
    ContraSystem: ("compiled", "probe_period", "flowlet_timeout", "failure_periods",
                   "use_versioning"),
    LoopDetectionTable: (),
    FlowletTable: ("timeout", "slots"),
    # Only the fluid plane feeds the flow sketch, so only its stats take it.
    StatsCollector: ("record_paths", "fct_percentiles"),
    FluidStats: ("fct_percentiles", "flow_sketch"),
    HyperLogLog: (),
    # A run frees itself: closing takes nothing to tune.
    Network.close: ("self",),
    FluidSimulation.close: ("self",),
    # A link fails and recovers both ways.
    Network.fail_link: ("self", "a", "b", "at_time"),
    Network.recover_link: ("self", "a", "b", "at_time"),
    FluidSimulation.fail_link: ("self", "a", "b", "at_time"),
    FluidSimulation.recover_link: ("self", "a", "b", "at_time"),
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
    # The lease TTL, the poll and the heartbeat are coordinator constants, and
    # time is read through ``coordinator.wall_now`` alone: no knob or clock
    # argument on the drain, the lease functions or the store-backed runs.
    CoordinatedBackend: ("directory", "inner", "owner"),
    CoordinatedBackend.drain: ("self", "specs"),
    # Every drain names its owner when it releases, and a one-worker drain
    # makes its own owner id.
    drain_store: ("specs", "directory"),
    try_acquire_lease: ("directory", "key", "owner", "spec_name"),
    # A renewal rewrites the name it read.
    renew_lease: ("directory", "key", "owner"),
    release_lease: ("directory", "key", "owner"),
    reclaim_lease: ("directory", "key", "owner"),
    read_lease: ("directory", "key"),
    live_leases: ("directory",),
    gc_leases: ("directory", "valid_keys", "completed_keys"),
    sweep_status: ("specs", "directory"),
    # A scenario name and a config fix one grid: no command or registry
    # function re-keys it.
    run_scenario_coordinated: ("name", "config", "results_dir", "processes", "shard"),
    sweep_status_scenario: ("name", "config", "results_dir"),
    ResultsStore.record: ("self", "spec", "result", "wall_s", "owner", "stolen",
                          "reclaimed"),
    # The experiment layer.  Each figure grid is one fixed setup: its systems,
    # workloads, loads and schedule are module constants (or the config's
    # ``loads``), and a projection reads the constants its builder injects.
    # Only Fig. 14's schedule times stay settable: the perf harness sets them.
    failure_recovery_specs: ("config", "failure_time", "run_duration"),
    analyse_recovery_results: ("results", "failure_time"),
    recovery_sweep_specs: ("config",),
    analyse_recovery_sweep_results: ("results",),
    multi_failure_topology: ("config",),
    multi_failure_specs: ("config",),
    recovery_curve_specs: ("config",),
    analyse_recovery_curve: ("results",),
    agg_core_failure: ("topology", "time"),
    abilene_pairs: ("topology",),
    fattree_fct_specs: ("config", "systems", "workloads", "loads", "asymmetric"),
    abilene_fct_specs: ("config", "workloads", "loads"),
    queue_cdf_specs: ("config",),
    incast_specs: ("config",),
    transport_sensitivity_specs: ("config",),
    flow_size_sensitivity_specs: ("config",),
    fluid_million_specs: ("config", "systems", "flow_target"),
    overhead_specs: ("config",),
    to_overhead_points: ("results",),
    probe_period_specs: ("config", "periods"),
    flowlet_timeout_specs: ("config", "timeouts"),
    versioning_specs: ("config",),
    run_tag_minimization_ablation: (),
    waypoint_policy_for: ("topology",),
    run_scalability_sweep: ("families", "fattree_sizes", "random_sizes", "policies",
                            "seed", "processes"),
    build_routing_system: ("name", "topology", "config", "compiled", "use_versioning"),
    ExperimentConfig.scaled: ("self", "duration_factor", "loads"),
    race_check: ("name", "config", "seeds", "points"),
    run_scenario: ("name", "config", "processes"),
    gc_scenario: ("name", "config", "results_dir"),
    merge_scenario: ("name", "config", "results_dir"),
    RunContext: ("sanitize",),
    SerialBackend: ("context",),
    grid_map: ("fn", "items", "processes"),
    ResultsStore: ("directory", "filename"),
    StoreFiles.keys: ("self", "template", "fill"),
    StoreFiles.replace: ("self", "name", "text", "owner"),
    # A formatter takes a title only where some caller titles it.
    report.format_table: ("headers", "rows", "title"),
    report.format_scalability: ("points", "title"),
    report.format_fct: ("points", "title"),
    report.format_grid: ("results", "title"),
    report.format_ablation: ("points", "title"),
    report.format_queue_cdf: ("cdfs",),
    report.format_recovery: ("results",),
    report.format_recovery_sweep: ("results",),
    report.format_recovery_curve: ("points",),
    report.format_flow_size: ("results",),
    report.format_transport: ("results",),
    report.format_overhead: ("points",),
    report.format_fidelity: ("points",),
    report.format_fluid_million: ("results",),
}


@pytest.mark.parametrize("target", CENSUS, ids=lambda target: target.__qualname__)
def test_parameters_are_the_census(target):
    assert tuple(inspect.signature(target).parameters) == CENSUS[target]


def _optional_parameters(node: ast.FunctionDef):
    arguments = node.args
    positional = arguments.posonlyargs + arguments.args
    with_default = positional[len(positional) - len(arguments.defaults):]
    return [argument.arg for argument in with_default] + [
        argument.arg for argument, default in zip(arguments.kwonlyargs, arguments.kw_defaults)
        if default is not None]


def _experiment_layer_functions():
    """(target, optional parameter names) of every public function and method
    of ``repro.experiments``; a class's ``__init__`` is the class itself."""
    for path in sorted(Path(report.__file__).parent.glob("*.py")):
        if path.stem == "__init__":
            continue
        module = importlib.import_module(f"repro.experiments.{path.stem}")
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                yield getattr(module, node.name), _optional_parameters(node)
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                cls = getattr(module, node.name)
                for method in node.body:
                    if not isinstance(method, ast.FunctionDef):
                        continue
                    if method.name == "__init__":
                        yield cls, _optional_parameters(method)
                    elif not method.name.startswith("_"):
                        yield getattr(cls, method.name), _optional_parameters(method)


def test_every_optional_experiment_parameter_is_in_the_census():
    uncounted = [f"{target.__module__}.{target.__qualname__}: {', '.join(optional)}"
                 for target, optional in _experiment_layer_functions()
                 if optional and not set(optional) <= set(CENSUS.get(target, ()))]
    assert uncounted == []


def test_compile_options_are_the_census():
    assert tuple(field.name for field in dataclasses.fields(CompileOptions)) == (
        "minimize_tags", "strict_monotonicity")


def test_removed_members_stay_removed():
    assert not hasattr(ProbeDrivenSystem, "probe_all_switches")
    assert not hasattr(HyperLogLog, "merge")
    for member in ("lookup", "touch", "expire", "sweep_high_water"):
        assert not hasattr(FlowletTable, member)
    # A lease is created whole, so no reader judges one by the file's mtime,
    # and nothing reads the acquire time a renewal used to copy forward.
    assert not hasattr(StoreFiles, "mtime")
    assert "acquired_unix" not in {field.name
                                   for field in dataclasses.fields(LeaseInfo)}
    # run_grid opens a pool itself, through grid_map, when given no backend.
    for member in ("PoolBackend", "default_backend"):
        assert not hasattr(runner, member)
    # Every grid command builds exactly the scenario's grid under a preset.
    for member in ("_with_flow_model", "_build_specs"):
        assert not hasattr(registry, member)
    for member in ("_grid_config", "_resolve_config"):
        assert not hasattr(cli, member)


_GRID_COMMANDS = ("run-grid", "race-check", "merge-results", "gc-results", "sweep-status")

#: Each subcommand's option strings, in declaration order.
CLI_CENSUS = {
    "policies": ("-h", "--help"),
    "compile": ("-h", "--help", "--k", "--leaves", "--spines", "--hosts-per-leaf",
                "--size", "--seed", "--topology", "--emit-p4"),
    "check-policy": ("-h", "--help", "--k", "--leaves", "--spines", "--hosts-per-leaf",
                     "--size", "--seed", "--all", "--topo", "--json"),
    "run-grid": ("-h", "--help", "--preset", "--processes", "--json", "--results-dir",
                 "--shard", "--sanitize"),
    "race-check": ("-h", "--help", "--preset", "--seeds", "--points", "--json"),
    "merge-results": ("-h", "--help", "--preset", "--results-dir", "--json",
                      "--bench-artifact"),
    "gc-results": ("-h", "--help", "--preset", "--results-dir"),
    "sweep-status": ("-h", "--help", "--preset", "--results-dir"),
}


def test_cli_options_are_the_census():
    (commands,) = [action.choices for action in cli.build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    assert {command: tuple(option for action in parser._actions
                           for option in action.option_strings)
            for command, parser in commands.items()} == CLI_CENSUS
    # A preset is one of the table's names; none reads the environment.
    for command in _GRID_COMMANDS:
        (preset,) = [action for action in commands[command]._actions
                     if "--preset" in action.option_strings]
        assert tuple(preset.choices) == tuple(PRESETS)


@pytest.mark.parametrize("command", _GRID_COMMANDS)
@pytest.mark.parametrize("flag", (["--transport", "slowstart"], ["--flow-model", "fluid"],
                                  ["--preset", "env"]),
                         ids=("transport", "flow-model", "env-preset"))
def test_a_grid_variant_flag_is_a_usage_error(command, flag, capsys):
    grid = [command, "fig13"] + ([] if command == "race-check" else ["--results-dir", "r"])
    cli.build_parser().parse_args(grid)
    with pytest.raises(SystemExit) as exited:
        cli.build_parser().parse_args(grid + flag)
    assert exited.value.code == 2
    assert flag[0] in capsys.readouterr().err
