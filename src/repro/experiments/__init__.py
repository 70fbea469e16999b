"""Experiments reproducing every figure of the paper's evaluation.

The names below are imported from their modules on first access, so that
importing one module of the package — :mod:`repro.experiments.scalability`,
which needs nothing but the compiler and the topologies — does not import
the others, the workload generator and through it numpy among them.
"""

from importlib import import_module

#: Public name -> the module of this package that defines it.
_EXPORTS = {
    "AblationPoint": "ablations",
    "run_flowlet_timeout_ablation": "ablations",
    "run_probe_period_ablation": "ablations",
    "run_tag_minimization_ablation": "ablations",
    "run_versioning_ablation": "ablations",
    "ExperimentConfig": "config",
    "config_from_env": "config",
    "default_config": "config",
    "full_config": "config",
    "quick_config": "config",
    "RecoveryCurvePoint": "failure_recovery",
    "RecoveryResult": "failure_recovery",
    "run_failure_recovery": "failure_recovery",
    "run_recovery_curve": "failure_recovery",
    "FctPoint": "fct",
    "default_failed_link": "fct",
    "run_abilene_fct": "fct",
    "run_fattree_fct": "fct",
    "run_flow_size_sensitivity": "fct",
    "run_queue_cdf": "fct",
    "CoordinatedBackend": "coordinator",
    "SweepStatus": "coordinator",
    "live_leases": "coordinator",
    "sweep_status": "coordinator",
    "OverheadPoint": "overhead",
    "run_overhead_experiment": "overhead",
    "ResultsStore": "results",
    "collect_results": "results",
    "ExecutionBackend": "runner",
    "PoolBackend": "runner",
    "RunContext": "runner",
    "RunResult": "runner",
    "ScenarioSpec": "runner",
    "SerialBackend": "runner",
    "SimulationResult": "runner",
    "TopologySpec": "runner",
    "build_routing_system": "runner",
    "datacenter_policy": "runner",
    "grid_map": "runner",
    "run_grid": "runner",
    "run_simulation": "runner",
    "spec_hash": "runner",
    "wan_policy": "runner",
    "FATTREE_SIZES": "scalability",
    "RANDOM_SIZES": "scalability",
    "ScalabilityPoint": "scalability",
    "run_scalability_sweep": "scalability",
    "scalability_policies": "scalability",
    "waypoint_policy_for": "scalability",
    "report": "report",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = import_module(f"{__name__}.{module_name}")
    if name != module_name:
        value = getattr(value, name)
    globals()[name] = value
    return value

