"""Experiments reproducing every figure of the paper's evaluation.

Every figure grid runs one way: its spec builder (``fattree_fct_specs``,
``failure_recovery_specs``, ``overhead_specs``, … in the figure's module)
makes the grid, :func:`~repro.experiments.runner.run_grid` executes it, and
the module's projection (``to_*_points`` / ``analyse_*``) turns the results
into report rows.  :func:`repro.experiments.registry.run_scenario` does the
same by scenario name.

The names below are imported from their modules on first access, so that
importing one module of the package — :mod:`repro.experiments.scalability`,
which needs nothing but the compiler and the topologies — does not import
the others, the workload generator among them.  The report formatters are a
module of their own: ``from repro.experiments import report``.
"""

from repro import lazy_exports

_EXPORTS = {
    "AblationPoint": "ablations",
    "run_tag_minimization_ablation": "ablations",
    "ExperimentConfig": "config",
    "config_from_env": "config",
    "default_config": "config",
    "full_config": "config",
    "quick_config": "config",
    "RecoveryCurvePoint": "failure_recovery",
    "RecoveryResult": "failure_recovery",
    "FctPoint": "fct",
    "CoordinatedBackend": "coordinator",
    "SweepStatus": "coordinator",
    "live_leases": "coordinator",
    "sweep_status": "coordinator",
    "OverheadPoint": "overhead",
    "ResultsStore": "results",
    "collect_results": "results",
    "ExecutionBackend": "runner",
    "PoolBackend": "runner",
    "RunContext": "runner",
    "RunResult": "runner",
    "ScenarioSpec": "runner",
    "SerialBackend": "runner",
    "TopologySpec": "runner",
    "build_routing_system": "runner",
    "datacenter_policy": "runner",
    "default_failed_link": "runner",
    "grid_map": "runner",
    "run_grid": "runner",
    "spec_hash": "runner",
    "wan_policy": "runner",
    "FATTREE_SIZES": "scalability",
    "RANDOM_SIZES": "scalability",
    "ScalabilityPoint": "scalability",
    "run_scalability_sweep": "scalability",
    "scalability_policies": "scalability",
    "waypoint_policy_for": "scalability",
}

__all__ = list(_EXPORTS)

__getattr__ = lazy_exports(__name__, _EXPORTS)
