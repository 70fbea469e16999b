"""Ablation studies of Contra's design choices.

These are not figures in the paper, but each corresponds to a refinement the
design section argues for; DESIGN.md lists them as the extension experiments:

* **probe period sweep** (§5.2) — too-short periods make slower paths look
  permanently stale; too-long periods slow reaction to congestion;
* **flowlet timeout sweep** (§5.3) — small timeouts reorder packets, large
  timeouts pin flows to stale paths;
* **versioned vs unversioned probes** (§5.1) — disabling version numbers
  re-creates the loop hazard of a naive distance-vector protocol;
* **tag minimisation** (§6.1/§6.2) — effect of the compiler optimisation on
  the number of tags and on switch state.

The simulation ablations are spec builders with protocol overrides
(``probe_period`` / ``flowlet_timeout`` / ``use_versioning``);
:func:`ablation_specs` concatenates them into the one grid the ``ablations``
registry scenario runs, so the sweep shards, resumes and coordinates like
every other grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.core.compiler import CompileOptions, compile_policy
from repro.experiments.config import ExperimentConfig
from repro.experiments.fct import fattree_spec
from repro.experiments.runner import RunResult, ScenarioSpec
from repro.experiments.scalability import waypoint_policy_for

__all__ = [
    "AblationPoint",
    "probe_period_specs",
    "flowlet_timeout_specs",
    "versioning_specs",
    "ablation_specs",
    "to_ablation_points",
    "run_tag_minimization_ablation",
]


@dataclass
class AblationPoint:
    """One ablation measurement."""

    parameter: str
    value: float
    avg_fct_ms: float
    loop_fraction: float
    loop_detections: int
    overhead_ratio: float
    completed: int
    flows: int


def _to_point(parameter: str, value: float, result: RunResult) -> AblationPoint:
    summary = result.summary
    return AblationPoint(
        parameter=parameter,
        value=value,
        avg_fct_ms=summary["avg_fct_ms"],
        loop_fraction=summary["loop_fraction"],
        loop_detections=int(summary["loop_detections"]),
        overhead_ratio=summary["overhead_ratio"],
        completed=int(summary["completed_flows"]),
        flows=int(summary["flows"]),
    )


def _contra_spec(config: ExperimentConfig, load: float, name: str, **overrides) -> ScenarioSpec:
    return ScenarioSpec(
        name=name,
        system="contra",
        topology=fattree_spec(config),
        config=config,
        policy="datacenter",
        workload="web_search",
        load=load,
        seed=config.seed,
        **overrides,
    )


def probe_period_specs(config: ExperimentConfig,
                       periods: Sequence[float] = (0.128, 0.256, 0.512, 1.024),
                       load: float = 0.6) -> List[ScenarioSpec]:
    """FCT and overhead as a function of the probe period (§5.2)."""
    return [_contra_spec(config, load, f"ablation:probe-period:{period}",
                         probe_period=period)
            for period in periods]


def flowlet_timeout_specs(config: ExperimentConfig,
                          timeouts: Sequence[float] = (0.05, 0.2, 0.8, 3.2),
                          load: float = 0.6) -> List[ScenarioSpec]:
    """FCT as a function of the flowlet timeout (§5.3)."""
    return [_contra_spec(config, load, f"ablation:flowlet-timeout:{timeout}",
                         flowlet_timeout=timeout)
            for timeout in timeouts]


def versioning_specs(config: ExperimentConfig, load: float = 0.6) -> List[ScenarioSpec]:
    """Versioned probes (§5.1) vs an unversioned distance-vector variant."""
    return [_contra_spec(config, load, f"ablation:versioning:{use_versioning}",
                         use_versioning=use_versioning)
            for use_versioning in (True, False)]


def ablation_specs(config: ExperimentConfig) -> List[ScenarioSpec]:
    """The three simulation sweeps as one 10-point grid."""
    return (probe_period_specs(config) + flowlet_timeout_specs(config)
            + versioning_specs(config))


def to_ablation_points(specs: Sequence[ScenarioSpec],
                       results: Sequence[RunResult]) -> Dict[str, List[AblationPoint]]:
    """Slice a grid's results into per-sweep point lists by spec-name prefix.

    Each point reports the swept override its own spec carries, so any
    concatenation of the builders above projects the same way.
    """
    points: Dict[str, List[AblationPoint]] = {
        "probe_period": [], "flowlet_timeout": [], "versioning": []}
    for spec, result in zip(specs, results):
        if spec.name.startswith("ablation:probe-period:"):
            points["probe_period"].append(
                _to_point("probe_period_ms", spec.probe_period, result))
        elif spec.name.startswith("ablation:flowlet-timeout:"):
            points["flowlet_timeout"].append(
                _to_point("flowlet_timeout_ms", spec.flowlet_timeout, result))
        else:
            points["versioning"].append(
                _to_point("use_versioning", 1.0 if spec.use_versioning else 0.0, result))
    return points


@dataclass
class TagMinimizationPoint:
    """Compiler statistics with and without tag minimisation."""

    minimize_tags: bool
    pg_nodes: int
    max_tags_per_switch: int
    max_state_kb: float
    compile_time_s: float


def run_tag_minimization_ablation(sizes: Sequence[int] = (20, 125)) -> List[TagMinimizationPoint]:
    """Effect of the tag-minimisation optimisation on a waypointing policy."""
    from repro.topology.fattree import fattree_for_switch_count

    points: List[TagMinimizationPoint] = []
    for size in sizes:
        topology = fattree_for_switch_count(size)
        policy = waypoint_policy_for(topology)
        for minimize_tags in (True, False):
            options = CompileOptions(minimize_tags=minimize_tags)
            compiled = compile_policy(policy, topology, options)
            points.append(TagMinimizationPoint(
                minimize_tags=minimize_tags,
                pg_nodes=compiled.product_graph.num_nodes,
                max_tags_per_switch=compiled.product_graph.max_tags_per_switch(),
                max_state_kb=compiled.max_state_kb(),
                compile_time_s=compiled.compile_time,
            ))
    return points
