"""Flow-completion-time experiments (Figures 11, 12, 13 and 15).

* :func:`fattree_fct_specs` — symmetric fat-tree, ECMP vs Contra vs Hula over
  the web-search and cache workloads as load sweeps (Figure 11); with
  ``asymmetric=True`` a failed aggregation–core link gives the asymmetric
  variant (Figure 12);
* :func:`queue_cdf_specs` — queue-length CDF of Contra vs ECMP at 60% load on
  the asymmetric fat-tree (Figure 13);
* :func:`abilene_fct_specs` — shortest-path vs Contra(MU) vs SPAIN on Abilene
  with four random sender/receiver pairs (Figure 15);
* :func:`incast_specs`, :func:`transport_sensitivity_specs` and
  :func:`flow_size_sensitivity_specs` — the fan-in, transport-mode and
  flow-size sensitivity grids.

Every figure is a pure spec builder (``*_specs``) run through
:func:`~repro.experiments.runner.run_grid` — so every sweep parallelizes
across cores (``processes=`` / ``$CONTRA_PROCS``) and drains into a results
store without any change to the results — and projected by
:func:`to_fct_points` (or, for Figure 13, each result's ``queue_cdf``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.exceptions import ExperimentError
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import (LinkEvent, RunResult, ScenarioSpec,
                                      TopologySpec, default_failed_link)
from repro.topology.abilene import abilene
from repro.topology.graph import Topology

__all__ = [
    "FctPoint",
    "fattree_spec",
    "agg_core_failure",
    "fattree_fct_specs",
    "abilene_fct_specs",
    "queue_cdf_specs",
    "incast_specs",
    "transport_sensitivity_specs",
    "flow_size_sensitivity_specs",
    "to_fct_points",
]


@dataclass
class FctPoint:
    """One (workload, load, system) measurement."""

    workload: str
    load: float
    system: str
    avg_fct_ms: float
    p99_fct_ms: float
    completed: int
    flows: int
    drops: int
    overhead_ratio: float
    loop_fraction: float


def fattree_spec(config: ExperimentConfig) -> TopologySpec:
    """The shared fat-tree topology description of the datacenter experiments."""
    return TopologySpec("fattree", k=config.fattree_k, capacity=config.host_capacity,
                        oversubscription=config.oversubscription)


def agg_core_failure(topology: TopologySpec,
                     time: float = 0.0) -> Tuple[LinkEvent, ...]:
    """The §6.3 asymmetry as a schedule: one aggregation–core link fails at ``time``."""
    return (LinkEvent(time, *default_failed_link(topology.build()), "fail"),)


#: Default sender/receiver city pairs for the Abilene experiment.  The paper
#: picks four random pairs; we fix four pairs whose shortest paths all collide
#: on the IPL–CHI link while the backbone still has spare capacity on the
#: ATL–WDC–NYC side.  Static shortest-path routing therefore congests a single
#: link, SPAIN's pre-computed path sets spread some of the load, and Contra's
#: utilization-aware routing spreads it dynamically — the Figure 15 contrast.
ABILENE_DEFAULT_PAIRS = (
    ("DEN", "NYC"),
    ("KSC", "NYC"),
    ("HOU", "CHI"),
    ("ATL", "CHI"),
)


def abilene_pairs(topology: Topology, pairs: int) -> Tuple[List[str], List[str]]:
    """Sender/receiver hosts for the Figure 15 experiment (coast-to-coast)."""
    if not (type(pairs) is int and 1 <= pairs <= len(ABILENE_DEFAULT_PAIRS)):
        raise ExperimentError(
            f"Abilene pairs={pairs!r} must be an integer in "
            f"[1, {len(ABILENE_DEFAULT_PAIRS)}]")
    chosen = ABILENE_DEFAULT_PAIRS[:pairs]
    senders = [topology.hosts_of_switch(src)[0] for src, _ in chosen]
    receivers = [topology.hosts_of_switch(dst)[0] for _, dst in chosen]
    return senders, receivers


def fattree_fct_specs(
    config: ExperimentConfig,
    systems: Sequence[str] = ("ecmp", "contra", "hula"),
    workloads: Sequence[str] = ("web_search", "cache"),
    loads: Optional[Sequence[float]] = None,
    asymmetric: bool = False,
) -> List[ScenarioSpec]:
    """The Figure 11 (symmetric) / Figure 12 (asymmetric) grid as specs."""
    loads = tuple(loads) if loads is not None else config.loads
    topology = fattree_spec(config)
    events = agg_core_failure(topology) if asymmetric else ()
    return [
        ScenarioSpec(
            name=f"fct:{workload}:{load}:{system}",
            system=system,
            topology=topology,
            config=config,
            policy="datacenter",
            workload=workload,
            load=load,
            seed=config.seed,
            events=events,
            stop_after_completion=True,
        )
        for workload in workloads
        for load in loads
        for system in systems
    ]


def abilene_fct_specs(
    config: ExperimentConfig,
    systems: Sequence[str] = ("shortest-path", "contra", "spain"),
    workloads: Sequence[str] = ("web_search", "cache"),
    loads: Optional[Sequence[float]] = None,
    pairs: int = 4,
) -> List[ScenarioSpec]:
    """The Figure 15 grid on the Abilene topology as specs."""
    loads = tuple(loads) if loads is not None else config.loads
    topo_spec = TopologySpec("abilene", capacity=config.abilene_capacity,
                             hosts_per_switch=1)
    senders, receivers = abilene_pairs(
        abilene(capacity=config.abilene_capacity, hosts_per_switch=1), pairs)
    return [
        ScenarioSpec(
            name=f"abilene:{workload}:{load}:{system}",
            system=system,
            topology=topo_spec,
            config=config,
            policy="wan",
            workload=workload,
            load=load,
            seed=config.seed,
            workload_host_rate=config.abilene_host_rate,
            senders=tuple(senders),
            receivers=tuple(receivers),
            pair_senders_receivers=True,
            # A WAN's best (least-utilized) paths can be much longer in
            # propagation delay than its shortest paths, so the probe period
            # must respect the compiler's RTT-derived bound (§5.2) rather
            # than the datacenter default.
            respect_compiled_probe_period=True,
            stop_after_completion=True,
        )
        for workload in workloads
        for load in loads
        for system in systems
    ]


def queue_cdf_specs(
    config: ExperimentConfig,
    systems: Sequence[str] = ("ecmp", "contra"),
    load: float = 0.6,
    workload: str = "web_search",
    cdf_points: Sequence[float] = (0.5, 0.75, 0.9, 0.95, 0.99, 1.0),
) -> List[ScenarioSpec]:
    """The Figure 13 queue-length CDF grid as specs."""
    topology = fattree_spec(config)
    events = agg_core_failure(topology)
    return [
        ScenarioSpec(
            name=f"queue-cdf:{system}",
            system=system,
            topology=topology,
            config=config,
            policy="datacenter",
            workload=workload,
            load=load,
            seed=config.seed,
            events=events,
            cdf_points=tuple(cdf_points),
            stop_after_completion=True,
        )
        for system in systems
    ]


def incast_specs(
    config: ExperimentConfig,
    systems: Sequence[str] = ("ecmp", "contra", "hula"),
    fanins: Sequence[int] = (4, 8),
    load: float = 0.8,
    workload: str = "cache",
) -> List[ScenarioSpec]:
    """The N-to-1 fan-in grid on the fat-tree (the Harmonia-style workload).

    ``load`` is the offered load at the *receiver's* access link; the grid
    sweeps the fan-in degree, showing how each system copes as more senders
    converge on one host.
    """
    return [
        ScenarioSpec(
            name=f"incast:{fanin}to1:{system}",
            system=system,
            topology=fattree_spec(config),
            config=config,
            policy="datacenter",
            workload=workload,
            load=load,
            seed=config.seed,
            traffic="incast",
            incast_fanin=fanin,
            stop_after_completion=True,
        )
        for fanin in fanins
        for system in systems
    ]


def transport_sensitivity_specs(
    config: ExperimentConfig,
    systems: Sequence[str] = ("ecmp", "contra"),
    transports: Sequence[str] = ("fixed", "slowstart", "paced"),
    loads: Optional[Sequence[float]] = None,
    workload: str = "web_search",
) -> List[ScenarioSpec]:
    """Transport mode × load on the asymmetric fat-tree (Figure 13 setting).

    A fixed-window sender blasts a full window at flow start, which both
    inflates tail queues and masks how much of the Contra-vs-ECMP tail gap
    is transport artefact rather than routing; rerunning the comparison
    under every transport mode quantifies that sensitivity.
    """
    loads = tuple(loads) if loads is not None else config.loads
    topology = fattree_spec(config)
    events = agg_core_failure(topology)
    return [
        ScenarioSpec(
            name=f"transport:{transport}:{workload}:{load}:{system}",
            system=system,
            topology=topology,
            config=config,
            policy="datacenter",
            workload=workload,
            load=load,
            seed=config.seed,
            transport=transport,
            events=events,
            stop_after_completion=True,
        )
        for transport in transports
        for load in loads
        for system in systems
    ]


def flow_size_sensitivity_specs(
    config: ExperimentConfig,
    systems: Sequence[str] = ("ecmp", "contra"),
    scale_factors: Sequence[float] = (0.5, 1.0, 2.0),
    load: float = 0.6,
    workload: str = "web_search",
) -> List[ScenarioSpec]:
    """The flow-size sensitivity grid: ``workload_scale`` × system as specs.

    Each factor multiplies the config's per-workload distribution scale
    (``websearch_scale`` / ``cache_scale``), so ``1.0`` reproduces the
    standard sweep point and the other factors shrink/grow every flow while
    keeping arrivals and pairings identical — isolating how each system's
    FCT advantage depends on flow size (short flows barely see flowlet
    rerouting; long flows live or die by it).
    """
    base_scale = {"web_search": config.websearch_scale,
                  "cache": config.cache_scale}.get(workload, 1.0)
    return [
        ScenarioSpec(
            name=f"flow-size:{factor}x:{system}",
            system=system,
            topology=fattree_spec(config),
            config=config,
            policy="datacenter",
            workload=workload,
            load=load,
            seed=config.seed,
            workload_scale=base_scale * factor,
            stop_after_completion=True,
        )
        for factor in scale_factors
        for system in systems
    ]


def to_fct_points(results: Sequence[RunResult]) -> List[FctPoint]:
    """Project grid results onto the FCT report rows."""
    return [_to_point(result) for result in results]


def _to_point(result: RunResult) -> FctPoint:
    summary = result.summary
    return FctPoint(
        workload=result.workload,
        load=result.load,
        system=result.system,
        avg_fct_ms=summary["avg_fct_ms"],
        p99_fct_ms=summary["p99_fct_ms"],
        completed=int(summary["completed_flows"]),
        flows=int(summary["flows"]),
        drops=int(summary["drops"]),
        overhead_ratio=summary["overhead_ratio"],
        loop_fraction=summary["loop_fraction"],
    )
