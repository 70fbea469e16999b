"""Fluid-plane scenario families: fidelity validation and million-flow scale.

Two grids ride the ``flow_model="fluid"`` data path (ARCHITECTURE.md §7):

* :func:`fluid_fidelity_specs` — the ``fluid-vs-packet`` scenario: every
  (fabric, system, load) point of a small fig11-style datacenter grid and a
  fig15-style Abilene grid run under **both** planes, and the finisher
  reports the median/p99 FCT deltas side by side.  This is the standing
  evidence that the fluid model's rate-integral FCTs track the packet
  oracle's queueing FCTs closely enough to extrapolate from.
* :func:`fluid_million_specs` — the ``fluid-million`` scenario: a fat-tree
  datacenter point sized so the *full* preset offers ≥10^6 flows (the quick
  preset offers 10^5, same regime), with long-timescale failure churn and the
  per-switch HyperLogLog cardinality sketch enabled.  Unreachable under the
  packet plane — the point exists to demonstrate O(epochs × links) scaling
  and is the headline number of the fluid fast path.

Both families are plain spec grids, so they shard, resume and merge through
the results store exactly like every figure scenario.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exceptions import ExperimentError
from repro.experiments.config import ExperimentConfig
from repro.experiments.fct import abilene_pairs, fattree_spec
from repro.experiments.runner import (
    LinkEvent,
    RunResult,
    ScenarioSpec,
    TopologySpec,
    default_failed_link,
)
from repro.topology.abilene import abilene
from repro.topology.fattree import fattree

__all__ = [
    "FidelityPoint",
    "fluid_fidelity_specs",
    "to_fidelity_points",
    "fluid_million_specs",
    "MILLION_FLOW_TARGET_FULL",
    "MILLION_FLOW_TARGET_QUICK",
]

#: The load points the fidelity comparison runs at (the fig11-quick pair).
FIDELITY_LOADS = (0.4, 0.8)

#: Flow-count targets for the million-flow family: the full/default presets
#: size the workload for the headline ≥10^6-flow point, the quick preset for
#: a 10^5-flow point in the same regime (CI-speed, identical code path).
MILLION_FLOW_TARGET_FULL = 1_000_000
MILLION_FLOW_TARGET_QUICK = 100_000

#: Failure churn period (ms) for the million-flow family: one agg–core link
#: fails and recovers on this long timescale throughout the run.
MILLION_CHURN_PERIOD = 50.0


@dataclass
class FidelityPoint:
    """One (fabric, system, load) fluid-vs-packet comparison."""

    fabric: str
    system: str
    load: float
    packet_flows: int
    fluid_flows: int
    packet_p50_ms: float
    fluid_p50_ms: float
    p50_delta_pct: float
    packet_p99_ms: float
    fluid_p99_ms: float
    p99_delta_pct: float


def _fidelity_spec(name: str, flow_model: str, **kwargs) -> ScenarioSpec:
    return ScenarioSpec(
        name=f"{name}:{flow_model}",
        flow_model=flow_model,
        fct_percentiles=(50.0,),
        stop_after_completion=True,
        **kwargs,
    )


def fluid_fidelity_specs(config: ExperimentConfig) -> List[ScenarioSpec]:
    """The ``fluid-vs-packet`` grid: two validation fabrics × both planes.

    Fabric one is the fig11 fat-tree (ecmp + contra under the datacenter
    policy), fabric two the fig15 Abilene WAN (shortest-path + contra under
    the wan policy).  The packet twin of each point carries the packet-plane
    knobs (``respect_compiled_probe_period`` on the WAN); the fluid twin
    leaves every packet-only field at its default, as the fluid validator
    requires.
    """
    specs: List[ScenarioSpec] = []
    dc_topology = fattree_spec(config)
    for load in FIDELITY_LOADS:
        for system in ("ecmp", "contra"):
            for flow_model in ("packet", "fluid"):
                specs.append(_fidelity_spec(
                    f"fidelity:fattree:{system}:{load}", flow_model,
                    system=system,
                    topology=dc_topology,
                    config=config,
                    policy="datacenter",
                    workload="web_search",
                    load=load,
                    seed=config.seed,
                ))
    wan_topology = TopologySpec("abilene", capacity=config.abilene_capacity,
                                hosts_per_switch=1)
    senders, receivers = abilene_pairs(
        abilene(capacity=config.abilene_capacity, hosts_per_switch=1), 4)
    for load in FIDELITY_LOADS:
        for system in ("shortest-path", "contra"):
            for flow_model in ("packet", "fluid"):
                specs.append(_fidelity_spec(
                    f"fidelity:abilene:{system}:{load}", flow_model,
                    system=system,
                    topology=wan_topology,
                    config=config,
                    policy="wan",
                    workload="web_search",
                    load=load,
                    seed=config.seed,
                    workload_host_rate=config.abilene_host_rate,
                    senders=tuple(senders),
                    receivers=tuple(receivers),
                    pair_senders_receivers=True,
                    # Packet-plane-only knob (see abilene_fct_specs); the
                    # fluid plane has no probes to pace.
                    respect_compiled_probe_period=(flow_model == "packet"),
                ))
    return specs


def _delta_pct(packet: float, fluid: float) -> float:
    if packet != packet or packet == 0.0:  # NaN or empty
        return float("nan")
    return (fluid - packet) / packet * 100.0


def to_fidelity_points(results: Sequence[RunResult]) -> List[FidelityPoint]:
    """Pair each point's packet and fluid runs into comparison rows."""
    by_key: Dict[Tuple[str, str, float], Dict[str, RunResult]] = {}
    for result in results:
        prefix, _, flow_model = result.name.rpartition(":")
        fabric = prefix.split(":")[1]
        by_key.setdefault((fabric, result.system, result.load), {})[flow_model] = result
    points: List[FidelityPoint] = []
    for (fabric, system, load), pair in by_key.items():
        if set(pair) != {"packet", "fluid"}:
            raise ExperimentError(
                f"fidelity point ({fabric}, {system}, {load}) is missing its "
                f"{sorted({'packet', 'fluid'} - set(pair))} twin")
        packet, fluid = pair["packet"].summary, pair["fluid"].summary
        points.append(FidelityPoint(
            fabric=fabric,
            system=system,
            load=load,
            packet_flows=int(packet["flows"]),
            fluid_flows=int(fluid["flows"]),
            packet_p50_ms=packet["p50_fct_ms"],
            fluid_p50_ms=fluid["p50_fct_ms"],
            p50_delta_pct=_delta_pct(packet["p50_fct_ms"], fluid["p50_fct_ms"]),
            packet_p99_ms=packet["p99_fct_ms"],
            fluid_p99_ms=fluid["p99_fct_ms"],
            p99_delta_pct=_delta_pct(packet["p99_fct_ms"], fluid["p99_fct_ms"]),
        ))
    return points


def _million_flow_target(config: ExperimentConfig) -> int:
    """Preset-scaled flow target, keyed off the workload duration.

    The quick preset scales durations by 0.4 (< the default 30 ms), which is
    the one deterministic marker a config carries of "CI speed" — presets are
    plain configs, so the family sizes itself from the same field every other
    scenario scales with.
    """
    if config.workload_duration < 30.0:
        return MILLION_FLOW_TARGET_QUICK
    return MILLION_FLOW_TARGET_FULL


def fluid_million_specs(
    config: ExperimentConfig,
    systems: Sequence[str] = ("ecmp", "contra"),
    flow_target: Optional[int] = None,
) -> List[ScenarioSpec]:
    """The ``fluid-million`` grid: a datacenter-scale fluid point per system.

    Regime: k=8 fat-tree at 1:1 oversubscription, web-search flows at 40%
    offered load with a per-flow window cap of 8 packets, plus one agg–core
    link failing and recovering every :data:`MILLION_CHURN_PERIOD` ms for the
    whole run.  The workload duration is derived from ``flow_target`` (the
    arrival process is Poisson, so the realised count fluctuates ~±0.3%
    around it); the workload streams lazily, so the flow list never
    materializes.
    """
    if flow_target is None:
        flow_target = _million_flow_target(config)
    topology_spec = TopologySpec("fattree", k=8, capacity=config.host_capacity,
                                 oversubscription=1.0)
    topology = topology_spec.build()
    sender_count = (len(topology.hosts) + 1) // 2
    load = 0.4
    # The workload generator is a runtime plane: loaded where it draws.
    from repro.workloads.distributions import distribution_by_name
    distribution = distribution_by_name("web_search", config.websearch_scale)
    per_sender_rate = load * config.host_capacity / distribution.mean()
    duration = flow_target / (sender_count * per_sender_rate)

    # Long-timescale churn: alternate fail/recover of one agg–core link every
    # churn period across the arrival window.
    link = default_failed_link(topology)
    events: List[LinkEvent] = []
    time, failed = MILLION_CHURN_PERIOD, False
    while time < config.warmup + duration:
        events.append(LinkEvent(time, link[0], link[1],
                                "recover" if failed else "fail"))
        failed = not failed
        time += MILLION_CHURN_PERIOD
    if failed:
        events.append(LinkEvent(time, link[0], link[1], "recover"))

    million_config = replace(config, host_window=8, workload_duration=duration,
                             run_duration=config.warmup + duration + 100.0)
    return [
        ScenarioSpec(
            name=f"fluid-million:{system}:{flow_target}",
            system=system,
            topology=topology_spec,
            config=million_config,
            policy="datacenter",
            workload="web_search",
            load=load,
            seed=config.seed,
            events=tuple(events),
            flow_model="fluid",
            flow_sketch=True,
            fct_percentiles=(50.0,),
            stop_after_completion=True,
        )
        for system in systems
    ]
