"""Traffic-overhead experiment (Figure 16 and the §6.5 loop measurement).

Figure 16 reports, for 10% and 60% load under both workloads, the total
traffic each system places on the wire normalised by ECMP.  Contra's extra
traffic comes from probes and per-packet tags; Hula's from its (smaller)
probes.  §6.5 additionally reports the fraction of traffic that experienced a
transient loop under the MU policy.

Because the simulator runs with scaled-down link capacities (DESIGN.md §4),
the *raw* probe-to-data ratio is inflated by the capacity scale: probes are
sent per real-time probe period while the links carry roughly two orders of
magnitude less data than 10 Gbps hardware would in the same period.  The
projection (:func:`to_overhead_points`) therefore reports both the raw ratio
and a capacity-corrected ratio (probe bytes divided by :data:`CAPACITY_SCALE`),
and EXPERIMENTS.md quotes the corrected number next to the paper's 0.79%.

Runs full-duration (no early stop): the probe byte budget is the measurement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.experiments.config import ExperimentConfig
from repro.experiments.fct import fattree_spec
from repro.experiments.runner import RunResult, ScenarioSpec

__all__ = ["OverheadPoint", "overhead_specs", "to_overhead_points", "CAPACITY_SCALE"]

#: Ratio between the paper's 10 Gbps links (~833 full packets per ms) and the
#: simulator's default 100 packets/ms hosts — the factor by which the scaled
#: simulation under-represents data bytes per probe period.
CAPACITY_SCALE = 8.33


@dataclass
class OverheadPoint:
    """Traffic accounting for one (workload, load, system) run."""

    workload: str
    load: float
    system: str
    data_bytes: float
    ack_bytes: float
    probe_bytes: float
    tag_bytes: float
    total_bytes: float
    #: traffic inflation factor (data+ack+control)/(data+ack); equals the
    #: paper's "normalised by ECMP" because ECMP carries no control traffic.
    normalized_vs_ecmp: float
    #: same, after dividing control bytes by the capacity scale (DESIGN.md §4).
    normalized_vs_ecmp_scaled: float
    loop_fraction: float


def overhead_specs(config: ExperimentConfig) -> List[ScenarioSpec]:
    """The Figure 16 traffic-overhead grid (both workloads at 10% and 60% load) as specs."""
    return [
        ScenarioSpec(
            name=f"overhead:{workload}:{load}:{system}",
            system=system,
            topology=fattree_spec(config),
            config=config,
            policy="datacenter",
            workload=workload,
            load=load,
            seed=config.seed,
            record_paths=True,
        )
        for workload in ("web_search", "cache")
        for load in (0.1, 0.6)
        for system in ("ecmp", "hula", "contra")
    ]


def to_overhead_points(results: Sequence[RunResult]) -> List[OverheadPoint]:
    """Project grid results onto the overhead report rows."""
    points: List[OverheadPoint] = []
    for result in results:
        summary = result.summary
        control = summary["probe_bytes"] + summary["tag_overhead_bytes"]
        goodput = summary["data_bytes"] + summary["ack_bytes"]
        total = goodput + control
        scaled_total = goodput + control / CAPACITY_SCALE
        # The paper normalises each system's total traffic by ECMP's.  In its
        # testbed every system transmits (essentially) the same data volume,
        # so that equals the per-system inflation factor total/(data+ack); we
        # report the inflation factor directly so that retransmission-volume
        # differences between transports do not contaminate the
        # control-overhead comparison.
        points.append(OverheadPoint(
            workload=result.workload,
            load=result.load,
            system=result.system,
            data_bytes=summary["data_bytes"],
            ack_bytes=summary["ack_bytes"],
            probe_bytes=summary["probe_bytes"],
            tag_bytes=summary["tag_overhead_bytes"],
            total_bytes=total,
            normalized_vs_ecmp=total / goodput if goodput else 1.0,
            normalized_vs_ecmp_scaled=scaled_total / goodput if goodput else 1.0,
            loop_fraction=summary["loop_fraction"],
        ))
    return points
