"""Failure and recovery experiments (Figure 14 and the scenario-diversity runs).

The paper sends constant-rate UDP traffic across a fat-tree, fails an
aggregation–core link mid-run, and plots the aggregate received throughput
over time: both Contra and Hula detect the failure within a few probe periods
and recover the throughput within about a millisecond.

Four grids live here, each a pure spec builder (``*_specs``) whose results
:func:`~repro.experiments.runner.run_grid` returns and a projection turns
into the report rows:

* :func:`failure_recovery_specs` → :func:`analyse_recovery_results` — the
  Figure 14 timeline (single permanent failure on a fat-tree) plus measured
  detection and recovery delays;
* :func:`recovery_sweep_specs` → :func:`analyse_recovery_sweep_results` — a
  fail→recover schedule on a (non-square) leaf-spine: throughput dips at the
  failure and must return to the baseline after the link comes back (§6.3's
  "and back" half that a permanent failure cannot exercise);
* :func:`multi_failure_specs` — a sequence of distant link failures on a
  Topology-Zoo WAN (the Crux-style scenario), comparing how static and
  probe-driven systems degrade; its report is the plain result grid;
* :func:`recovery_curve_specs` → :func:`analyse_recovery_curve` — a grid
  whose swept axis is the ``events`` schedule itself: one fail→recover cycle
  per outage duration, yielding the recovery-time vs dip-depth curve.

A projection must be given the same schedule instants the builder was, which
is why their defaults are the shared module constants below.  Because
building, executing and projecting are separate, the registry runs the same
grid through any :class:`~repro.experiments.runner.ExecutionBackend` —
including the resumable, store-backed coordinated drain — and finishes it
from stored results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.nputil import mean as _mean

from repro.exceptions import POSITIVE, ExperimentError, require
from repro.experiments.config import ExperimentConfig
from repro.experiments.fct import agg_core_failure, fattree_spec
from repro.experiments.runner import (
    LinkEvent,
    RunResult,
    ScenarioSpec,
    TopologySpec,
)

__all__ = [
    "RecoveryResult",
    "failure_recovery_specs",
    "analyse_recovery_results",
    "RecoverySweepResult",
    "recovery_sweep_specs",
    "analyse_recovery_sweep_results",
    "MULTI_FAILURE_DEFAULT_EVENTS",
    "multi_failure_specs",
    "RecoveryCurvePoint",
    "RECOVERY_CURVE_DEFAULT_OUTAGES",
    "recovery_curve_specs",
    "analyse_recovery_curve",
]

#: Figure 14 schedule defaults, shared by the spec builder and the
#: result-side analysis (the analysis must use the same instants the spec
#: builder injected).
FIG14_FAILURE_TIME = 30.0
FIG14_RUN_DURATION = 60.0

#: Recovery-sweep schedule defaults (same sharing rationale).
SWEEP_FAIL_TIME = 10.0
SWEEP_RECOVER_TIME = 25.0
SWEEP_RUN_DURATION = 40.0


@dataclass
class RecoveryResult:
    """Throughput timeline around a link failure for one routing system."""

    system: str
    failure_time: float
    #: (time ms, delivered packets/ms) series, one entry per millisecond bin.
    throughput: List[Tuple[float, float]]
    baseline_rate: float
    #: Time (ms after failure) of the first throughput bin showing a loss of
    #: more than max(1 packet/ms, 5%) versus the pre-failure rate; NaN if the
    #: failure never produced a visible dip.
    dip_delay: float
    #: Time (ms after failure) of the first later bin back above that
    #: threshold; NaN if throughput never recovered within the run.
    recovery_delay: float
    failure_detections: int

    @property
    def recovered(self) -> bool:
        return not math.isnan(self.recovery_delay)


def failure_recovery_specs(
    config: ExperimentConfig,
    systems: Sequence[str] = ("contra", "hula"),
    stream_rate: Optional[float] = None,
    failure_time: float = FIG14_FAILURE_TIME,
    run_duration: float = FIG14_RUN_DURATION,
    streams_per_pair: int = 1,
) -> List[ScenarioSpec]:
    """The Figure 14 grid (one permanent fat-tree failure per system) as specs."""
    if stream_rate is None:
        # The paper sends a stable 4.25 Gbps over a fabric with ample headroom:
        # rerouting around the failed link must be able to restore the full
        # rate even if the rerouted flowlets concentrate on one core link.
        # 6% of the host capacity per stream makes the dip visible (the
        # streams crossing the failed link lose several packets during the
        # detection window) while guaranteeing that the rerouted traffic fits
        # on the remaining core links of the 4:1 scaled fabric even if every
        # affected flowlet lands on the same one.
        stream_rate = 0.06 * config.host_capacity
    topology = fattree_spec(config)
    events = agg_core_failure(topology, failure_time)
    return [
        ScenarioSpec(
            name=f"recovery:{system}",
            system=system,
            topology=topology,
            config=config,
            policy="datacenter",
            workload="",
            traffic="streams",
            stream_rate=stream_rate,
            streams_per_pair=streams_per_pair,
            events=events,
            run_duration=run_duration,
            collect_throughput=True,
        )
        for system in systems
    ]


def analyse_recovery_results(results: Sequence[RunResult],
                             failure_time: float = FIG14_FAILURE_TIME,
                             ) -> Dict[str, RecoveryResult]:
    """Project Figure 14 grid results onto per-system recovery timelines."""
    analysed: Dict[str, RecoveryResult] = {}
    for result in results:
        analysed[result.system] = _analyse(
            result.system, result.throughput or [], failure_time,
            int(result.summary["failure_detections"]))
    return analysed


def _baseline(series: List[Tuple[float, float]], start: float,
              fail_time: float) -> Tuple[float, float]:
    """The pre-failure rate and the dip threshold below it.

    The rate is the mean over the bins in ``[start, fail_time - 1)`` (0.0
    without any).  A dip is any bin losing more than one packet/ms (or 5%,
    whichever is larger) relative to it.
    """
    before = [rate for time, rate in series if start <= time < fail_time - 1.0]
    baseline = _mean(before) if before else 0.0
    return baseline, baseline - max(1.0, 0.05 * baseline)


def _analyse(system: str, series: List[Tuple[float, float]], failure_time: float,
             failure_detections: int) -> RecoveryResult:
    if not series:
        return RecoveryResult(system, failure_time, [], 0.0, float("nan"), float("nan"),
                              failure_detections)
    # Recovery is the first bin after the dip back above the threshold.
    baseline, threshold = _baseline(series, 5.0, failure_time)

    dip_delay = float("nan")
    recovery_delay = float("nan")
    dipped = False
    for time, rate in series:
        if time < failure_time:
            continue
        if not dipped and rate < threshold:
            dipped = True
            dip_delay = time - failure_time
        elif dipped and rate >= threshold and math.isnan(recovery_delay):
            recovery_delay = time - failure_time
    return RecoveryResult(
        system=system,
        failure_time=failure_time,
        throughput=series,
        baseline_rate=baseline,
        dip_delay=dip_delay,
        recovery_delay=recovery_delay,
        failure_detections=failure_detections,
    )


# =============================================================================
# Fail→recover sweep (leaf-spine) and multi-failure schedules (WAN)
# =============================================================================

@dataclass
class RecoverySweepResult:
    """Throughput timeline around a fail→recover schedule for one system."""

    system: str
    fail_time: float
    recover_time: float
    throughput: List[Tuple[float, float]]
    baseline_rate: float
    #: ms after the failure of the first visibly dipped throughput bin
    #: (NaN if the dip was too small to register).
    dip_delay: float
    #: mean delivered rate measured after the link came back.
    post_recovery_rate: float

    @property
    def recovery_ratio(self) -> float:
        """Post-recovery rate as a fraction of the pre-failure baseline."""
        if self.baseline_rate <= 0:
            return float("nan")
        return self.post_recovery_rate / self.baseline_rate


def recovery_sweep_topology(config: ExperimentConfig) -> TopologySpec:
    """The non-square leaf-spine fabric of the recovery sweep (4 leaves, 2 spines)."""
    return TopologySpec("leafspine", leaves=4, spines=2, hosts_per_switch=2,
                        capacity=config.host_capacity, oversubscription=1.0)


def recovery_sweep_specs(
    config: ExperimentConfig,
    systems: Sequence[str] = ("contra", "hula"),
    fail_time: float = SWEEP_FAIL_TIME,
    recover_time: float = SWEEP_RECOVER_TIME,
    run_duration: float = SWEEP_RUN_DURATION,
    stream_rate: Optional[float] = None,
    streams_per_pair: int = 4,
    failed_link: Tuple[str, str] = ("spine0", "leaf2"),
) -> List[ScenarioSpec]:
    """Fail a leaf-spine link mid-run and bring it back: the full cycle.

    Constant-rate streams cross the fabric; the schedule fails
    ``failed_link`` at ``fail_time`` and recovers it at ``recover_time``.
    The default failure is a spine *down-link* towards a receiver leaf — a
    failure **remote** from the sending leaves' path choice, so traffic
    pinned through that spine blackholes until probe silence exposes it
    (failing a sender-adjacent uplink would be absorbed instantly by the
    local ``link_failed`` check and never dip).  Throughput must dip at the
    failure and return to the pre-failure baseline once probes flow through
    the recovered link again.
    """
    if not 0 <= fail_time < recover_time < run_duration:
        raise ExperimentError(
            f"recovery sweep needs 0 <= fail_time < recover_time < "
            f"run_duration, got {fail_time!r}, {recover_time!r}, "
            f"{run_duration!r}")
    if stream_rate is None:
        stream_rate = 0.06 * config.host_capacity
    return [
        ScenarioSpec(
            name=f"recovery-sweep:{system}",
            system=system,
            topology=recovery_sweep_topology(config),
            config=config,
            policy="datacenter",
            workload="",
            traffic="streams",
            stream_rate=stream_rate,
            streams_per_pair=streams_per_pair,
            events=(LinkEvent(fail_time, failed_link[0], failed_link[1], "fail"),
                    LinkEvent(recover_time, failed_link[0], failed_link[1], "recover")),
            run_duration=run_duration,
            collect_throughput=True,
        )
        for system in systems
    ]


def analyse_recovery_sweep_results(results: Sequence[RunResult],
                                   fail_time: float = SWEEP_FAIL_TIME,
                                   recover_time: float = SWEEP_RECOVER_TIME,
                                   ) -> Dict[str, RecoverySweepResult]:
    """Project fail→recover grid results onto per-system sweep timelines."""
    analysed: Dict[str, RecoverySweepResult] = {}
    for result in results:
        analysed[result.system] = _analyse_sweep(
            result.system, result.throughput or [], fail_time, recover_time)
    return analysed


def _analyse_sweep(system: str, series: List[Tuple[float, float]], fail_time: float,
                   recover_time: float) -> RecoverySweepResult:
    baseline, threshold = _baseline(series, 2.0, fail_time)
    dip_delay = float("nan")
    for time, rate in series:
        if time >= fail_time and rate < threshold:
            dip_delay = time - fail_time
            break
    # Give the recovered link one millisecond of settling before measuring,
    # and stop short of the final bin, which may be truncated by the run end —
    # unless that final bin is the only post-recovery sample available.
    after = [rate for time, rate in series[:-1] if time >= recover_time + 1.0]
    if not after:
        after = [rate for time, rate in series if time >= recover_time + 1.0]
    post = _mean(after) if after else float("nan")
    return RecoverySweepResult(
        system=system,
        fail_time=fail_time,
        recover_time=recover_time,
        throughput=series,
        baseline_rate=baseline,
        dip_delay=dip_delay,
        post_recovery_rate=post,
    )


#: Two geographically distant NSFNET failures (west-coast feed, then the
#: NY–NJ east-coast link) — a Crux-style sequence that forces rerouting
#: decisions far from the first failure while the backbone stays connected.
MULTI_FAILURE_DEFAULT_EVENTS: Tuple[Tuple[float, str, str, str], ...] = (
    (6.0, "WA", "IL", "fail"),
    (12.0, "NY", "NJ", "fail"),
)


def multi_failure_topology(config: ExperimentConfig, name: str = "nsfnet") -> TopologySpec:
    """The Topology-Zoo WAN the multi-failure scenario runs on."""
    return TopologySpec("zoo", name=name, hosts_per_switch=1,
                        capacity=config.abilene_capacity)


def multi_failure_specs(
    config: ExperimentConfig,
    systems: Sequence[str] = ("shortest-path", "contra"),
    events: Sequence[Tuple[float, str, str, str]] = MULTI_FAILURE_DEFAULT_EVENTS,
    topology_name: str = "nsfnet",
    workload: str = "web_search",
    load: float = 0.6,
) -> List[ScenarioSpec]:
    """A sequence of link failures on a WAN, as a plain grid of scenarios.

    Static shortest-path routing keeps sending into the failed links and
    loses the affected flows; Contra's probes route around each failure in
    turn.  The results' summaries carry completion counts and drops for the
    report table.
    """
    schedule = tuple(LinkEvent(*event) for event in events)
    return [
        ScenarioSpec(
            name=f"multi-failure:{system}",
            system=system,
            topology=multi_failure_topology(config, topology_name),
            config=config,
            policy="wan",
            workload=workload,
            load=load,
            seed=config.seed,
            events=schedule,
            respect_compiled_probe_period=True,
        )
        for system in systems
    ]


# =============================================================================
# Recovery curve: a grid whose axis is the fail→recover schedule itself
# =============================================================================

@dataclass
class RecoveryCurvePoint:
    """One (system, outage duration) point of the recovery curve."""

    system: str
    outage_ms: float
    fail_time: float
    recover_time: float
    baseline_rate: float
    #: Deepest relative throughput loss during the outage window:
    #: ``(baseline - min_rate) / baseline``; NaN without a baseline.
    dip_depth: float
    #: ms after the failure of the first visibly dipped bin (NaN if none).
    dip_delay: float
    #: ms after the *recovery* event until throughput first returns to >= 95%
    #: of the pre-failure baseline; NaN if it never does within the run.
    recovery_time_ms: float


#: Outage durations (ms) the default recovery curve sweeps.  Short outages
#: probe the detection window (the dip may not fully develop before the link
#: returns); long ones probe steady-state rerouting and the cost of coming
#: back.
RECOVERY_CURVE_DEFAULT_OUTAGES: Tuple[float, ...] = (2.0, 5.0, 10.0)

#: Schedule frame for the curve: every point fails at the same instant and
#: simulates the same settle-out tail after its recovery.
CURVE_FAIL_TIME = 10.0
CURVE_TAIL = 15.0


def recovery_curve_specs(
    config: ExperimentConfig,
    systems: Sequence[str] = ("contra", "hula"),
    outages: Sequence[float] = RECOVERY_CURVE_DEFAULT_OUTAGES,
    fail_time: float = CURVE_FAIL_TIME,
    stream_rate: Optional[float] = None,
    streams_per_pair: int = 4,
    failed_link: Tuple[str, str] = ("spine0", "leaf2"),
) -> List[ScenarioSpec]:
    """A grid whose swept axis is the ``events`` schedule, not a scalar.

    Each grid point carries a different fail→recover schedule (same failure
    instant, different outage duration), which is exactly the ROADMAP's
    "sweeps that grid over schedules": the declarative ``events`` tuple
    makes an outage-duration sweep an ordinary spec grid with the full
    determinism and shardability contracts.  An outage must be a finite
    number > 0: any other puts the recover event at or before the failure.
    """
    for outage in outages:
        require("recovery curve outage", outage, POSITIVE, ExperimentError)
    if stream_rate is None:
        stream_rate = 0.06 * config.host_capacity
    return [
        ScenarioSpec(
            name=f"recovery-curve:{system}:{outage}ms",
            system=system,
            topology=recovery_sweep_topology(config),
            config=config,
            policy="datacenter",
            workload="",
            traffic="streams",
            stream_rate=stream_rate,
            streams_per_pair=streams_per_pair,
            events=(LinkEvent(fail_time, failed_link[0], failed_link[1], "fail"),
                    LinkEvent(fail_time + outage, failed_link[0], failed_link[1],
                              "recover")),
            run_duration=fail_time + outage + CURVE_TAIL,
            collect_throughput=True,
        )
        for outage in outages
        for system in systems
    ]


def analyse_recovery_curve(results: Sequence[RunResult],
                           fail_time: float = CURVE_FAIL_TIME,
                           ) -> List[RecoveryCurvePoint]:
    """Project the schedule grid onto (dip depth, recovery time) points.

    The outage duration is recovered from each spec's own schedule via the
    result name (``recovery-curve:<system>:<outage>ms``), so the analysis
    needs no side channel beyond the grid results themselves.
    """
    points: List[RecoveryCurvePoint] = []
    for result in results:
        outage = float(result.name.rsplit(":", 1)[1].removesuffix("ms"))
        recover_time = fail_time + outage
        series = result.throughput or []
        baseline, threshold = _baseline(series, 2.0, fail_time)

        dip_delay = float("nan")
        min_rate = baseline
        for time, rate in series:
            if fail_time <= time < recover_time + 1.0:
                min_rate = min(min_rate, rate)
                if math.isnan(dip_delay) and rate < threshold:
                    dip_delay = time - fail_time
        dip_depth = (baseline - min_rate) / baseline if baseline > 0 else float("nan")

        recovery_time = float("nan")
        for time, rate in series:
            if time >= recover_time and rate >= 0.95 * baseline:
                recovery_time = time - recover_time
                break
        points.append(RecoveryCurvePoint(
            system=result.system,
            outage_ms=outage,
            fail_time=fail_time,
            recover_time=recover_time,
            baseline_rate=baseline,
            dip_depth=dip_depth,
            dip_delay=dip_delay,
            recovery_time_ms=recovery_time,
        ))
    return points
