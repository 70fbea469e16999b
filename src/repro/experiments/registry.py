"""Named experiment scenarios for the grid runner.

The registry maps a scenario name (``fig11``, ``fig13``, ``ablations``, …) to
its runner.  ``contra run-grid`` and the benchmark harness both resolve
experiments through this table, so the CLI, the benchmarks and the library
always run the same code path.

Two kinds of entries exist:

* a :class:`GridScenario` — the declarative form: a pure **spec builder**
  (``config -> [ScenarioSpec]``) plus a pure **finisher**
  (``config, [RunResult] -> ScenarioOutcome``).  Because building the grid
  and reporting over its results are separated from *executing* it, a grid
  scenario runs through any :class:`~repro.experiments.runner
  .ExecutionBackend` — including the lease-coordinated drain into a results
  store (:func:`run_scenario_coordinated`) — and :func:`merge_scenario` can
  reassemble the exact unsharded report from the store;
* a legacy callable ``(config, processes) -> ScenarioOutcome``, which
  cannot use a results store.  Only ``fig9-10`` is left here, and for a
  reason: its records *are* wall-clock compile times, which differ from run
  to run, so they cannot live in a store whose resume, merge and duplicate
  checks all rest on a point's record being byte-identical whoever ran it.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.exceptions import ExperimentError
from repro.experiments import report
from repro.experiments.coordinator import (
    DEFAULT_LEASE_TTL,
    CoordinatedBackend,
    SweepStatus,
    drain_store,
    sweep_status,
)
from repro.experiments.ablations import ablation_specs, to_ablation_points
from repro.experiments.config import ExperimentConfig
from repro.experiments.failure_recovery import (
    analyse_recovery_curve,
    analyse_recovery_results,
    analyse_recovery_sweep_results,
    failure_recovery_specs,
    multi_failure_specs,
    recovery_curve_specs,
    recovery_sweep_specs,
)
from repro.experiments.fct import (
    abilene_fct_specs,
    fattree_fct_specs,
    flow_size_sensitivity_specs,
    incast_specs,
    queue_cdf_specs,
    to_fct_points,
    transport_sensitivity_specs,
)
from repro.experiments.fluid_scale import (
    fluid_fidelity_specs,
    fluid_million_specs,
    to_fidelity_points,
)
from repro.experiments.overhead import overhead_specs, to_overhead_points
from repro.experiments.results import ResultsStore, collect_results, gc_results
from repro.experiments.runner import (
    RunResult,
    ScenarioSpec,
    resolve_processes,
    run_grid,
)
from repro.experiments.scalability import run_scalability_sweep

__all__ = [
    "ScenarioOutcome",
    "CoordinatedOutcome",
    "GridScenario",
    "SCENARIOS",
    "run_scenario",
    "run_scenario_coordinated",
    "sweep_status_scenario",
    "merge_scenario",
    "gc_scenario",
    "scenario_names",
    "shardable_scenario_names",
    "scenario_is_shardable",
]


@dataclass
class ScenarioOutcome:
    """What one named scenario produced: a printable report plus raw data."""

    name: str
    text: str
    payload: Any


@dataclass
class CoordinatedOutcome:
    """What one store-backed run of a scenario (``--results-dir``) produced.

    Every invocation over the whole grid — or a ``0/1`` shard — converges to
    the *full* grid (it waits out other workers' in-flight leases), so
    ``outcome`` carries the complete merged report, byte-identical to an
    unsharded run.  A partial slice ``i/n`` completes its own points only
    and carries no report: ``merge-results`` builds it once every slice ran.
    """

    name: str
    total_points: int
    workers: List[Dict[str, Any]]
    results_dir: str
    wall_s: float
    outcome: Optional[ScenarioOutcome]
    shard: Optional[Tuple[int, int]] = None

    @property
    def text(self) -> str:
        executed = sum(int(worker["executed"]) for worker in self.workers)
        scope = (f" of shard {self.shard[0]}/{self.shard[1]}"
                 if self.shard is not None else "")
        lines = [f"{self.name} coordinated drain{scope}: {executed} of "
                 f"{self.total_points} grid points executed here by "
                 f"{len(self.workers)} worker(s) ({self.wall_s:.1f} s)"]
        for worker in self.workers:
            lines.append(
                f"  {worker['owner']}: {worker['executed']} executed, "
                f"{worker['stolen']} stolen, {worker['reclaimed']} reclaimed, "
                f"idle {worker['idle_s']:.1f} s")
        lines.append(f"results: {self.results_dir}")
        return "\n".join(lines)


@dataclass(frozen=True)
class GridScenario:
    """A scenario that is one spec grid: shardable, resumable, mergeable."""

    build_specs: Callable[[ExperimentConfig], List[ScenarioSpec]]
    finish: Callable[[ExperimentConfig, List[RunResult]], ScenarioOutcome]


# --------------------------------------------------------------- grid finishes

def _fct_scenario(name: str, title: str,
                  fattree_k: Optional[int] = None,
                  asymmetric: bool = False) -> GridScenario:
    def build(config: ExperimentConfig) -> List[ScenarioSpec]:
        if fattree_k is not None:
            config = replace(config, fattree_k=fattree_k)
        return fattree_fct_specs(config, asymmetric=asymmetric)

    def finish(config: ExperimentConfig, results: List[RunResult]) -> ScenarioOutcome:
        points = to_fct_points(results)
        return ScenarioOutcome(name, report.format_fct(points, title),
                               [asdict(p) for p in points])

    return GridScenario(build, finish)


def _fig13_finish(config: ExperimentConfig, results: List[RunResult]) -> ScenarioOutcome:
    cdfs = {result.system: result.queue_cdf for result in results}
    return ScenarioOutcome("fig13", report.format_queue_cdf(cdfs),
                           {system: {str(p): v for p, v in cdf.items()}
                            for system, cdf in cdfs.items()})


def _fig14_finish(config: ExperimentConfig, results: List[RunResult]) -> ScenarioOutcome:
    analysed = analyse_recovery_results(results)
    payload = {
        system: {
            "baseline_rate": outcome.baseline_rate,
            "dip_delay_ms": outcome.dip_delay,
            "recovery_delay_ms": outcome.recovery_delay,
            "failure_detections": outcome.failure_detections,
        }
        for system, outcome in analysed.items()
    }
    return ScenarioOutcome("fig14", report.format_recovery(analysed), payload)


def _fig15_finish(config: ExperimentConfig, results: List[RunResult]) -> ScenarioOutcome:
    points = to_fct_points(results)
    return ScenarioOutcome("fig15", report.format_fct(points, "Figure 15: Abilene FCT"),
                           [asdict(p) for p in points])


def _fig16_finish(config: ExperimentConfig, results: List[RunResult]) -> ScenarioOutcome:
    points = to_overhead_points(results)
    return ScenarioOutcome("fig16", report.format_overhead(points),
                           [asdict(p) for p in points])


def _incast_finish(config: ExperimentConfig, results: List[RunResult]) -> ScenarioOutcome:
    return ScenarioOutcome("incast",
                           report.format_grid(results, "Incast: N-to-1 fan-in FCT"),
                           [asdict(r) for r in results])


def _multi_failure_finish(config: ExperimentConfig,
                          results: List[RunResult]) -> ScenarioOutcome:
    return ScenarioOutcome(
        "multi-failure",
        report.format_grid(results, "Multi-failure schedule on NSFNET (WAN)"),
        [asdict(r) for r in results])


def _recovery_sweep_finish(config: ExperimentConfig,
                           results: List[RunResult]) -> ScenarioOutcome:
    analysed = analyse_recovery_sweep_results(results)
    payload = {
        system: {
            "fail_time_ms": outcome.fail_time,
            "recover_time_ms": outcome.recover_time,
            "baseline_rate": outcome.baseline_rate,
            "dip_delay_ms": outcome.dip_delay,
            "post_recovery_rate": outcome.post_recovery_rate,
            "recovery_ratio": outcome.recovery_ratio,
        }
        for system, outcome in analysed.items()
    }
    return ScenarioOutcome("recovery-sweep", report.format_recovery_sweep(analysed),
                           payload)


def _recovery_curve_finish(config: ExperimentConfig,
                           results: List[RunResult]) -> ScenarioOutcome:
    points = analyse_recovery_curve(results)
    return ScenarioOutcome("recovery-curve", report.format_recovery_curve(points),
                           [asdict(p) for p in points])


def _transport_finish(config: ExperimentConfig,
                      results: List[RunResult]) -> ScenarioOutcome:
    return ScenarioOutcome("transport-sensitivity",
                           report.format_transport(results),
                           [asdict(r) for r in results])


def _flow_size_finish(config: ExperimentConfig,
                      results: List[RunResult]) -> ScenarioOutcome:
    return ScenarioOutcome("flow-size-sensitivity",
                           report.format_flow_size(results),
                           [asdict(r) for r in results])


def _fidelity_finish(config: ExperimentConfig,
                     results: List[RunResult]) -> ScenarioOutcome:
    points = to_fidelity_points(results)
    return ScenarioOutcome("fluid-vs-packet", report.format_fidelity(points),
                           [asdict(p) for p in points])


def _fluid_million_finish(config: ExperimentConfig,
                          results: List[RunResult]) -> ScenarioOutcome:
    return ScenarioOutcome("fluid-million", report.format_fluid_million(results),
                           [asdict(r) for r in results])


def _ablations_finish(config: ExperimentConfig,
                      results: List[RunResult]) -> ScenarioOutcome:
    points = to_ablation_points(ablation_specs(config), results)
    text = "\n\n".join([
        report.format_ablation(points["probe_period"], "Probe period ablation"),
        report.format_ablation(points["flowlet_timeout"], "Flowlet timeout ablation"),
        report.format_ablation(points["versioning"], "Versioning ablation"),
    ])
    return ScenarioOutcome("ablations", text,
                           {sweep: [asdict(p) for p in sweep_points]
                            for sweep, sweep_points in points.items()})


# ------------------------------------------------------------- legacy scenario

def _fig9_10(config: ExperimentConfig, processes: Optional[int]) -> ScenarioOutcome:
    """Compile-time/state scalability: timing jobs, not a spec grid.

    The one legacy callable: a measured compile time is not a deterministic
    record, so it has no place in a store keyed for byte-identity.
    """
    points = run_scalability_sweep(fattree_sizes=config.scalability_fattree_sizes,
                                   random_sizes=config.scalability_random_sizes,
                                   processes=processes)
    return ScenarioOutcome("fig9-10", report.format_scalability(points),
                           [asdict(p) for p in points])


#: Scenario name -> GridScenario (shardable) or legacy callable.
SCENARIOS: Dict[str, Union[GridScenario,
                           Callable[[ExperimentConfig, Optional[int]],
                                    ScenarioOutcome]]] = {
    "fig9-10": _fig9_10,
    "fig11": _fct_scenario("fig11", "Figure 11: symmetric fat-tree FCT"),
    "fig11-k8": _fct_scenario("fig11-k8",
                              "Figure 11 at k=8: symmetric fat-tree FCT",
                              fattree_k=8),
    "fig11-k16": _fct_scenario("fig11-k16",
                               "Figure 11 at k=16: symmetric fat-tree FCT",
                               fattree_k=16),
    # 1280 switches / 8192 hosts; run it into a store (`--results-dir D`
    # from several hosts, or as `--shard i/n` slices) with a coarsened
    # probe period — the slow test executes one Contra point of it, shard
    # 1/6, under the micro config.
    "fig11-k32": _fct_scenario("fig11-k32",
                               "Figure 11 at k=32: symmetric fat-tree FCT",
                               fattree_k=32),
    "fig12": _fct_scenario("fig12", "Figure 12: asymmetric fat-tree FCT",
                           asymmetric=True),
    "fig13": GridScenario(queue_cdf_specs, _fig13_finish),
    "fig14": GridScenario(failure_recovery_specs, _fig14_finish),
    "fig15": GridScenario(abilene_fct_specs, _fig15_finish),
    "fig16": GridScenario(overhead_specs, _fig16_finish),
    "ablations": GridScenario(ablation_specs, _ablations_finish),
    "incast": GridScenario(incast_specs, _incast_finish),
    "multi-failure": GridScenario(multi_failure_specs, _multi_failure_finish),
    "recovery-sweep": GridScenario(recovery_sweep_specs, _recovery_sweep_finish),
    "recovery-curve": GridScenario(recovery_curve_specs, _recovery_curve_finish),
    "transport-sensitivity": GridScenario(transport_sensitivity_specs,
                                          _transport_finish),
    "flow-size-sensitivity": GridScenario(flow_size_sensitivity_specs,
                                          _flow_size_finish),
    "fluid-vs-packet": GridScenario(fluid_fidelity_specs, _fidelity_finish),
    "fluid-million": GridScenario(fluid_million_specs, _fluid_million_finish),
}


def scenario_names() -> List[str]:
    return list(SCENARIOS)


def scenario_is_shardable(name: str) -> bool:
    return isinstance(SCENARIOS.get(name), GridScenario)


def shardable_scenario_names() -> List[str]:
    return [name for name in SCENARIOS if scenario_is_shardable(name)]


def _scenario(name: str):
    try:
        return SCENARIOS[name]
    except KeyError:
        raise KeyError(f"unknown scenario {name!r}; available: {scenario_names()}") from None


def _grid_scenario(name: str) -> GridScenario:
    entry = _scenario(name)
    if not isinstance(entry, GridScenario):
        raise ExperimentError(
            f"scenario {name!r} is not a single spec grid and cannot use a "
            f"results store; shardable scenarios: {shardable_scenario_names()}")
    return entry


def _with_flow_model(name: str, specs: List[ScenarioSpec],
                     flow_model: Optional[str]) -> List[ScenarioSpec]:
    """Apply the ``--flow-model`` override to a scenario's grid.

    Scenarios that already select flow models per grid point (fluid-vs-packet
    runs both planes by design, fluid-million pins fluid) reject the override
    — rewriting their specs would either collapse the comparison or silently
    re-key every point — mirroring how ``--transport`` refuses
    'transport-sensitivity'.
    """
    if flow_model is None:
        return specs
    pinned = sorted({spec.flow_model for spec in specs
                     if spec.flow_model != "packet"})
    if pinned:
        raise ExperimentError(
            f"scenario {name!r} selects flow models per grid point "
            f"({pinned}); --flow-model cannot override it")
    if flow_model == "packet":
        return specs
    return [replace(spec, flow_model=flow_model) for spec in specs]


def _build_specs(name: str, entry: GridScenario, config: ExperimentConfig,
                 flow_model: Optional[str]) -> List[ScenarioSpec]:
    return _with_flow_model(name, entry.build_specs(config), flow_model)


def run_scenario(name: str, config: ExperimentConfig,
                 processes: Optional[int] = None,
                 flow_model: Optional[str] = None) -> ScenarioOutcome:
    """Execute one named scenario end to end; raises KeyError for unknown names.

    Touches no results store (:func:`run_scenario_coordinated` does).
    ``flow_model`` (grid scenarios only) re-points every spec of the grid at
    the named data path; specs re-pointed at ``"fluid"`` hash differently, so
    packet and fluid runs of one scenario never collide in a store.
    """
    entry = _scenario(name)
    if isinstance(entry, GridScenario):
        specs = _build_specs(name, entry, config, flow_model)
        return entry.finish(config, run_grid(specs, processes=processes))
    if flow_model is not None:
        raise ExperimentError(
            f"scenario {name!r} is not a single spec grid; --flow-model only "
            f"applies to grid scenarios: {shardable_scenario_names()}")
    return entry(config, processes)


def _store_specs(name: str, config: ExperimentConfig,
                 flow_model: Optional[str],
                 shard: Optional[Tuple[int, int]]) -> List[ScenarioSpec]:
    """The specs one store-backed run drains: the grid, or its slice ``i/n``.

    Shard ``i`` of ``n`` is ``specs[i::n]`` — every position ``p`` with
    ``p % n == i`` of the deterministically ordered grid, a balanced
    cross-section of its axes that depends on the grid alone.
    """
    specs = _build_specs(name, _grid_scenario(name), config, flow_model)
    if shard is None:
        return specs
    index, count = shard
    if count < 1 or not 0 <= index < count:
        raise ExperimentError(f"invalid shard {index}/{count}; need 0 <= i < n")
    return specs[index::count]


def _coordinate_worker(args) -> Dict[str, Any]:
    """One spawned drain worker (module-level so it pickles into a pool).

    Rebuilds the spec grid from the scenario name + config (specs are pure
    functions of both, so every worker sees the identical grid in identical
    order) and drains the shared store to claim-exhaustion.
    """
    name, config, results_dir, shard, flow_model, ttl = args
    specs = _store_specs(name, config, flow_model, shard)
    return drain_store(specs, results_dir, ttl=ttl, scenario=name)


def run_scenario_coordinated(name: str, config: ExperimentConfig,
                             results_dir: str,
                             processes: Optional[int] = None,
                             shard: Optional[Tuple[int, int]] = None,
                             flow_model: Optional[str] = None,
                             ttl: float = DEFAULT_LEASE_TTL) -> CoordinatedOutcome:
    """Drain a grid scenario into ``results_dir`` through the sweep coordinator.

    The one way a grid reaches a store.  Points already recorded are skipped
    (resume), and any number of other invocations, on any hosts sharing
    ``results_dir``, drain the same grid concurrently (locality-grouped,
    work-stealing — see :mod:`repro.experiments.coordinator`).
    ``processes`` local drain processes (resolved like ``--processes``:
    ``$CONTRA_PROCS`` by default, 0 = every core) claim points first; then
    the calling process runs a :class:`CoordinatedBackend` to completion,
    reclaiming anything a killed worker left behind and waiting out live
    leases.  So every invocation returns the **full** merged outcome —
    byte-identical to an unsharded run — unless ``shard=(i, n)`` with
    ``n > 1`` limits it to the slice ``specs[i::n]``: that call completes
    its slice and returns the drain's accounting with no report.
    """
    specs = _store_specs(name, config, flow_model, shard)
    workers = resolve_processes(processes, len(specs))
    started = time.perf_counter()
    # The collector.  Built first: its constructor is where a malformed TTL is
    # refused, and that must happen before any drain process is spawned.
    backend = CoordinatedBackend(results_dir, ttl=ttl, scenario=name)
    accounts: List[Dict[str, Any]] = []
    if workers > 1:
        job = (name, config, results_dir, shard, flow_model, ttl)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_coordinate_worker, job)
                       for _ in range(workers)]
            for future in futures:
                accounts.append(future.result())
    # The collector executes the whole slice itself with one process,
    # otherwise mops up (kills, reclaims, remote stragglers) and assembles
    # the result list from the store.
    results = run_grid(specs, backend=backend)
    if workers == 1 or backend.executed:
        accounts.append(backend.accounting())
    whole = shard is None or shard[1] == 1
    return CoordinatedOutcome(
        name=name,
        total_points=len(specs),
        workers=accounts,
        results_dir=str(results_dir),
        wall_s=time.perf_counter() - started,
        outcome=_grid_scenario(name).finish(config, results) if whole else None,
        shard=shard,
    )


def sweep_status_scenario(name: str, config: ExperimentConfig,
                          results_dir: str,
                          flow_model: Optional[str] = None,
                          ttl: float = DEFAULT_LEASE_TTL) -> SweepStatus:
    """Snapshot a coordinated results directory against the scenario's grid."""
    entry = _grid_scenario(name)
    specs = _build_specs(name, entry, config, flow_model)
    return sweep_status(specs, results_dir, ttl=ttl)


def gc_scenario(name: str, config: ExperimentConfig, results_dir: str,
                flow_model: Optional[str] = None) -> Dict[str, int]:
    """Garbage-collect ``results_dir`` against the scenario's current grid.

    Records whose spec hash the scenario (under this config) no longer
    defines are dropped, duplicates and torn tails are compacted away, and
    the survivors are rewritten as one shard file — see
    :func:`repro.experiments.results.gc_results` for the exact contract.
    """
    entry = _grid_scenario(name)
    return gc_results(_build_specs(name, entry, config, flow_model), results_dir)


def merge_scenario(name: str, config: ExperimentConfig,
                   results_dir: str,
                   flow_model: Optional[str] = None) -> ScenarioOutcome:
    """Union the shard artifacts in ``results_dir`` into the full outcome.

    Runs nothing: every grid point must already be in the store (any shard
    layout), and the returned outcome is byte-identical to what an unsharded
    :func:`run_scenario` under the same config produces.
    """
    entry = _grid_scenario(name)
    specs = _build_specs(name, entry, config, flow_model)
    results = collect_results(specs, ResultsStore(results_dir))
    return entry.finish(config, results)
