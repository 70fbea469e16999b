"""The six benchmark workloads: inputs, timed region, oracles and counters.

Every workload is a grid people already run, reached through the public spec
builders with ``ExperimentConfig.seed = --seed``.  Sizes are the largest that
keep one timed iteration between one and five seconds on a 2-core sandbox,
so a 10 s run holds several iterations (README.md lists what each one costs
and how it was shrunk from the figure-sized grid).  ``smoke`` shrinks them
again for the self-test; a smoke result is never comparable.

A workload object is driven by ``run.py`` through five calls:

* ``build(seed, smoke)``   — inputs from the seed (set-up, once per process);
* ``prewarm(spans)``       — untimed, before every iteration: a fresh
  ``RunContext`` with every topology built and every policy compiled;
* ``run(state, spans)``    — the timed region; closed loop, one client;
* ``check(state, out)``    — correctness oracles, outside the timed region;
* ``measure(state, out, wall_s)`` — work units, deterministic counts, unit
  costs and simulated metrics, all read from public counters after the run.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import statistics
import tempfile
from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict, List, Sequence

from repro.core.analysis.crosscheck import crosscheck_lowered_tables
from repro.core.compiler import compile_policy
from repro.experiments.config import ExperimentConfig, default_config, quick_config
from repro.experiments.coordinator import CoordinatedBackend
from repro.experiments.failure_recovery import (
    analyse_recovery_results,
    failure_recovery_specs,
    multi_failure_specs,
)
from repro.experiments.fct import abilene_fct_specs, fattree_fct_specs
from repro.experiments.fluid_scale import fluid_million_specs
from repro.experiments.results import (
    ResultsStore,
    collect_results,
    encode_result,
    gc_results,
)
from repro.experiments.runner import (
    RunContext,
    RunResult,
    ScenarioSpec,
    SerialBackend,
    run_grid,
)
from repro.experiments.scalability import run_scalability_sweep, scalability_policies
from repro.simulator.packet import BASE_PROBE_BYTES
from repro.topology.fattree import fattree_for_switch_count
from repro.topology.random_graphs import random_network

#: Scratch space for the sweep-drain store; inside the checkout, gitignored.
SCRATCH = Path(__file__).resolve().parents[2] / ".perf_tmp"

#: Fig. 14 schedule of the wan-failover workload (shared by specs and analysis).
RECOVERY_FAILURE_TIME = 10.0
RECOVERY_RUN_DURATION = 20.0


def sha256_of(payload) -> str:
    """SHA-256 of the canonical JSON of ``payload`` (NaN serializes as a token)."""
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _needs_compile(spec: ScenarioSpec) -> bool:
    """Whether ``RunContext.run`` compiles a policy for this point."""
    return spec.flow_model == "packet" and (
        spec.system == "contra" or spec.respect_compiled_probe_period)


def _contra_recovery(results: Sequence[RunResult]):
    """Contra's Fig. 14 timeline among ``results`` (None when the grid has none)."""
    return analyse_recovery_results(
        [result for result in results if result.name.startswith("recovery:")],
        RECOVERY_FAILURE_TIME).get("contra")


def _us_per(seconds: float, count: float) -> float:
    return seconds * 1e6 / count if count else 0.0


# ------------------------------------------------------------ grid workloads

class GridRun:
    """What one timed grid iteration leaves behind for checks and counters."""

    def __init__(self) -> None:
        self.results: List[RunResult] = []
        self.walls: List[float] = []
        self.events = 0
        self.packets = 0
        #: The most recent Network (its counters are folded in when the next
        #: one starts, so only one network is alive at a time).
        self.network = None

    def on_network(self, network) -> None:
        self._fold()
        self.network = network

    def _fold(self) -> None:
        if self.network is not None:
            self.events += self.network.sim.events_processed
            self.packets += self.network.stats.total_packets

    def finish(self) -> None:
        """Fold the last network's counters (keeps it for the oracles)."""
        self._fold()


class GridWorkload:
    """A spec grid executed by ``run_grid``'s serial backend with no store."""

    def __init__(self, name: str, why: str,
                 specs: Callable[[int, bool], List[ScenarioSpec]],
                 oracle: Callable[[GridRun], List[str]]):
        self.name = name
        self.why = why
        self._specs = specs
        self._oracle = oracle
        self.specs: List[ScenarioSpec] = []

    def build(self, seed: int, smoke: bool) -> None:
        self.specs = self._specs(seed, smoke)

    def prewarm(self, spans) -> RunContext:
        context = RunContext()
        built = set()
        for spec in self.specs:
            if spec.topology not in built:
                built.add(spec.topology)
                with spans.span("topology.build"):
                    context.topology(spec.topology)
            key = (spec.policy, spec.topology)
            if _needs_compile(spec) and key not in built:
                built.add(key)
                with spans.span("core.compile"):
                    context.compiled_policy(spec.policy, spec.topology)
        return context

    def run(self, context: RunContext, spans) -> GridRun:
        run = GridRun()
        context.network_hook = run.on_network
        timed = SerialBackend(context).run_iter_timed(self.specs)
        for spec in self.specs:
            with spans.span("point", spec.name):
                result, wall_s = next(timed)
            run.results.append(result)
            run.walls.append(wall_s)
        context.network_hook = None
        run.finish()
        return run

    def ops(self) -> int:
        return len(self.specs)

    def check(self, context: RunContext, run: GridRun) -> List[str]:
        failures = [f"{result.name}: goodput exceeds delivered bytes"
                    for result in run.results
                    if result.summary["goodput_bytes"] > result.summary["delivered_bytes"]]
        return failures + self._oracle(run)

    def digest(self, run: GridRun) -> str:
        return sha256_of([encode_result(result) for result in run.results])

    def measure(self, context: RunContext, run: GridRun, wall_s: float) -> Dict[str, float]:
        rows = list(zip(self.specs, run.results, run.walls))
        summaries = [result.summary for result in run.results]

        def total(key: str, only=summaries) -> float:
            return sum(summary.get(key, 0) for summary in only)

        contra = [(spec, result.summary, wall) for spec, result, wall in rows
                  if spec.system == "contra"]
        contra_packet = [row for row in contra if row[0].flow_model == "packet"]
        probe_hops = 0.0
        for spec, summary, _ in contra_packet:
            compiled = context.compiled_policy(spec.policy, spec.topology)
            device = next(iter(compiled.device_configs.values()))
            probe_hops += summary["probe_bytes"] / int(
                BASE_PROBE_BYTES + device.probe_bits() / 8.0)
        contra_summaries = [summary for _, summary, _ in contra]
        contra_done = total("completed_flows", contra_summaries)
        contra_packet_summaries = [summary for _, summary, _ in contra_packet]
        probe_bytes = total("probe_bytes", contra_packet_summaries)
        contra_bytes = (probe_bytes + total("data_bytes", contra_packet_summaries)
                        + total("ack_bytes", contra_packet_summaries))
        fluid = [(spec, result.summary, wall) for spec, result, wall in rows
                 if spec.flow_model == "fluid"]

        def fluid_us_per_epoch(system: str) -> float:
            mine = [(summary, wall) for spec, summary, wall in fluid
                    if spec.system == system]
            return _us_per(sum(wall for _, wall in mine),
                           sum(summary["epochs"] for summary, _ in mine))

        compiled_policies = [context.compiled_policy(policy, topology)
                             for policy, topology in
                             dict.fromkeys((spec.policy, spec.topology)
                                           for spec in self.specs if _needs_compile(spec))]
        recovery = _contra_recovery(run.results)
        packets = run.packets
        return {
            "work": total("completed_flows") if fluid else packets,
            "sim_avg_fct_ms": (sum(s["avg_fct_ms"] * s["completed_flows"]
                                   for s in contra_summaries if s["completed_flows"])
                               / contra_done) if contra_done else 0.0,
            "sim_p99_fct_ms": max((s["p99_fct_ms"] for s in contra_summaries
                                   if s["completed_flows"]), default=0.0),
            "sim_fct_ratio": _fct_ratio(run.results),
            "sim_completion_share": (total("completed_flows") / total("flows")
                                     if total("flows") else 0.0),
            "sim_probe_overhead_share": probe_bytes / contra_bytes if contra_bytes else 0.0,
            # NaN (never recovered) is the oracle's business; a metric stays a number.
            "sim_recovery_ms": (recovery.recovery_delay
                                if recovery is not None and recovery.recovered else 0.0),
            "experiments.runner.points": len(rows),
            "experiments.runner.point_p50_s": statistics.median(run.walls),
            "experiments.runner.point_max_s": max(run.walls),
            "simulator.engine.events": run.events,
            "simulator.link.packets": packets,
            "simulator.link.drops": total("drops"),
            "protocol.probe_bytes": probe_bytes,
            "protocol.probe_hops": probe_hops,
            "protocol.flowlet_expirations": total("flowlet_expirations"),
            "protocol.failure_detections": total("failure_detections"),
            "protocol.loop_detections": total("loop_detections"),
            "simulator.host.flows": total("flows"),
            "simulator.host.completed_flows": total("completed_flows"),
            "simulator.host.retransmissions": total("retransmissions"),
            "simulator.host.fast_retransmits": total("fast_retransmits"),
            "simulator.host.goodput_share": (total("goodput_bytes") / total("delivered_bytes")
                                             if total("delivered_bytes") else 0.0),
            "simulator.fluid.epochs": total("epochs"),
            "simulator.fluid.flows": total("flows", [s for _, s, _ in fluid]),
            "core.compiles": len(compiled_policies),
            "core.pg_nodes": sum(c.product_graph.num_nodes for c in compiled_policies),
            "core.pg_edges": sum(c.product_graph.num_edges for c in compiled_policies),
            "core.probe_ids": sum(c.num_probe_ids for c in compiled_policies),
            "simulator.engine.us_per_event": _us_per(wall_s, run.events),
            "protocol.us_per_probe_hop": _us_per(
                sum(wall for _, _, wall in contra_packet), probe_hops),
            "simulator.fluid.us_per_epoch.contra": fluid_us_per_epoch("contra"),
            "simulator.fluid.us_per_epoch.ecmp": fluid_us_per_epoch("ecmp"),
        }


def _fct_ratio(results: Sequence[RunResult]) -> float:
    """Geometric mean over paired points of Contra / baseline mean FCT.

    Points pair up by name with the system stripped; the baseline is ECMP in
    the datacenter grids and shortest-path on the WANs.
    """
    groups: Dict[str, Dict[str, float]] = {}
    for result in results:
        if result.summary["completed_flows"]:
            groups.setdefault(result.name.rsplit(":", 1)[0], {})[result.system] = \
                result.summary["avg_fct_ms"]
    logs = []
    for group in groups.values():
        baseline = group.get("ecmp", group.get("shortest-path"))
        if baseline and "contra" in group:
            logs.append(math.log(group["contra"] / baseline))
    return math.exp(sum(logs) / len(logs)) if logs else 0.0


# ---- dc-fct

def _dc_fct_specs(seed: int, smoke: bool) -> List[ScenarioSpec]:
    config = replace(default_config().scaled(0.1 if smoke else 0.25), seed=seed)
    return fattree_fct_specs(config, asymmetric=True, loads=(0.8,),
                             systems=("ecmp", "contra"))


def _dc_fct_oracle(run: GridRun) -> List[str]:
    """Fig. 12's claim in the form that holds at this size on every seed.

    ECMP keeps hashing onto the failed link's side and strands flows, so
    Contra must complete at least as many on both workloads.  Mean FCT is
    compared on ``cache`` only: ``web_search`` has ~130 flows here and ECMP's
    mean is over the survivors, which biases it low.
    """
    by_key = {(result.workload, result.system): result.summary for result in run.results}
    failures = [f"{workload}: Contra completed fewer flows than ECMP"
                for workload in ("web_search", "cache")
                if by_key[workload, "contra"]["completed_flows"]
                < by_key[workload, "ecmp"]["completed_flows"]]
    contra, ecmp = (by_key["cache", system]["avg_fct_ms"] for system in ("contra", "ecmp"))
    if not contra <= ecmp:
        failures.append(f"cache: Contra mean FCT {contra:.3f} ms above ECMP's {ecmp:.3f} ms")
    return failures


# ---- k16-micro

def _k16_specs(seed: int, smoke: bool) -> List[ScenarioSpec]:
    # tests/integration/test_sharded_sweeps.py::TestFig11K16's micro config,
    # cut to its first probe wave: flows start at 0.5 ms (the t=0 wave has
    # converged) and the run ends before the second wave at 2.048 ms.
    micro = ExperimentConfig(workload_duration=0.3, run_duration=2.0, loads=(0.2,),
                             websearch_scale=0.03, cache_scale=0.1,
                             probe_period=2.048, flowlet_timeout=4.0, warmup=0.5,
                             fattree_k=4 if smoke else 16, seed=seed)
    return fattree_fct_specs(micro, systems=("contra",), workloads=("web_search",))


def _k16_oracle(run: GridRun) -> List[str]:
    failures = []
    if not run.results[0].summary["completed_flows"]:
        failures.append("k16-micro: no flow completed")
    network = run.network
    edges = network.topology.switches_with_role("edge")
    holes = sum(1 for name, node in network.switches.items() for edge in edges
                if edge != name and node.routing.best_next_hop(edge) is None)
    if holes:
        failures.append(f"k16-micro: {holes} (switch, edge) pairs have no best next hop")
    return failures


# ---- wan-failover

def _wan_specs(seed: int, smoke: bool) -> List[ScenarioSpec]:
    # The quick preset; a smaller one breaks the oracles (the Fig. 14 dip
    # needs its 10 ms of steady streams), so smoke only drops grid points.
    config = replace(quick_config(), seed=seed)
    workloads = ("cache",) if smoke else ("web_search", "cache")
    return (abilene_fct_specs(config, workloads=workloads, loads=(0.8,))
            + multi_failure_specs(config)
            + failure_recovery_specs(config, failure_time=RECOVERY_FAILURE_TIME,
                                     run_duration=RECOVERY_RUN_DURATION))


def _wan_oracle(run: GridRun) -> List[str]:
    failures = []
    # Pooled over the Abilene points: web_search alone is ~55 flows at this
    # size, and one elephant arriving late in the run is already 2% of them.
    abilene = [result.summary for result in run.results
               if result.name.startswith("abilene:") and result.system == "contra"]
    completion = (sum(summary["completed_flows"] for summary in abilene)
                  / sum(summary["flows"] for summary in abilene))
    if completion < 0.99:
        failures.append(f"abilene: Contra completion {completion:.4f} < 0.99")
    multi = {result.system: result.summary for result in run.results
             if result.name.startswith("multi-failure:")}
    if not multi["contra"]["failure_detections"]:
        failures.append("multi-failure:contra: no failure detected")
    if multi["contra"]["completed_flows"] < multi["shortest-path"]["completed_flows"]:
        failures.append("multi-failure: Contra completed fewer flows than shortest-path")
    # Fig. 14 in the form benchmarks/test_fig14_failure_recovery.py asserts it:
    # the failure is detected, a dip (if 1 ms bins show one) ends, and the
    # run finishes back at the pre-failure rate.
    recovery = _contra_recovery(run.results)
    tail = [rate for time, rate in recovery.throughput if time >= RECOVERY_RUN_DURATION - 5]
    if not recovery.failure_detections:
        failures.append("recovery:contra: no failure detected")
    if not (math.isnan(recovery.dip_delay) or recovery.recovered):
        failures.append("recovery:contra: throughput dipped and never recovered")
    if not tail or sum(tail) / len(tail) < 0.9 * recovery.baseline_rate:
        failures.append("recovery:contra: run ends below 90% of the pre-failure rate")
    return failures


# ---- fluid-churn

def _fluid_specs(seed: int, smoke: bool) -> List[ScenarioSpec]:
    # Two points per system on consecutive seeds rather than one long one: a
    # point's cost depends on which links its elephants happen to heat, and a
    # single draw of that moved work_per_s by 11 % from seed to seed.  Shorter
    # points would steady it further but spend the run in per-point set-up.
    contra, ecmp = (1_000, 500) if smoke else (10_000, 2_000)
    specs: List[ScenarioSpec] = []
    for system, flow_target, points in (("contra", contra, 2), ("ecmp", ecmp, 2)):
        for point_seed in range(seed, seed + points):
            config = replace(quick_config(), seed=point_seed)
            specs += [replace(spec, name=f"{spec.name}:seed{point_seed}")
                      for spec in fluid_million_specs(config, systems=(system,),
                                                      flow_target=flow_target)]
    return specs


def _fluid_oracle(run: GridRun) -> List[str]:
    return [f"{result.name}: completion {result.summary['completion_ratio']:.4f} < 0.99"
            for result in run.results if result.summary["completion_ratio"] < 0.99]


# ------------------------------------------------------------- compile-scale

class CompileScale:
    """Figs. 9-10: the compile sweep, simulator idle."""

    name = "compile-scale"
    why = ("Compiler and topology only, simulator idle: Figs. 9-10 are paper headlines "
           "and every compile-side subtraction lands here.")

    def build(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.sizes = ((20,), (30,)) if smoke else ((20, 125, 245), (100, 200, 300))
        #: The paper's largest fat-tree under the slowest policy, on its own so
        #: Fig. 9's headline is in the run without the other 500-switch jobs.
        self.headline = () if smoke else (500,)

    def prewarm(self, spans) -> None:
        return None

    def run(self, state, spans) -> list:
        with spans.span("sweep"):
            points = run_scalability_sweep(fattree_sizes=self.sizes[0],
                                           random_sizes=self.sizes[1],
                                           seed=self.seed, processes=1)
        with spans.span("headline"):
            points += run_scalability_sweep(families=("fattree",),
                                            fattree_sizes=self.headline,
                                            policies=("WP",), processes=1)
        return points

    def ops(self) -> int:
        return 3 * (len(self.sizes[0]) + len(self.sizes[1])) + len(self.headline)

    def check(self, state, points: list) -> List[str]:
        failures = []
        smallest = {"fattree": fattree_for_switch_count(self.sizes[0][0]),
                    "random": random_network(self.sizes[1][0], seed=self.seed, degree=4)}
        for family, topology in smallest.items():
            policy = scalability_policies(topology)["WP"]
            report = crosscheck_lowered_tables(compile_policy(policy, topology))
            failures += [f"{family} crosscheck: {problem}" for problem in report.problems]
        if len(points) != self.ops():
            failures.append(f"compile-scale: {len(points)} of {self.ops()} jobs returned")
        return failures

    def digest(self, points: list) -> str:
        return sha256_of([(p.family, p.size, p.actual_switches, p.policy, p.max_state_kb,
                        p.pg_nodes, p.pg_edges, p.num_probe_ids) for p in points])

    def measure(self, state, points: list, wall_s: float) -> Dict[str, float]:
        times = [point.compile_time_s for point in points]
        edges = sum(point.pg_edges for point in points)
        return {
            "work": sum(point.actual_switches for point in points),
            "compile_max_s": max(times),
            "switch_state_max_kb": max(point.max_state_kb for point in points),
            # The sweep builds each topology (and its policies) around the
            # timed compile, so what is not compile is topology.
            "topology.build_s": wall_s - sum(times),
            "core.compile_s": sum(times),
            "experiments.runner.points": len(points),
            "experiments.runner.point_p50_s": statistics.median(times),
            "experiments.runner.point_max_s": max(times),
            "core.compiles": len(points),
            "core.pg_nodes": sum(point.pg_nodes for point in points),
            "core.pg_edges": edges,
            "core.probe_ids": sum(point.num_probe_ids for point in points),
            "core.compile_us_per_pg_edge": _us_per(sum(times), edges),
        }


# --------------------------------------------------------------- sweep-drain

class SweepDrain:
    """Near-free points drained through the lease coordinator into a store."""

    name = "sweep-drain"
    why = ("Experiment layer: spec hashing, lease create/heartbeat/release and JSONL appends "
           "beside store load/merge/gc; no other workload touches a store, so a store or "
           "lease change must move only this one.")

    #: How many points the store-less serial oracle re-runs.
    SAMPLE = 20

    def build(self, seed: int, smoke: bool) -> None:
        base = replace(default_config(), workload_duration=0.5)
        self.specs = [spec
                      for point_seed in range(seed, seed + (4 if smoke else 60))
                      for spec in fattree_fct_specs(replace(base, seed=point_seed),
                                                    systems=("ecmp",),
                                                    workloads=("web_search",),
                                                    loads=(0.2, 0.4, 0.6))]

    def prewarm(self, spans) -> RunContext:
        SCRATCH.mkdir(exist_ok=True)
        context = RunContext()
        with spans.span("topology.build"):
            context.topology(self.specs[0].topology)
        return context

    def run(self, context: RunContext, spans) -> dict:
        directory = tempfile.mkdtemp(prefix="drain-", dir=SCRATCH)
        try:
            drainer = CoordinatedBackend(directory, inner=SerialBackend(context), owner="w0")
            with spans.span("drain") as drain:
                drainer.drain(self.specs)
            resumer = CoordinatedBackend(directory, owner="w1")
            with spans.span("resume") as resume:
                resumed = run_grid(self.specs, backend=resumer)
            with spans.span("collect") as collect:
                collected = collect_results(self.specs, ResultsStore(directory))
            with spans.span("gc") as gc_span:
                kept = gc_results(self.specs, directory)
            # Outside every phase span: read back the one file gc left.
            compacted = ResultsStore(directory).path
            return {
                "phases": {"drain": drain, "resume": resume, "collect": collect,
                           "gc": gc_span},
                "drainer": drainer, "resumer": resumer, "resumed": resumed,
                "collected": collected, "kept": kept,
                "point_walls": [json.loads(line)["point_wall_s"]
                                for line in compacted.read_text().splitlines()],
                "store_bytes": compacted.stat().st_size,
            }
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    def ops(self) -> int:
        return len(self.specs)

    def check(self, context: RunContext, out: dict) -> List[str]:
        failures = []
        count = len(self.specs)
        if out["drainer"].executed != count:
            failures.append(f"drain executed {out['drainer'].executed} of {count} points")
        if out["resumer"].executed:
            failures.append(f"resume pass executed {out['resumer'].executed} points, expected 0")
        if out["kept"]["kept"] != count or out["kept"]["missing"]:
            failures.append(f"gc kept {out['kept']['kept']} of {count} records")
        sample = self.specs[:self.SAMPLE]
        serial = run_grid(sample, backend=SerialBackend(RunContext()))
        for spec, fresh, stored in zip(sample, serial, out["collected"]):
            if sha256_of(encode_result(fresh)) != sha256_of(encode_result(stored)):
                failures.append(f"{spec.name} seed {spec.seed}: stored summary differs "
                                f"from a store-less serial run")
        return failures

    def digest(self, out: dict) -> str:
        return sha256_of([encode_result(result) for result in out["collected"]])

    def measure(self, context: RunContext, out: dict, wall_s: float) -> Dict[str, float]:
        count = len(self.specs)
        phases = {name: span.duration for name, span in out["phases"].items()}
        walls = out["point_walls"]
        return {
            "work": count,
            "experiments.runner.points": count,
            "experiments.runner.point_p50_s": statistics.median(walls),
            "experiments.runner.point_max_s": max(walls),
            "experiments.coordinator.drain_s": phases["drain"],
            "experiments.results.resume_s": phases["resume"],
            "experiments.results.collect_s": phases["collect"],
            "experiments.results.gc_s": phases["gc"],
            "simulator.host.flows": sum(r.summary["flows"] for r in out["collected"]),
            "simulator.host.completed_flows": sum(r.summary["completed_flows"]
                                                  for r in out["collected"]),
            "experiments.results.records": out["kept"]["kept"],
            "experiments.results.bytes_per_record": out["store_bytes"] / count,
            "experiments.coordinator.executed": out["drainer"].executed,
            "experiments.coordinator.stolen": out["drainer"].stolen,
            "experiments.coordinator.overhead_ms_per_point":
                (phases["drain"] - sum(walls)) * 1e3 / count,
        }


WORKLOADS = {workload.name: workload for workload in (
    GridWorkload(
        "dc-fct",
        "Data-dominated packet plane: link data lane, host transport (RTO, retransmit), "
        "stats and forwarding do the work; the ECMP points send no probes at all.",
        _dc_fct_specs, _dc_fct_oracle),
    GridWorkload(
        "k16-micro",
        "Probe-dominated packet plane on the 320-switch k=16 fat-tree (protocol, link, engine; "
        "host transport idle): the ROADMAP's fig11-k16 micro point, cut to one probe wave.",
        _k16_specs, _k16_oracle),
    GridWorkload(
        "wan-failover",
        "The packet layers on small fabrics (Abilene, NSFNET, Fig. 14's k=4 fat-tree) whose "
        "probe waves are a handful of probes: a change tuned to k=16 waves must show its cost here.",
        _wan_specs, _wan_oracle),
    GridWorkload(
        "fluid-churn",
        "Fluid plane only, packet layers idle: solver, workload generation and FCT sketches; Contra "
        "and ECMP lower paths differently, so a gain for one that costs the other shows.",
        _fluid_specs, _fluid_oracle),
    CompileScale(),
    SweepDrain(),
)}
