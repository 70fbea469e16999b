"""The benchmark's metric table: every name, unit, direction and bound.

``BENCHMARK.json`` at the repo root is the driver-facing copy of this table
(the self-test keeps the two equal).  Two groups:

* ``END_TO_END`` — defined, and never zero, on every workload; bounded.
* ``PER_LAYER`` — everything else.  That includes the workload-specific
  end-to-end numbers (``compile_max_s``, ``sim_*``): the driver contract wants
  every end-to-end metric on every workload, so they ride in the per-layer
  list and read 0 where they do not apply.  ``compare.py`` still holds them to
  their bounds.

``exact`` marks a deterministic value: the same commit and seed repeat it to
the last digit, so ``compare.py`` compares it with zero tolerance and reports
any difference as "behaviour changed".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from perf_layers import EXTERNAL, LAYERS


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str                      # "lower" | "higher"
    bound: Optional[float] = None    # share of the base median it may worsen
    exact: bool = False


def _lower(name: str, unit: str, bound: Optional[float] = None, exact: bool = False) -> Metric:
    return Metric(name, unit, "lower", bound, exact)


def _count(name: str, unit: str = "count") -> Metric:
    return Metric(name, unit, "lower", None, True)


#: Host-time bounds are the contract's widest: the sandbox shares its host
#: (README.md, "Noise").  Both are CPU seconds of the measuring process at the
#: reference speed, not wall time.
END_TO_END: Tuple[Metric, ...] = (
    _lower("setup_s", "s", 0.25),
    Metric("work_per_cpu_s", "unit/s", "higher", 0.25),
    _lower("peak_rss_mb", "MiB", 0.10),
)

#: Calls into the repo's own layers repeat exactly.  ``external`` holds the
#: stdlib's thread hand-offs (the coordinator's heartbeat), which do not.
_TRACED: Tuple[Metric, ...] = tuple(
    metric
    for layer in LAYERS
    for metric in (_lower(f"{layer}.self_s", "s"),
                   _lower(f"{layer}.self_share", "ratio"),
                   _lower(f"{layer}.calls", "count") if layer == EXTERNAL
                   else _count(f"{layer}.calls"))
)

PER_LAYER: Tuple[Metric, ...] = (
    # The timed region itself, as measured.  Seeds change how much work a grid
    # holds, so the bounded form of these is work_per_cpu_s.
    _lower("run.wall_s", "s"),
    _lower("run.cpu_s", "s"),
    Metric("run.speed_index", "ratio", "higher"),
    # Workload-specific end-to-end metrics (bounded; see module docstring).
    _lower("compile_max_s", "s", 0.25),
    _lower("switch_state_max_kb", "KB", 0.01, exact=True),
    _lower("sim_avg_fct_ms", "ms", 0.01, exact=True),
    _lower("sim_p99_fct_ms", "ms", 0.01, exact=True),
    _lower("sim_fct_ratio", "ratio", 0.01, exact=True),
    Metric("sim_completion_share", "ratio", "higher", 0.01, exact=True),
    _lower("sim_probe_overhead_share", "ratio", 0.01, exact=True),
    _lower("sim_recovery_ms", "ms", 0.01, exact=True),
    # Traced self time and call counts, one triple per layer.
    *_TRACED,
    _lower("trace.overhead_ratio", "ratio"),
    # Phase timings, untraced.
    _lower("topology.build_s", "s"),
    _lower("core.compile_s", "s"),
    _lower("experiments.runner.specs_s", "s"),
    _count("experiments.runner.points"),
    _lower("experiments.runner.point_p50_s", "s"),
    _lower("experiments.runner.point_max_s", "s"),
    _lower("experiments.coordinator.drain_s", "s"),
    _lower("experiments.results.resume_s", "s"),
    _lower("experiments.results.collect_s", "s"),
    _lower("experiments.results.gc_s", "s"),
    # Deterministic work counts.
    _count("simulator.engine.events"),
    _count("simulator.link.packets"),
    _count("simulator.link.drops"),
    _count("protocol.probe_bytes", "B"),
    _count("protocol.probe_hops"),
    _count("protocol.flowlet_expirations"),
    _count("protocol.failure_detections"),
    _count("protocol.loop_detections"),
    _count("simulator.host.flows"),
    _count("simulator.host.completed_flows"),
    _count("simulator.host.retransmissions"),
    _count("simulator.host.fast_retransmits"),
    Metric("simulator.host.goodput_share", "ratio", "higher", None, True),
    _count("simulator.fluid.epochs"),
    _count("simulator.fluid.flows"),
    _count("core.compiles"),
    _count("core.pg_nodes"),
    _count("core.pg_edges"),
    _count("core.probe_ids"),
    _count("experiments.results.records"),
    # Records carry a rounded wall-clock, so their size is not exact.
    _lower("experiments.results.bytes_per_record", "B"),
    _count("experiments.coordinator.executed"),
    _count("experiments.coordinator.stolen"),
    # Unit costs: count x unit cost is the model a perf issue writes down first.
    _lower("simulator.engine.us_per_event", "us"),
    _lower("protocol.us_per_probe_hop", "us"),
    _lower("simulator.fluid.us_per_epoch.contra", "us"),
    _lower("simulator.fluid.us_per_epoch.ecmp", "us"),
    _lower("core.compile_us_per_pg_edge", "us"),
    _lower("experiments.coordinator.overhead_ms_per_point", "ms"),
)

BY_NAME: Dict[str, Metric] = {metric.name: metric for metric in END_TO_END + PER_LAYER}


def benchmark_json_entries() -> Dict[str, list]:
    """The ``end_to_end`` / ``per_layer`` lists exactly as BENCHMARK.json holds them."""
    return {
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }
