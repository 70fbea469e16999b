"""Textual report formatting.

The benchmark harness prints the same rows/series the paper reports; these
helpers format experiment results as aligned text tables so that benchmark
output, EXPERIMENTS.md and the CLI all show identical content.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Sequence

__all__ = [
    "format_table",
    "format_scalability",
    "format_fct",
    "format_queue_cdf",
    "format_recovery",
    "format_recovery_sweep",
    "format_recovery_curve",
    "format_grid",
    "format_flow_size",
    "format_overhead",
    "format_ablation",
    "format_transport",
    "format_fidelity",
    "format_fluid_million",
]


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]],
                 title: Optional[str] = None) -> str:
    """Render an aligned, pipe-separated text table."""
    rendered_rows = [[_cell(value) for value in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for index, value in enumerate(row):
            widths[index] = max(widths[index], len(value))
    lines = []
    if title:
        lines.append(title)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("-+-".join("-" * w for w in widths))
    for row in rendered_rows:
        lines.append(" | ".join(v.ljust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, float):
        if value != value:  # NaN
            return "n/a"
        if abs(value) >= 100:
            return f"{value:.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.4f}"
    return str(value)


def format_scalability(points, title: str = "Figure 9/10: compiler scalability") -> str:
    rows = [(p.family, p.size, p.actual_switches, p.policy, p.compile_time_s,
             p.max_state_kb, p.pg_nodes, p.num_probe_ids) for p in points]
    return format_table(
        ("family", "size", "switches", "policy", "compile_s", "state_kB", "pg_nodes", "pids"),
        rows, title=title)


def format_fct(points, title: str = "Average flow completion time (ms)") -> str:
    rows = [(p.workload, f"{round(p.load * 100)}%", p.system, p.avg_fct_ms, p.p99_fct_ms,
             f"{p.completed}/{p.flows}", p.drops, p.loop_fraction) for p in points]
    return format_table(
        ("workload", "load", "system", "avg_fct_ms", "p99_fct_ms", "completed", "drops", "loops"),
        rows, title=title)


def format_queue_cdf(cdfs: Mapping[str, Mapping[float, float]]) -> str:
    points = sorted(next(iter(cdfs.values())).keys()) if cdfs else []
    headers = ["system"] + [f"p{int(p * 100)}" for p in points]
    rows = [[system] + [cdf[p] for p in points] for system, cdf in cdfs.items()]
    return format_table(headers, rows, title="Figure 13: queue length CDF (packets)")


def format_recovery(results: Mapping[str, object]) -> str:
    rows = []
    for system, result in results.items():
        rows.append((system, result.baseline_rate, result.dip_delay,
                     result.recovery_delay, result.failure_detections))
    return format_table(
        ("system", "baseline_rate", "dip_after_ms", "recovered_after_ms", "failure_detections"),
        rows, title="Figure 14: link-failure recovery")


def format_recovery_sweep(results: Mapping[str, object]) -> str:
    rows = []
    for system, result in results.items():
        rows.append((system, result.fail_time, result.recover_time,
                     result.baseline_rate, result.dip_delay,
                     result.post_recovery_rate, result.recovery_ratio))
    return format_table(
        ("system", "fail_ms", "recover_ms", "baseline_rate", "dip_after_ms",
         "post_recovery_rate", "recovery_ratio"),
        rows, title="Recovery sweep: fail -> recover cycle")


def format_recovery_curve(points) -> str:
    """Rows over :class:`~repro.experiments.failure_recovery.RecoveryCurvePoint`\\ s."""
    rows = [(p.system, p.outage_ms, p.baseline_rate, p.dip_depth, p.dip_delay,
             p.recovery_time_ms) for p in points]
    return format_table(
        ("system", "outage_ms", "baseline_rate", "dip_depth", "dip_after_ms",
         "recovered_after_ms"),
        rows, title=("Recovery curve: outage duration sweep "
                     "(leaf-spine fail -> recover)"))


def format_flow_size(results) -> str:
    """Rows over flow-size-sensitivity :class:`RunResult`\\ s.

    The scale factor is recovered from the spec name
    (``flow-size:<factor>x:<system>``).
    """
    rows = []
    for r in results:
        summary = r.summary
        parts = r.name.split(":")
        factor = parts[1] if len(parts) > 1 else "?"
        rows.append((factor, r.system, f"{round(r.load * 100)}%",
                     summary.get("avg_fct_ms", float("nan")),
                     summary.get("p99_fct_ms", float("nan")),
                     f"{int(summary.get('completed_flows', 0))}/"
                     f"{int(summary.get('flows', 0))}",
                     int(summary.get("drops", 0))))
    return format_table(
        ("scale", "system", "load", "avg_fct_ms", "p99_fct_ms", "completed", "drops"),
        rows, title=("Flow-size sensitivity: distribution scale "
                     "x system (fat-tree)"))


def format_grid(results, title: str = "Grid results") -> str:
    """A generic table over :class:`~repro.experiments.runner.RunResult` rows."""
    rows = []
    for r in results:
        summary = r.summary
        rows.append((r.name, r.system, f"{round(r.load * 100)}%",
                     summary.get("avg_fct_ms", float("nan")),
                     summary.get("p99_fct_ms", float("nan")),
                     f"{int(summary.get('completed_flows', 0))}/{int(summary.get('flows', 0))}",
                     int(summary.get("drops", 0))))
    return format_table(
        ("scenario", "system", "load", "avg_fct_ms", "p99_fct_ms", "completed", "drops"),
        rows, title=title)


def format_transport(results) -> str:
    """Rows over transport-sensitivity :class:`RunResult`\\ s.

    The transport mode is recovered from the spec name
    (``transport:<mode>:<workload>:<load>:<system>``); ``goodput_ratio`` is
    goodput over raw delivered bytes (1.0 when no duplicates were delivered).
    """
    rows = []
    for r in results:
        summary = r.summary
        parts = r.name.split(":")
        transport = parts[1] if len(parts) > 1 else "?"
        delivered = summary.get("delivered_bytes", 0.0)
        goodput_ratio = summary.get("goodput_bytes", 0.0) / delivered \
            if delivered else float("nan")
        rows.append((transport, r.system, f"{round(r.load * 100)}%",
                     summary.get("avg_fct_ms", float("nan")),
                     summary.get("p99_fct_ms", float("nan")),
                     int(summary.get("retransmissions", 0)),
                     int(summary.get("fast_retransmits", 0)),
                     goodput_ratio,
                     f"{int(summary.get('completed_flows', 0))}/"
                     f"{int(summary.get('flows', 0))}"))
    return format_table(
        ("transport", "system", "load", "avg_fct_ms", "p99_fct_ms", "retx",
         "fast_retx", "goodput_ratio", "completed"),
        rows, title=("Transport sensitivity: mode x load "
                     "(asymmetric fat-tree, Figure 13 setting)"))


def format_overhead(points) -> str:
    rows = [(p.workload, f"{round(p.load * 100)}%", p.system, p.normalized_vs_ecmp,
             p.normalized_vs_ecmp_scaled, p.probe_bytes, p.tag_bytes, p.loop_fraction)
            for p in points]
    return format_table(
        ("workload", "load", "system", "norm_raw", "norm_scaled", "probe_B", "tag_B", "loops"),
        rows, title="Figure 16: traffic overhead (normalized to ECMP)")


def format_ablation(points, title: str = "Ablation") -> str:
    rows = [(p.parameter, p.value, p.avg_fct_ms, p.loop_fraction, p.loop_detections,
             p.overhead_ratio, f"{p.completed}/{p.flows}") for p in points]
    return format_table(
        ("parameter", "value", "avg_fct_ms", "loop_frac", "loop_det", "overhead", "completed"),
        rows, title=title)


def format_fidelity(points) -> str:
    """Rows over :class:`~repro.experiments.fluid_scale.FidelityPoint`\\ s."""
    rows = [(p.fabric, p.system, f"{round(p.load * 100)}%",
             f"{p.fluid_flows}/{p.packet_flows}",
             p.packet_p50_ms, p.fluid_p50_ms, p.p50_delta_pct,
             p.packet_p99_ms, p.fluid_p99_ms, p.p99_delta_pct)
            for p in points]
    return format_table(
        ("fabric", "system", "load", "flows f/p", "pkt_p50", "fluid_p50",
         "d50_%", "pkt_p99", "fluid_p99", "d99_%"),
        rows, title=("Fluid vs packet: FCT fidelity "
                     "(delta % = fluid relative to packet)"))


def format_fluid_million(results) -> str:
    """Rows over the fluid-million :class:`RunResult`\\ s."""
    rows = []
    for r in results:
        summary = r.summary
        rows.append((r.system,
                     f"{int(summary.get('completed_flows', 0))}/"
                     f"{int(summary.get('flows', 0))}",
                     int(summary.get("epochs", 0)),
                     summary.get("avg_fct_ms", float("nan")),
                     summary.get("p50_fct_ms", float("nan")),
                     summary.get("p99_fct_ms", float("nan")),
                     summary.get("flow_sketch_max_flows", float("nan")),
                     summary.get("flow_sketch_mean_flows", float("nan")),
                     int(summary.get("failure_detections", 0))))
    return format_table(
        ("system", "completed", "epochs", "avg_fct_ms", "p50_fct_ms",
         "p99_fct_ms", "sketch_max", "sketch_mean", "detections"),
        rows, title=("Fluid million-flow scale "
                     "(epoch-driven max-min plane)"))
