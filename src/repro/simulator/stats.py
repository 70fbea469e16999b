"""Statistics collection for simulation runs.

One :class:`StatsCollector` instance is shared by every link, host and switch
of a run.  It gathers exactly the quantities the paper's evaluation reports:

* flow completion times (Figures 11, 12, 15),
* queue-length samples and their CDF (Figure 13),
* delivered goodput over time (Figure 14),
* traffic volume split into data / ACK / probe / tag-overhead bytes
  (Figure 16), and
* loop and drop counters (§6.5).

Delivery accounting separates **goodput** from raw throughput: hosts flag
retransmitted duplicate segments (first-time delivery is deduplicated by
(flow, seq) at the receiver), so ``goodput_bytes`` and the Figure 14 series
count each segment once while ``delivered_bytes`` keeps the raw total
including duplicates.  The invariant ``goodput_bytes <= delivered_bytes``
holds in every run; the two only differ under loss.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.nputil import mean as _mean, percentile_linear as _percentile
from repro.simulator.accumulators import (HyperLogLog, ReservoirSampler,
                                          StreamingHistogram)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulator.link import SimLink
    from repro.simulator.packet import Packet

__all__ = ["FlowRecord", "StatsCollector"]


@dataclass
class FlowRecord:
    """Lifecycle record of one flow."""

    flow_id: int
    src_host: str
    dst_host: str
    size_packets: int
    start_time: float
    completion_time: Optional[float] = None
    retransmissions: int = 0
    #: Retransmissions triggered by triple duplicate ACKs (subset of
    #: :attr:`retransmissions`; always 0 under the "fixed" transport).
    fast_retransmits: int = 0
    #: Congestion-window summary reported by the sender at completion
    #: (0.0 while in flight or when the run ended first).
    final_cwnd: float = 0.0
    max_cwnd: float = 0.0

    @property
    def completed(self) -> bool:
        return self.completion_time is not None

    @property
    def fct(self) -> Optional[float]:
        """Flow completion time in milliseconds (None while in flight)."""
        if self.completion_time is None:
            return None
        return self.completion_time - self.start_time


class StatsCollector:
    """Aggregates measurements across one simulation run."""

    def __init__(self, throughput_bin_ms: float = 1.0,
                 record_paths: bool = False, path_sample_limit: int = 200_000,
                 fct_percentiles: Sequence[float] = (),
                 flow_sketch: bool = False):
        self.flows: Dict[int, FlowRecord] = {}
        self.completed_count = 0
        self._completion_target = -1
        self._completion_callback = None
        #: Streaming queue-length accumulator: O(1) per sample, bounded memory
        #: (queue lengths are integers bounded by the buffer size), exact
        #: percentiles.
        self.queue_histogram = StreamingHistogram()
        self.throughput_bin_ms = throughput_bin_ms
        #: Per-bin *goodput* (first-time deliveries only; duplicates excluded).
        self._goodput_bytes_per_bin: Dict[int, float] = defaultdict(float)

        # Delivery accounting: raw payload bytes reaching their destination
        # (including go-back-N duplicates) vs goodput (unique seqs only).
        self.delivered_bytes = 0.0
        self.goodput_bytes = 0.0
        self.duplicate_deliveries = 0

        #: When enabled, switches append their name to every data packet and
        #: delivered paths are sampled here (used for the §6.5 loop fraction
        #: and by the policy-compliance tests).  A seeded reservoir keeps the
        #: sample uniform over the whole run in bounded memory.
        self.record_paths = record_paths
        self._path_reservoir = ReservoirSampler(path_sample_limit)

        # Traffic accounting (bytes on the wire across all links).
        self.data_bytes = 0.0
        self.ack_bytes = 0.0
        self.probe_bytes = 0.0
        self.tag_overhead_bytes = 0.0
        self.total_packets = 0

        # Data-plane events.
        self.drops = 0
        self.probe_drops = 0
        self.loop_detections = 0
        self.looped_packets = 0
        self.data_packets_forwarded = 0
        self.flowlet_expirations = 0
        self.failure_detections = 0

        # Opt-in extensions (both default off, keeping the historical summary
        # key set byte-identical; see :meth:`_extension_summary`).
        #: Extra FCT percentiles to report, e.g. ``(50.0,)`` adds
        #: ``"p50_fct_ms"``.
        self.fct_percentiles: Tuple[float, ...] = tuple(fct_percentiles)
        #: Per-switch flow-cardinality HyperLogLog sketches (the fluid-scale
        #: telemetry): exact per-switch flow sets would cost O(flows) memory
        #: per switch at 10^6 flows, the sketch is constant-size.
        self.flow_sketch = flow_sketch
        self._flow_sketches: Dict[str, HyperLogLog] = {}

    # ------------------------------------------------------- sketch extension

    def record_path_flow(self, switches: Sequence[str], flow_id: int) -> None:
        """Offer one flow to the cardinality sketch of every switch on its path.

        One digest per call: the sketches share a precision, so the flow
        hashes to the same (register, rank) in each of them.  No-op unless
        ``flow_sketch`` was requested; callers may invoke it unconditionally
        on every flow placement.
        """
        if not self.flow_sketch:
            return
        sketches = self._flow_sketches
        index = -1
        for switch in switches:
            sketch = sketches.get(switch)
            if sketch is None:
                sketch = sketches[switch] = HyperLogLog()
            if index < 0:
                index, rank = sketch.slot(flow_id)
            registers = sketch.registers
            if rank > registers[index]:
                registers[index] = rank

    def flow_sketch_estimates(self) -> Dict[str, float]:
        """Per-switch distinct-flow estimates, in sorted switch order."""
        return {name: self._flow_sketches[name].estimate()
                for name in sorted(self._flow_sketches)}

    def _extension_summary(self) -> Dict[str, float]:
        """Summary keys contributed by the opt-in extensions.

        Empty when both extensions are off, so the default summary stays
        byte-identical to the historical key set.
        """
        extras: Dict[str, float] = {}
        for q in self.fct_percentiles:
            extras[f"p{q:g}_fct_ms"] = self.percentile_fct(q)
        if self.flow_sketch:
            estimates = list(self.flow_sketch_estimates().values())
            extras["flow_sketch_switches"] = len(estimates)
            extras["flow_sketch_max_flows"] = max(estimates) if estimates else 0.0
            extras["flow_sketch_mean_flows"] = _mean(estimates) if estimates else 0.0
        return extras

    # ------------------------------------------------------------------ flows

    def register_flow(self, flow_id: int, src_host: str, dst_host: str,
                      size_packets: int, start_time: float) -> FlowRecord:
        record = FlowRecord(flow_id, src_host, dst_host, size_packets, start_time)
        self.flows[flow_id] = record
        return record

    def complete_flow(self, flow_id: int, time: float) -> None:
        record = self.flows.get(flow_id)
        if record is not None and record.completion_time is None:
            record.completion_time = time
            self.completed_count += 1
            if self.completed_count == self._completion_target and \
                    self._completion_callback is not None:
                self._completion_callback()

    def watch_completion(self, target: int, callback) -> None:
        """Invoke ``callback`` once ``target`` flows have completed.

        The FCT experiments use this to stop a run as soon as its last flow
        finishes instead of simulating the remaining probe-only tail.
        """
        self._completion_target = target
        self._completion_callback = callback

    def record_retransmission(self, flow_id: int, fast: bool = False) -> None:
        record = self.flows.get(flow_id)
        if record is not None:
            record.retransmissions += 1
            if fast:
                record.fast_retransmits += 1

    def record_transport(self, flow_id: int, final_cwnd: float, max_cwnd: float) -> None:
        """Store the sender's congestion-window summary (called at completion)."""
        record = self.flows.get(flow_id)
        if record is not None:
            record.final_cwnd = final_cwnd
            record.max_cwnd = max_cwnd

    def completed_flows(self) -> List[FlowRecord]:
        return [f for f in self.flows.values() if f.completed]

    def flow_completion_times(self) -> List[float]:
        return [f.fct for f in self.flows.values() if f.completed]

    def average_fct(self) -> float:
        """Mean FCT over completed flows (ms); NaN if nothing completed."""
        fcts = self.flow_completion_times()
        return _mean(fcts) if fcts else float("nan")

    def percentile_fct(self, percentile: float) -> float:
        fcts = self.flow_completion_times()
        return _percentile(fcts, percentile) if fcts else float("nan")

    def completion_ratio(self) -> float:
        """Fraction of flows that finished before the run ended."""
        if not self.flows:
            return 1.0
        return len(self.completed_flows()) / len(self.flows)

    # ------------------------------------------------------------------ links

    def record_transmission(self, link: "SimLink", packet: "Packet") -> None:
        self.total_packets += 1
        kind = packet.kind
        if kind == "data":
            self.data_bytes += packet.size_bytes
            self.tag_overhead_bytes += packet.extra_header_bits * 0.125
        elif kind == "ack":
            self.ack_bytes += packet.wire_bytes
        else:
            self.probe_bytes += packet.wire_bytes

    def record_drop(self, link: "SimLink", packet: "Packet") -> None:
        if packet.kind == "probe":
            self.probe_drops += 1
        else:
            self.drops += 1

    def record_switch_drop(self, packet: "Packet") -> None:
        """A switch discarded a packet it could not forward (TTL expiry, no
        route, no port).  Routed through a method — rather than the switches
        bumping :attr:`drops` inline — so the sanitizer's conservation ledger
        can observe every drop source."""
        self.drops += 1

    def record_queue_length(self, link: "SimLink", length: int) -> None:
        self.queue_histogram.record(length)

    def queue_length_cdf(self, points: Sequence[float] = (0.5, 0.9, 0.99, 1.0)) -> Dict[float, float]:
        """Queue length at the requested CDF points (packets)."""
        return {p: self.queue_histogram.percentile(100.0 * p) for p in points}

    # ------------------------------------------------------------- throughput

    def record_delivery(self, packet: "Packet", time: float,
                        duplicate: bool = False) -> None:
        """Called by hosts when a data packet reaches its destination.

        ``duplicate`` marks a retransmitted segment the receiver had already
        seen: it counts towards raw :attr:`delivered_bytes` but never towards
        :attr:`goodput_bytes` or the Figure 14 series — delivered work must
        not be inflated by go-back-N duplicates in exactly the loss-heavy
        regimes the comparisons care about.
        """
        self.delivered_bytes += packet.size_bytes
        if duplicate:
            self.duplicate_deliveries += 1
        else:
            self.goodput_bytes += packet.size_bytes
            bin_index = int(time / self.throughput_bin_ms)
            self._goodput_bytes_per_bin[bin_index] += packet.size_bytes
        if self.record_paths and packet.path_trace is not None:
            self._path_reservoir.offer((packet.flow_id, tuple(packet.path_trace)))

    @property
    def delivered_paths(self) -> List[Tuple[int, Tuple[str, ...]]]:
        """Sampled (flow id, switch path) pairs of delivered data packets."""
        return self._path_reservoir.samples

    def throughput_series(self) -> List[Tuple[float, float]]:
        """(time ms, delivered Gbps-equivalent) *goodput* samples, one per bin.

        Bins count first-time deliveries only — a retransmitted duplicate is
        not delivered work, and counting it would inflate the baselines in
        lossy regimes.  The "Gbps" unit assumes the scaled convention of 1
        full packet per ms per capacity unit; the absolute numbers are not
        meaningful, the shape around a failure event is (Figure 14).
        """
        if not self._goodput_bytes_per_bin:
            return []
        series = []
        for bin_index in sorted(self._goodput_bytes_per_bin):
            time = bin_index * self.throughput_bin_ms
            bytes_delivered = self._goodput_bytes_per_bin[bin_index]
            # bytes per ms -> packets per ms (one packet == one capacity unit).
            rate = bytes_delivered / 1500.0 / self.throughput_bin_ms
            series.append((time, rate))
        return series

    # --------------------------------------------------------------- overhead

    def total_traffic_bytes(self) -> float:
        return self.data_bytes + self.ack_bytes + self.probe_bytes + self.tag_overhead_bytes

    def overhead_ratio(self) -> float:
        """Probe + tag bytes as a fraction of data bytes."""
        if self.data_bytes == 0:
            return 0.0
        return (self.probe_bytes + self.tag_overhead_bytes) / self.data_bytes

    def loop_fraction(self) -> float:
        """Fraction of forwarded data packets that experienced a loop (§6.5)."""
        if self.data_packets_forwarded == 0:
            return 0.0
        return self.looped_packets / self.data_packets_forwarded

    # ------------------------------------------------------------------ report

    def total_retransmissions(self) -> int:
        return sum(f.retransmissions for f in self.flows.values())

    def total_fast_retransmits(self) -> int:
        return sum(f.fast_retransmits for f in self.flows.values())

    def mean_max_cwnd(self) -> float:
        """Mean peak congestion window over flows that reported one (else 0)."""
        peaks = [f.max_cwnd for f in self.flows.values() if f.max_cwnd > 0]
        return _mean(peaks) if peaks else 0.0

    def per_flow_transport(self) -> List[Dict[str, float]]:
        """Per-flow retransmit/cwnd summaries, in flow-id order."""
        return [
            {
                "flow_id": f.flow_id,
                "retransmissions": f.retransmissions,
                "fast_retransmits": f.fast_retransmits,
                "final_cwnd": f.final_cwnd,
                "max_cwnd": f.max_cwnd,
            }
            for f in sorted(self.flows.values(), key=lambda f: f.flow_id)
        ]

    def summary(self) -> Dict[str, float]:
        """A flat summary dictionary used by the experiment drivers."""
        summary = {
            "flows": len(self.flows),
            "completed_flows": len(self.completed_flows()),
            "completion_ratio": self.completion_ratio(),
            "avg_fct_ms": self.average_fct(),
            "p99_fct_ms": self.percentile_fct(99.0),
            "drops": self.drops,
            "goodput_bytes": self.goodput_bytes,
            "delivered_bytes": self.delivered_bytes,
            "duplicate_deliveries": self.duplicate_deliveries,
            "retransmissions": self.total_retransmissions(),
            "fast_retransmits": self.total_fast_retransmits(),
            "mean_max_cwnd": self.mean_max_cwnd(),
            "data_bytes": self.data_bytes,
            "ack_bytes": self.ack_bytes,
            "probe_bytes": self.probe_bytes,
            "tag_overhead_bytes": self.tag_overhead_bytes,
            "overhead_ratio": self.overhead_ratio(),
            "loop_fraction": self.loop_fraction(),
            "loop_detections": self.loop_detections,
            "flowlet_expirations": self.flowlet_expirations,
            "failure_detections": self.failure_detections,
        }
        summary.update(self._extension_summary())
        return summary
