"""Flow abstraction and endpoint transport state.

Flows are unidirectional transfers of ``size_packets`` full-size segments.
Senders run a window-based, ACK-clocked transport with go-back-N
retransmission on timeout — deliberately simpler than TCP, but sufficient to
make flow completion times respond to queueing, loss and path choice, which is
what the FCT comparisons in the paper measure.

Three transport modes exist (:data:`TRANSPORT_MODES`), selected per host via
the ``transport`` knob on :class:`~repro.simulator.network.Network`:

* ``"fixed"`` — the historical behaviour: the full configured window is
  available from the first segment (hosts blast a window-sized burst at flow
  start).  This is the default and is byte-identical to the pre-cwnd sender.
* ``"slowstart"`` — a congestion window (``cwnd``) governs the send window:
  slow start (cwnd += 1 per newly ACKed segment) up to ``ssthresh``, then
  AIMD congestion avoidance (cwnd += 1/cwnd per ACKed segment, i.e. roughly
  one segment per RTT).  The configured window acts as the receive-window
  cap (TCP's min(cwnd, rwnd)): cwnd never exceeds it, so the cwnd modes are
  never burstier than ``"fixed"``.  A retransmission timeout halves ``ssthresh`` and
  collapses ``cwnd`` to 1; three duplicate ACKs trigger a fast retransmit of
  the first unacknowledged segment and halve ``cwnd`` (the receiver caches
  out-of-order segments, so a single resend advances the cumulative ACK past
  the cached tail).
* ``"paced"`` — ``"slowstart"`` plus packet pacing: instead of bursting the
  whole window, the host spaces transmissions by ``srtt / cwnd`` (one
  RTT-smoothed window per round trip).  RTT is estimated with one outstanding
  timing sample at a time and Karn's rule (retransmitted segments are never
  sampled).

In the cwnd modes the retransmission timeout is **per flow**: once an RTT
sample exists, the RTO follows RFC 6298 (``srtt + 4·rttvar``, floored at
1 ms in the scaled regime, doubled per back-to-back timeout and reset on ACK
progress) and is capped at the host-level constant — so loss recovery reacts
at the flow's own RTT scale instead of a fabric-wide worst case.  ``"fixed"``
mode always uses the host constant, byte-identical to the historical sender.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Set

from repro.exceptions import one_of, require
from repro.simulator.packet import stable_flow_hash

__all__ = ["Flow", "SenderState", "ReceiverState", "TRANSPORT_MODES", "TRANSPORT_DOMAIN"]

#: Selectable sender behaviours (see the module docstring), and their domain.
TRANSPORT_MODES = ("fixed", "slowstart", "paced")
TRANSPORT_DOMAIN = one_of(TRANSPORT_MODES, "transport mode")

#: Slow-start threshold before any loss has been observed (effectively
#: unbounded — standard TCP semantics).
_INITIAL_SSTHRESH = float(1 << 30)

#: RTT estimate used for pacing before the first sample arrives (ms).  One
#: probe period's worth of transit is a reasonable prior in the scaled regime.
_INITIAL_RTT_ESTIMATE = 0.5

#: Lower bound on the srtt-derived per-flow RTO (ms).  RFC 6298 floors the
#: RTO at 1 s against spurious timeouts from delay variance; in the scaled
#: regime (packets serialize in ~10 µs, RTTs are fractions of a millisecond)
#: one millisecond plays the same role.
_MIN_RTO = 1.0

#: Cap on the exponential RTO backoff multiplier applied after repeated
#: timeouts (Karn's backoff); the host-level RTO bounds the result anyway.
_MAX_RTO_BACKOFF = 64.0


@dataclass(slots=True)
class Flow:
    """A single flow request produced by the workload generator.

    ``flow_id`` is required: it seeds the stable flow hash that drives
    ECMP / flowlet placement, so it must be a deterministic function of the
    workload, never of how many flows the process built before.
    """

    src_host: str
    dst_host: str
    size_packets: int
    start_time: float
    flow_id: int

    def __post_init__(self) -> None:
        if self.size_packets < 1:
            self.size_packets = 1


class SenderState:
    """Transport state kept by the sending host for one flow.

    The sender is a small state machine over ``(cumulative_ack, next_seq,
    cwnd, ssthresh, dup_acks)``; the host drives it from ACK arrivals and RTO
    timer checks.  In ``"fixed"`` mode ``cwnd`` is pinned to the configured
    window and never moves, which preserves the historical behaviour exactly.
    """

    __slots__ = ("flow", "flow_hash", "window", "rto", "transport", "cwnd",
                 "ssthresh", "max_cwnd", "cumulative_ack", "next_seq",
                 "last_progress_time", "completed", "retransmissions",
                 "fast_retransmits", "dup_acks", "pacing_armed", "srtt",
                 "rttvar", "_rto_backoff", "_rtt_seq", "_rtt_sent",
                 "_highest_sent")

    def __init__(self, flow: Flow, window: int, rto: float, transport: str = "fixed"):
        require("transport", transport, TRANSPORT_DOMAIN, ValueError)
        self.flow = flow
        #: Stamped on every segment of the flow (one CRC per flow, not per packet).
        self.flow_hash = stable_flow_hash((flow.src_host, flow.dst_host, flow.flow_id))
        self.window = max(1, window)
        self.rto = rto
        self.transport = transport
        self.cwnd = float(self.window) if transport == "fixed" else 1.0
        self.ssthresh = _INITIAL_SSTHRESH
        self.max_cwnd = self.cwnd
        self.cumulative_ack = 0          # all seqs < this are acknowledged
        self.next_seq = 0                # next new seq to transmit
        self.last_progress_time = flow.start_time
        self.completed = False
        self.retransmissions = 0
        self.fast_retransmits = 0
        self.dup_acks = 0
        self.pacing_armed = False        # a pacing tick is already scheduled
        # RTT estimation: one outstanding (seq, send time) sample, Karn's rule.
        self.srtt: Optional[float] = None
        self.rttvar: Optional[float] = None
        self._rto_backoff = 1.0          # doubled per RTO, reset on progress
        self._rtt_seq: Optional[int] = None
        self._rtt_sent = 0.0
        self._highest_sent = -1          # highest seq ever transmitted

    @property
    def in_flight(self) -> int:
        return self.next_seq - self.cumulative_ack

    @property
    def effective_window(self) -> int:
        """Segments the sender may keep in flight right now."""
        if self.transport == "fixed":
            return self.window
        return max(1, int(self.cwnd))

    def can_send(self) -> bool:
        # in_flight < effective_window, read in place: the host's pump asks
        # once per segment sent and once more per ACK.
        if self.completed or self.next_seq >= self.flow.size_packets:
            return False
        window = self.window if self.transport == "fixed" else max(1, int(self.cwnd))
        return self.next_seq - self.cumulative_ack < window

    # ------------------------------------------------------------------- RTT

    def note_sent(self, seq: int, now: float) -> None:
        """Record the send time of a new segment for RTT estimation.

        Karn's rule: a seq at or below the highest ever transmitted is a
        go-back-N resend — its ACK may belong to the original copy, so it
        must never arm an RTT sample.
        """
        if seq <= self._highest_sent:
            return
        self._highest_sent = seq
        if self._rtt_seq is None:
            self._rtt_seq = seq
            self._rtt_sent = now

    def _sample_rtt(self, ack_seq: int, now: float) -> None:
        if self._rtt_seq is not None and ack_seq > self._rtt_seq:
            sample = now - self._rtt_sent
            if self.srtt is None:
                # RFC 6298 initialisation: SRTT = R, RTTVAR = R/2.
                self.srtt = sample
                self.rttvar = sample / 2.0
            else:
                # RTTVAR before SRTT (the deviation is against the old SRTT).
                self.rttvar = 0.75 * self.rttvar + 0.25 * abs(self.srtt - sample)
                self.srtt = 0.875 * self.srtt + 0.125 * sample
            self._rtt_seq = None

    def current_rto(self) -> float:
        """The retransmission timeout in force for this flow right now.

        ``"fixed"`` mode — and any flow without an RTT sample yet — uses the
        host-level constant, preserving the historical schedule exactly.  The
        cwnd modes derive the RTO from the flow's own Karn-sampled smoothed
        RTT (``srtt + 4·rttvar``, RFC 6298), floored at :data:`_MIN_RTO`
        against spurious timeouts, doubled per back-to-back RTO (Karn's
        backoff, reset on ACK progress) and capped at the host constant so a
        per-flow RTO never reacts *slower* than the old host-level one.
        """
        if self.transport == "fixed" or self.srtt is None:
            return self.rto
        rto = max(_MIN_RTO, self.srtt + 4.0 * (self.rttvar or 0.0))
        return min(self.rto, rto * self._rto_backoff)

    def first_check_delay(self) -> float:
        """When to schedule the first timeout check after flow start.

        The cwnd modes arm at the RTO floor rather than the host constant:
        the flow has no RTT sample yet, but by the time the check fires it
        usually does — so the *first* loss is already detected at the
        per-flow RTO instead of waiting out the host constant (checks chase
        ``last_progress + current_rto()`` from then on).  ``"fixed"`` keeps
        the host constant, preserving its schedule exactly.
        """
        if self.transport == "fixed":
            return self.rto
        return min(self.rto, _MIN_RTO)

    def pacing_interval(self) -> float:
        """Gap between paced transmissions: one cwnd spread over one SRTT."""
        rtt = self.srtt if self.srtt is not None else _INITIAL_RTT_ESTIMATE
        return max(rtt, 1e-6) / max(self.cwnd, 1.0)

    # ------------------------------------------------------------------ ACKs

    def on_ack(self, ack_seq: int, now: float) -> bool:
        """Process a cumulative ACK; returns True if it made progress."""
        if ack_seq > self.cumulative_ack:
            newly_acked = ack_seq - self.cumulative_ack
            self._sample_rtt(ack_seq, now)
            self.cumulative_ack = ack_seq
            # After an RTO rewind a single resend can fill the hole and the
            # receiver's cached out-of-order tail jumps the ACK past
            # next_seq; without this clamp in_flight goes negative and the
            # sender would re-send already-ACKed segments.
            if self.next_seq < ack_seq:
                self.next_seq = ack_seq
            self.last_progress_time = now
            self.dup_acks = 0
            self._rto_backoff = 1.0
            if self.transport != "fixed":
                self._grow_cwnd(newly_acked)
            if self.cumulative_ack >= self.flow.size_packets:
                self.completed = True
            return True
        return False

    def _grow_cwnd(self, newly_acked: int) -> None:
        if self.cwnd < self.ssthresh:
            self.cwnd += newly_acked                 # slow start: +1 per ACKed segment
        else:
            self.cwnd += newly_acked / self.cwnd     # AIMD: ~+1 segment per RTT
        # The configured window is the receive-window stand-in: like TCP's
        # min(cwnd, rwnd), the congestion window never exceeds it, so the
        # cwnd modes are never burstier than "fixed" and the receiver's
        # out-of-order cache stays O(window).
        if self.cwnd > self.window:
            self.cwnd = float(self.window)
        if self.cwnd > self.max_cwnd:
            self.max_cwnd = self.cwnd

    def on_duplicate_ack(self, ack_seq: int) -> bool:
        """Count a duplicate ACK; True when fast retransmit should fire.

        Only an ACK for exactly the current cumulative ACK is a duplicate —
        a stale reordered ACK (``ack_seq < cumulative_ack``, e.g. overtaken
        on a longer path after a reroute) signals nothing about loss and
        must not count toward the trigger.  ``"fixed"`` mode never
        fast-retransmits (preserving the historical go-back-N-on-timeout-only
        behaviour); the cwnd modes trigger on the third duplicate, halving
        ``cwnd`` and asking the host to resend the first unacknowledged
        segment.
        """
        if (self.completed or self.in_flight == 0 or self.transport == "fixed"
                or ack_seq != self.cumulative_ack):
            return False
        self.dup_acks += 1
        if self.dup_acks == 3:
            self.ssthresh = max(2.0, self.cwnd / 2.0)
            self.cwnd = self.ssthresh
            self.fast_retransmits += 1
            self.retransmissions += 1
            self._rtt_seq = None                     # Karn: never sample a resend
            return True
        return False

    # -------------------------------------------------------------- timeouts

    def timeout_expired(self, now: float) -> bool:
        return (not self.completed
                and self.in_flight > 0
                and now - self.last_progress_time >= self.current_rto())

    def retransmit(self, now: float) -> None:
        """Go-back-N on RTO: rewind transmission to the first unacked segment."""
        if self.transport != "fixed":
            self.ssthresh = max(2.0, self.cwnd / 2.0)
            self.cwnd = 1.0
            self._rto_backoff = min(self._rto_backoff * 2.0, _MAX_RTO_BACKOFF)
        self.dup_acks = 0
        self._rtt_seq = None
        self.next_seq = self.cumulative_ack
        self.last_progress_time = now
        self.retransmissions += 1


class ReceiverState:
    """Transport state kept by the receiving host for one flow.

    Out-of-order segments are cached in :attr:`received` so a single
    (fast-)retransmission can advance the cumulative ACK past the cached
    tail.  Seqs below the cumulative ACK are pruned as the ACK advances, so
    the set holds only the out-of-order window — O(window) memory, not
    O(flow size).
    """

    __slots__ = ("flow_id", "src_host", "ack_flow_hash", "size_packets",
                 "received", "_cumulative", "completed")

    def __init__(self, flow_id: int, src_host: str, size_packets: Optional[int] = None):
        self.flow_id = flow_id
        self.src_host = src_host
        #: Flow hash of the ACKs this state answers with; the receiving host
        #: stamps it once (its own name leads the ACK direction's flow key).
        self.ack_flow_hash: Optional[int] = None
        self.size_packets = size_packets
        self.received: Set[int] = set()
        self._cumulative = 0
        self.completed = False

    def has_seen(self, seq: int) -> bool:
        """Whether this seq was already delivered (a duplicate delivery)."""
        return seq < self._cumulative or seq in self.received

    def on_data(self, seq: int, total_size: int) -> int:
        """Record a data segment; returns the new cumulative ACK value."""
        self.size_packets = total_size
        if seq >= self._cumulative:
            self.received.add(seq)
        while self._cumulative in self.received:
            self.received.remove(self._cumulative)
            self._cumulative += 1
        if self.size_packets is not None and self._cumulative >= self.size_packets:
            self.completed = True
        return self._cumulative

    @property
    def cumulative_ack(self) -> int:
        return self._cumulative
