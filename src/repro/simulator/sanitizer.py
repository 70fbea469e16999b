"""Runtime sanitizer plane: opt-in invariant checking with event provenance.

``Simulator(sanitize=True)`` (or ``Network(sanitize=True)``, ``contra
run-grid --sanitize``, ``CONTRA_SANITIZE=1``) attaches a :class:`Sanitizer`
that wraps the engine instance's scheduling calls and ``run`` — the event
loop itself is the engine's one loop — and installs the same wrap-based
instrumentation over the link, host/transport and protocol-table layers.
The checks are the repo's hardest *runtime* invariants — the ones
integration tests can only observe after the fact:

* **engine** — event-time monotonicity (the clock never runs backwards),
  batch-lane counter coherence at quiesce, and a provenance tag on every
  heap entry (an untagged entry means something scheduled outside the
  Simulator API), each checked at the heap head before the entry runs;
* **link** — per-(link, tick) probe FIFO (delivery order is enqueue order),
  per-link monotone probe delivery times, and fail-epoch staleness (a probe
  registered under a dead epoch must never reach ``deliver``);
* **transport** — packet conservation at quiesce per kind
  (``injected == received + dropped + lost + queued + in-flight``),
  ``goodput_bytes <= delivered_bytes``, non-negative ``in_flight`` / cwnd
  floor per ACK, and RTO timer-chain liveness (every incomplete reliable
  flow has a pending ``_check_timeout``);
* **protocol tables** (Contra) — FwdT version monotonicity per key (under
  versioning), and every BestT choice resolves in FwdT.

Every scheduled event carries a cheap provenance tag — ``(callback
qualname, scheduling site)`` — so a violation names its culprit.  Tags are
elided entirely when sanitize is off: no wrapper shadows a method of the
default :class:`~repro.simulator.engine.Simulator`, which is byte-identical
to before this module existed (the zero-cost-when-off contract, see
ARCHITECTURE.md §6).

The same plane powers the **race detector** (`repro.experiments.race`):
seeded permutations of same-timestamp events *outside* the documented FIFO
contracts — adjacent commutable periodic rounds in the heap, and the
per-switch iteration order inside a failure-check round — with a schedule
trace for pinpointing the first divergence when summaries differ.
"""

from __future__ import annotations

import functools
import random
import sys
from collections import deque
from types import FrameType
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Any, Callable, Deque, Dict, FrozenSet,
                    List, Optional, Tuple)

import repro.simulator.engine as _engine
from repro.exceptions import SimulationError
from repro.simulator.engine import Simulator, _fire_batch, _fire_handle

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulator.host import Host
    from repro.simulator.link import SimLink
    from repro.simulator.network import Network
    from repro.simulator.packet import Packet
    from repro.simulator.stats import StatsCollector

__all__ = [
    "SANITIZE_DEFAULT",
    "Violation",
    "SanitizerError",
    "Sanitizer",
]

#: Process-wide default consulted by ``Simulator(sanitize=None)``.  Kept a
#: plain module constant (no environment read at import time — the simulator
#: package must stay free of ``os.environ``, see tools/lint_determinism.py);
#: the experiment layer resolves ``CONTRA_SANITIZE`` in
#: ``repro.experiments.config.sanitize_from_env`` and passes the result down.
SANITIZE_DEFAULT = False

#: Conserved packet kinds.  Probes are excluded: multicast shares one packet
#: object across links, so per-object conservation is not defined for them
#: (their FIFO/staleness contracts are checked on the probe lane instead).
_CONSERVED_KINDS = ("data", "ack")

#: Schedule-trace cap: race-check reruns short grid points, but a runaway
#: trace must never dominate memory; past the cap the trace marks itself
#: truncated instead of growing.
_TRACE_LIMIT = 500_000

_SKIP_FILES = frozenset(
    f for f in (_engine.__file__, __file__) if f is not None)


def _qualname(obj: Any) -> str:
    name = getattr(obj, "__qualname__", None)
    if isinstance(name, str):
        return name
    return type(obj).__name__


def _site() -> str:
    """Qualname of the nearest calling frame outside the engine/sanitizer."""
    frame: Optional[FrameType] = sys._getframe(1)
    while frame is not None:
        code = frame.f_code
        if code.co_filename not in _SKIP_FILES:
            # co_qualname needs Python 3.11+; co_name is close enough below.
            return str(getattr(code, "co_qualname", code.co_name))
        frame = frame.f_back
    return "<unknown>"


class _Tagged:
    """A scheduled callback carrying its provenance tag: what a sanitized heap holds.

    Firing it sets :attr:`Sanitizer.current_tag`, appends to the schedule
    trace, gives the race detector its chance to run an adjacent commutable
    round first, runs the callback, and then checks the heap head — the
    entry the loop runs next — before the loop pops it.
    """

    __slots__ = ("inner", "tag", "sanitizer")

    def __init__(self, inner: Callable[..., None], site: str,
                 sanitizer: "Sanitizer") -> None:
        self.inner = inner
        self.tag = (_qualname(inner), site)
        self.sanitizer = sanitizer

    def __call__(self, *args: Any) -> None:
        sanitizer = self.sanitizer
        if sanitizer.race_rng is not None:
            sanitizer._race(self)
        sanitizer.current_tag = self.tag
        if sanitizer.trace_enabled:
            sanitizer.trace_event(sanitizer.sim._now, self.tag)
        self.inner(*args)
        sanitizer._check_head()


@dataclass
class Violation:
    """One detected invariant violation, with the culprit's provenance."""

    time: float
    rule: str
    message: str
    #: (callback qualname, scheduling site) of the event executing when the
    #: violation was detected; None for quiesce-time checks.
    tag: Optional[Tuple[str, str]] = None

    def render(self) -> str:
        where = f" (provenance: {self.tag[0]} @ {self.tag[1]})" if self.tag else ""
        return f"[{self.rule}] t={self.time:.6f}: {self.message}{where}"

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "time": self.time,
            "rule": self.rule,
            "message": self.message,
            "tag": list(self.tag) if self.tag is not None else None,
        }


class SanitizerError(SimulationError):
    """Raised on the first violation when the sanitizer runs in raise mode."""

    def __init__(self, violation: Violation):
        super().__init__(violation.render())
        self.violation = violation


class Sanitizer:
    """Violation collector + engine and network instrumentation for one sanitized run.

    ``mode="raise"`` (the default) aborts the run on the first violation;
    ``mode="collect"`` records them all and lets :meth:`report` summarize —
    the race detector uses collect mode so a diff sees complete runs.
    """

    #: The engine this sanitizer instruments (set by :meth:`instrument_engine`).
    sim: Simulator

    def __init__(self, mode: str = "raise"):
        self.mode = mode
        self.violations: List[Violation] = []
        self.notes: List[str] = []
        self.checks_run = 0
        #: Provenance of the event currently executing (set as it fires).
        self.current_tag: Optional[Tuple[str, str]] = None

        # Race-detector hooks (installed by repro.experiments.race).
        self.race_rng: Optional[random.Random] = None
        self.race_commutable: FrozenSet[Any] = frozenset()
        self._swapping = False

        # Schedule trace (race divergence pinpointing).
        self.trace_enabled = False
        self.trace: List[Tuple[float, Tuple[str, str]]] = []
        self.trace_truncated = False

        # Conservation ledger, per conserved kind.
        self._injected: Dict[str, int] = {k: 0 for k in _CONSERVED_KINDS}
        self._received: Dict[str, int] = {k: 0 for k in _CONSERVED_KINDS}
        self._dropped: Dict[str, int] = {k: 0 for k in _CONSERVED_KINDS}
        self._lost: Dict[str, int] = {k: 0 for k in _CONSERVED_KINDS}
        self._inflight: Dict[str, int] = {k: 0 for k in _CONSERVED_KINDS}

        # Probe-lane FIFO state.
        self._probe_fifo = True
        self._probe_sizes: set = set()
        self._expect_drop = 0

        self._network: Optional["Network"] = None

    # ------------------------------------------------------------- reporting

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok

    def violate(self, rule: str, message: str,
                tag: Optional[Tuple[str, str]] = None) -> None:
        if tag is None:
            tag = self.current_tag
        violation = Violation(self.sim._now, rule, message, tag)
        self.violations.append(violation)
        if self.mode == "raise":
            raise SanitizerError(violation)

    def trace_event(self, time: float, tag: Tuple[str, str]) -> None:
        if len(self.trace) < _TRACE_LIMIT:
            self.trace.append((time, tag))
        else:
            self.trace_truncated = True

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "ok": self.ok,
            "checks_run": self.checks_run,
            "violations": [v.to_json_dict() for v in self.violations],
            "notes": list(self.notes),
        }

    def render(self) -> str:
        lines = [f"sanitizer: {self.checks_run} check(s): "
                 + ("OK" if self.ok else f"{len(self.violations)} violation(s)")]
        lines.extend(f"  VIOLATION: {v.render()}" for v in self.violations)
        lines.extend(f"  note: {n}" for n in self.notes)
        return "\n".join(lines)

    # -------------------------------------------------------- instrumentation

    def instrument_engine(self, sim: Simulator) -> None:
        """Shadow ``sim``'s scheduling calls and ``run`` with checking wrappers.

        Called by ``Simulator.__init__`` under ``sanitize=True``.  The loop
        that runs is the engine's own; each wrapper hands the inner call a
        :class:`_Tagged` callback in place of the scheduled one.  For a
        cancellable or periodic handle the *handle's* callback is tagged, as
        the loop recognises ``_fire_handle`` entries by identity to expire
        tombstones; a re-armed periodic handle keeps its wrapper and only
        changes its tag.  Lane members share one tagged callback per distinct
        (hashable) callback, so a registration still allocates nothing, and
        a stop-requeued lane tail needs no wrapper: its members are tagged.
        """
        self.sim = sim
        sim.sanitizer = self  # type: ignore[attr-defined]
        inner_push, inner_later, inner_at = sim._push, sim.call_later, sim.call_at
        inner_batched, inner_run = sim.call_batched, sim.run
        lane: Dict[Any, _Tagged] = {}

        def push(time: float, callback: Callable[..., None], args: Tuple) -> None:
            if callback is _fire_handle:
                handle = args[0]
                if type(handle.callback) is _Tagged:    # a periodic re-arm
                    handle.callback.tag = (handle.callback.tag[0], "periodic-rearm")
                else:
                    handle.callback = _Tagged(handle.callback, _site(), self)
            else:
                callback = _Tagged(callback, _site(), self)
            inner_push(time, callback, args)

        def call_later(delay: float, callback: Callable[..., None], *args: Any) -> None:
            inner_later(delay, _Tagged(callback, _site(), self), *args)

        def call_at(time: float, callback: Callable[..., None], *args: Any) -> None:
            inner_at(time, _Tagged(callback, _site(), self), *args)

        def call_batched(time: float, callback: Callable[[Any, Any], None],
                         subject: Any, guard: Any) -> None:
            if sim._batching:       # lane off, the inner call goes through push
                member = lane.get(callback)
                if member is None:
                    member = lane[callback] = _Tagged(callback, "batch-lane", self)
                callback = member
            inner_batched(time, callback, subject, guard)

        def run(until: Optional[float] = None,
                max_events: Optional[int] = None) -> float:
            self._check_head()
            now = inner_run(until, max_events)
            if not sim._queue:
                self._check_drained()
            return now

        for name, wrapper in (("_push", push), ("call_later", call_later),
                              ("call_at", call_at), ("call_batched", call_batched),
                              ("run", run)):
            setattr(sim, name, wrapper)

    def _check_head(self, index: int = 0) -> None:
        """Check the heap entries that can run next, before the loop pops them.

        Every tagged callback calls this after it runs, and the ``run``
        wrapper before the loop starts, so an entry pushed around the
        Simulator API — untagged, or behind the clock — is reported before
        it runs.  It is then adopted (tagged), so it is reported once and
        the check still follows it.  A cancelled handle expires without
        running anything, so the check looks behind it: the next live entry
        is a live entry all of whose heap ancestors are tombstones, and
        every such entry is checked.
        """
        sim = self.sim
        queue = sim._queue
        if index >= len(queue):
            return
        time, seq, callback, args = queue[index]
        if callback is _fire_handle:
            handle = args[0]
            if not handle.active:
                self._check_head(2 * index + 1)
                self._check_head(2 * index + 2)
                return
            tagged = type(handle.callback) is _Tagged
        else:
            tagged = callback is _fire_batch or type(callback) is _Tagged
        if time < sim._now:
            self.violate(
                "time-monotonicity",
                f"event at t={time!r} is due with the clock already at "
                f"t={sim._now!r}")
        if not tagged:
            self.violate(
                "untagged-event",
                f"heap entry at t={time!r} carries no provenance tag "
                f"(scheduled outside the Simulator API)")
            if callback is _fire_handle:
                handle.callback = _Tagged(handle.callback, "untagged", self)
            else:
                queue[index] = (time, seq, _Tagged(callback, "untagged", self), args)

    def _check_drained(self) -> None:
        """Counter coherence once the heap empties (tombstones, batch lane)."""
        sim = self.sim
        self.checks_run += 1
        if sim._cancelled != 0:
            self.violate(
                "counter-coherence",
                f"queue drained with _cancelled={sim._cancelled} "
                f"(tombstones unaccounted)")
        if sim._batch_pending != 0 or sim._batch_entries != 0:
            self.violate(
                "counter-coherence",
                f"queue drained with batch counters pending="
                f"{sim._batch_pending} entries={sim._batch_entries}")

    def _commutable(self, callback: Any) -> bool:
        inner = callback.inner if type(callback) is _Tagged else callback
        return getattr(inner, "__func__", inner) in self.race_commutable

    def _race(self, firing: _Tagged) -> None:
        """The heap axis: maybe fire the adjacent same-tick commutable round first.

        Called as a tagged callback fires, before it runs.  When it is a
        commutable round and the heap head is another one at this tick, a
        coin flip under the race RNG has the engine's own loop pop and fire
        the head first (``Simulator.run(max_events=1)``, nested), and the
        check repeats against the new head — the adjacent swap of two
        same-tick rounds.  Only rounds named by the routing system's
        ``commutable_rounds`` qualify (periodic rounds by that contract);
        lane members and packet events never do, their same-tick order is
        contractual FIFO (ARCHITECTURE.md §6).  The head counts as an event
        of the nested call, so an outer ``max_events`` does not see it.
        """
        sim, rng = self.sim, self.race_rng
        queue = sim._queue
        if self._swapping or not queue or not self._commutable(firing):
            return
        head = queue[0]
        if head[0] == sim._now and head[2] is _fire_handle \
                and head[3][0].active and self._commutable(head[3][0].callback) \
                and rng is not None and rng.random() < 0.5:
            self._swapping = True
            try:
                Simulator.run(sim, max_events=1)
            finally:
                self._swapping = False
            self._race(firing)

    def instrument_network(self, network: "Network") -> None:
        """Wrap the network's links, hosts, stats and protocol tables.

        Called by ``Network.__init__`` right after ``_build()`` — before
        anything is scheduled, so every registered delivery is a wrapped one.
        Wrapping is instance-attribute shadowing: behaviour is unchanged
        (inner methods run verbatim), classes are untouched, and in
        particular ``metric_values`` never lands in a link's ``__dict__``
        (the probe plane's ``plain_link`` fast-path test).
        """
        self._network = network
        for key in sorted(network.links):
            self._instrument_link(network.links[key], network)
        for name in sorted(network.hosts):
            self._instrument_host(network.hosts[name])
        self._instrument_stats(network.stats)
        for name in sorted(network.switches):
            self._instrument_routing(name, network.switches[name].routing)

    def _note_probe_size(self, packet: "Packet") -> None:
        sizes = self._probe_sizes
        wire = packet.size_bytes + packet.extra_header_bits * 0.125
        if wire not in sizes:
            sizes.add(wire)
            if len(sizes) > 1 and self._probe_fifo:
                # Heterogeneous probe sizes → heterogeneous tx times → arrival
                # order can legitimately differ from enqueue order per link.
                self._probe_fifo = False
                self.notes.append(
                    "probe FIFO check disabled: probes with distinct wire "
                    f"sizes observed ({sorted(sizes)})")

    def _instrument_link(self, link: "SimLink", network: "Network") -> None:
        pending: Deque["Packet"] = deque()
        last_delivery = [0.0]
        dst_host: Optional["Host"] = network.hosts.get(link.dst)

        inner_enqueue = link.enqueue

        @functools.wraps(inner_enqueue)
        def enqueue(packet: "Packet") -> bool:
            accepted = inner_enqueue(packet)
            if accepted and packet.kind == "probe":
                self._note_probe_size(packet)
                if self._probe_fifo:
                    pending.append(packet)
            return accepted

        link.enqueue = enqueue  # type: ignore[method-assign]

        # Probes register ``_deliver_probe`` on the batch lane with the fail
        # epoch as their guard.  The inner stays reachable as an instance
        # attribute so the violation-injection tests can substitute a
        # deliberately buggy implementation underneath the checks.
        link._sanitizer_probe_inner = link._deliver_probe  # type: ignore[attr-defined]

        @functools.wraps(link._sanitizer_probe_inner)  # type: ignore[attr-defined]
        def deliver_probe(packet: "Packet", epoch: int) -> None:
            now = link.sim._now
            self.checks_run += 1
            if now < last_delivery[0]:
                self.violate(
                    "link-fifo",
                    f"probe on {link.src}->{link.dst} delivered at "
                    f"t={now} after a delivery at t={last_delivery[0]}")
            last_delivery[0] = now
            if self._probe_fifo:
                head = pending.popleft() if pending else None
                if head is not packet:
                    self._probe_fifo = False
                    self.violate(
                        "link-fifo",
                        f"per-(link,tick) FIFO violated on "
                        f"{link.src}->{link.dst}: delivered {packet!r}, "
                        f"expected {head!r}")
            if link.failed or epoch != link._fail_epoch:
                self._expect_drop += 1
                try:
                    link._sanitizer_probe_inner(packet, epoch)  # type: ignore[attr-defined]
                finally:
                    self._expect_drop -= 1
            else:
                link._sanitizer_probe_inner(packet, epoch)  # type: ignore[attr-defined]

        link._deliver_probe = deliver_probe  # type: ignore[method-assign]

        inner_deliver_packet = link._deliver_packet

        @functools.wraps(inner_deliver_packet)
        def deliver_packet(packet: "Packet", epoch: int) -> None:
            kind = packet.kind
            if kind in self._inflight:
                self._inflight[kind] -= 1
                if link.failed or epoch != link._fail_epoch:
                    self._lost[kind] += 1
            inner_deliver_packet(packet, epoch)

        link._deliver_packet = deliver_packet  # type: ignore[method-assign]

        def check_not_stale() -> None:
            if self._expect_drop:
                self.violate(
                    "stale-probe",
                    f"stale-epoch probe delivered on "
                    f"{link.src}->{link.dst} (registered epoch is dead)")

        if link.deliver is not None:
            inner_deliver = link.deliver

            @functools.wraps(inner_deliver)
            def deliver(packet: "Packet", inport: str) -> None:
                check_not_stale()
                kind = packet.kind
                if dst_host is not None and kind in self._received:
                    self._received[kind] += 1
                inner_deliver(packet, inport)
                if dst_host is not None and kind == "ack":
                    self._check_sender(dst_host, packet)

            link.deliver = deliver  # type: ignore[method-assign]

        # The probe delivery entry: a stale-epoch probe must never get here.
        if link.probe_sink is not None:
            inner_probe_sink = link.probe_sink

            @functools.wraps(inner_probe_sink)
            def probe_sink(packet: "Packet", inport: str) -> None:
                check_not_stale()
                inner_probe_sink(packet, inport)

            link.probe_sink = probe_sink

        # The one transmit seam: ``enqueue`` (idle serializer) and ``_drain``
        # both reach it through the instance attribute.
        inner_transmit = link._transmit

        @functools.wraps(inner_transmit)
        def transmit(packet: "Packet") -> None:
            kind = packet.kind
            if kind in self._inflight:
                self._inflight[kind] += 1
            inner_transmit(packet)

        link._transmit = transmit  # type: ignore[method-assign]

        inner_fail = link.fail

        @functools.wraps(inner_fail)
        def fail() -> None:
            for packet in link._queue:
                if packet.kind in self._lost:
                    self._lost[packet.kind] += 1
            inner_fail()

        link.fail = fail  # type: ignore[method-assign]

    def _check_sender(self, host: "Host", packet: "Packet") -> None:
        """Post-ACK transport sanity: in-flight never negative, cwnd >= 1."""
        sender = host._senders.get(packet.flow_id)
        if sender is None:
            return
        self.checks_run += 1
        if sender.in_flight < 0:
            self.violate(
                "sender-sanity",
                f"flow {packet.flow_id}: in_flight={sender.in_flight} < 0 "
                f"after ACK {packet.ack_seq}")
        if sender.cwnd < 1.0:
            self.violate(
                "sender-sanity",
                f"flow {packet.flow_id}: cwnd={sender.cwnd} collapsed below "
                f"the 1-segment floor")

    def _instrument_host(self, host: "Host") -> None:
        inner_transmit = host._transmit

        @functools.wraps(inner_transmit)
        def transmit(packet: "Packet") -> None:
            if packet.kind in self._injected:
                self._injected[packet.kind] += 1
            inner_transmit(packet)

        host._transmit = transmit  # type: ignore[method-assign]

    def _instrument_stats(self, stats: "StatsCollector") -> None:
        inner_drop = stats.record_drop

        @functools.wraps(inner_drop)
        def record_drop(link: "SimLink", packet: "Packet") -> None:
            if packet.kind in self._dropped:
                self._dropped[packet.kind] += 1
            inner_drop(link, packet)

        stats.record_drop = record_drop  # type: ignore[method-assign]

        inner_switch_drop = stats.record_switch_drop

        @functools.wraps(inner_switch_drop)
        def record_switch_drop(packet: "Packet") -> None:
            if packet.kind in self._dropped:
                self._dropped[packet.kind] += 1
            inner_switch_drop(packet)

        stats.record_switch_drop = record_switch_drop  # type: ignore[method-assign]

    def _instrument_routing(self, switch: str, logic: Any) -> None:
        """Contra table coherence (duck-typed: Hula has no FwdT/BestT)."""
        fwdt = getattr(logic, "fwdt", None)
        bestt = getattr(logic, "bestt", None)
        if fwdt is None or bestt is None:
            return
        versioned = bool(getattr(getattr(logic, "system", None),
                                 "use_versioning", False))

        inner_install = fwdt.install

        @functools.wraps(inner_install)
        def install(key: Any, entry: Any) -> None:
            if versioned:
                self.checks_run += 1
                old = fwdt.lookup(key)
                if old is not None and entry.version < old.version:
                    self.violate(
                        "fwdt-version",
                        f"switch {switch}: FwdT install for {key} decreased "
                        f"version {old.version} -> {entry.version}")
            inner_install(key, entry)

        fwdt.install = install  # type: ignore[method-assign]
        if hasattr(logic, "_fwdt_install"):
            # The probe loop binds this cached alias per run; repoint it so
            # the hot path routes through the check too.
            logic._fwdt_install = install

        inner_set = bestt.set

        @functools.wraps(inner_set)
        def best_set(destination: str, keys: Any) -> None:
            self.checks_run += 1
            for key in keys:
                if fwdt.lookup(key) is None:
                    self.violate(
                        "bestt-coherence",
                        f"switch {switch}: BestT for {destination!r} points "
                        f"at FwdT key {key} which does not resolve")
            inner_set(destination, keys)

        bestt.set = best_set  # type: ignore[method-assign]

    # ------------------------------------------------------------- quiesce

    def finish(self, network: "Network") -> None:
        """Quiesce-time checks, run by ``Network.run`` after the event loop."""
        if self._network is not network:
            return
        self.current_tag = None
        self._check_conservation(network)
        self._check_goodput(network)
        self._check_rto_liveness(network)

    def _check_conservation(self, network: "Network") -> None:
        queued: Dict[str, int] = {k: 0 for k in _CONSERVED_KINDS}
        for key in sorted(network.links):
            for packet in network.links[key]._queue:
                if packet.kind in queued:
                    queued[packet.kind] += 1
        for kind in _CONSERVED_KINDS:
            self.checks_run += 1
            accounted = (self._received[kind] + self._dropped[kind]
                         + self._lost[kind] + queued[kind]
                         + self._inflight[kind])
            if self._inflight[kind] < 0 or accounted != self._injected[kind]:
                self.violate(
                    "conservation",
                    f"{kind}: injected {self._injected[kind]} != received "
                    f"{self._received[kind]} + dropped {self._dropped[kind]} "
                    f"+ lost {self._lost[kind]} + queued {queued[kind]} "
                    f"+ in-flight {self._inflight[kind]}")

    def _check_goodput(self, network: "Network") -> None:
        stats = network.stats
        self.checks_run += 1
        if stats.goodput_bytes > stats.delivered_bytes:
            self.violate(
                "goodput",
                f"goodput_bytes {stats.goodput_bytes} exceeds "
                f"delivered_bytes {stats.delivered_bytes}")

    def _check_rto_liveness(self, network: "Network") -> None:
        """Every incomplete reliable flow must have a pending timeout check."""
        from repro.simulator.host import Host

        alive = set()
        for entry in network.sim._queue:
            callback = getattr(entry[2], "inner", None)     # a _Tagged callback
            if getattr(callback, "__func__", None) is Host._check_timeout \
                    and entry[3]:
                owner = getattr(callback, "__self__", None)
                if owner is not None:
                    alive.add((owner.name, entry[3][0]))
        for name in sorted(network.hosts):
            host = network.hosts[name]
            for flow_id in sorted(host._senders):
                sender = host._senders[flow_id]
                if sender.completed:
                    continue
                self.checks_run += 1
                if (name, flow_id) not in alive:
                    self.violate(
                        "rto-liveness",
                        f"flow {flow_id} at host {name} is incomplete but "
                        f"has no pending RTO check event (timer chain lost)")
