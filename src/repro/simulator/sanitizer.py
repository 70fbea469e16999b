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
* **link** — per-(link, tick) probe FIFO (delivery order is send order),
  per-link monotone probe delivery times, failure staleness (a probe in
  flight when its link failed must never reach the probe sink), and the
  probe lane itself (a probe handed to ``SimLink.enqueue`` is reported);
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
    from repro.simulator.packet import Packet, Probe
    from repro.simulator.stats import StatsCollector
    from repro.simulator.switchnode import SwitchNode

__all__ = [
    "Violation",
    "SanitizerError",
    "Sanitizer",
]

#: Conserved packet kinds.  Probes are excluded: multicast shares one packet
#: object across links, so per-object conservation is not defined for them
#: (their FIFO/staleness contracts are checked on the probe lane instead).
_CONSERVED_KINDS = ("data", "ack")

#: Schedule-trace cap: race-check reruns short grid points, but a runaway
#: trace must never dominate memory; past the cap the trace marks itself
#: truncated instead of growing.
_TRACE_LIMIT = 500_000

#: Marks a shadow that hid no instance attribute: released, it is deleted.
_UNSET = object()

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


class _SeeThrough:
    """The receivers a failing link names, matched through :class:`_Tagged`.

    A sanitized heap holds tagged callbacks; the engine's drop tests
    ``callback in receivers``, and this container answers for the callback
    under the tag.
    """

    __slots__ = ("receivers",)

    def __init__(self, receivers: Any) -> None:
        self.receivers = receivers

    def __contains__(self, callback: Any) -> bool:
        if type(callback) is _Tagged:
            callback = callback.inner
        return callback in self.receivers


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
        #: Per link: the probes sent on it and not yet delivered, in send order.
        self._probe_pending: Dict["SimLink", Deque["Packet | Probe"]] = {}

        self._network: Optional["Network"] = None
        #: (target, attribute, what it held before or _UNSET) per shadow.
        self._shadows: List[Tuple[Any, str, Any]] = []

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
        periodic handle the *handle's* callback is tagged, as the race
        detector recognises a round by its ``_fire_handle`` entry; a re-armed
        handle keeps its wrapper and only changes its tag.  A lane member's
        receivers tuple is swapped for a tagged copy, built once per distinct
        tuple, whose callbacks are shared tagged callbacks, one per distinct
        (hashable) callback — so a registration still allocates nothing,
        each delivery sets the current tag, joins the schedule trace and
        checks the heap head like any other event, and a stop-requeued lane
        tail needs no wrapper: its members are tagged.
        ``drop_deliveries`` is shadowed too: a failing link names its raw
        receivers, and :class:`_SeeThrough` matches them under their tags;
        the no-op a dropped delivery runs instead is itself tagged.  And so
        is ``close``: after the engine's own, it takes off every shadow this
        sanitizer installed, here and on the network (:meth:`_release`).
        """
        self.sim = sim
        self._shadow(sim, "sanitizer", self)
        inner_push, inner_later, inner_at = sim._push, sim.call_later, sim.call_at
        inner_multicast, inner_drop, inner_run, inner_close = (
            sim.call_multicast, sim.drop_deliveries, sim.run, sim.close)
        lane: Dict[Any, _Tagged] = {}
        multicasts: Dict[Tuple, Tuple] = {}

        def lane_member(callback: Callable[[Any, Any], None]) -> _Tagged:
            member = lane.get(callback)
            if member is None:
                member = lane[callback] = _Tagged(callback, "batch-lane", self)
            return member

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

        def call_multicast(time: float, subject: Any, receivers: Tuple) -> None:
            if sim._batching:       # lane off, the inner call goes through push
                tagged = multicasts.get(receivers)
                if tagged is None:
                    tagged = multicasts[receivers] = tuple(
                        lane_member(item) if index % 2 == 0 else item
                        for index, item in enumerate(receivers))
                receivers = tagged
            inner_multicast(time, subject, receivers)

        def drop_deliveries(receivers: Any, inport: Any) -> None:
            inner_drop(_SeeThrough(receivers), inport)

        def run(until: Optional[float] = None,
                max_events: Optional[int] = None) -> float:
            self._check_head()
            now = inner_run(until, max_events)
            if not sim._queue:
                self._check_drained()
            return now

        def close() -> None:
            inner_close()
            self._release()

        for name, wrapper in (("_push", push), ("call_later", call_later),
                              ("call_at", call_at), ("call_multicast", call_multicast),
                              ("drop_deliveries", drop_deliveries), ("run", run),
                              ("close", close)):
            self._shadow(sim, name, wrapper)
        # A dropped delivery keeps its slot and runs this: tagged like any
        # other entry, so the head check still follows it.
        self._shadow(sim, "_dropped", _Tagged(sim._dropped, "link-failure", self))

    def _shadow(self, target: Any, name: str, value: Any) -> None:
        """Set ``target.name`` to ``value`` and remember what it shadowed.

        Every instance attribute the sanitizer installs goes through here,
        so :meth:`_release` can take each one off again.
        """
        self._shadows.append((target, name, vars(target).get(name, _UNSET)))
        setattr(target, name, value)

    def _release(self) -> None:
        """Take every shadow off again, newest first: the closing engine's
        last step (``Simulator.close``, shadowed above).

        A wrapper closes over the object it wraps, so while installed it is
        a reference cycle through that object; released, the engine, the
        network and this sanitizer point at each other no more, and the
        verdict — violations, notes, trace, counters — stays readable
        through ``Network.sanitizer``.
        """
        for target, name, previous in reversed(self._shadows):
            if previous is _UNSET:
                delattr(target, name)
            else:
                setattr(target, name, previous)
        self._shadows.clear()
        self._probe_pending.clear()
        self._network = None

    def _check_head(self) -> None:
        """Check the heap head, the entry the loop runs next, before it pops.

        Every tagged callback calls this after it runs, and the ``run``
        wrapper before the loop starts, so an entry pushed around the
        Simulator API — untagged, or behind the clock — is reported before
        it runs.  It is then adopted (tagged), so it is reported once and
        the check still follows it.
        """
        sim = self.sim
        queue = sim._queue
        if not queue:
            return
        time, seq, callback, args = queue[0]
        if callback is _fire_handle:
            handle = args[0]
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
                queue[0] = (time, seq, _Tagged(callback, "untagged", self), args)

    def _check_drained(self) -> None:
        """Batch-lane counter coherence once the heap empties."""
        sim = self.sim
        self.checks_run += 1
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
                and self._commutable(head[3][0].callback) \
                and rng is not None and rng.random() < 0.5:
            self._swapping = True
            try:
                Simulator.run(sim, max_events=1)
            finally:
                self._swapping = False
            self._race(firing)

    def instrument_network(self, network: "Network") -> None:
        """Wrap the network's links, switches, hosts, stats and protocol tables.

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
            self._instrument_switch(network.switches[name])
            self._instrument_routing(name, network.switches[name].routing)

    def _note_probe_size(self, packet: "Packet | Probe") -> None:
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

    def _instrument_switch(self, switch: "SwitchNode") -> None:
        """Record every probe the switch puts on a link, in send order."""
        inner_send = switch.send_probes
        pending = self._probe_pending

        @functools.wraps(inner_send)
        def send_probes(neighbors: Any, ports: Any, exclude: Optional[str],
                        packet: "Packet | Probe", groups: Any = None) -> None:
            inner_send(neighbors, ports, exclude, packet, groups)
            self._note_probe_size(packet)
            for neighbor in neighbors:
                link = ports.get(neighbor)
                if neighbor != exclude and link is not None and not link.failed:
                    pending[link].append(packet)

        self._shadow(switch, "send_probes", send_probes)

    def _instrument_link(self, link: "SimLink", network: "Network") -> None:
        pending: Deque["Packet | Probe"] = deque()
        self._probe_pending[link] = pending
        last_delivery = [0.0]
        #: Probes in flight when the link failed (a handful per failure).
        dead: List["Packet | Probe"] = []
        #: Data/ACKs this link has transmitted and not yet delivered.
        in_flight: Dict[str, int] = {k: 0 for k in _CONSERVED_KINDS}
        dst_host: Optional["Host"] = network.hosts.get(link.dst)

        inner_enqueue = link.enqueue

        @functools.wraps(inner_enqueue)
        def enqueue(packet: "Packet") -> bool:
            if packet.kind == "probe":
                self.violate(
                    "probe-lane",
                    f"probe {packet!r} handed to {link.src}->{link.dst}.enqueue "
                    f"(probes enter a link through send_probes)")
            return inner_enqueue(packet)

        self._shadow(link, "enqueue", enqueue)

        # The one transmit seam: ``enqueue`` (idle serializer) and ``_drain``
        # both reach it through the instance attribute.
        inner_transmit = link._transmit

        @functools.wraps(inner_transmit)
        def transmit(packet: "Packet") -> None:
            kind = packet.kind
            if kind in in_flight:
                self._inflight[kind] += 1
                in_flight[kind] += 1
            inner_transmit(packet)

        self._shadow(link, "_transmit", transmit)

        inner_deliver = link.deliver

        @functools.wraps(inner_deliver)
        def deliver(packet: "Packet", inport: str) -> None:
            kind = packet.kind
            if kind in in_flight:
                self._inflight[kind] -= 1
                in_flight[kind] -= 1
                if dst_host is not None:
                    self._received[kind] += 1
            inner_deliver(packet, inport)
            if dst_host is not None and kind == "ack":
                self._check_sender(dst_host, packet)

        self._shadow(link, "deliver", deliver)

        if link.probe_receivers is not None:       # a link that carries probes
            inner_probe_sink = link.probe_receivers[0]

            @functools.wraps(inner_probe_sink)
            def probe_sink(packet: "Packet | Probe", inport: str) -> None:
                now = link.sim._now
                self.checks_run += 1
                if now < last_delivery[0]:
                    self.violate(
                        "link-fifo",
                        f"probe on {link.src}->{link.dst} delivered at "
                        f"t={now} after a delivery at t={last_delivery[0]}")
                last_delivery[0] = now
                if any(lost is packet for lost in dead):
                    self.violate(
                        "stale-probe",
                        f"probe {packet!r} delivered on {link.src}->{link.dst} "
                        f"although the link failed while it was in flight")
                if pending and pending[0] is packet:
                    pending.popleft()
                else:
                    if self._probe_fifo:
                        self._probe_fifo = False
                        self.violate(
                            "link-fifo",
                            f"per-(link,tick) FIFO violated on "
                            f"{link.src}->{link.dst}: delivered {packet!r}, "
                            f"expected {pending[0] if pending else None!r}")
                    for index, sent in enumerate(pending):
                        if sent is packet:
                            del pending[index]
                            break
                inner_probe_sink(packet, inport)

            self._shadow(link, "probe_receivers", (probe_sink, link.src))

        inner_fail = link.fail

        @functools.wraps(inner_fail)
        def fail() -> None:
            # Everything queued or in flight is lost: the ledger settles it
            # here, where the link settles it with the engine.
            for packet in link._queue:
                if packet.kind in self._lost:
                    self._lost[packet.kind] += 1
            for kind, count in in_flight.items():
                self._lost[kind] += count
                self._inflight[kind] -= count
                in_flight[kind] = 0
            dead.extend(pending)
            pending.clear()
            inner_fail()

        self._shadow(link, "fail", fail)

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

        self._shadow(host, "_transmit", transmit)

    def _instrument_stats(self, stats: "StatsCollector") -> None:
        inner_drop = stats.record_drop

        @functools.wraps(inner_drop)
        def record_drop(link: "SimLink", packet: "Packet") -> None:
            if packet.kind in self._dropped:
                self._dropped[packet.kind] += 1
            inner_drop(link, packet)

        self._shadow(stats, "record_drop", record_drop)

        inner_switch_drop = stats.record_switch_drop

        @functools.wraps(inner_switch_drop)
        def record_switch_drop(packet: "Packet") -> None:
            if packet.kind in self._dropped:
                self._dropped[packet.kind] += 1
            inner_switch_drop(packet)

        self._shadow(stats, "record_switch_drop", record_switch_drop)

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

        self._shadow(fwdt, "install", install)
        if hasattr(logic, "_fwdt_install"):
            # The probe loop binds this cached alias per run; repoint it so
            # the hot path routes through the check too.
            self._shadow(logic, "_fwdt_install", install)

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

        self._shadow(bestt, "set", best_set)

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
