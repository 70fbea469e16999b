"""Discrete-event simulation engine.

A minimal, deterministic event loop.  Heap entries are plain
``(time, sequence, callback, args)`` tuples: the sequence number is unique, so
tuple comparison never reaches the callback and runs entirely in C.  The
sequence number also breaks ties so that events scheduled earlier run earlier,
which keeps runs bit-for-bit reproducible for a given seed — a property every
experiment in EXPERIMENTS.md relies on.

Three scheduling tiers exist, none of them cancellable:

* :meth:`Simulator.call_multicast` — the batch lane: same-timestamp
  registrations coalesce under **one** heap entry whose deliveries run in
  exact FIFO registration order.  The probe control plane uses this tier —
  a probe wave of thousands of same-tick deliveries costs one heap push and
  one pop instead of one each per probe, and a registration allocates
  nothing: a member is two slots, a subject and a shared, precomputed tuple
  of ``(callback, inport)`` pairs — one delivery each, a one-link send being
  a multicast of one — stored flat in the entry's one list.  Ordering
  contract: scheduling any *non-lane* event at the open batch's timestamp
  seals the batch (later lane registrations at that time start a new
  entry), so the relative order of lane and non-lane events at one
  timestamp is exactly what per-event scheduling would have produced.
* :meth:`Simulator.call_later` / :meth:`Simulator.call_at` — the fast path:
  no per-event wrapper object is allocated.  The per-packet machinery (link
  serialization, delivery) uses this tier.
* :meth:`Simulator.schedule_periodic` — a recurring event that re-arms itself
  without allocating a new handle per round; periodic probe floods coalesce
  their per-round work under a single recurring entry.

Every tier refuses a time before *now*, and NaN with it: each check is
written ``not time >= now``, which NaN fails.  A period and a periodic start
delay must also be finite.

:meth:`Simulator.drop_deliveries` is how a link failure loses the packets it
had in flight: it turns their pending deliveries — heap entries and lane
members alike — into no-ops in place, so nothing is re-ordered or
re-counted.

:meth:`Simulator.run` pauses the cyclic garbage collector while it loops:
the loop allocates no reference cycles (the acyclic-loop contract), so
reference counting frees everything it creates.  :meth:`Simulator.close`
drops the pending events of a finished run, the back-edges through which
its heap keeps the network alive.

Times are floats in **milliseconds** throughout the simulator.
"""

from __future__ import annotations

import gc
import heapq
import math
from typing import Any, Callable, Container, Iterator, List, Optional, Tuple

from repro.exceptions import SimulationError

__all__ = ["Simulator", "PeriodicEvent", "BATCH_LANE_DEFAULT", "SANITIZE_DEFAULT"]

_INF = float("inf")

#: Process-wide default for the batch lane.  Tests force-disable it (each
#: lane registration then becomes its own heap entry, reproducing the
#: pre-batching event schedule exactly) to prove batching changes nothing.
BATCH_LANE_DEFAULT = True

#: Process-wide default consulted by ``Simulator(sanitize=None)``.  Kept here,
#: not in :mod:`repro.simulator.sanitizer`, so an unsanitized run never loads
#: the sanitizer plane; and a plain module constant (no environment read at
#: import time — the simulator package must stay free of ``os.environ``, see
#: tools/lint_determinism.py): the experiment layer resolves
#: ``CONTRA_SANITIZE`` in ``repro.experiments.config.sanitize_from_env`` and
#: passes the result down.
SANITIZE_DEFAULT = False

#: Net GC-tracked allocations made while :meth:`Simulator.run` held the
#: collector paused, and the count of full collections when that tally
#: began.  Process-wide, as the collector is.
_paused_allocations = [0, 0]


def _dropped_delivery(packet: Any, inport: Any) -> None:
    """A delivery lost to a link failure: it keeps its slot and does nothing."""


class PeriodicEvent:
    """A recurring callback that re-arms itself every ``period`` milliseconds.

    One handle serves every round: re-arming pushes a fresh heap tuple but
    allocates no new wrapper, so periodic floods (probe rounds, failure
    checks) cost one heap operation per round regardless of how much work the
    callback batches.
    """

    __slots__ = ("period", "callback", "args", "_sim")

    def __init__(self, sim: "Simulator", period: float, callback: Callable[..., None],
                 args: Tuple):
        self._sim = sim
        self.period = period
        self.callback = callback
        self.args = args

    def _fire(self) -> None:
        self.callback(*self.args)
        self._sim._push(self._sim._now + self.period, _fire_handle, (self,))


class Simulator:
    """The event loop shared by every component of one simulation run.

    ``sanitize=True`` attaches a :class:`~repro.simulator.sanitizer.Sanitizer`
    as ``self.sanitizer``, which shadows this instance's scheduling calls and
    :meth:`run` with wrappers that tag every event and check the engine's
    invariants around this same loop.  With sanitize off (the default) no
    instance attribute shadows a method, so the hot loop carries zero
    overhead (ARCHITECTURE.md §6).
    """

    #: What a delivery dropped by :meth:`drop_deliveries` runs instead (the
    #: sanitizer shadows it per instance with a tagged one).
    _dropped = staticmethod(_dropped_delivery)

    def __init__(self, batching: Optional[bool] = None,
                 sanitize: Optional[bool] = None) -> None:
        self._now = 0.0
        #: heap of (time, seq, callback, args); seq is unique so comparisons
        #: never inspect the callback.
        self._queue: List[Tuple[float, int, Callable[..., None], Tuple]] = []
        self._sequence = 0
        self._events_processed = 0
        self._stopped = False
        #: Batch lane state: the timestamp of the currently open batch (-1.0
        #: when none), its flat member list (shared with the heap entry; see
        #: :func:`_fire_batch` for the layout), and the member/entry
        #: counters that keep ``pending_events`` exact.
        self._batching = BATCH_LANE_DEFAULT if batching is None else batching
        self._batch_time = -1.0
        self._batch: Optional[List] = None
        self._batch_pending = 0
        self._batch_entries = 0
        #: The member list :func:`_fire_batch` is walking (it has left the
        #: heap, and its unfired members are still pending), the iterator
        #: over the receivers of the member it is firing (None between
        #: members), and that member's unfired deliveries once
        #: :meth:`drop_deliveries` has taken them from the iterator (None
        #: until it does).
        self._firing_batch: Optional[List] = None
        self._firing_replicas: Optional[Iterator] = None
        self._unfired_replicas: Optional[Tuple] = None
        if sanitize is None:
            sanitize = SANITIZE_DEFAULT
        if sanitize:
            from repro.simulator.sanitizer import Sanitizer
            Sanitizer().instrument_engine(self)

    @property
    def now(self) -> float:
        """Current simulation time in milliseconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Events executed so far (each lane delivery counts as one)."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Events scheduled and not yet run (O(1); no heap scan).

        A coalesced batch entry counts once per delivery — a member as many
        times as it has receivers — so the number is identical with the
        batch lane on or off.
        """
        return len(self._queue) - self._batch_entries + self._batch_pending

    # ------------------------------------------------------------- scheduling

    def _push(self, time: float, callback: Callable[..., None], args: Tuple) -> None:
        if time == self._batch_time:
            self._batch_time = -1.0     # seal: preserve order vs lane members
        seq = self._sequence
        self._sequence = seq + 1
        heapq.heappush(self._queue, (time, seq, callback, args))

    def call_later(self, delay: float, callback: Callable[..., None], *args: Any) -> None:
        """Fast path: schedule ``callback(*args)`` after ``delay`` ms."""
        if not delay >= 0:          # also refuses NaN
            raise SimulationError(f"cannot schedule an event {delay} ms from now")
        time = self._now + delay
        if time == self._batch_time:
            self._batch_time = -1.0
        seq = self._sequence
        self._sequence = seq + 1
        heapq.heappush(self._queue, (time, seq, callback, args))

    def call_at(self, time: float, callback: Callable[..., None], *args: Any) -> None:
        """Fast path: schedule ``callback(*args)`` at an absolute time."""
        if not time >= self._now:   # also refuses NaN
            raise SimulationError(
                f"cannot schedule an event at {time} ms, current time is {self._now} ms")
        if time == self._batch_time:
            self._batch_time = -1.0
        seq = self._sequence
        self._sequence = seq + 1
        heapq.heappush(self._queue, (time, seq, callback, args))

    def call_multicast(self, time: float, subject: Any, receivers: Tuple) -> None:
        """Batch lane: schedule ``callback(subject, inport)`` for every pair.

        ``receivers`` is a flat ``(callback, inport, callback, inport, ...)``
        tuple; a delivery over one link is a multicast of one, registered
        over the link's own pair.  Means what one
        ``call_at(time, callback, subject, inport)`` per pair, in order,
        means; the difference is heap traffic and allocation only.
        Same-timestamp registrations coalesce under one heap entry and
        execute in exact FIFO registration order when it pops, and the lane
        stores the whole registration as **one** two-slot member pointing at
        ``receivers``, so a caller that keeps one tuple per target set (the
        probe plane keeps them on its switches and links) allocates nothing
        per registration, however many receivers it has: a k=16 probe wave
        holds ~480k deliveries at once, and two GC-tracked tuples apiece
        used to cost a quarter of the run in collector passes.  Event
        accounting counts deliveries, one per pair.

        Ordering contract: scheduling any *non-lane* event at the open
        batch's timestamp seals it, so relative order against non-lane events
        is exactly what per-event scheduling produces.  With the lane
        disabled each pair is its own heap entry — byte-identical schedules
        either way.
        """
        if not time >= self._now:
            raise SimulationError(
                f"cannot schedule an event at {time} ms, current time is {self._now} ms")
        if not self._batching:
            push = self._push
            for index in range(0, len(receivers), 2):
                push(time, receivers[index], (subject, receivers[index + 1]))
            return
        if time != self._batch_time:
            members: List = []
            self._batch = members
            self._batch_time = time
            seq = self._sequence
            self._sequence = seq + 1
            heapq.heappush(self._queue, (time, seq, _fire_batch, (self, members)))
            self._batch_entries += 1
        else:
            members = self._batch
        members.append(subject)
        members.append(receivers)
        self._batch_pending += len(receivers) >> 1

    def schedule_periodic(self, period: float, callback: Callable[..., None],
                          *args: Any, start_delay: float = 0.0) -> PeriodicEvent:
        """Run ``callback(*args)`` every ``period`` ms, first after ``start_delay``."""
        if not 0 < period < _INF:
            raise SimulationError(
                f"periodic events need a positive finite period, got {period}")
        if not 0 <= start_delay < _INF:
            raise SimulationError(
                f"periodic events need a finite start delay, got {start_delay}")
        event = PeriodicEvent(self, period, callback, args)
        self._push(self._now + start_delay, _fire_handle, (event,))
        return event

    def drop_deliveries(self, receivers: Container, inport: Any) -> None:
        """Turn every pending ``receiver(packet, inport)`` into a no-op.

        A failing link calls this with its receivers and its in-port: every
        heap entry and lane delivery whose callback is ``in receivers`` and
        whose in-port is ``inport`` keeps its time, sequence number and slot
        but runs :attr:`_dropped` instead, so event order,
        ``events_processed`` and ``pending_events`` read exactly as if the
        delivery had run and found the link's packet lost.  The in-port
        keeps two links into one node from dropping each other's packets.
        A lane member gets a copy of its receivers tuple with the dropped
        pairs' callbacks replaced (the shared tuple is never written).  The
        walk includes the lane entry being fired, whose unfired members left
        the heap with it, and the unfired deliveries of the member being
        fired, which :func:`_fire_batch` then resumes from the copy.  It
        costs one pass over the pending events, paid per link failure.
        """
        dropped = self._dropped
        batches = [self._firing_batch] if self._firing_batch is not None else []
        queue = self._queue
        for index, (time, seq, callback, args) in enumerate(queue):
            if callback is _fire_batch:
                batches.append(args[1])
            elif callback in receivers and args[1] == inport:
                queue[index] = (time, seq, dropped, args)
        for members in batches:
            for slot in range(1, len(members), 2):
                members[slot] = _drop_replicas(members[slot], receivers, inport, dropped)
        if self._firing_replicas is not None:
            unfired = self._unfired_replicas
            if unfired is None:
                unfired = tuple(self._firing_replicas)  # ends the firing loop
            self._unfired_replicas = _drop_replicas(unfired, receivers, inport, dropped)

    def _requeue_batch_tail(self, tail: List) -> None:
        """Put a lane entry's unfired members back at the current timestamp.

        A ``stop()`` raised by a member leaves exactly the entries per-event
        scheduling would have left in the heap; an empty tail (the stopping
        member was the last) leaves none.
        """
        if tail:
            seq = self._sequence
            self._sequence = seq + 1
            heapq.heappush(self._queue, (self._now, seq, _fire_batch, (self, tail)))
            self._batch_entries += 1

    def close(self) -> None:
        """Drop every pending event: the end of this engine's life.

        Pending heap entries, periodic handles and batch-lane members hold
        bound methods of the nodes they deliver to, and the nodes hold this
        engine, so a finished run's heap keeps its whole network in a
        reference cycle; clearing it here lets reference counting free the
        network once its last reader lets go.  The clock and
        ``events_processed`` stay readable; ``pending_events`` reads 0.
        Called by ``Network.close`` and ``FluidSimulation.close``, never
        while :meth:`run` is looping.
        """
        self._queue.clear()
        self._batch_time = -1.0
        self._batch = None
        self._batch_pending = 0
        self._batch_entries = 0
        self._firing_batch = None
        self._firing_replicas = None
        self._unfired_replicas = None

    # ---------------------------------------------------------------- running

    def stop(self) -> None:
        """Stop the run after the currently executing event returns."""
        self._stopped = True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Process events until the queue drains, ``until`` is reached, or
        ``max_events`` have run.  Returns the simulation time afterwards.

        The boundary is inclusive: ``run(until=t)`` processes every event with
        time ``<= t`` and leaves the clock at exactly ``t`` (never beyond).
        ``until`` may not be NaN or earlier than *now* (``until == now`` is a
        no-op), and ``max_events`` must be at least 1: each raises
        :class:`SimulationError` before any event runs.

        ``max_events`` counts heap entries, so a coalesced batch-lane entry —
        however many deliveries it carries — consumes one unit; it is a
        debugging stepper, not part of the batching equivalence contract
        (``events_processed``/``pending_events`` stay per-delivery).

        The cyclic garbage collector is paused for the call (re-enabled on
        the way out, also when a callback raises, unless the caller had
        disabled it).  The acyclic-loop contract makes that safe: nothing
        the loop allocates — packets, payloads, FwdT rows, lane lists, fluid
        groups — forms a reference cycle, so reference counting frees all of
        it.  A full collection during a probe wave walks the whole fabric and
        the wave's state and finds nothing to free.

        A finished network is a reference cycle (its links call into its
        nodes, its nodes hold it, its heap holds bound methods) until
        ``Network.close`` cuts the back-edges; ``RunContext.run`` closes every
        network and fluid simulation it builds once the result is taken, so
        reference counting frees them.  A network that a test or an example
        drives directly is never closed and stays cyclic garbage *between*
        runs, which is still collected (below).
        """
        if until is not None and not until >= self._now:    # also refuses NaN
            raise SimulationError(
                f"cannot run until {until} ms, current time is {self._now} ms")
        if max_events is not None and not max_events >= 1:
            raise SimulationError(f"max_events must be at least 1, got {max_events}")
        # Pause the collector unless a caller (or an outer run) already has.
        # Allocations made under the pause never count towards the young
        # collections that lead up to a full one, so cyclic garbage made
        # between runs — every finished network nobody closed is some —
        # would wait for a full collection the process no longer reaches and
        # pile up under the next run.  So once the runs since the last full
        # collection have left a full collection's worth (the product of the
        # three collector thresholds, 70 000 by default), this run starts
        # with one, before it pauses.  Any full collection in between
        # settles the debt.
        paused = gc.isenabled()
        if paused:
            full = gc.get_stats()[2]["collections"]
            if full != _paused_allocations[1]:
                _paused_allocations[:] = [0, full]
            elif _paused_allocations[0] >= math.prod(gc.get_threshold()):
                gc.collect()
                _paused_allocations[:] = [0, gc.get_stats()[2]["collections"]]
            gc.disable()
        try:
            self._stopped = False
            queue = self._queue
            processed_this_call = 0
            while queue and not self._stopped:
                entry = queue[0]
                if until is not None and entry[0] > until:
                    self._now = until
                    return self._now
                heapq.heappop(queue)
                self._now = entry[0]
                entry[2](*entry[3])
                self._events_processed += 1
                processed_this_call += 1
                if max_events is not None and processed_this_call >= max_events:
                    break
            if self._stopped:
                # A stop during a batch member re-queues the unrun tail; make
                # sure a stale open-batch pointer cannot absorb later
                # registrations ahead of it.
                self._batch_time = -1.0
            if until is not None and not queue:
                self._now = until
            return self._now
        finally:
            if paused:
                _paused_allocations[0] += gc.get_count()[0]
                gc.enable()


def _fire_handle(handle: PeriodicEvent) -> None:
    """Trampoline for periodic handles.

    The sanitizer recognizes this function by identity, which is why it
    tags a handle's callback, never this entry's, and the race detector
    finds a periodic round at the heap head through it.
    """
    handle._fire()


def _fire_batch(sim: "Simulator", members: List) -> None:
    """Execute one coalesced batch entry's deliveries in FIFO order.

    The one definition of the member layout: a lane entry's list holds its
    members flat, two slots each — ``subject, receivers`` — and only this
    and :meth:`Simulator.drop_deliveries` walk it (the latter finds this
    entry's unfired members through ``_firing_batch``).  A member is one
    delivery per ``(callback, inport)`` pair of the flat ``receivers``
    tuple, fired as ``callback(subject, inport)`` in order
    (:meth:`Simulator.call_multicast`).

    ``zip`` over one shared iterator recycles its result tuple, so firing
    allocates nothing per delivery.  Event accounting counts deliveries, so
    ``events_processed`` and ``pending_events`` read identically with the
    lane on or off.  A ``stop()`` raised by a delivery re-queues the unrun
    remainder at the same timestamp — the member's unfired deliveries as
    one member, then the later members — exactly the entries per-event
    scheduling would have left in the heap.  A link failure raised by a
    delivery takes its member's unfired deliveries from the iterator
    (:meth:`Simulator.drop_deliveries`), which ends the inner loop; it
    resumes over the copy the failure left.
    """
    if members is sim._batch:
        sim._batch_time = -1.0
        sim._batch = None
    sim._batch_entries -= 1
    outer, outer_replicas = sim._firing_batch, sim._firing_replicas
    sim._firing_batch = members
    sim._firing_replicas = None
    fired = 0
    slots = iter(members)
    for subject, receivers in zip(slots, slots):
        replicas = sim._firing_replicas = iter(receivers)
        while True:
            for callback, port in zip(replicas, replicas):
                callback(subject, port)
                fired += 1
                if sim._stopped:
                    break
            unfired = sim._unfired_replicas
            if unfired is None:
                break
            sim._unfired_replicas = None
            replicas = sim._firing_replicas = iter(unfired)
            if sim._stopped:
                break
        sim._firing_replicas = None
        if sim._stopped:
            unfired = tuple(replicas)
            tail = list(slots)
            sim._requeue_batch_tail([subject, unfired] + tail if unfired else tail)
            break
    sim._firing_batch, sim._firing_replicas = outer, outer_replicas
    sim._batch_pending -= fired
    sim._events_processed += fired - 1      # the run loop adds the final 1


def _drop_replicas(receivers: Tuple, dropping: Container, inport: Any,
                   dropped: Callable[[Any, Any], None]) -> Tuple:
    """``receivers`` with every ``(callback in dropping, inport)`` pair's
    callback replaced by ``dropped`` (the same tuple when none matches)."""
    if not any(receivers[index + 1] == inport and receivers[index] in dropping
               for index in range(0, len(receivers), 2)):
        return receivers
    kept = list(receivers)
    for index in range(0, len(kept), 2):
        if kept[index + 1] == inport and kept[index] in dropping:
            kept[index] = dropped
    return tuple(kept)
