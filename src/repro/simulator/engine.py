"""Discrete-event simulation engine.

A minimal, deterministic event loop.  Heap entries are plain
``(time, sequence, callback, args)`` tuples: the sequence number is unique, so
tuple comparison never reaches the callback and runs entirely in C.  The
sequence number also breaks ties so that events scheduled earlier run earlier,
which keeps runs bit-for-bit reproducible for a given seed — a property every
experiment in EXPERIMENTS.md relies on.

Four scheduling tiers exist, from hottest to most featureful:

* :meth:`Simulator.call_batched` — the batch lane: same-timestamp
  registrations coalesce under **one** heap entry whose members run in exact
  FIFO registration order.  The probe control plane uses this tier — a probe
  wave of thousands of same-tick deliveries costs one heap push and one pop
  instead of one each per probe, and a registration allocates nothing: a
  member is a delivery, ``callback(subject, inport)``, stored flat in the
  entry's one list.  Ordering contract: scheduling any *non-lane* event
  at the open batch's timestamp seals the batch (later lane registrations at
  that time start a new entry), so the relative order of lane and non-lane
  events at one timestamp is exactly what per-event scheduling would have
  produced.
* :meth:`Simulator.call_later` / :meth:`Simulator.call_at` — the fast path:
  no per-event wrapper object is allocated and the event cannot be cancelled.
  The per-packet machinery (link serialization, delivery) uses this tier.
* :meth:`Simulator.schedule` / :meth:`Simulator.schedule_at` — returns an
  :class:`Event` handle supporting :meth:`Event.cancel`.  Cancellation marks
  the handle inactive and the heap entry expires when popped (no heap scan).
* :meth:`Simulator.schedule_periodic` — a recurring event that re-arms itself
  without allocating a new handle per round; periodic probe floods coalesce
  their per-round work under a single recurring entry.

Every tier refuses a time before *now*, and NaN with it: each check is
written ``not time >= now``, which NaN fails.  A period must also be finite.

:meth:`Simulator.drop_deliveries` is how a link failure loses the packets it
had in flight: it turns their pending deliveries — heap entries and lane
members alike — into no-ops in place, so nothing is re-ordered or
re-counted.

Times are floats in **milliseconds** throughout the simulator.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Container, List, Optional, Tuple

from repro.exceptions import SimulationError

__all__ = ["Simulator", "Event", "PeriodicEvent", "BATCH_LANE_DEFAULT"]

_INF = float("inf")

#: Process-wide default for the batch lane.  Tests force-disable it (each
#: lane registration then becomes its own heap entry, reproducing the
#: pre-batching event schedule exactly) to prove batching changes nothing.
BATCH_LANE_DEFAULT = True


def _dropped_delivery(packet: Any, inport: Any) -> None:
    """A delivery lost to a link failure: it keeps its slot and does nothing."""


class Event:
    """A cancellable scheduled callback (the featureful scheduling tier).

    ``active`` means *pending*: it turns False when the event fires or is
    cancelled, so cancelling an already-fired event is a harmless no-op.
    """

    __slots__ = ("time", "callback", "args", "active", "_sim")

    def __init__(self, sim: "Simulator", time: float, callback: Callable[..., None],
                 args: Tuple):
        self._sim = sim
        self.time = time
        self.callback = callback
        self.args = args
        self.active = True

    def cancel(self) -> None:
        """Prevent a pending event from firing (it expires in the heap; no scan)."""
        if self.active:
            self.active = False
            self._sim._cancelled += 1

    def _fire(self) -> None:
        self.active = False  # fired: a later cancel() must not touch counters
        self.callback(*self.args)


class PeriodicEvent:
    """A recurring callback that re-arms itself every ``period`` milliseconds.

    One handle serves every round: re-arming pushes a fresh heap tuple but
    allocates no new wrapper, so periodic floods (probe rounds, failure
    checks) cost one heap operation per round regardless of how much work the
    callback batches.
    """

    __slots__ = ("period", "callback", "args", "active", "_sim")

    def __init__(self, sim: "Simulator", period: float, callback: Callable[..., None],
                 args: Tuple):
        self._sim = sim
        self.period = period
        self.callback = callback
        self.args = args
        self.active = True

    def cancel(self) -> None:
        """Stop the recurrence; the pending firing expires silently."""
        if self.active:
            self.active = False
            self._sim._cancelled += 1

    def _fire(self) -> None:
        self.callback(*self.args)
        if self.active:  # the callback may have cancelled the recurrence
            self._sim._push(self._sim._now + self.period, _fire_handle, (self,))
        else:
            # Cancelled from within its own callback: the entry that cancel()
            # accounted for was already popped and none will be re-armed, so
            # undo the bookkeeping to keep pending_events exact.
            self._sim._cancelled -= 1


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
        #: heap entries whose handle was cancelled but that still await expiry.
        self._cancelled = 0
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
        #: heap, and its unfired members are still pending).
        self._firing_batch: Optional[List] = None
        if sanitize is None:
            from repro.simulator import sanitizer
            sanitize = sanitizer.SANITIZE_DEFAULT
        if sanitize:
            from repro.simulator.sanitizer import Sanitizer
            Sanitizer().instrument_engine(self)

    @property
    def now(self) -> float:
        """Current simulation time in milliseconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Events executed so far (cancelled expiries are not counted)."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Events scheduled and not cancelled (O(1); no heap scan).

        A coalesced batch entry counts once per member, so the number is
        identical with the batch lane on or off.
        """
        return (len(self._queue) - self._cancelled - self._batch_entries
                + self._batch_pending)

    # ------------------------------------------------------------- scheduling

    def _push(self, time: float, callback: Callable[..., None], args: Tuple) -> None:
        if time == self._batch_time:
            self._batch_time = -1.0     # seal: preserve order vs lane members
        seq = self._sequence
        self._sequence = seq + 1
        heapq.heappush(self._queue, (time, seq, callback, args))

    def call_later(self, delay: float, callback: Callable[..., None], *args: Any) -> None:
        """Fast path: schedule a non-cancellable ``callback(*args)`` after ``delay`` ms."""
        if not delay >= 0:          # also refuses NaN
            raise SimulationError(f"cannot schedule an event {delay} ms from now")
        time = self._now + delay
        if time == self._batch_time:
            self._batch_time = -1.0
        seq = self._sequence
        self._sequence = seq + 1
        heapq.heappush(self._queue, (time, seq, callback, args))

    def call_at(self, time: float, callback: Callable[..., None], *args: Any) -> None:
        """Fast path: schedule a non-cancellable ``callback(*args)`` at an absolute time."""
        if not time >= self._now:   # also refuses NaN
            raise SimulationError(
                f"cannot schedule an event at {time} ms, current time is {self._now} ms")
        if time == self._batch_time:
            self._batch_time = -1.0
        seq = self._sequence
        self._sequence = seq + 1
        heapq.heappush(self._queue, (time, seq, callback, args))

    def call_batched(self, time: float, callback: Callable[[Any, Any], None],
                     subject: Any, inport: Any) -> None:
        """Batch lane: schedule the delivery ``callback(subject, inport)``.

        Means what ``call_at(time, callback, subject, inport)`` means; the
        difference is heap traffic and allocation only.  Same-timestamp lane
        registrations coalesce under one heap entry and execute in exact FIFO
        registration order when it pops.  The arity is fixed at two — the
        thing delivered and the in-port it arrives on, which
        :meth:`drop_deliveries` matches on — so the three references go flat
        into the entry's member list and a registration allocates no
        container: a k=16 probe
        wave holds ~480k registrations at once, and two GC-tracked tuples
        apiece used to cost a quarter of the run in collector passes.

        Ordering contract: scheduling any *non-lane* event at the open
        batch's timestamp seals it, so relative order against non-lane events
        is exactly what per-event scheduling produces.  With the lane
        disabled each registration is its own heap entry — byte-identical
        schedules either way.
        """
        if not time >= self._now:
            raise SimulationError(
                f"cannot schedule an event at {time} ms, current time is {self._now} ms")
        if not self._batching:
            self._push(time, callback, (subject, inport))
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
        members.append(callback)
        members.append(subject)
        members.append(inport)
        self._batch_pending += 1

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule a cancellable ``callback(*args)`` to run ``delay`` ms from now."""
        if not delay >= 0:
            raise SimulationError(f"cannot schedule an event {delay} ms from now")
        return self.schedule_at(self._now + delay, callback, *args)

    def schedule_at(self, time: float, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule a cancellable ``callback(*args)`` at an absolute simulation time."""
        if not time >= self._now:
            raise SimulationError(
                f"cannot schedule an event at {time} ms, current time is {self._now} ms")
        event = Event(self, time, callback, args)
        self._push(time, _fire_handle, (event,))
        return event

    def schedule_periodic(self, period: float, callback: Callable[..., None],
                          *args: Any, start_delay: float = 0.0) -> PeriodicEvent:
        """Run ``callback(*args)`` every ``period`` ms, first after ``start_delay``."""
        if not 0 < period < _INF:
            raise SimulationError(
                f"periodic events need a positive finite period, got {period}")
        if not start_delay >= 0:
            raise SimulationError(f"cannot schedule an event {start_delay} ms from now")
        event = PeriodicEvent(self, period, callback, args)
        self._push(self._now + start_delay, _fire_handle, (event,))
        return event

    def drop_deliveries(self, receivers: Container, inport: Any) -> None:
        """Turn every pending ``receiver(packet, inport)`` into a no-op.

        A failing link calls this with its receivers and its in-port: every
        heap entry and lane member whose callback is ``in receivers`` and
        whose second argument is ``inport`` keeps its time, sequence number
        and slot but runs :attr:`_dropped` instead, so event order,
        ``events_processed`` and ``pending_events`` read exactly as if the
        delivery had run and found the link's packet lost.  The in-port
        keeps two links into one node from dropping each other's packets.
        The walk includes the lane entry being fired, whose unfired members
        left the heap with it.  It costs one pass over the pending events,
        paid per link failure.
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
            for slot in range(0, len(members), 3):
                if members[slot + 2] == inport and members[slot] in receivers:
                    members[slot] = dropped

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

    # ---------------------------------------------------------------- running

    def stop(self) -> None:
        """Stop the run after the currently executing event returns."""
        self._stopped = True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Process events until the queue drains, ``until`` is reached, or
        ``max_events`` have run.  Returns the simulation time afterwards.

        The boundary is inclusive: ``run(until=t)`` processes every event with
        time ``<= t`` and leaves the clock at exactly ``t`` (never beyond).

        ``max_events`` counts heap entries, so a coalesced batch-lane entry —
        however many registrations it carries — consumes one unit; it is a
        debugging stepper, not part of the batching equivalence contract
        (``events_processed``/``pending_events`` stay per-registration).
        """
        self._stopped = False
        queue = self._queue
        processed_this_call = 0
        while queue and not self._stopped:
            entry = queue[0]
            if until is not None and entry[0] > until:
                self._now = until
                return self._now
            heapq.heappop(queue)
            callback = entry[2]
            if callback is _fire_handle and not entry[3][0].active:
                # Cancelled handle expiring: consume the tombstone without
                # advancing the clock or counting an event (one pointer
                # comparison per pop keeps the fast path fast).
                self._cancelled -= 1
                continue
            self._now = entry[0]
            callback(*entry[3])
            self._events_processed += 1
            processed_this_call += 1
            if max_events is not None and processed_this_call >= max_events:
                break
        if self._stopped:
            # A stop during a batch member re-queues the unrun tail; make sure
            # a stale open-batch pointer cannot absorb later registrations
            # ahead of it.
            self._batch_time = -1.0
        if until is not None and not queue:
            self._now = max(self._now, until)
        return self._now


def _fire_handle(handle: "Event | PeriodicEvent") -> None:
    """Shared trampoline for cancellable and periodic handles.

    The run loop recognizes this function by identity to expire cancelled
    entries without executing, advancing the clock, or counting an event —
    which is why the sanitizer tags a handle's callback, never this entry's.
    """
    handle._fire()


def _fire_batch(sim: "Simulator", members: List) -> None:
    """Execute one coalesced batch entry's members in FIFO order.

    The one definition of the member layout: a lane entry's list holds its
    registrations flat, three slots each (``callback, subject, inport, ...``),
    and only this and :meth:`Simulator.drop_deliveries` walk it (the latter
    finds this entry's unfired members through ``_firing_batch``).  ``zip``
    over one shared iterator recycles its result tuple, so firing allocates
    nothing per member.  Each member is one registration, fired as
    ``callback(subject, inport)``; event accounting counts members, so
    ``events_processed`` and ``pending_events`` read identically with the
    lane on or off.  A
    ``stop()`` raised by a member re-queues the unrun tail at the same
    timestamp (exactly the entries per-event scheduling would have left in
    the heap).
    """
    if members is sim._batch:
        sim._batch_time = -1.0
        sim._batch = None
    sim._batch_entries -= 1
    outer = sim._firing_batch
    sim._firing_batch = members
    fired = 0
    slots = iter(members)
    for callback, subject, inport in zip(slots, slots, slots):
        callback(subject, inport)
        fired += 1
        if sim._stopped:
            sim._requeue_batch_tail(members[3 * fired:])
            break
    sim._firing_batch = outer
    sim._batch_pending -= fired
    sim._events_processed += fired - 1      # the run loop adds the final 1
