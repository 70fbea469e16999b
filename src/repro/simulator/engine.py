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
  member is a guarded delivery, ``callback(subject, guard)``, stored flat in
  the entry's one list.  Ordering contract: scheduling any *non-lane* event
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

Times are floats in **milliseconds** throughout the simulator.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Iterator, List, Optional, Tuple

from repro.exceptions import SimulationError

__all__ = ["Simulator", "Event", "PeriodicEvent", "BATCH_LANE_DEFAULT",
           "batch_members", "batch_tail"]

#: Process-wide default for the batch lane.  Tests force-disable it (each
#: lane registration then becomes its own heap entry, reproducing the
#: pre-batching event schedule exactly) to prove batching changes nothing.
BATCH_LANE_DEFAULT = True


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

    ``sanitize=True`` constructs a
    :class:`~repro.simulator.sanitizer.SanitizingSimulator` instead — same
    schedule, same clock, plus provenance tags and invariant checks.  With
    sanitize off (the default) this class is byte-for-byte the engine it
    always was: the sanitizer module is not even imported unless requested,
    so the hot loop carries zero overhead (ARCHITECTURE.md §6).
    """

    def __new__(cls, batching: Optional[bool] = None,
                sanitize: Optional[bool] = None) -> "Simulator":
        if cls is Simulator:
            if sanitize is None:
                from repro.simulator.sanitizer import SANITIZE_DEFAULT
                sanitize = SANITIZE_DEFAULT
            if sanitize:
                from repro.simulator.sanitizer import SanitizingSimulator
                return super().__new__(SanitizingSimulator)
        return super().__new__(cls)

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
        #: :func:`batch_members` for the layout), and the member/entry
        #: counters that keep ``pending_events`` exact.
        self._batching = BATCH_LANE_DEFAULT if batching is None else batching
        self._batch_time = -1.0
        self._batch: Optional[List] = None
        self._batch_pending = 0
        self._batch_entries = 0

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
        if delay < 0:
            raise SimulationError(f"cannot schedule an event {delay} ms in the past")
        time = self._now + delay
        if time == self._batch_time:
            self._batch_time = -1.0
        seq = self._sequence
        self._sequence = seq + 1
        heapq.heappush(self._queue, (time, seq, callback, args))

    def call_at(self, time: float, callback: Callable[..., None], *args: Any) -> None:
        """Fast path: schedule a non-cancellable ``callback(*args)`` at an absolute time."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule an event at {time} ms, current time is {self._now} ms")
        if time == self._batch_time:
            self._batch_time = -1.0
        seq = self._sequence
        self._sequence = seq + 1
        heapq.heappush(self._queue, (time, seq, callback, args))

    def call_batched(self, time: float, callback: Callable[[Any, Any], None],
                     subject: Any, guard: Any) -> None:
        """Batch lane: schedule the guarded delivery ``callback(subject, guard)``.

        Means what ``call_at(time, callback, subject, guard)`` means; the
        difference is heap traffic and allocation only.  Same-timestamp lane
        registrations coalesce under one heap entry and execute in exact FIFO
        registration order when it pops.  The arity is fixed at two — the
        thing delivered and the token its delivery is checked against (a
        link's fail epoch) — so the three references go flat into the entry's
        member list and a registration allocates no container: a k=16 probe
        wave holds ~480k registrations at once, and two GC-tracked tuples
        apiece used to cost a quarter of the run in collector passes.

        Ordering contract: scheduling any *non-lane* event at the open
        batch's timestamp seals it, so relative order against non-lane events
        is exactly what per-event scheduling produces.  With the lane
        disabled each registration is its own heap entry — byte-identical
        schedules either way.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule an event at {time} ms, current time is {self._now} ms")
        if not self._batching:
            self._push(time, callback, (subject, guard))
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
        members.append(guard)
        self._batch_pending += 1

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule a cancellable ``callback(*args)`` to run ``delay`` ms from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule an event {delay} ms in the past")
        return self.schedule_at(self._now + delay, callback, *args)

    def schedule_at(self, time: float, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule a cancellable ``callback(*args)`` at an absolute simulation time."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule an event at {time} ms, current time is {self._now} ms")
        event = Event(self, time, callback, args)
        self._push(time, _fire_handle, (event,))
        return event

    def schedule_periodic(self, period: float, callback: Callable[..., None],
                          *args: Any, start_delay: float = 0.0) -> PeriodicEvent:
        """Run ``callback(*args)`` every ``period`` ms, first after ``start_delay``."""
        if period <= 0:
            raise SimulationError(f"periodic events need a positive period, got {period}")
        if start_delay < 0:
            raise SimulationError(f"cannot schedule an event {start_delay} ms in the past")
        event = PeriodicEvent(self, period, callback, args)
        self._push(self._now + start_delay, _fire_handle, (event,))
        return event

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
    entries without executing, advancing the clock, or counting an event.
    """
    handle._fire()


def batch_members(members: List) -> Iterator[Tuple[Callable[[Any, Any], None], Any, Any]]:
    """The ``(callback, subject, guard)`` registrations of one lane entry, in FIFO order.

    The one definition of the member layout: a lane entry's list holds its
    registrations flat, three slots each.  Only code that *fires* a lane
    entry may iterate it — :func:`_fire_batch` and the sanitizer's tagged
    replica — and both go through here (and :func:`batch_tail`), so the
    layout cannot drift between them.  ``zip`` over one shared iterator
    recycles its result tuple, so iterating allocates nothing per member.
    """
    slots = iter(members)
    return zip(slots, slots, slots)


def batch_tail(members: List, fired: int) -> List:
    """The unfired registrations of a lane entry after ``fired`` of them ran."""
    return members[3 * fired:]


def _fire_batch(sim: "Simulator", members: List) -> None:
    """Execute one coalesced batch entry's members in FIFO order.

    Each member is one registration, fired as ``callback(subject, guard)``;
    event accounting counts members, so ``events_processed`` and
    ``pending_events`` read identically with the lane on or off.  A
    ``stop()`` raised by a member re-queues the unrun tail at the same
    timestamp (exactly the entries per-event scheduling would have left in
    the heap).
    """
    if members is sim._batch:
        sim._batch_time = -1.0
        sim._batch = None
    sim._batch_entries -= 1
    fired = 0
    for callback, subject, guard in batch_members(members):
        callback(subject, guard)
        fired += 1
        if sim._stopped:
            sim._requeue_batch_tail(batch_tail(members, fired))
            break
    sim._batch_pending -= fired
    sim._events_processed += fired - 1      # the run loop adds the final 1
