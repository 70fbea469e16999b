"""Every schedule of two lease-coordinated drains, up to a bound.

ARCHITECTURE.md §8 promises one record per point in the crash-free paths,
and that a killed worker's point runs at most twice.  This module checks
both against every interleaving of two ``CoordinatedBackend.drain`` workers
(a stub inner backend, so what is left is coordination) and their heartbeat
threads, up to three bounds:

* a *preemption* bound: how many times the schedule switches away from an
  actor that could go on (waking a sleeping heartbeat for a renewal costs
  one too);
* a *kill* bound: how many workers die, each at any step — its drain and
  its heartbeat stop there, as ``os._exit`` would leave them;
* a per-worker clock *skew* of ``-LEASE_TTL``, 0 or ``+LEASE_TTL``.  Only
  the difference between the two clocks is read, so worker ``w0`` keeps the
  true clock and ``w1`` takes each offset.

Every actor is a thread, and exactly one runs at a time.  Each seam
primitive of the in-memory store (``MemoryFiles``), a contended wait on the
heartbeat's lock, the heartbeat's sleep and a join is a step: there the
scheduler picks the next actor.  The global clock advances one millisecond a
step, and ``coordinator.wall_now`` reads it plus the calling actor's skew.
The search is depth-first and stateless: each schedule re-runs from scratch
under a prefix of recorded choices, so the search visits the same schedules,
in the same order, every time.

Properties, checked at quiescence (no actor can move):

* crash-free and unskewed: exactly one record and one execution per point,
  no point pending and no lease left behind;
* otherwise: no point left pending once the survivors have advanced their
  clock past the TTL and drained again, as ``run()`` does, and at most two
  records and two executions per point, their results byte-identical.

A violation prints its schedule step by step: actor, primitive, name.
"""

import hashlib
import json
import threading
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Tuple

import pytest

from repro.experiments import coordinator
from repro.experiments.coordinator import LEASE_TTL, CoordinatedBackend
from repro.experiments.results import ResultsStore, StoreFiles
from repro.experiments.runner import spec_hash

from test_coordinator import StubBackend, stub_specs
from test_store_seam import MemoryFiles

TICK = 0.001             # seconds the global clock advances per step
STEP_LIMIT = 2000        # steps before a schedule counts as livelocked
WORKERS = ("w0", "w1")


class Killed(BaseException):
    """Raised in a killed worker's threads at their next step."""


class Violation(AssertionError):
    """A property failed on one schedule; the message prints the schedule."""


def _baton() -> "threading.Lock":
    """A held lock: released by the thread handing control over, acquired
    by the thread waiting for it (a plain lock is the cheapest handoff)."""
    baton = threading.Lock()
    baton.acquire()
    return baton


@dataclass(eq=False)
class Actor:
    """One thread under the scheduler: a drain or a drain's heartbeat."""

    name: str
    worker: str
    baton: "threading.Lock" = field(default_factory=_baton)
    pending: Tuple[str, str] = ("start", "")
    enabled: Optional[Callable[[], bool]] = None
    sleeping: Optional[Callable[[], bool]] = None
    resume: Optional["Actor"] = None      # who gets control at its next step
    done: bool = False
    killed: bool = False

    def ready(self) -> bool:
        return self.enabled is None or self.enabled()

    def asleep(self) -> bool:
        return self.sleeping is not None and self.sleeping()


class Schedule:
    """One run of the actors under a fixed prefix of choices.

    Whichever thread holds control picks the next actor when it steps, and
    wakes it; an actor that goes on keeps running, so only a switch costs a
    thread handoff.  At each decision point the options are listed in a
    fixed order — the default first (the current actor goes on if it can,
    else the first ready actor), then every other ready actor, every
    sleeping heartbeat and every kill the bounds allow — and the prefix says
    which to take; past the prefix the default is taken.  ``choices``
    records, per decision, the index taken and how many options there were.
    """

    def __init__(self, prefix, preemptions, kills, skew):
        self.prefix = prefix
        self.preemptions = preemptions
        self.kills = kills
        self.skew = skew
        self.choices: List[Tuple[int, int]] = []
        self.trace: List[str] = []
        self.now = 1000.0
        self.actors: List[Actor] = []
        self.by_thread = {}
        self.quiet = _baton()          # released when no actor is left
        self.current: Optional[Actor] = None
        self.frozen = False            # recovery: defaults only, no choices
        self.errors: List[str] = []
        self.failure = ""

    def _actor(self) -> Optional[Actor]:
        return self.by_thread.get(threading.get_ident())

    def wall_now(self) -> float:
        actor = self._actor()
        return self.now + (self.skew.get(actor.worker, 0.0) if actor else 0.0)

    # ---------------------------------------------------------- actor side

    def step(self, primitive, argument="", enabled=None, sleeping=None):
        """Park the calling actor before ``primitive`` until it is picked."""
        actor = self._actor()
        if actor is None:
            return
        if actor.killed:
            raise Killed()
        actor.pending = (primitive, argument)
        actor.enabled, actor.sleeping = enabled, sleeping
        if self._hand_over(actor) is not actor:
            actor.baton.acquire()
        if actor.killed:
            raise Killed()

    def _hand_over(self, actor: Optional[Actor]) -> Optional[Actor]:
        """Wake who goes next (a new actor's spawner, else the pick)."""
        if actor is not None and actor.resume is not None:
            target, actor.resume = actor.resume, None
            target.baton.release()
            return target
        return self._next(actor)

    def spawn(self, name, worker, target) -> Actor:
        """A new actor.  Spawned by an actor, it runs to its first step
        before its spawner goes on; spawned here, it waits to be picked."""
        actor = Actor(name, worker)
        spawner = actor.resume = self._actor()
        self.actors.append(actor)

        def body():
            self.by_thread[threading.get_ident()] = actor
            actor.baton.acquire()
            try:
                if actor.killed:
                    raise Killed()
                target()
            except Killed:
                pass
            except Exception as error:          # a violation of its own
                self.errors.append(f"{actor.name} raised {error!r}")
            finally:
                actor.done = True
                self._hand_over(actor)

        threading.Thread(target=body, daemon=True,
                         name=f"explorer-{name}").start()
        if spawner is not None:
            actor.baton.release()
            spawner.baton.acquire()
        return actor

    # ------------------------------------------------------------ deciding

    def run(self) -> None:
        """Schedule until no actor is left; a stuck or endless run raises."""
        self._next(None)
        if not self.quiet.acquire(timeout=60.0):
            raise Violation("an actor blocked outside the scheduler"
                            + self.render())
        if self.failure:
            raise Violation(self.failure + self.render())

    def _next(self, caller: Optional[Actor]) -> Optional[Actor]:
        """Pick the next actor and wake it, unless it is ``caller``.

        A killed actor is woken first, and unwinds without a step."""
        while True:
            live = [actor for actor in self.actors if not actor.done]
            if not live:
                self.quiet.release()
                return None
            unwinding = [actor for actor in live if actor.killed]
            target = unwinding[0] if unwinding else self._decide(live)
            if target is not None:
                if target is not caller:
                    target.baton.release()
                return target

    def _decide(self, live) -> Optional[Actor]:
        """One decision: the actor to run, or None after a kill or a failure."""
        options = self._options(live)
        if not options or len(self.trace) > STEP_LIMIT:
            self.failure = "deadlock" if not options else "livelock"
            for actor in live:
                actor.killed = True
            return None
        index = 0
        if not self.frozen:
            position = len(self.choices)
            if position < len(self.prefix):
                index = self.prefix[position]
            self.choices.append((index, len(options)))
        kind, target, cost = options[index]
        self.preemptions -= cost
        if kind == "kill":
            self.kills -= 1
            self.trace.append(f"{target:<6s} KILLED")
            for actor in live:
                actor.killed = actor.killed or actor.worker == target
            return None
        self.now += TICK
        primitive, argument = target.pending
        self.trace.append(f"{target.name:<6s} {primitive} {argument}".rstrip())
        self.current = target
        return target

    def _alive(self, worker: str) -> bool:
        return any(actor.worker == worker and not actor.done
                   and not actor.killed for actor in self.actors)

    def _options(self, live):
        ready = [actor for actor in live if actor.ready() and not actor.asleep()]
        sleepers = [actor for actor in live if actor.ready() and actor.asleep()]
        carry_on = self.current in ready
        default = self.current if carry_on else (ready[0] if ready else None)
        options = [("run", default, 0)] if default is not None else []
        if self.frozen:
            return options
        switch = 1 if carry_on else 0
        options += [("run", actor, switch) for actor in ready
                    if actor is not default and switch <= self.preemptions]
        if self.preemptions >= 1:
            options += [("run", actor, 1) for actor in sleepers]
        if self.kills:
            options += [("kill", worker, 0) for worker in WORKERS
                        if self._alive(worker)]
        return options

    def render(self) -> str:
        skew = ", ".join(f"{worker} {offset:+g} s"
                         for worker, offset in sorted(self.skew.items()))
        return (f" on this schedule (clock skew: {skew or 'none'}):\n"
                + "\n".join(f"  {index:3d}  {line}"
                            for index, line in enumerate(self.trace, 1)))


# ------------------------------------------------------------ the seam, stepped

class SteppedFiles(MemoryFiles):
    """The in-memory store, with a scheduler step before every primitive."""

    schedule: Optional[Schedule] = None

    def _step(self, primitive, argument):
        SteppedFiles.schedule.step(primitive, argument)

    def mkdir(self):
        self._step("mkdir", "")
        return super().mkdir()

    def names(self, pattern):
        self._step("names", _short(pattern))
        return super().names(pattern)

    def read(self, name):
        self._step("read", _short(name))
        return super().read(name)

    def create(self, name, text):
        self._step("create", _short(name))
        return super().create(name, text)

    def replace(self, name, text, owner=""):
        self._step("replace", _short(name))
        return super().replace(name, text, owner)

    def append(self, name, text):
        self._step("append", _short(name))
        return super().append(name, text)

    def tail(self, name, offset):
        self._step("tail", _short(name))
        return super().tail(name, offset)

    def truncate_torn_tail(self, name):
        self._step("truncate_torn_tail", _short(name))
        return super().truncate_torn_tail(name)

    def unlink(self, name):
        self._step("unlink", _short(name))
        return super().unlink(name)

    def take(self, name, owner):
        self._step("take", _short(name))
        return MemoryFiles.unlink(self, name)


def _short(name: str) -> str:
    """A lease or listing name with its 64-digit key cut to 8 digits."""
    if StoreFiles.SPEC_HASH in name:
        return name.replace(StoreFiles.SPEC_HASH, "<key>")
    if name.startswith("lease-"):
        return f"lease-{name[6:14]}….json"
    return name


class SteppedLock:
    """The heartbeat's lock: a contended acquire waits as a step."""

    def __init__(self):
        self.held = False

    def __enter__(self):
        if self.held:
            SteppedFiles.schedule.step("wait-lock", enabled=lambda: not self.held)
        self.held = True

    def __exit__(self, *_exc):
        self.held = False


class SteppedEvent:
    """The heartbeat's stop flag: its timed wait is the heartbeat's sleep,
    which ends when the scheduler picks it for a renewal.  A heartbeat
    watching no lease would renew nothing, so it is not woken until the
    flag is set."""

    def __init__(self, idle):
        self.flag = False
        self.idle = idle

    def set(self):
        self.flag = True

    def wait(self, _timeout):
        SteppedFiles.schedule.step(
            "sleep", enabled=lambda: self.flag or not self.idle(),
            sleeping=lambda: not self.flag)
        return self.flag


class SteppedThread:
    """The heartbeat's thread: an actor of its drain's worker."""

    def __init__(self, name, worker, target):
        self.name, self.worker, self.target = name, worker, target
        self.actor: Optional[Actor] = None

    def is_alive(self):
        return self.actor is not None and not self.actor.done

    def start(self):
        self.actor = SteppedFiles.schedule.spawn(self.name, self.worker,
                                                 self.target)

    def join(self):
        actor = self.actor
        SteppedFiles.schedule.step("join", actor.name,
                                   enabled=lambda: actor.done)


class SteppedHeartbeat(coordinator._Heartbeat):
    """The drain's heartbeat, its thread, lock and sleep under the scheduler."""

    def __init__(self, directory, owner):
        super().__init__(directory, owner)
        self._lock = SteppedLock()
        self._stop = SteppedEvent(idle=lambda: self._target is None)
        self._thread = SteppedThread(f"{owner}.hb", owner, self._run)


class CountingStub(StubBackend):
    """The stub backend, counting executions per point across workers."""

    def __init__(self, executions: Counter):
        self.executions = executions

    def run_iter_timed(self, specs):
        for spec in specs:
            self.executions[spec_hash(spec)] += 1
        return super().run_iter_timed(specs)


# ------------------------------------------------------------------ the search

def run_schedule(specs, prefix, preemptions, kills, skew) -> Schedule:
    """Run both drains under one schedule and check the properties."""
    schedule = SteppedFiles.schedule = Schedule(prefix, preemptions, kills, skew)
    files = SteppedFiles("memory")
    executions: Counter = Counter()
    backends = {worker: CoordinatedBackend(files, inner=CountingStub(executions),
                                           owner=worker)
                for worker in WORKERS}
    for worker, backend in backends.items():
        schedule.spawn(worker, worker, lambda backend=backend: backend.drain(specs))
    schedule.run()
    killed = {actor.worker for actor in schedule.actors if actor.killed}
    keys = [spec_hash(spec) for spec in specs]
    # Quiescence: survivors advance past the TTL and drain again, as run()
    # does, until nothing is pending or a round records nothing.
    schedule.frozen = True
    recorded = _records(files)
    while killed and not set(keys) <= set(recorded):
        before = sum(len(lines) for lines in recorded.values())
        schedule.now += LEASE_TTL + 1.0
        schedule.trace.append(f"{'':6s} (clock +{LEASE_TTL + 1.0:g} s)")
        for worker in WORKERS:
            if worker not in killed:
                schedule.spawn(worker, worker,
                               lambda backend=backends[worker]: backend.drain(specs))
        schedule.run()
        recorded = _records(files)
        if sum(len(lines) for lines in recorded.values()) == before:
            break
    check(schedule, keys, recorded, executions, killed, files)
    return schedule


def _records(files) -> dict:
    """Record result bytes per point, over every results file."""
    recorded: dict = {}
    for name in MemoryFiles.names(files, StoreFiles.RESULTS):
        for line in bytes(files.data[name]).decode().splitlines():
            record = json.loads(line)
            recorded.setdefault(record["spec_hash"], []).append(
                json.dumps(record["result"], sort_keys=True))
    return recorded


def check(schedule, keys, recorded, executions, killed, files) -> None:
    problems = list(schedule.errors)
    pending = [key[:8] for key in keys if key not in recorded]
    if pending:
        problems.append(f"points left pending: {pending}")
    exact = not killed and not any(schedule.skew.values())
    bound = 1 if exact else 2
    for key in keys:
        copies = recorded.get(key, [])
        if len(copies) > bound:
            problems.append(f"point {key[:8]} recorded {len(copies)} times")
        if len(set(copies)) > 1:
            problems.append(f"point {key[:8]} recorded with different results")
        if executions[key] > bound:
            problems.append(f"point {key[:8]} executed {executions[key]} times")
    if exact:
        leftover = MemoryFiles.names(files, "lease-*")
        if leftover:
            problems.append(f"leases left behind: {leftover}")
    if problems:
        raise Violation("; ".join(problems) + schedule.render())


@dataclass
class Search:
    """What one bounded search visited: how many schedules, how many steps,
    and a digest of every schedule's trace in visiting order."""

    schedules: int = 0
    steps: int = 0
    digest: Any = field(default_factory=hashlib.sha256)


def explore(points, preemptions=0, kills=0, skews=(0.0,)) -> Search:
    """Depth-first over every schedule within the bounds; raises the first
    :class:`Violation` found."""
    specs = stub_specs(3)[:points]
    search = Search()
    for offset in skews:
        prefix: Optional[List[int]] = []
        while prefix is not None:
            schedule = run_schedule(specs, prefix, preemptions, kills,
                                    {"w0": 0.0, "w1": offset})
            search.schedules += 1
            search.steps += len(schedule.trace)
            search.digest.update("\n".join(schedule.trace + [""]).encode())
            prefix = _next_prefix(schedule.choices)
    return search


def _next_prefix(choices) -> Optional[List[int]]:
    """The deepest decision with an option left untried, advanced by one."""
    for position in range(len(choices) - 1, -1, -1):
        index, count = choices[position]
        if index + 1 < count:
            return [taken for taken, _ in choices[:position]] + [index + 1]
    return None


@pytest.fixture
def stepped(monkeypatch):
    """Route the drain's clock and heartbeat through the scheduler."""
    monkeypatch.setattr(coordinator, "wall_now",
                        lambda: SteppedFiles.schedule.wall_now())
    monkeypatch.setattr(coordinator, "_Heartbeat", SteppedHeartbeat)
    yield
    SteppedFiles.schedule = None


# --------------------------------------------------------------------- the tests
#
# Tier-1 runs each property at the shallow bounds; the ``slow`` marker holds
# the deeper ones (preemption bound 2 crash-free, bound 1 with a kill).

@pytest.mark.parametrize("points", [2, 3])
def test_crash_free_schedules_record_each_point_once(stepped, points):
    assert explore(points, preemptions=1).schedules > 1


@pytest.mark.parametrize("points", [2, 3])
def test_a_killed_workers_point_runs_at_most_twice(stepped, points):
    assert explore(points, kills=1).schedules > 1


def test_skewed_clocks_duplicate_a_point_at_most_once(stepped):
    assert explore(2, preemptions=1, skews=(-LEASE_TTL, LEASE_TTL)).schedules > 1


def test_the_search_is_deterministic(stepped):
    first, second = (explore(2, kills=1) for _ in range(2))
    assert (first.schedules, first.steps, first.digest.hexdigest()) == \
        (second.schedules, second.steps, second.digest.hexdigest())


def test_without_the_post_create_check_a_point_runs_twice(stepped, monkeypatch):
    """The double run the store check after a successful create prevents: a
    point recorded and released between a scan's load and its create.  The
    search finds it, and prints the same schedule each time (``pytest -s``
    shows it)."""
    monkeypatch.setattr(ResultsStore, "__contains__", lambda store, key: False)
    found = []
    for _ in range(2):
        with pytest.raises(Violation) as excinfo:
            explore(2, preemptions=1)
        found.append(str(excinfo.value))
    print(found[0])
    assert found[0] == found[1]
    assert found[0].startswith("point ") and "recorded 2 times" in found[0]
    assert "  w1     create lease-" in found[0]


@pytest.mark.slow
@pytest.mark.parametrize("points", [2, 3])
def test_crash_free_schedules_at_preemption_bound_two(stepped, points):
    assert explore(points, preemptions=2).schedules > 1


@pytest.mark.slow
@pytest.mark.parametrize("points", [2, 3])
def test_a_kill_at_every_step_with_one_preemption(stepped, points):
    assert explore(points, preemptions=1, kills=1).schedules > 1


@pytest.mark.slow
@pytest.mark.parametrize("points, preemptions", [(3, 1), (2, 2)])
def test_skewed_clocks_at_the_deeper_bounds(stepped, points, preemptions):
    assert explore(points, preemptions=preemptions,
                   skews=(-LEASE_TTL, LEASE_TTL)).schedules > 1
