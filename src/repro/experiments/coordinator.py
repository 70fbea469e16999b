"""Lease-coordinated sweep drain: the one way a grid reaches a results store.

Every store-backed run is a :class:`CoordinatedBackend` draining specs into
the JSONL :class:`~repro.experiments.results.ResultsStore`: a resumable
``--results-dir`` run, a static ``--shard i/n`` slice (the drain of
``specs[i::n]``), and any number of concurrent invocations on any hosts that
share one directory.  Ownership is dynamic — a worker that runs out of its
own work steals from the straggler instead of idling — so concurrent
invocations balance grid cost, not grid count.  There is no daemon and no
shared state beyond the results directory itself; workers started at any
time converge to the complete grid:

* **Leases.**  A worker claims one pending point at a time by atomically
  creating ``lease-<spec_hash>.json`` (exclusive-create, so exactly one
  claimant wins).  The lease carries the owner id and acquire time and is
  heartbeat-renewed by a background thread while the point executes.  A lease
  whose heartbeat is older than the TTL is *stale* — its worker is presumed
  dead — and any worker may reclaim it (an atomic rename tombstone ensures a
  single reclaimer).  Because results are deterministic, the worst case of a
  falsely-stale reclaim (the owner was alive but stalled) is duplicate work
  producing byte-identical records, which the store already tolerates.
* **Locality groups.**  Points sharing a compile key
  (:func:`~repro.experiments.runner.compile_group_key`: the (policy,
  topology) pair that keys a worker's compiled-policy cache) cluster to the
  same worker: a worker keeps claiming from its current group in
  deterministic spec order, enters an idle group (no live lease held by
  anyone) when its own is drained, and **steals** from an active group only
  when every group with pending work is being worked by someone else —
  preferring the group with the most remaining points (the straggler).  A
  k=32 policy compile costs ~20 s, so keeping a group on one worker is what
  makes stealing a win rather than a cache-thrashing loss.
* **Byte-identity.**  Completed records stream into a worker-private
  ``results-worker-<owner>.jsonl``, which the store's union glob reads like
  any other results file; merged reports are therefore byte-identical to an
  unsharded serial run regardless of worker count, slicing, kills, steals or
  interleaving (the repo's standing invariant, test-enforced).
* **Progress.**  Each record names the worker that executed it (``owner``)
  and whether its claim was a steal or a reclaim; :func:`sweep_status`
  counts them per worker over the grid's own records, so the view is exact
  mid-drain and for killed workers, and no other progress file is written.

Wall-clock timestamps: lease heartbeats are the one place this repo
legitimately reads the wall clock — cross-process liveness cannot be derived
from simulated time or ``perf_counter`` (which is process-relative).  The
timestamps never feed simulated time or summaries; the file is allowlisted
for the ``wall-clock`` lint rule (tools/lint_determinism.py).
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.results import ResultsStore, StoreFiles
from repro.experiments.runner import (
    ExecutionBackend,
    RunContext,
    RunResult,
    ScenarioSpec,
    SerialBackend,
    compile_group_key,
    group_label,
    spec_hash,
)

__all__ = [
    "LEASE_TTL",
    "POLL_INTERVAL",
    "CoordinatedBackend",
    "LeaseInfo",
    "read_lease",
    "live_leases",
    "gc_leases",
    "wall_now",
    "drain_store",
    "SweepStatus",
    "sweep_status",
]

#: Seconds a lease may go without a heartbeat before any worker may reclaim
#: it.  A drain's heartbeat renews every ``LEASE_TTL / 6`` while a point
#: executes, so a live worker never comes close; a killed worker's point
#: re-enters the pool after one TTL rather than wedging the sweep.
LEASE_TTL = 30.0

#: How often a waiting worker re-examines the store for newly completed or
#: newly stale points.
POLL_INTERVAL = 0.2


def wall_now() -> float:
    """The wall clock, for lease timestamps only (see module docstring).

    The one place the lease protocol reads time: every acquire, renewal and
    staleness judgement calls it, so a test pins or skews the clock by
    replacing this function.
    """
    return time.time()


def _default_owner() -> str:
    """A unique, filename-safe worker id: host, pid and a random suffix.

    The suffix guards against pid reuse across sequential invocations on one
    host; owner ids never influence results bytes, only lease bookkeeping.
    """
    import socket
    import uuid
    host = re.sub(r"[^A-Za-z0-9_-]", "-", socket.gethostname())[:24]
    return f"{host}-{os.getpid()}-{uuid.uuid4().hex[:6]}"


# ------------------------------------------------------------- lease files

@dataclass(frozen=True)
class LeaseInfo:
    """One lease file, decoded, with staleness judged when it was read."""

    key: str
    owner: str
    acquired_unix: float
    heartbeat_unix: float
    stale: bool
    spec_name: str = ""


def _lease_text(owner: str, acquired: float, heartbeat: float,
                spec_name: str) -> str:
    """A lease payload: what a claim creates and a renewal replaces."""
    return json.dumps({
        "owner": owner,
        "acquired_unix": round(acquired, 3),
        "heartbeat_unix": round(heartbeat, 3),
        "spec_name": spec_name,
    }, sort_keys=True) + "\n"


def try_acquire_lease(directory, key: str, owner: str, spec_name: str = "") -> bool:
    """Claim ``key`` by exclusive-create; False when someone else holds it."""
    now = wall_now()
    return StoreFiles.of(directory).create(
        StoreFiles.LEASE.format(key), _lease_text(owner, now, now, spec_name))


def renew_lease(directory, key: str, owner: str, spec_name: str = "") -> bool:
    """Refresh the heartbeat of a lease this owner holds; False if it doesn't.

    A lease that is gone, or that names another owner, was reclaimed while
    this worker stalled past the TTL: it is the reclaimer's now, and writing
    to it would hand the point back to a worker presumed dead.  (The check
    and the rewrite are two steps; the window between them is microseconds,
    not the TTL-long one an unconditional rewrite leaves open.)
    """
    files = StoreFiles.of(directory)
    info = read_lease(files, key)
    if info is None or info.owner != owner:
        return False
    files.replace(StoreFiles.LEASE.format(key),
                  _lease_text(owner, info.acquired_unix, wall_now(), spec_name),
                  owner)
    return True


def release_lease(directory, key: str, owner: str) -> bool:
    """Remove a lease, only if still held by ``owner``.

    (A falsely-stale reclaim may have handed the lease to someone else while
    we executed; their lease is theirs to release.)
    """
    files = StoreFiles.of(directory)
    info = read_lease(files, key)
    if info is not None and info.owner != owner:
        return False
    return files.unlink(StoreFiles.LEASE.format(key))


def reclaim_lease(directory, key: str, owner: str) -> bool:
    """Atomically tear down a stale lease; True when *this* caller won.

    Single-winner (:meth:`StoreFiles.take`): the losers of N concurrent
    reclaims go back to the claim loop.  (Deleting in place would let a slow
    reclaimer unlink the *fresh* lease a faster one just created.)
    """
    return StoreFiles.of(directory).take(StoreFiles.LEASE.format(key), owner)


def read_lease(directory, key: str) -> Optional[LeaseInfo]:
    """Decode one lease file; None when absent.

    A lease caught mid-create (exclusive-create is not atomic with respect
    to content) decodes as unreadable; it is treated as freshly live via the
    file's mtime so a racing reader never mistakes a newborn lease for
    reclaimable garbage.
    """
    files = StoreFiles.of(directory)
    name = StoreFiles.LEASE.format(key)
    try:
        payload = json.loads(files.read(name))
        heartbeat = float(payload["heartbeat_unix"])
        acquired = float(payload.get("acquired_unix", heartbeat))
        owner = str(payload.get("owner", "?"))
        spec_name = str(payload.get("spec_name", ""))
    except FileNotFoundError:
        return None
    except (json.JSONDecodeError, KeyError, TypeError, ValueError):
        try:
            heartbeat = acquired = files.mtime(name)
        except FileNotFoundError:
            return None
        owner, spec_name = "?", ""
    return LeaseInfo(key=key, owner=owner, acquired_unix=acquired,
                     heartbeat_unix=heartbeat,
                     stale=wall_now() - heartbeat > LEASE_TTL,
                     spec_name=spec_name)


def _lease_keys(directory) -> List[str]:
    return StoreFiles.of(directory).keys(StoreFiles.LEASE, StoreFiles.SPEC_HASH)


def live_leases(directory) -> List[LeaseInfo]:
    """Every decodable lease in the directory (live and stale), sorted by key."""
    files = StoreFiles.of(directory)
    leases = [read_lease(files, key) for key in _lease_keys(files)]
    return [info for info in leases if info is not None]


def gc_leases(directory, valid_keys, completed_keys) -> Tuple[int, int]:
    """Store-hygiene pass used by ``gc-results``: returns (removed, live).

    Removes *orphaned* leases (their point is already recorded, or the
    current grid no longer defines it) and *stale* ones (heartbeat past the
    TTL — a killed worker never releases).  Live leases on genuinely pending
    points are left alone: the drain holding them is still running.  The
    staging files and tombstones of killed lease writers are
    :func:`~repro.experiments.results.gc_results`' to sweep.
    """
    files = StoreFiles.of(directory)
    removed = live = 0
    for info in live_leases(files):
        orphaned = info.key not in valid_keys or info.key in completed_keys
        if orphaned or info.stale:
            if reclaim_lease(files, info.key, "gc"):
                removed += 1
        else:
            live += 1
    return removed, live


class _Heartbeat:
    """One daemon thread per drain, renewing whichever lease the drain holds.

    :meth:`watch` points it at the lease of the point about to execute and
    :meth:`clear` takes it off again.  Every ``LEASE_TTL / 6`` seconds (read
    when the drain builds it) the thread renews the lease it is pointed at,
    if any, so a held lease never goes longer than that without a heartbeat.
    A renewal that finds the lease lost (see :func:`renew_lease`) drops it;
    the point still runs to completion and is recorded — a duplicate of the
    reclaimer's byte-identical record at worst.

    The target is read, renewed and written under one lock, so once
    :meth:`clear` returns no renewal is in flight and none can start: the
    drain clears *before* it releases, and a released lease is never written
    again.  The thread starts with the first :meth:`watch` — a drain that
    claims nothing starts none — and is joined on exit.
    """

    def __init__(self, directory, owner: str):
        self._directory = directory
        self._owner = owner
        self._interval = LEASE_TTL / 6.0
        self._lock = threading.Lock()
        self._target: Optional[Tuple[str, str]] = None    # (key, spec name)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name=f"lease-heartbeat-{owner}")

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            with self._lock:
                if self._target is None:
                    continue
                key, spec_name = self._target
                try:
                    if not renew_lease(self._directory, key, self._owner,
                                       spec_name):
                        self._target = None
                except OSError:
                    # A vanished directory or permission hiccup must not kill
                    # the worker mid-point; the lease simply ages toward
                    # reclaim.
                    pass

    def watch(self, key: str, spec_name: str) -> None:
        with self._lock:
            self._target = (key, spec_name)
        if not self._thread.is_alive():
            self._thread.start()

    def clear(self) -> None:
        with self._lock:
            self._target = None

    def __enter__(self) -> "_Heartbeat":
        return self

    def __exit__(self, *_exc) -> None:
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join()


# ------------------------------------------------------- the coordinated drain

@dataclass
class _Claim:
    """One successful claim: the grid position plus how it was obtained."""

    position: int
    stolen: bool
    reclaimed: bool


class CoordinatedBackend(ExecutionBackend):
    """Drain one grid as one worker of a lease-coordinated multi-worker sweep.

    Ownership is dynamic: the worker repeatedly claims the best pending
    point (own group first, then an idle group, then stealing from the
    most-loaded active group), executes it on the ``inner`` backend, streams
    the record into its worker-private results file, and releases the lease.
    :meth:`run` additionally waits for *other* workers' in-flight points, so
    every invocation — however many there are, on however many hosts —
    returns the complete grid in spec order (decoded store copies, exactly
    what a later merge reads).
    """

    def __init__(self, directory, inner: Optional[ExecutionBackend] = None,
                 owner: Optional[str] = None):
        self.owner = owner if owner is not None else _default_owner()
        self.files = StoreFiles.of(directory)
        self.store = ResultsStore(
            self.files, filename=StoreFiles.WORKER_RESULTS.format(self.owner))
        # One persistent context so the compiled-policy/topology caches
        # survive across the one-point-at-a-time claim loop — cache locality
        # is the entire point of group-preferring claims.
        self.inner = inner if inner is not None else SerialBackend(RunContext())
        # Accounting, for the caller's progress report: counted as each
        # record lands, so it always equals what sweep_status reads.
        self.executed = 0
        self.stolen = 0
        self.reclaimed = 0
        self.idle_s = 0.0
        self.groups_entered: List[str] = []

    # ------------------------------------------------------------- claiming

    def _claim(self, specs: Sequence[ScenarioSpec], keys: Sequence[str],
               groups: "Dict[Tuple, List[int]]",
               current_group: Optional[Tuple]) -> Optional[_Claim]:
        """Claim one pending point, or None when nothing is claimable now.

        Nothing-claimable means every pending point is covered by another
        worker's *live* lease; completed points' leftover leases (a worker
        killed between record and release) are ignored entirely, so an
        orphaned lease can never wedge the sweep.

        One scan costs the bytes the store's files gained since the last
        one (:meth:`ResultsStore.load`) plus one listing of the lease files:
        a pending point whose lease is not in the listing is claimable
        without touching the filesystem again.  A lease created after the
        listing is caught by the exclusive create below, and a point recorded
        and released after the load by the store check that follows it.

        ``groups`` is the drain's own and is pruned in place: a position
        found complete leaves its list for good (a record is never
        un-written within one drain), so a scan walks the points still
        pending, not the grid.
        """
        while True:
            # Listing first: a point whose lease is already gone was recorded
            # before its release, so the load that follows sees it complete.
            leased = set(_lease_keys(self.files))
            completed = self.store.load()
            claimable: Dict[int, bool] = {}      # position -> needs reclaim
            active_groups = set()
            pending_total = 0
            for group_key, positions in groups.items():
                positions[:] = [position for position in positions
                                if keys[position] not in completed]
                pending_total += len(positions)
                for position in positions:
                    key = keys[position]
                    info = read_lease(self.files, key) if key in leased else None
                    if info is None:
                        claimable[position] = False
                    elif info.stale:
                        claimable[position] = True
                    else:
                        active_groups.add(group_key)
            if pending_total == 0 or not claimable:
                return None
            position = self._pick(groups, claimable, active_groups,
                                  current_group)
            needs_reclaim = claimable[position]
            key = keys[position]
            if needs_reclaim and not reclaim_lease(self.files, key,
                                                   self.owner):
                continue                    # lost the reclaim race; re-scan
            if not try_acquire_lease(self.files, key, self.owner,
                                     spec_name=specs[position].name):
                continue                    # lost the create race; re-scan
            if key in self.store:           # recorded since the scan's load
                release_lease(self.files, key, self.owner)
                continue
            stolen = (compile_group_key(specs[position]) != current_group
                      and compile_group_key(specs[position]) in active_groups)
            return _Claim(position=position, stolen=stolen,
                          reclaimed=needs_reclaim)

    @staticmethod
    def _pick(groups: "Dict[Tuple, List[int]]", claimable: Dict[int, bool],
              active_groups: set, current_group: Optional[Tuple]) -> int:
        """The locality-preferring choice among claimable positions.

        1. the worker's current group, in deterministic spec order;
        2. an *idle* group (no live lease anywhere in it), first in group
           order — entering fresh territory is not a steal;
        3. otherwise steal from the active group with the most claimable
           points (the straggler), ties broken by group order.
        """
        if current_group is not None:
            for position in groups.get(current_group, ()):
                if position in claimable:
                    return position
        best_steal: Optional[Tuple[int, int]] = None   # (-count, position)
        for group_key, positions in groups.items():
            mine = [position for position in positions if position in claimable]
            if not mine:
                continue
            if group_key not in active_groups:
                return mine[0]
            candidate = (-len(mine), mine[0])
            if best_steal is None or candidate[0] < best_steal[0]:
                best_steal = candidate
        assert best_steal is not None    # claimable was non-empty
        return best_steal[1]

    # ------------------------------------------------------------ execution

    def _build_groups(self, specs: Sequence[ScenarioSpec]
                      ) -> "Dict[Tuple, List[int]]":
        """Spec positions grouped by compile key, first-occurrence order."""
        groups: Dict[Tuple, List[int]] = {}
        for position, spec in enumerate(specs):
            groups.setdefault(compile_group_key(spec), []).append(position)
        return groups

    def drain(self, specs: Sequence[ScenarioSpec]) -> None:
        """Claim and execute points until nothing is claimable by this worker.

        On return every grid point is either complete in the store or covered
        by another worker's live lease (use :meth:`run` to additionally wait
        for those).  A point that raises (Ctrl-C, an ``ExperimentError``) has
        its lease released before the exception propagates, so a rerun
        resumes at once; a hard kill leaves the lease behind, and after one
        TTL any surviving worker reclaims and re-executes the point.  The
        drain makes the results directory before its first lease create.
        """
        specs = list(specs)
        self._drain(specs, [spec_hash(spec) for spec in specs])

    def _drain(self, specs: List[ScenarioSpec], keys: List[str]) -> None:
        """:meth:`drain`, for :meth:`run`, which holds the hashes already."""
        groups = self._build_groups(specs)
        current_group: Optional[Tuple] = None
        self.files.mkdir()
        with _Heartbeat(self.files, self.owner) as heartbeat:
            while True:
                claim = self._claim(specs, keys, groups, current_group)
                if claim is None:
                    break
                spec, key = specs[claim.position], keys[claim.position]
                group = compile_group_key(spec)
                if group != current_group:
                    current_group = group
                    self.groups_entered.append(group_label(group))
                heartbeat.watch(key, spec.name)
                try:
                    result, wall_s = next(iter(self.inner.run_iter_timed([spec])))
                except BaseException:
                    heartbeat.clear()
                    release_lease(self.files, key, owner=self.owner)
                    raise
                heartbeat.clear()
                self.store.record(spec, result, wall_s=wall_s,
                                  owner=self.owner, stolen=claim.stolen,
                                  reclaimed=claim.reclaimed)
                release_lease(self.files, key, owner=self.owner)
                self.executed += 1
                self.stolen += claim.stolen
                self.reclaimed += claim.reclaimed

    def run(self, specs: Sequence[ScenarioSpec]) -> List[RunResult]:
        """Drain, then wait out other workers; returns the *full* grid.

        The wait loop re-drains each poll tick, so a point whose worker dies
        mid-flight is reclaimed here the moment its lease goes stale — a
        single surviving invocation always converges to the complete grid.
        """
        specs = list(specs)
        keys = [spec_hash(spec) for spec in specs]
        while True:
            self._drain(specs, keys)
            completed = self.store.load()
            if all(key in completed for key in keys):
                break
            waited = time.perf_counter()
            time.sleep(POLL_INTERVAL)
            self.idle_s += time.perf_counter() - waited
        return [completed[key] for key in keys]

    # ----------------------------------------------------------- accounting

    def accounting(self) -> Dict[str, object]:
        return {
            "owner": self.owner,
            "executed": self.executed,
            "stolen": self.stolen,
            "reclaimed": self.reclaimed,
            "idle_s": round(self.idle_s, 3),
            "groups": list(self.groups_entered),
        }


def drain_store(specs: Sequence[ScenarioSpec], directory) -> Dict[str, object]:
    """Module-level one-worker drain (picklable for process fan-out).

    Runs a :class:`CoordinatedBackend` under a fresh owner id to
    claim-exhaustion and returns its accounting dict; the results live in
    the store for a later merge or a parent's :meth:`CoordinatedBackend.run`.
    """
    backend = CoordinatedBackend(directory)
    backend.drain(specs)
    return backend.accounting()


# ------------------------------------------------------------- status view

@dataclass
class GroupStatus:
    label: str
    total: int
    complete: int
    leased: int
    stale: int

    @property
    def pending(self) -> int:
        return self.total - self.complete - self.leased - self.stale


@dataclass
class WorkerStatus:
    owner: str
    executed: int = 0
    stolen: int = 0
    reclaimed: int = 0
    current: str = ""            # spec name under a live lease, if any


@dataclass
class SweepStatus:
    """Snapshot of one coordinated results directory against a spec grid."""

    total: int
    complete: int
    leased: int
    stale: int
    groups: List[GroupStatus] = field(default_factory=list)
    workers: List[WorkerStatus] = field(default_factory=list)

    @property
    def pending(self) -> int:
        return self.total - self.complete - self.leased - self.stale

    def render(self) -> str:
        lines = [
            f"{self.complete}/{self.total} points complete — "
            f"{self.leased} leased, {self.stale} stale lease(s), "
            f"{self.pending} pending",
            "",
            f"{'group':<40s} {'done':>5s} {'lease':>5s} {'stale':>5s} {'todo':>5s}",
        ]
        for group in self.groups:
            lines.append(f"{group.label:<40s} "
                         f"{group.complete:>4d}/{group.total:<2d} "
                         f"{group.leased:>5d} {group.stale:>5d} "
                         f"{group.pending:>5d}")
        if self.workers:
            lines.append("")
            lines.append(f"{'worker':<32s} {'done':>5s} {'stole':>5s} "
                         f"{'recl':>5s}  current")
        for worker in self.workers:
            lines.append(f"{worker.owner:<32s} {worker.executed:>5d} "
                         f"{worker.stolen:>5d} {worker.reclaimed:>5d}  "
                         f"{worker.current or '-'}")
        return "\n".join(lines)


def sweep_status(specs: Sequence[ScenarioSpec], directory) -> SweepStatus:
    """Pending/leased/complete per locality group, plus per-worker progress.

    Reads records and lease files, and only those of this grid.  A worker's
    executed, stolen and reclaimed counts are its records here (each names
    its owner and how its claim was made), so they are exact mid-drain and
    for killed workers; its current point is its live lease, if any.
    """
    files = StoreFiles.of(directory)
    specs = list(specs)
    keys = [spec_hash(spec) for spec in specs]
    key_set = set(keys)

    completed = set()
    workers: Dict[str, WorkerStatus] = {}
    for key, record, _ in ResultsStore(files).records():
        if key not in key_set:
            continue
        completed.add(key)
        owner = record.get("owner")
        if owner:
            worker = workers.setdefault(owner, WorkerStatus(owner))
            worker.executed += 1
            worker.stolen += bool(record.get("stolen"))
            worker.reclaimed += bool(record.get("reclaimed"))

    lease_by_key = {info.key: info
                    for info in live_leases(files)}

    groups: Dict[Tuple, GroupStatus] = {}
    total = complete = leased = stale = 0
    for spec, key in zip(specs, keys):
        group_key = compile_group_key(spec)
        status = groups.get(group_key)
        if status is None:
            status = groups[group_key] = GroupStatus(
                label=group_label(group_key), total=0, complete=0,
                leased=0, stale=0)
        status.total += 1
        total += 1
        if key in completed:
            status.complete += 1
            complete += 1
        elif key in lease_by_key:
            if lease_by_key[key].stale:
                status.stale += 1
                stale += 1
            else:
                status.leased += 1
                leased += 1

    for info in lease_by_key.values():
        if info.stale or info.key not in key_set:
            continue
        worker = workers.setdefault(info.owner, WorkerStatus(info.owner))
        worker.current = info.spec_name or info.key[:12]

    return SweepStatus(total=total, complete=complete, leased=leased,
                       stale=stale, groups=list(groups.values()),
                       workers=sorted(workers.values(),
                                      key=lambda status: status.owner))
