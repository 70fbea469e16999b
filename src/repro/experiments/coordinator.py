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
import socket
import threading
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exceptions import ExperimentError
from repro.experiments.results import ResultsStore
from repro.experiments.runner import (
    ExecutionBackend,
    RunContext,
    RunResult,
    ScenarioSpec,
    SerialBackend,
    _finite_number,
    compile_group_key,
    group_label,
    spec_hash,
)

__all__ = [
    "DEFAULT_LEASE_TTL",
    "CoordinatedBackend",
    "LeaseInfo",
    "lease_path",
    "read_lease",
    "live_leases",
    "gc_leases",
    "wall_now",
    "drain_store",
    "SweepStatus",
    "sweep_status",
]

#: Seconds a lease may go without a heartbeat before any worker may reclaim
#: it.  Heartbeats renew every TTL/6 while a point executes, so a live worker
#: never comes close; a killed worker's point re-enters the pool after one
#: TTL rather than wedging the sweep.
DEFAULT_LEASE_TTL = 30.0

#: How often a waiting worker re-examines the store for newly completed or
#: newly stale points.
DEFAULT_POLL_INTERVAL = 0.2

_LEASE_PATTERN = re.compile(r"lease-([0-9a-f]{64})\.json$")


def wall_now() -> float:
    """The wall clock, for lease timestamps only (see module docstring)."""
    return time.time()


def _default_owner() -> str:
    """A unique, filename-safe worker id: host, pid and a random suffix.

    The suffix guards against pid reuse across sequential invocations on one
    host; owner ids never influence results bytes, only lease bookkeeping.
    """
    host = re.sub(r"[^A-Za-z0-9_-]", "-", socket.gethostname())[:24]
    return f"{host}-{os.getpid()}-{uuid.uuid4().hex[:6]}"


# ------------------------------------------------------------- lease files

def lease_path(directory, key: str) -> Path:
    return Path(directory) / f"lease-{key}.json"


@dataclass(frozen=True)
class LeaseInfo:
    """One lease file, decoded, with staleness judged at ``now``."""

    key: str
    owner: str
    acquired_unix: float
    heartbeat_unix: float
    age_s: float
    stale: bool
    spec_name: str = ""


def _write_lease(path: Path, owner: str, acquired: float, spec_name: str,
                 now: float) -> None:
    """Atomically (re)write a lease payload via rename, never in place.

    Readers therefore always see a complete JSON document; the temp name is
    owner-unique so concurrent renewers of *different* leases never collide.
    """
    staging = path.with_name(path.name + f".{owner}.tmp")
    staging.write_text(json.dumps({
        "owner": owner,
        "acquired_unix": round(acquired, 3),
        "heartbeat_unix": round(now, 3),
        "spec_name": spec_name,
    }, sort_keys=True) + "\n")
    staging.replace(path)


def try_acquire_lease(directory, key: str, owner: str, spec_name: str = "",
                      now: Optional[float] = None) -> bool:
    """Claim ``key`` by exclusive-create; False when someone else holds it."""
    path = lease_path(directory, key)
    now = wall_now() if now is None else now
    try:
        handle = path.open("x", encoding="utf-8")
    except FileExistsError:
        return False
    with handle:
        handle.write(json.dumps({
            "owner": owner,
            "acquired_unix": round(now, 3),
            "heartbeat_unix": round(now, 3),
            "spec_name": spec_name,
        }, sort_keys=True) + "\n")
    return True


def renew_lease(directory, key: str, owner: str, spec_name: str = "",
                now: Optional[float] = None) -> bool:
    """Refresh the heartbeat of a lease this owner holds; False if it doesn't.

    A lease that is gone, or that names another owner, was reclaimed while
    this worker stalled past the TTL: it is the reclaimer's now, and writing
    to it would hand the point back to a worker presumed dead.  (The check
    and the rewrite are two steps; the window between them is microseconds,
    not the TTL-long one an unconditional rewrite leaves open.)
    """
    now = wall_now() if now is None else now
    info = read_lease(directory, key)
    if info is None or info.owner != owner:
        return False
    _write_lease(lease_path(directory, key), owner, info.acquired_unix,
                 spec_name, now)
    return True


def release_lease(directory, key: str, owner: Optional[str] = None) -> bool:
    """Remove a lease; with ``owner`` given, only if still held by that owner.

    (A falsely-stale reclaim may have handed the lease to someone else while
    we executed; their lease is theirs to release.)
    """
    path = lease_path(directory, key)
    if owner is not None:
        info = read_lease(directory, key)
        if info is not None and info.owner != owner:
            return False
    try:
        path.unlink()
    except FileNotFoundError:
        return False
    return True


def reclaim_lease(directory, key: str, owner: str) -> bool:
    """Atomically tear down a stale lease; True when *this* caller won.

    Rename-to-tombstone makes the teardown single-winner: of N concurrent
    reclaimers exactly one rename succeeds, the rest see FileNotFoundError
    and go back to the claim loop.  (Deleting in place instead would let a
    slow reclaimer unlink the *fresh* lease a faster one just created.)
    """
    path = lease_path(directory, key)
    tombstone = path.with_name(path.name + f".reclaim-{owner}")
    try:
        os.replace(path, tombstone)
    except FileNotFoundError:
        return False
    tombstone.unlink(missing_ok=True)
    return True


def read_lease(directory, key: str,
               now: Optional[float] = None,
               ttl: float = DEFAULT_LEASE_TTL) -> Optional[LeaseInfo]:
    """Decode one lease file; None when absent.

    A lease caught mid-create (exclusive-create is not atomic with respect
    to content) decodes as unreadable; it is treated as freshly live via the
    file's mtime so a racing reader never mistakes a newborn lease for
    reclaimable garbage.
    """
    path = lease_path(directory, key)
    now = wall_now() if now is None else now
    try:
        payload = json.loads(path.read_text())
        heartbeat = float(payload["heartbeat_unix"])
        acquired = float(payload.get("acquired_unix", heartbeat))
        owner = str(payload.get("owner", "?"))
        spec_name = str(payload.get("spec_name", ""))
    except FileNotFoundError:
        return None
    except (json.JSONDecodeError, KeyError, TypeError, ValueError):
        try:
            heartbeat = acquired = path.stat().st_mtime
        except FileNotFoundError:
            return None
        owner, spec_name = "?", ""
    age = max(0.0, now - heartbeat)
    return LeaseInfo(key=key, owner=owner, acquired_unix=acquired,
                     heartbeat_unix=heartbeat, age_s=age, stale=age > ttl,
                     spec_name=spec_name)


def _lease_keys(directory) -> List[str]:
    keys = []
    for file in sorted(Path(directory).glob("lease-*.json")):
        match = _LEASE_PATTERN.match(file.name)
        if match:
            keys.append(match.group(1))
    return keys


def live_leases(directory, ttl: float = DEFAULT_LEASE_TTL,
                now: Optional[float] = None) -> List[LeaseInfo]:
    """Every decodable lease in the directory (live and stale), sorted by key."""
    now = wall_now() if now is None else now
    leases = []
    for key in _lease_keys(directory):
        info = read_lease(directory, key, now=now, ttl=ttl)
        if info is not None:
            leases.append(info)
    return leases


def gc_leases(directory, valid_keys, completed_keys,
              ttl: float = DEFAULT_LEASE_TTL,
              now: Optional[float] = None) -> Tuple[int, int]:
    """Store-hygiene pass used by ``gc-results``: returns (removed, live).

    Removes *orphaned* leases (their point is already recorded, or the
    current grid no longer defines it) and *stale* ones (heartbeat past the
    TTL — a killed worker never releases).  Live leases on genuinely pending
    points are left alone: the drain holding them is still running.  Stray
    reclaim tombstones and staging files from killed renewers are swept too.
    """
    directory = Path(directory)
    now = wall_now() if now is None else now
    removed = live = 0
    for key in _lease_keys(directory):
        info = read_lease(directory, key, now=now, ttl=ttl)
        if info is None:
            continue
        orphaned = key not in valid_keys or key in completed_keys
        if orphaned or info.stale:
            if reclaim_lease(directory, key, "gc"):
                removed += 1
        else:
            live += 1
    for debris in sorted(directory.glob("lease-*.json.*")):
        debris.unlink(missing_ok=True)
    return removed, live


class _Heartbeat:
    """One daemon thread per drain, renewing whichever lease the drain holds.

    :meth:`watch` points it at the lease of the point about to execute and
    :meth:`clear` takes it off again.  Every ``interval`` seconds the thread
    renews the lease it is pointed at, if any, so a held lease never goes
    longer than that without a heartbeat.  A renewal that finds the lease
    lost (see :func:`renew_lease`) drops it; the point still runs to
    completion and is recorded — a duplicate of the reclaimer's
    byte-identical record at worst.

    The target is read, renewed and written under one lock, so once
    :meth:`clear` returns no renewal is in flight and none can start: the
    drain clears *before* it releases, and a released lease is never written
    again.  The thread starts with the first :meth:`watch` — a drain that
    claims nothing starts none — and is joined on exit.
    """

    def __init__(self, directory, owner: str, interval: float):
        self._directory = directory
        self._owner = owner
        self._interval = interval
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
                 owner: Optional[str] = None,
                 ttl: float = DEFAULT_LEASE_TTL,
                 poll_interval: float = DEFAULT_POLL_INTERVAL,
                 heartbeat_interval: Optional[float] = None,
                 scenario: str = ""):
        # Refused here, before the store below creates anything on disk.
        # (``nan <= 0`` is false: a bare comparison lets NaN through.)
        if not _finite_number(ttl, positive=True):
            raise ExperimentError(
                f"lease TTL must be positive and finite, got {ttl!r}")
        if heartbeat_interval is None:
            heartbeat_interval = ttl / 6.0
        if not (_finite_number(heartbeat_interval, positive=True)
                and heartbeat_interval < ttl):
            raise ExperimentError(
                f"heartbeat interval must be positive and shorter than the "
                f"lease TTL ({ttl}), got {heartbeat_interval!r}: a lease would "
                f"go stale under a live worker")
        if not _finite_number(poll_interval, positive=False):
            raise ExperimentError(
                f"poll interval must be non-negative and finite, "
                f"got {poll_interval!r}")
        self.owner = owner if owner is not None else _default_owner()
        self.directory = Path(directory)
        self.store = ResultsStore(directory,
                                  filename=f"results-worker-{self.owner}.jsonl")
        # One persistent context so the compiled-policy/topology caches
        # survive across the one-point-at-a-time claim loop — cache locality
        # is the entire point of group-preferring claims.
        self.inner = inner if inner is not None else SerialBackend(RunContext())
        self.ttl = ttl
        self.poll_interval = poll_interval
        self.heartbeat_interval = heartbeat_interval
        self.scenario = scenario
        # Accounting, for the caller's progress report and sweep-status.
        self.executed = 0
        self.stolen = 0
        self.reclaimed = 0
        self.idle_s = 0.0
        self.groups_entered: List[str] = []
        #: When the worker meta was last written, on the wall clock.
        self._meta_written = float("-inf")

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
        listing is caught by the exclusive create below.

        ``groups`` is the drain's own and is pruned in place: a position
        found complete leaves its list for good (a record is never
        un-written within one drain), so a scan walks the points still
        pending, not the grid.
        """
        while True:
            # Listing first: a point whose lease is already gone was recorded
            # before its release, so the load that follows sees it complete.
            leased = set(_lease_keys(self.directory))
            completed = self.store.load()
            now = wall_now()
            claimable: Dict[int, bool] = {}      # position -> needs reclaim
            active_groups = set()
            pending_total = 0
            for group_key, positions in groups.items():
                positions[:] = [position for position in positions
                                if keys[position] not in completed]
                pending_total += len(positions)
                for position in positions:
                    key = keys[position]
                    info = (read_lease(self.directory, key, now=now,
                                       ttl=self.ttl)
                            if key in leased else None)
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
            if needs_reclaim and not reclaim_lease(self.directory, key,
                                                   self.owner):
                continue                    # lost the reclaim race; re-scan
            if not try_acquire_lease(self.directory, key, self.owner,
                                     spec_name=specs[position].name, now=now):
                continue                    # lost the create race; re-scan
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

    def drain(self, specs: Sequence[ScenarioSpec],
              keys: Optional[Sequence[str]] = None) -> None:
        """Claim and execute points until nothing is claimable by this worker.

        On return every grid point is either complete in the store or covered
        by another worker's live lease (use :meth:`run` to additionally wait
        for those).  A point that raises (Ctrl-C, an ``ExperimentError``) has
        its lease released before the exception propagates, so a rerun
        resumes at once; a hard kill leaves the lease behind, and after one
        TTL any surviving worker reclaims and re-executes the point.
        ``keys`` lets a caller that already holds the specs' hashes, in spec
        order, skip recomputing them.
        """
        specs = list(specs)
        if keys is None:
            keys = [spec_hash(spec) for spec in specs]
        groups = self._build_groups(specs)
        current_group: Optional[Tuple] = None
        with _Heartbeat(self.directory, self.owner,
                        self.heartbeat_interval) as heartbeat:
            while True:
                claim = self._claim(specs, keys, groups, current_group)
                if claim is None:
                    break
                spec, key = specs[claim.position], keys[claim.position]
                group = compile_group_key(spec)
                if group != current_group:
                    current_group = group
                    self.groups_entered.append(group_label(group))
                if claim.stolen:
                    self.stolen += 1
                if claim.reclaimed:
                    self.reclaimed += 1
                heartbeat.watch(key, spec.name)
                try:
                    result, wall_s = next(iter(self.inner.run_iter_timed([spec])))
                except BaseException:
                    heartbeat.clear()
                    release_lease(self.directory, key, owner=self.owner)
                    raise
                heartbeat.clear()
                self.store.record(spec, result, wall_s=wall_s, key=key,
                                  owner=self.owner)
                release_lease(self.directory, key, owner=self.owner)
                self.executed += 1
                # Progress for ``sweep-status`` at the heartbeat's cadence:
                # often enough to watch a sweep, and off the per-point path.
                # (A wall clock that stepped back counts as "long ago".)
                if not (0 <= wall_now() - self._meta_written
                        < self.heartbeat_interval):
                    self._write_worker_meta()
        self._write_worker_meta()

    def run(self, specs: Sequence[ScenarioSpec]) -> List[RunResult]:
        """Drain, then wait out other workers; returns the *full* grid.

        The wait loop re-drains each poll tick, so a point whose worker dies
        mid-flight is reclaimed here the moment its lease goes stale — a
        single surviving invocation always converges to the complete grid.
        """
        specs = list(specs)
        keys = [spec_hash(spec) for spec in specs]
        while True:
            self.drain(specs, keys)
            completed = self.store.load()
            if all(key in completed for key in keys):
                break
            waited = time.perf_counter()
            time.sleep(self.poll_interval)
            self.idle_s += time.perf_counter() - waited
            self._write_worker_meta()
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

    def _write_worker_meta(self) -> None:
        """Progress record for ``sweep-status`` (advisory, never load-bearing)."""
        payload = dict(self.accounting())
        payload["scenario"] = self.scenario
        self._meta_written = wall_now()
        payload["updated_unix"] = round(self._meta_written, 3)
        path = self.directory / f"worker-{self.owner}.meta.json"
        staging = path.with_name(path.name + ".tmp")
        staging.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        staging.replace(path)


def drain_store(specs: Sequence[ScenarioSpec], directory,
                owner: Optional[str] = None,
                ttl: float = DEFAULT_LEASE_TTL,
                scenario: str = "") -> Dict[str, object]:
    """Module-level one-worker drain (picklable for process fan-out).

    Runs a :class:`CoordinatedBackend` to claim-exhaustion and returns its
    accounting dict; the results live in the store for a later merge or a
    parent's :meth:`CoordinatedBackend.run`.
    """
    backend = CoordinatedBackend(directory, owner=owner, ttl=ttl,
                                 scenario=scenario)
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
    executed: int
    stolen: int
    reclaimed: int
    idle_s: float
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
                         f"{'recl':>5s} {'idle_s':>7s}  current")
        for worker in self.workers:
            lines.append(f"{worker.owner:<32s} {worker.executed:>5d} "
                         f"{worker.stolen:>5d} {worker.reclaimed:>5d} "
                         f"{worker.idle_s:>7.1f}  {worker.current or '-'}")
        return "\n".join(lines)


def sweep_status(specs: Sequence[ScenarioSpec], directory,
                 ttl: float = DEFAULT_LEASE_TTL,
                 now: Optional[float] = None) -> SweepStatus:
    """Pending/leased/complete per locality group, plus per-worker progress.

    Reads records, lease files and worker metas; executed counts come from
    the records themselves (each carries its executing owner), so the view
    is exact even for workers whose meta write was lost to a kill.
    """
    directory = Path(directory)
    specs = list(specs)
    keys = [spec_hash(spec) for spec in specs]
    now = wall_now() if now is None else now

    completed = set()
    executed_by: Dict[str, int] = {}
    for key, record, _ in ResultsStore(directory)._validated():
        completed.add(key)
        owner = record.get("owner")
        if owner:
            executed_by[owner] = executed_by.get(owner, 0) + 1

    lease_by_key = {info.key: info
                    for info in live_leases(directory, ttl=ttl, now=now)}

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

    key_set = set(keys)
    workers: Dict[str, WorkerStatus] = {}
    for file in sorted(directory.glob("worker-*.meta.json")):
        try:
            payload = json.loads(file.read_text())
        except (json.JSONDecodeError, OSError):
            continue
        owner = str(payload.get("owner", file.stem[len("worker-"):]))
        workers[owner] = WorkerStatus(
            owner=owner,
            executed=int(payload.get("executed", 0)),
            stolen=int(payload.get("stolen", 0)),
            reclaimed=int(payload.get("reclaimed", 0)),
            idle_s=float(payload.get("idle_s", 0.0)))
    for owner, count in sorted(executed_by.items()):
        worker = workers.setdefault(
            owner, WorkerStatus(owner=owner, executed=0, stolen=0,
                                reclaimed=0, idle_s=0.0))
        worker.executed = max(worker.executed, count)
    for info in lease_by_key.values():
        if info.stale or info.key not in key_set:
            continue
        worker = workers.setdefault(
            info.owner, WorkerStatus(owner=info.owner, executed=0, stolen=0,
                                     reclaimed=0, idle_s=0.0))
        worker.current = info.spec_name or info.key[:12]

    return SweepStatus(total=total, complete=complete, leased=leased,
                       stale=stale, groups=list(groups.values()),
                       workers=sorted(workers.values(),
                                      key=lambda status: status.owner))
