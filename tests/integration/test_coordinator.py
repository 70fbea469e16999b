"""Integration tests for the lease-based work-stealing sweep coordinator.

The contracts under test (ARCHITECTURE.md §8 "Sweep coordinator contract"):

* lease acquire is single-winner (exclusive create), renewal moves the
  heartbeat, staleness is judged against the TTL, and reclaim of a stale
  lease is single-winner too (rename tombstone);
* a coordinated drain — any worker count, any interleaving, including a
  worker killed mid-lease and reclaimed after the TTL — produces a merged
  report byte-identical to the unsharded serial run (summary text and
  ``--json`` bytes), with exactly one store record per point in the
  crash-free paths;
* claims prefer the worker's current locality group, enter idle groups
  before stealing, and steal from the most-loaded active group;
* ``gc-results`` removes orphaned/stale leases, ``merge-results`` warns on
  live ones, and ``sweep-status`` renders per-group/per-worker progress;
* a heartbeat never resurrects a lease its worker lost to a reclaim, and a
  point that raises releases its lease, so a rerun resumes without waiting
  out the TTL;
* a drain's coordination work is linear in the grid: each record decoded
  once per worker, one lease listing per claim scan, lease files read only
  where the listing shows one;
* ``sweep_status`` and ``collect_results`` only read: a missing directory
  stays missing and a torn default file keeps its bytes.

Time reaches the lease protocol through ``coordinator.wall_now`` alone, so
the ``clock`` fixture pins it; a test that needs a short TTL or poll patches
``LEASE_TTL`` / ``POLL_INTERVAL`` (a forked drain inherits the patch).
"""

import json
import math
import multiprocessing
import os
import threading
import time
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.exceptions import ExperimentError
from repro.experiments import coordinator, results
from repro.experiments.config import ExperimentConfig, quick_config
from repro.experiments.coordinator import (
    CoordinatedBackend,
    drain_store,
    gc_leases,
    live_leases,
    read_lease,
    reclaim_lease,
    release_lease,
    renew_lease,
    sweep_status,
    try_acquire_lease,
)
from repro.experiments.failure_recovery import (
    recovery_sweep_specs,
    recovery_sweep_topology,
)
from repro.experiments.registry import (
    GridScenario,
    run_scenario,
    run_scenario_coordinated,
    sweep_status_scenario,
)
from repro.experiments.results import (
    ResultsStore,
    StoreFiles,
    collect_results,
    encode_result,
)
from repro.experiments.runner import (
    ExecutionBackend,
    RunResult,
    ScenarioSpec,
    SerialBackend,
    TopologySpec,
    compile_group_key,
    group_label,
    run_grid,
    spec_hash,
)

TINY = ExperimentConfig(workload_duration=1.5, run_duration=20.0, loads=(0.4,),
                        websearch_scale=0.05, cache_scale=0.2)


def tiny_topology():
    return TopologySpec("fattree", k=4, capacity=TINY.host_capacity,
                        oversubscription=TINY.oversubscription)


def tiny_specs(systems=("ecmp", "contra"), loads=(0.4,)):
    return [
        ScenarioSpec(name=f"coord-test:{system}-{load}", system=system,
                     topology=tiny_topology(), config=TINY,
                     workload="web_search", load=load, seed=TINY.seed,
                     stop_after_completion=True)
        for system in systems for load in loads
    ]


KEY = "ab" * 32     # a syntactically valid spec-hash key for lease unit tests
TTL = coordinator.LEASE_TTL


@pytest.fixture
def clock(monkeypatch):
    """The lease clock pinned: ``wall_now()`` reads ``clock.now``."""
    pinned = SimpleNamespace(now=100.0)
    monkeypatch.setattr(coordinator, "wall_now", lambda: pinned.now)
    return pinned


class TestLeasePrimitives:
    def test_acquire_is_exclusive(self, tmp_path, clock):
        assert try_acquire_lease(tmp_path, KEY, "w0")
        assert not try_acquire_lease(tmp_path, KEY, "w1")
        clock.now = 101.0
        info = read_lease(tmp_path, KEY)
        assert info.owner == "w0" and not info.stale

    def test_renew_moves_the_heartbeat_and_keeps_acquire_time(self, tmp_path,
                                                               clock):
        try_acquire_lease(tmp_path, KEY, "w0")
        clock.now = 120.0
        renew_lease(tmp_path, KEY, "w0")
        clock.now = 121.0
        info = read_lease(tmp_path, KEY)
        assert info.heartbeat_unix == 120.0
        assert info.acquired_unix == 100.0
        assert not info.stale

    def test_renew_never_resurrects_a_lost_lease(self, tmp_path, clock):
        """The paused-worker drill: A stalls past the TTL, B reclaims and
        acquires, A resumes — its heartbeat must leave B's lease alone."""
        assert try_acquire_lease(tmp_path, KEY, "A")
        clock.now = 100.0 + TTL + 1
        assert read_lease(tmp_path, KEY).stale
        assert reclaim_lease(tmp_path, KEY, "B")
        assert try_acquire_lease(tmp_path, KEY, "B")
        clock.now += 1
        assert not renew_lease(tmp_path, KEY, "A")
        info = read_lease(tmp_path, KEY)
        assert (info.owner, info.heartbeat_unix) == ("B", 100.0 + TTL + 1)
        assert not release_lease(tmp_path, KEY, owner="A")
        assert read_lease(tmp_path, KEY).owner == "B"
        assert release_lease(tmp_path, KEY, owner="B")
        # Nor does it re-create a lease that is simply gone.
        assert not renew_lease(tmp_path, KEY, "A")
        assert not list(tmp_path.glob("lease-*")), "renew left debris"

    def test_heartbeat_stops_once_the_lease_is_lost(self, tmp_path, clock,
                                                     monkeypatch):
        """The drain's one thread outlives a lost lease (the next point needs
        it) but is off that lease from the first renewal that finds it gone."""
        monkeypatch.setattr(coordinator, "LEASE_TTL", 0.06)   # 0.01 s heartbeat
        clock.now = 50.0
        assert try_acquire_lease(tmp_path, KEY, "A")
        with coordinator._Heartbeat(tmp_path, "A") as heartbeat:
            heartbeat.watch(KEY, "")
            assert reclaim_lease(tmp_path, KEY, "B")
            clock.now = 100.0
            assert try_acquire_lease(tmp_path, KEY, "B")
            deadline = time.monotonic() + 5.0
            while heartbeat._target is not None and time.monotonic() < deadline:
                time.sleep(0.01)
            assert heartbeat._target is None
            assert heartbeat._thread.is_alive()
            time.sleep(0.05)                # several more ticks: none writes
        assert not heartbeat._thread.is_alive()
        info = read_lease(tmp_path, KEY)
        assert (info.owner, info.heartbeat_unix) == ("B", 100.0)

    def test_staleness_is_judged_against_the_ttl(self, tmp_path, clock):
        try_acquire_lease(tmp_path, KEY, "w0")
        clock.now = 100.0 + TTL - 1
        assert not read_lease(tmp_path, KEY).stale
        clock.now = 100.0 + TTL + 1
        assert read_lease(tmp_path, KEY).stale

    def test_reclaim_is_single_winner(self, tmp_path):
        try_acquire_lease(tmp_path, KEY, "dead")
        assert reclaim_lease(tmp_path, KEY, "w1")
        assert not reclaim_lease(tmp_path, KEY, "w2")
        assert read_lease(tmp_path, KEY) is None
        assert not list(tmp_path.glob("lease-*")), "reclaim left debris"

    def test_release_refuses_anothers_lease(self, tmp_path):
        try_acquire_lease(tmp_path, KEY, "w0")
        assert not release_lease(tmp_path, KEY, owner="w1")
        assert read_lease(tmp_path, KEY).owner == "w0"
        assert release_lease(tmp_path, KEY, owner="w0")
        assert read_lease(tmp_path, KEY) is None

    def test_unreadable_lease_counts_as_live_via_mtime(self, tmp_path):
        # A reader can catch a lease between create and content flush; it
        # must look freshly live, never reclaimable garbage.
        assert StoreFiles(tmp_path).create(StoreFiles.LEASE.format(KEY), "")
        info = read_lease(tmp_path, KEY)
        assert info is not None and not info.stale

    def test_gc_leases_removes_orphaned_and_stale_only(self, tmp_path, clock):
        done, pending, gone = "aa" * 32, "bb" * 32, "cc" * 32
        try_acquire_lease(tmp_path, done, "w0")      # point complete
        try_acquire_lease(tmp_path, pending, "w0")   # live, pending
        try_acquire_lease(tmp_path, gone, "w0")      # not in grid
        clock.now = 101.0
        removed, live = gc_leases(tmp_path, valid_keys={done, pending},
                                  completed_keys={done})
        assert (removed, live) == (2, 1)
        assert read_lease(tmp_path, pending) is not None
        clock.now = 100.0 + TTL + 1                  # now stale too
        removed, live = gc_leases(tmp_path, valid_keys={done, pending},
                                  completed_keys={done})
        assert (removed, live) == (1, 0)
        assert not list(tmp_path.glob("lease-*"))


class TestLocalityGroups:
    def test_compile_group_key_matches_the_compile_cache(self):
        ecmp, contra = tiny_specs(("ecmp", "contra"))
        assert compile_group_key(ecmp) == ("", ecmp.topology)
        assert compile_group_key(contra) == (contra.policy, contra.topology)

    def test_group_labels_are_readable(self):
        ecmp, contra = tiny_specs(("ecmp", "contra"))
        assert group_label(compile_group_key(ecmp)) == "fattree(k=4)"
        assert "fattree(k=4)+" in group_label(compile_group_key(contra))

    def test_a_leafspine_is_labelled_by_its_shape(self):
        """Leaves x spines, counted as ``TopologySpec.build`` counts them."""
        fabric = recovery_sweep_topology(TINY)
        assert group_label(("", fabric)) == "leafspine(4x2)"
        assert group_label(("", TopologySpec("leafspine", k=3))) == \
            "leafspine(3x3)"

    def test_drain_visits_each_group_once(self, tmp_path):
        # Grid order interleaves the groups; a locality-preferring drain
        # still executes group-by-group (one compile per group, not per
        # point) — the accounting must show each group entered exactly once.
        specs = tiny_specs(("ecmp", "contra"), loads=(0.4, 0.6))
        backend = CoordinatedBackend(tmp_path, owner="solo")
        backend.run(specs)
        assert backend.executed == len(specs)
        assert backend.stolen == 0 and backend.reclaimed == 0
        assert len(backend.groups_entered) == 2
        assert len(set(backend.groups_entered)) == 2

    def test_claims_skip_points_under_anothers_live_lease(self, tmp_path):
        specs = tiny_specs(("ecmp", "hula"))
        keys = [spec_hash(spec) for spec in specs]
        try_acquire_lease(tmp_path, keys[0], "other")
        backend = CoordinatedBackend(tmp_path, owner="me")
        backend.drain(specs)
        assert backend.executed == 1          # only the unleased point
        assert keys[1] in ResultsStore(tmp_path).load()
        assert keys[0] not in ResultsStore(tmp_path).load()

    def test_orphaned_lease_on_completed_point_is_ignored(self, tmp_path):
        # A worker killed between record and release leaves a lease on a
        # *complete* point; it must not wedge (or even delay) other workers.
        specs = tiny_specs(("ecmp",))
        key = spec_hash(specs[0])
        solo = CoordinatedBackend(tmp_path, owner="w0")
        solo.run(specs)
        try_acquire_lease(tmp_path, key, "dead")
        done = CoordinatedBackend(tmp_path, owner="w1")
        results = done.run(specs)
        assert done.executed == 0 and done.idle_s == 0.0
        assert len(results) == 1


class TestCoordinatedByteIdentity:
    def test_single_worker_matches_serial(self, tmp_path):
        specs = tiny_specs(("ecmp", "contra"), loads=(0.4, 0.6))
        serial = run_grid(specs, backend=SerialBackend())
        coordinated = run_grid(specs, backend=CoordinatedBackend(tmp_path))
        assert [r.summary for r in coordinated] == [r.summary for r in serial]
        assert not live_leases(tmp_path), "drain left leases behind"
        merged = collect_results(specs, ResultsStore(tmp_path))
        assert [r.summary for r in merged] == [r.summary for r in serial]

    def test_two_processes_one_store_converge(self, tmp_path, monkeypatch):
        """Two real concurrent drain processes + the parent as collector."""
        monkeypatch.setattr(coordinator, "LEASE_TTL", 10.0)
        monkeypatch.setattr(coordinator, "POLL_INTERVAL", 0.05)
        specs = tiny_specs(("ecmp", "contra", "hula"), loads=(0.4, 0.6))
        serial = run_grid(specs, backend=SerialBackend())
        ctx = multiprocessing.get_context("fork")
        # Each forked drain makes its own owner id (host, pid, random suffix).
        workers = [ctx.Process(target=drain_store, args=(specs, tmp_path))
                   for _ in range(2)]
        for worker in workers:
            worker.start()
        collector = CoordinatedBackend(tmp_path, owner="collector")
        results = collector.run(specs)
        for worker in workers:
            worker.join()
            assert worker.exitcode == 0
        assert [r.summary for r in results] == [r.summary for r in serial]
        assert not live_leases(tmp_path)
        # Every point executed exactly once across the three drains:
        # the records' owner tags partition the grid.
        records = [json.loads(line)
                   for file in tmp_path.glob("results-worker-*.jsonl")
                   for line in file.read_text().splitlines()]
        assert sorted(record["spec_hash"] for record in records) == \
            sorted(spec_hash(spec) for spec in specs)

    def test_killed_worker_is_reclaimed_and_report_is_identical(self, tmp_path,
                                                                monkeypatch):
        """The crash-safety satellite: die mid-lease, TTL lapse, reclaim.

        The victim is a forked process that exits hard (``os._exit``: no
        unwinding, no ``finally``) in the middle of its second point, so its
        lease is left behind exactly as a SIGKILL would leave it.
        """
        class DiesAfterOne(SerialBackend):
            def __init__(self):
                super().__init__()
                self.ran = 0

            def run_iter_timed(self, inner_specs):
                # The coordinator feeds one spec per call; die on the
                # second *call*, after the lease for it was acquired.
                self.ran += 1
                if self.ran > 1:
                    os._exit(3)
                yield from super().run_iter_timed(inner_specs)

        def victim_drain(specs):
            CoordinatedBackend(tmp_path, inner=DiesAfterOne(),
                               owner="victim").drain(specs)

        monkeypatch.setattr(coordinator, "LEASE_TTL", 0.5)
        monkeypatch.setattr(coordinator, "POLL_INTERVAL", 0.05)
        specs = tiny_specs(("ecmp", "hula", "contra"))
        serial = run_grid(specs, backend=SerialBackend())
        victim = multiprocessing.get_context("fork").Process(
            target=victim_drain, args=(specs,))
        victim.start()
        victim.join()
        assert victim.exitcode == 3
        assert len(ResultsStore(tmp_path).load()) == 1
        orphans = live_leases(tmp_path)
        assert len(orphans) == 1 and orphans[0].owner == "victim"

        time.sleep(0.6)                       # let the orphan lease go stale
        rescuer = CoordinatedBackend(tmp_path, owner="rescuer")
        results = rescuer.run(specs)
        assert rescuer.reclaimed >= 1
        assert [r.summary for r in results] == [r.summary for r in serial]
        assert not live_leases(tmp_path)
        # Exactly one record per point — the victim's completed point was
        # skipped, not re-executed.
        records = [json.loads(line)
                   for file in tmp_path.glob("results-worker-*.jsonl")
                   for line in file.read_text().splitlines()]
        assert sorted(r["spec_hash"] for r in records) == \
            sorted(spec_hash(spec) for spec in specs)
        # The killed worker's progress is its record: sweep-status counts
        # it beside the rescuer's reclaims.
        workers = {worker.owner: (worker.executed, worker.reclaimed)
                   for worker in sweep_status(specs, tmp_path).workers}
        assert workers == {"victim": (1, 0),
                           "rescuer": (len(specs) - 1, rescuer.reclaimed)}

    def test_interrupted_point_releases_its_lease(self, tmp_path):
        """Ctrl-C mid-point hands the point back on the way out: no live
        lease remains, and a rerun under the default 30 s TTL executes the
        rest at once instead of waiting to reclaim it."""
        class InterruptedOnSecond(SerialBackend):
            calls = 0

            def run_iter_timed(self, inner_specs):
                InterruptedOnSecond.calls += 1
                if InterruptedOnSecond.calls > 1:
                    raise KeyboardInterrupt("simulated Ctrl-C")
                yield from super().run_iter_timed(inner_specs)

        specs = tiny_specs(("ecmp", "hula", "contra"))
        with pytest.raises(KeyboardInterrupt):
            CoordinatedBackend(tmp_path, inner=InterruptedOnSecond(),
                               owner="interrupted").drain(specs)
        assert len(ResultsStore(tmp_path).load()) == 1
        assert not list(tmp_path.glob("lease-*"))

        started = time.monotonic()
        rerun = CoordinatedBackend(tmp_path, owner="rerun")
        results = rerun.run(specs)
        assert time.monotonic() - started < 10.0    # the TTL is 30 s
        assert (rerun.executed, rerun.reclaimed) == (2, 0)
        assert [r.name for r in results] == [spec.name for spec in specs]


class TestTimingConstants:
    """The lease timing is three constants and one clock: what the refusals
    of a caller's TTL, heartbeat and poll used to guard now holds by value,
    and a patch of the constants is read when a drain starts."""

    def test_the_heartbeat_renews_well_inside_the_ttl(self, tmp_path):
        ttl, poll = coordinator.LEASE_TTL, coordinator.POLL_INTERVAL
        assert math.isfinite(ttl) and ttl > 0
        assert math.isfinite(poll) and 0 < poll < ttl
        heartbeat = coordinator._Heartbeat(tmp_path, "w0")
        assert heartbeat._interval == ttl / 6 < ttl

    def test_a_drain_reads_the_ttl_when_it_starts(self, tmp_path, monkeypatch):
        intervals = []

        class Recording(coordinator._Heartbeat):
            def __init__(self, directory, owner):
                super().__init__(directory, owner)
                intervals.append(self._interval)

        monkeypatch.setattr(coordinator, "_Heartbeat", Recording)
        backend = CoordinatedBackend(tmp_path, inner=StubBackend(), owner="w0")
        monkeypatch.setattr(coordinator, "LEASE_TTL", 1.2)
        backend.drain(stub_specs(3))
        assert backend.executed == 3
        assert intervals == [pytest.approx(0.2)]

    def test_a_lease_is_stamped_and_judged_by_wall_now_alone(self, tmp_path,
                                                             clock):
        assert try_acquire_lease(tmp_path, KEY, "w0", spec_name="p")
        stamped = json.loads(
            StoreFiles(tmp_path).read(StoreFiles.LEASE.format(KEY)))
        assert (stamped["acquired_unix"], stamped["heartbeat_unix"]) == \
            (100.0, 100.0)
        clock.now = 100.0 + TTL
        assert [info.stale for info in live_leases(tmp_path)] == [False]
        clock.now = 100.0 + TTL + 0.5
        assert [info.stale for info in live_leases(tmp_path)] == [True]


class StubBackend(ExecutionBackend):
    """A canned result per spec, no simulation: what is left is coordination."""

    def run(self, specs):
        return [result for result, _ in self.run_iter_timed(specs)]

    def run_iter_timed(self, specs):
        for spec in specs:
            yield RunResult(name=spec.name, system=spec.system,
                            workload=spec.workload, load=spec.load,
                            seed=spec.seed,
                            summary={"avg_fct_ms": spec.seed / 8,
                                     "flows": spec.seed}), 0.0


def stub_specs(count):
    """``count`` distinct grid points in two locality groups: ECMP and Hula
    points share one (neither compiles), Contra points form the other."""
    return [
        ScenarioSpec(name=f"linear:{system}-{seed}", system=system,
                     topology=tiny_topology(), config=TINY,
                     workload="web_search", load=0.4, seed=seed)
        for system in ("ecmp", "hula", "contra")
        for seed in range(1, count // 3 + 1)
    ]


@pytest.fixture
def ledger(monkeypatch):
    """Count the drain's store and lease work from outside the two modules."""
    counts = {"decoded": 0, "parsed": 0, "listings": 0, "scans": 0,
              "lease_reads_in_scan": 0}
    tally = threading.Lock()
    scanning = threading.local()

    def bump(name):
        with tally:
            counts[name] += 1

    decode_result, loads = results.decode_result, json.loads
    lease_keys, read = coordinator._lease_keys, coordinator.read_lease
    claim = CoordinatedBackend._claim

    def counting_decode(payload):
        bump("decoded")
        return decode_result(payload)

    def counting_loads(text, **kwargs):
        if isinstance(text, bytes):         # a results line; leases are str
            bump("parsed")
        return loads(text, **kwargs)

    def counting_lease_keys(directory):
        bump("listings")
        return lease_keys(directory)

    def counting_read(*args, **kwargs):
        if getattr(scanning, "active", False):
            bump("lease_reads_in_scan")
        return read(*args, **kwargs)

    def counting_claim(self, *args, **kwargs):
        bump("scans")
        scanning.active = True
        try:
            return claim(self, *args, **kwargs)
        finally:
            scanning.active = False

    monkeypatch.setattr(results, "decode_result", counting_decode)
    monkeypatch.setattr(json, "loads", counting_loads)
    monkeypatch.setattr(coordinator, "_lease_keys", counting_lease_keys)
    monkeypatch.setattr(coordinator, "read_lease", counting_read)
    monkeypatch.setattr(CoordinatedBackend, "_claim", counting_claim)
    return counts


class TestLinearWork:
    """Exact counts, so the O(N²) drain cannot return without a failure here."""

    @pytest.mark.parametrize("count", [60, 240])
    def test_solo_drain_decodes_each_record_once(self, tmp_path, ledger, count):
        specs = stub_specs(count)
        backend = CoordinatedBackend(tmp_path, inner=StubBackend(), owner="w0")
        backend.drain(specs)
        assert backend.executed == count
        assert ledger["scans"] == count + 1          # the last one finds nothing
        assert ledger["decoded"] == ledger["parsed"] == count
        assert ledger["listings"] <= ledger["scans"]
        assert ledger["lease_reads_in_scan"] == 0    # no lease file ever listed

    def test_scan_reads_only_the_leases_that_exist(self, tmp_path, ledger):
        specs = stub_specs(60)
        held = [spec_hash(spec) for spec in specs[:3]]
        for key in held:
            try_acquire_lease(tmp_path, key, "other")
        backend = CoordinatedBackend(tmp_path, inner=StubBackend(), owner="w0")
        backend.drain(specs)
        assert backend.executed == len(specs) - len(held)
        assert ledger["lease_reads_in_scan"] <= len(held) * ledger["scans"]
        assert ledger["decoded"] == backend.executed

    def test_two_workers_stay_linear_and_byte_identical(self, tmp_path, ledger,
                                                         monkeypatch):
        monkeypatch.setattr(coordinator, "POLL_INTERVAL", 0.01)
        specs = stub_specs(60)
        serial = [json.dumps(encode_result(result), sort_keys=True)
                  for result in StubBackend().run(specs)]
        workers = [CoordinatedBackend(tmp_path, inner=StubBackend(),
                                      owner=f"w{index}")
                   for index in range(2)]
        reports = {}

        def work(worker):
            reports[worker.owner] = [
                json.dumps(encode_result(result), sort_keys=True)
                for result in worker.run(specs)]

        threads = [threading.Thread(target=work, args=(worker,))
                   for worker in workers]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
            assert not thread.is_alive()
        assert reports["w0"] == reports["w1"] == serial
        assert not live_leases(tmp_path)
        # Each worker decodes every point — its own and its peer's — once
        # (a point both happened to execute is parsed twice, decoded once).
        executed = sum(worker.executed for worker in workers)
        assert executed >= len(specs)
        assert ledger["decoded"] == 2 * len(specs)
        assert 2 * len(specs) <= ledger["parsed"] <= 2 * executed


def test_point_recorded_between_scan_and_create_runs_once(tmp_path, monkeypatch):
    """The claim's scan loads the store, then exclusive-creates the lease.

    Here ``w2`` claims, records and releases every point from inside
    ``w1``'s first create, i.e. after ``w1``'s load: the create succeeds,
    and without a load after it ``w1`` ran the point a second time.
    """
    specs = stub_specs(3)
    w1 = CoordinatedBackend(tmp_path, inner=StubBackend(), owner="w1")
    w2 = CoordinatedBackend(tmp_path, inner=StubBackend(), owner="w2")
    acquire = coordinator.try_acquire_lease
    raced = []

    def w2_drains_first(directory, key, owner, **kwargs):
        if owner == "w1" and not raced:
            raced.append(key)
            w2.drain(specs)
        return acquire(directory, key, owner, **kwargs)

    monkeypatch.setattr(coordinator, "try_acquire_lease", w2_drains_first)
    w1.drain(specs)
    records = [json.loads(line)
               for file in tmp_path.glob("results-worker-*.jsonl")
               for line in file.read_text().splitlines()]
    assert sorted(record["spec_hash"] for record in records) == \
        sorted(spec_hash(spec) for spec in specs)
    assert raced and (w1.executed, w2.executed) == (0, len(specs))
    assert not live_leases(tmp_path)


def heartbeat_threads():
    return [thread for thread in threading.enumerate()
            if thread.name.startswith("lease-heartbeat-")]


class TestDrainBookkeeping:
    """What a drain does beside executing points, counted from outside: one
    heartbeat thread serves the whole drain, a lost or released lease is
    never renewed, and a claim scan walks the points still pending rather
    than the grid."""

    def test_one_heartbeat_thread_per_drain_and_none_after(self, tmp_path,
                                                           monkeypatch):
        seen = []

        class Watching(StubBackend):
            def run_iter_timed(self, specs):
                seen.append(tuple(heartbeat_threads()))
                return super().run_iter_timed(specs)

        starts = []
        start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start",
                            lambda thread: (starts.append(thread.name),
                                            start(thread))[1])
        assert not heartbeat_threads()
        backend = CoordinatedBackend(tmp_path, inner=Watching(), owner="w0")
        backend.drain(stub_specs(60))
        assert backend.executed == 60
        assert starts == ["lease-heartbeat-w0"]
        assert len(set(seen)) == 1 and len(seen[0]) == 1
        assert seen[0][0].daemon and not seen[0][0].is_alive()
        assert not heartbeat_threads()
        # A drain that finds nothing to claim starts no thread at all.
        backend.drain(stub_specs(60))
        assert starts == ["lease-heartbeat-w0"]

    def test_a_lease_stolen_mid_point_is_never_renewed_again(self, tmp_path,
                                                             monkeypatch):
        """B reclaims A's lease while A's point is still running: A's
        heartbeat finds out at its next renewal and writes nothing from then
        on, A's release leaves B's lease alone, and the point is recorded."""
        spec = stub_specs(3)[0]
        key = spec_hash(spec)
        lease = StoreFiles(tmp_path).read
        renewals, taken = [], []
        renew = coordinator.renew_lease

        def watching_renew(directory, lease_key, owner, spec_name=""):
            renewed = renew(directory, lease_key, owner, spec_name)
            renewals.append((lease_key, owner, renewed))
            return renewed

        monkeypatch.setattr(coordinator, "renew_lease", watching_renew)
        monkeypatch.setattr(coordinator, "LEASE_TTL", 0.06)   # 0.01 s heartbeat

        class Stolen(StubBackend):
            def run_iter_timed(self, specs):
                assert read_lease(tmp_path, key).owner == "A"
                assert reclaim_lease(tmp_path, key, "B")
                assert try_acquire_lease(tmp_path, key, "B")
                taken.append(lease(StoreFiles.LEASE.format(key)))
                deadline = time.monotonic() + 5.0
                while (key, "A", False) not in renewals \
                        and time.monotonic() < deadline:
                    time.sleep(0.005)
                time.sleep(0.05)            # several more ticks
                return super().run_iter_timed(specs)

        backend = CoordinatedBackend(tmp_path, inner=Stolen(), owner="A")
        backend.drain([spec])
        # (A tick between the claim and the theft renews; none follows the loss.)
        lost = renewals.index((key, "A", False))
        assert renewals[lost:] == [(key, "A", False)]
        assert set(renewals[:lost]) <= {(key, "A", True)}
        assert lease(StoreFiles.LEASE.format(key)) == taken[0]   # B's, untouched
        assert backend.executed == 1 and key in backend.store.load()

    def test_no_renewal_lands_after_the_release(self, tmp_path, monkeypatch):
        """The heartbeat is cleared, under the lock a renewal holds, before
        the lease is released: a renewal is either finished by then or never
        starts.  Checked where every renewal passes (``renew_lease``), with
        an interval short enough to tick many times a point."""
        released = set()
        late = []
        renew, release = coordinator.renew_lease, coordinator.release_lease

        def watching_renew(directory, key, owner, spec_name=""):
            if key in released:
                late.append(key)
            return renew(directory, key, owner, spec_name)

        def watching_release(directory, key, owner=None):
            released.add(key)
            return release(directory, key, owner)

        monkeypatch.setattr(coordinator, "renew_lease", watching_renew)
        monkeypatch.setattr(coordinator, "release_lease", watching_release)

        class Slow(StubBackend):
            def run_iter_timed(self, specs):
                time.sleep(0.004)
                return super().run_iter_timed(specs)

        monkeypatch.setattr(coordinator, "LEASE_TTL", 0.006)  # 0.001 s heartbeat
        specs = stub_specs(60)
        backend = CoordinatedBackend(tmp_path, inner=Slow(), owner="w0")
        backend.drain(specs)
        assert backend.executed == 60 and len(released) == 60
        assert not late
        assert not live_leases(tmp_path)
        assert not list(tmp_path.glob("lease-*")), "a renewal re-created a lease"

    def test_a_claim_scan_walks_the_pending_points_only(self, tmp_path,
                                                        monkeypatch):
        probes = []                      # per scan: `key in completed` tests

        class Counting(dict):
            def __contains__(self, key):
                probes[-1] += 1
                return dict.__contains__(self, key)

        load = ResultsStore.load

        def counting_load(store):
            probes.append(0)
            return Counting(load(store))

        monkeypatch.setattr(ResultsStore, "load", counting_load)
        count = 1440
        backend = CoordinatedBackend(tmp_path, inner=StubBackend(), owner="w0")
        backend.drain(stub_specs(count))
        assert backend.executed == count
        assert len(probes) == count + 1
        # Scan n meets the n - 1 points recorded before it once more (each
        # leaves the walk at the scan after its own) and nothing it dropped
        # earlier: at most count - (n - 2) probes, falling to 1.
        assert probes[0] == count
        assert all(probe <= count - max(0, scan - 1)
                   for scan, probe in enumerate(probes))
        assert all(later <= earlier for earlier, later in zip(probes, probes[1:]))
        assert probes[-1] <= 1
        assert sum(probes) <= count * (count + 3) // 2


class TestSweepStatus:
    def test_status_counts_groups_workers_and_leases(self, tmp_path):
        specs = tiny_specs(("ecmp", "contra"), loads=(0.4, 0.6))
        backend = CoordinatedBackend(tmp_path, owner="w0")
        backend.run(specs[:3])                # one point left pending
        try_acquire_lease(tmp_path, spec_hash(specs[3]), "w1",
                          spec_name=specs[3].name)
        status = sweep_status(specs, tmp_path)
        assert (status.total, status.complete) == (4, 3)
        assert (status.leased, status.pending) == (1, 0)
        assert {group.label for group in status.groups} == \
            {group_label(compile_group_key(spec)) for spec in specs}
        by_owner = {worker.owner: worker for worker in status.workers}
        assert by_owner["w0"].executed == 3
        assert by_owner["w1"].current == specs[3].name
        rendered = status.render()
        assert "3/4 points complete" in rendered
        assert "w0" in rendered and "w1" in rendered

    def test_status_counts_only_its_own_grid(self, tmp_path):
        """Another grid's records in the directory are not this grid's
        progress: a recovery sweep drained at one seed reads, at another,
        as nothing done and no worker."""
        config = quick_config().scaled(0.25)
        drainer = CoordinatedBackend(tmp_path, inner=StubBackend(), owner="w0")
        drainer.drain(recovery_sweep_specs(config))
        drained = sweep_status_scenario("recovery-sweep", config, str(tmp_path))
        assert [(worker.owner, worker.executed) for worker in drained.workers] \
            == [("w0", 2)]
        assert "leafspine(4x2)" in drained.render()
        elsewhere = sweep_status_scenario("recovery-sweep",
                                          replace(config, seed=7), str(tmp_path))
        assert (elsewhere.total, elsewhere.complete) == (2, 0)
        assert elsewhere.workers == []
        assert elsewhere.render().startswith("0/2 points complete")
        assert "worker" not in elsewhere.render()

    def test_mid_drain_counts_equal_the_drains_accounting(self, tmp_path,
                                                          clock):
        """Steals and reclaims are read from the records, so a status taken
        while a point executes agrees with the drain's own accounting.

        Another worker holds a live lease in both groups, so entering either
        is a steal; a dead worker's stale leases make two points reclaims,
        one of them also the contra group's steal."""
        specs = stub_specs(12)           # ecmp and hula 0-7, contra 8-11
        keys = [spec_hash(spec) for spec in specs]
        clock.now = 100.0 - 3600.0
        for position in (2, 9):
            try_acquire_lease(tmp_path, keys[position], "dead")
        clock.now = 100.0
        for position in (0, 8):
            try_acquire_lease(tmp_path, keys[position], "other",
                              spec_name=specs[position].name)
        seen = []

        class Watching(StubBackend):
            def run_iter_timed(self, batch):
                rows = {worker.owner: (worker.executed, worker.stolen,
                                       worker.reclaimed, worker.current)
                        for worker in sweep_status(specs, tmp_path).workers}
                seen.append((rows.get("w0", (0, 0, 0, "")),
                             (backend.executed, backend.stolen,
                              backend.reclaimed, batch[0].name)))
                return super().run_iter_timed(batch)

        backend = CoordinatedBackend(tmp_path, inner=Watching(), owner="w0")
        backend.drain(specs)
        assert (backend.executed, backend.stolen, backend.reclaimed) == (10, 2, 2)
        assert len(seen) == 10
        for from_records, accounted in seen:
            assert from_records == accounted
        final = {worker.owner: worker for worker in
                 sweep_status(specs, tmp_path).workers}
        assert (final["w0"].executed, final["w0"].stolen,
                final["w0"].reclaimed) == (10, 2, 2)
        assert final["other"].executed == 0 and final["other"].current

    def test_a_drain_makes_its_missing_directory(self, tmp_path):
        """Opening a backend writes nothing; the drain itself makes the
        directory, before its first lease create."""
        directory = tmp_path / "absent" / "store"
        backend = CoordinatedBackend(directory, inner=StubBackend(), owner="w0")
        assert not directory.exists()
        backend.drain(stub_specs(3))
        assert backend.executed == 3
        assert len(ResultsStore(directory).load()) == 3
        assert not list(directory.glob("lease-*"))

    def test_status_of_a_missing_directory_creates_nothing(self, tmp_path):
        directory = tmp_path / "absent"
        status = sweep_status(stub_specs(3), directory)
        assert (status.total, status.complete, status.pending) == (3, 0, 3)
        assert not directory.exists()

    def test_readers_leave_a_torn_default_file_as_they_found_it(self, tmp_path):
        """A torn last line is a writer's to cut, at its first append: a
        status or a merge reads past it and changes no byte."""
        specs = stub_specs(3)
        store = ResultsStore(tmp_path)
        for spec, result in zip(specs, StubBackend().run(specs)):
            store.record(spec, result)
        store.files.append(StoreFiles.COMPACTED, '{"spec_hash": "')
        torn = store.path.read_bytes()
        assert sweep_status(specs, tmp_path).complete == len(specs)
        assert len(collect_results(specs, ResultsStore(tmp_path))) == len(specs)
        assert store.path.read_bytes() == torn


def _tiny_grid_entry():
    def build(config):
        return tiny_specs(("ecmp", "contra"), loads=(0.4, 0.6))

    def finish(config, results):
        from repro.experiments.registry import ScenarioOutcome
        return ScenarioOutcome(
            "fig13", json.dumps([r.summary for r in results], sort_keys=True),
            [r.summary for r in results])

    return GridScenario(build, finish)


class TestScenarioCoordination:
    def test_coordinated_outcome_matches_unsharded(self, tmp_path, monkeypatch):
        from repro.experiments import registry
        monkeypatch.setitem(registry.SCENARIOS, "fig13", _tiny_grid_entry())
        unsharded = run_scenario("fig13", TINY)
        coordinated = run_scenario_coordinated("fig13", TINY,
                                               str(tmp_path / "store"))
        assert coordinated.outcome.text == unsharded.text
        assert json.dumps(coordinated.outcome.payload, sort_keys=True) == \
            json.dumps(unsharded.payload, sort_keys=True)
        assert coordinated.total_points == 4
        assert sum(w["executed"] for w in coordinated.workers) == 4
        assert "coordinated drain" in coordinated.text

    def test_two_invocations_split_the_work(self, tmp_path, monkeypatch):
        from repro.experiments import registry
        monkeypatch.setitem(registry.SCENARIOS, "fig13", _tiny_grid_entry())
        store = str(tmp_path / "store")
        first = run_scenario_coordinated("fig13", TINY, store)
        second = run_scenario_coordinated("fig13", TINY, store)
        assert sum(w["executed"] for w in first.workers) == 4
        assert sum(w["executed"] for w in second.workers) == 0
        assert second.outcome.text == first.outcome.text

    def test_legacy_scenarios_rejected(self, tmp_path):
        with pytest.raises(ExperimentError, match="not a single spec grid"):
            run_scenario_coordinated("fig9-10", TINY, str(tmp_path))
        with pytest.raises(ExperimentError, match="not a single spec grid"):
            sweep_status_scenario("fig9-10", TINY, str(tmp_path))

    def test_process_count_must_not_be_negative(self, tmp_path):
        directory = tmp_path / "store"
        with pytest.raises(ExperimentError, match="processes"):
            run_scenario_coordinated("fig13", TINY, str(directory),
                                     processes=-1)
        assert not directory.exists()

    def test_processes_fan_out_drains_and_converge(self, tmp_path, monkeypatch):
        from repro.experiments import registry
        monkeypatch.setitem(registry.SCENARIOS, "fig13", _tiny_grid_entry())
        unsharded = run_scenario("fig13", TINY)
        drained = run_scenario_coordinated("fig13", TINY,
                                           str(tmp_path / "store"), processes=2)
        assert drained.outcome.text == unsharded.text
        assert sum(w["executed"] for w in drained.workers) == 4

    def test_the_fan_out_maps_one_job_per_worker(self, tmp_path, monkeypatch):
        """The drain processes are opened by ``grid_map``; run in-process
        here, each job drains the same store and the collector converges."""
        from repro.experiments import registry
        monkeypatch.setitem(registry.SCENARIOS, "fig13", _tiny_grid_entry())
        calls = []

        def in_process(fn, items, processes=None):
            calls.append((fn, list(items), processes))
            return [fn(item) for item in items]

        monkeypatch.setattr(registry, "grid_map", in_process)
        store = str(tmp_path / "store")
        drained = run_scenario_coordinated("fig13", TINY, store, processes=2)
        job = ("fig13", TINY, store, None, None)
        assert calls == [(registry._coordinate_worker, [job, job], 2)]
        assert drained.outcome.text == run_scenario("fig13", TINY).text
        assert sum(w["executed"] for w in drained.workers) == 4

    def test_grid_map_is_the_only_code_that_opens_a_pool(self):
        import ast
        from pathlib import Path

        import repro
        openers = []
        for path in sorted(Path(repro.__file__).parent.rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for function in ast.walk(tree):
                if not isinstance(function, (ast.FunctionDef,
                                             ast.AsyncFunctionDef)):
                    continue
                for node in ast.walk(function):
                    if isinstance(node, ast.Call) and getattr(
                            node.func, "id", getattr(node.func, "attr", None)) \
                            == "ProcessPoolExecutor":
                        openers.append((path.name, function.name))
        assert openers == [("runner.py", "grid_map")]


class TestCliCoordination:
    def test_results_dir_is_the_only_store_flag(self, tmp_path, capsys):
        """``--results-dir`` is the coordinated drain; the old spellings of
        it (``--coordinate D``, ``--workers N``) are unknown arguments."""
        from repro import cli
        for flag in (["--coordinate", str(tmp_path)], ["--workers", "2"]):
            with pytest.raises(SystemExit) as excinfo:
                cli.main(["run-grid", "fig11", *flag])
            assert excinfo.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err
        with pytest.raises(SystemExit, match="requires --results-dir"):
            cli.main(["run-grid", "fig11", "--shard", "0/2"])
        assert not list(tmp_path.iterdir())

    def test_sweep_status_requires_existing_dir(self, tmp_path):
        from repro import cli
        with pytest.raises(SystemExit, match="does not exist"):
            cli.main(["sweep-status", "fig11",
                      "--results-dir", str(tmp_path / "nope")])

    def test_cli_coordinate_end_to_end(self, tmp_path, capsys, monkeypatch):
        """Two sequential --results-dir invocations + sweep-status + gc.

        The second invocation executes nothing (the store is complete) but
        still prints the identical full report — the convergence contract —
        and its --json bytes match the plain unsharded run's exactly.
        """
        from repro import cli
        from repro.experiments import registry
        monkeypatch.setitem(registry.SCENARIOS, "fig13", _tiny_grid_entry())
        store = tmp_path / "store"

        first_json = tmp_path / "first.json"
        assert cli.main(["run-grid", "fig13", "--results-dir", str(store),
                         "--json", str(first_json)]) == 0
        first_out = capsys.readouterr().out
        assert "coordinated drain: 4 of 4" in first_out

        second_json = tmp_path / "second.json"
        assert cli.main(["run-grid", "fig13", "--results-dir", str(store),
                         "--json", str(second_json)]) == 0
        second_out = capsys.readouterr().out
        assert "coordinated drain: 0 of 4" in second_out
        assert second_json.read_bytes() == first_json.read_bytes()

        unsharded_json = tmp_path / "unsharded.json"
        assert cli.main(["run-grid", "fig13", "--json",
                         str(unsharded_json)]) == 0
        capsys.readouterr()
        assert first_json.read_bytes() == unsharded_json.read_bytes()

        assert cli.main(["sweep-status", "fig13",
                         "--results-dir", str(store)]) == 0
        status_out = capsys.readouterr().out
        assert "4/4 points complete" in status_out

        # gc on the drained store: nothing stale, no leases, still complete.
        assert cli.main(["gc-results", "fig13",
                         "--results-dir", str(store)]) == 0
        gc_out = capsys.readouterr().out
        assert "kept 4 of 4" in gc_out
        assert cli.main(["merge-results", "fig13",
                         "--results-dir", str(store),
                         "--json", str(second_json)]) == 0
        capsys.readouterr()
        assert second_json.read_bytes() == unsharded_json.read_bytes()

    def test_readers_leave_the_store_as_they_found_it(self, tmp_path, capsys,
                                                      monkeypatch):
        """``sweep-status`` and ``merge-results --bench-artifact`` over a
        store whose default file ends in a torn line change no byte in it."""
        from repro import cli
        from repro.experiments import registry
        monkeypatch.setitem(registry.SCENARIOS, "fig13", _tiny_grid_entry())
        store = tmp_path / "store"
        assert cli.main(["run-grid", "fig13", "--results-dir", str(store)]) == 0
        StoreFiles(store).append(StoreFiles.COMPACTED, '{"spec_hash": "')

        def snapshot():
            return {path.name: path.read_bytes()
                    for path in sorted(store.iterdir())}

        before = snapshot()
        assert cli.main(["sweep-status", "fig13",
                         "--results-dir", str(store)]) == 0
        assert cli.main(["merge-results", "fig13",
                         "--results-dir", str(store),
                         "--json", str(tmp_path / "merged.json"),
                         "--bench-artifact",
                         str(tmp_path / "BENCH_fig13_coordinated.json")]) == 0
        capsys.readouterr()
        assert snapshot() == before
        assert json.loads((tmp_path / "merged.json").read_text())

    def test_cli_merge_warns_on_live_leases(self, tmp_path, capsys, monkeypatch):
        from repro import cli
        from repro.experiments import registry
        monkeypatch.setitem(registry.SCENARIOS, "fig13", _tiny_grid_entry())
        store = tmp_path / "store"
        assert cli.main(["run-grid", "fig13", "--results-dir", str(store)]) == 0
        capsys.readouterr()
        # Simulate a still-running drain holding a live lease post-record.
        specs = tiny_specs(("ecmp", "contra"), loads=(0.4, 0.6))
        try_acquire_lease(store, spec_hash(specs[0]), "slow-worker")
        assert cli.main(["merge-results", "fig13",
                         "--results-dir", str(store)]) == 0
        captured = capsys.readouterr()
        assert "1 live lease(s) remain" in captured.err

    def test_cli_gc_reports_lease_removal(self, tmp_path, capsys, monkeypatch):
        from repro import cli
        from repro.experiments import registry
        monkeypatch.setitem(registry.SCENARIOS, "fig13", _tiny_grid_entry())
        store = tmp_path / "store"
        assert cli.main(["run-grid", "fig13", "--results-dir", str(store)]) == 0
        capsys.readouterr()
        specs = tiny_specs(("ecmp", "contra"), loads=(0.4, 0.6))
        try_acquire_lease(store, spec_hash(specs[0]), "dead")  # orphaned
        assert cli.main(["gc-results", "fig13",
                         "--results-dir", str(store)]) == 0
        gc_out = capsys.readouterr().out
        assert "1 orphaned/stale removed" in gc_out
        assert not list(store.glob("lease-*"))
