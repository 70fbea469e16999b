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
* a heartbeat never resurrects a lease its worker lost to a reclaim;
* a drain's coordination work is linear in the grid: each record decoded
  once per worker, one lease listing per claim scan, lease files read only
  where the listing shows one.
"""

import json
import multiprocessing
import threading
import time

import pytest

from repro.exceptions import ExperimentError
from repro.experiments import coordinator, results
from repro.experiments.config import ExperimentConfig
from repro.experiments.coordinator import (
    CoordinatedBackend,
    drain_store,
    gc_leases,
    lease_path,
    live_leases,
    read_lease,
    reclaim_lease,
    release_lease,
    renew_lease,
    sweep_status,
    try_acquire_lease,
)
from repro.experiments.registry import (
    GridScenario,
    run_scenario,
    run_scenario_coordinated,
    sweep_status_scenario,
)
from repro.experiments.results import (
    ResultsStore,
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


class TestLeasePrimitives:
    def test_acquire_is_exclusive(self, tmp_path):
        assert try_acquire_lease(tmp_path, KEY, "w0", now=100.0)
        assert not try_acquire_lease(tmp_path, KEY, "w1", now=100.0)
        info = read_lease(tmp_path, KEY, now=101.0)
        assert info.owner == "w0" and not info.stale

    def test_renew_moves_the_heartbeat_and_keeps_acquire_time(self, tmp_path):
        try_acquire_lease(tmp_path, KEY, "w0", now=100.0)
        renew_lease(tmp_path, KEY, "w0", now=120.0)
        info = read_lease(tmp_path, KEY, now=121.0)
        assert info.heartbeat_unix == 120.0
        assert info.acquired_unix == 100.0
        assert not info.stale

    def test_renew_never_resurrects_a_lost_lease(self, tmp_path):
        """The paused-worker drill: A stalls past the TTL, B reclaims and
        acquires, A resumes — its heartbeat must leave B's lease alone."""
        assert try_acquire_lease(tmp_path, KEY, "A", now=100.0)
        assert read_lease(tmp_path, KEY, now=131.0, ttl=30.0).stale
        assert reclaim_lease(tmp_path, KEY, "B")
        assert try_acquire_lease(tmp_path, KEY, "B", now=131.0)
        assert not renew_lease(tmp_path, KEY, "A", now=132.0)
        info = read_lease(tmp_path, KEY, now=132.0)
        assert (info.owner, info.heartbeat_unix) == ("B", 131.0)
        assert not release_lease(tmp_path, KEY, owner="A")
        assert read_lease(tmp_path, KEY).owner == "B"
        assert release_lease(tmp_path, KEY, owner="B")
        # Nor does it re-create a lease that is simply gone.
        assert not renew_lease(tmp_path, KEY, "A", now=133.0)
        assert not list(tmp_path.glob("lease-*")), "renew left debris"

    def test_heartbeat_stops_once_the_lease_is_lost(self, tmp_path):
        """The drain's one thread outlives a lost lease (the next point needs
        it) but is off that lease from the first renewal that finds it gone."""
        assert try_acquire_lease(tmp_path, KEY, "A")
        with coordinator._Heartbeat(tmp_path, "A", 0.01) as heartbeat:
            heartbeat.watch(KEY, "")
            assert reclaim_lease(tmp_path, KEY, "B")
            assert try_acquire_lease(tmp_path, KEY, "B", now=100.0)
            deadline = time.monotonic() + 5.0
            while heartbeat._target is not None and time.monotonic() < deadline:
                time.sleep(0.01)
            assert heartbeat._target is None
            assert heartbeat._thread.is_alive()
            time.sleep(0.05)                # several more ticks: none writes
        assert not heartbeat._thread.is_alive()
        info = read_lease(tmp_path, KEY)
        assert (info.owner, info.heartbeat_unix) == ("B", 100.0)

    def test_staleness_is_judged_against_the_ttl(self, tmp_path):
        try_acquire_lease(tmp_path, KEY, "w0", now=100.0)
        assert not read_lease(tmp_path, KEY, now=100.0 + 29, ttl=30.0).stale
        assert read_lease(tmp_path, KEY, now=100.0 + 31, ttl=30.0).stale

    def test_reclaim_is_single_winner(self, tmp_path):
        try_acquire_lease(tmp_path, KEY, "dead", now=0.0)
        assert reclaim_lease(tmp_path, KEY, "w1")
        assert not reclaim_lease(tmp_path, KEY, "w2")
        assert read_lease(tmp_path, KEY) is None
        assert not list(tmp_path.glob("lease-*")), "reclaim left debris"

    def test_release_refuses_anothers_lease(self, tmp_path):
        try_acquire_lease(tmp_path, KEY, "w0", now=100.0)
        assert not release_lease(tmp_path, KEY, owner="w1")
        assert read_lease(tmp_path, KEY).owner == "w0"
        assert release_lease(tmp_path, KEY, owner="w0")
        assert read_lease(tmp_path, KEY) is None

    def test_unreadable_lease_counts_as_live_via_mtime(self, tmp_path):
        # A reader can catch a lease between create and content flush; it
        # must look freshly live, never reclaimable garbage.
        lease_path(tmp_path, KEY).write_text("")
        info = read_lease(tmp_path, KEY, ttl=30.0)
        assert info is not None and not info.stale

    def test_gc_leases_removes_orphaned_and_stale_only(self, tmp_path):
        done, pending, gone = "aa" * 32, "bb" * 32, "cc" * 32
        now = 1000.0
        try_acquire_lease(tmp_path, done, "w0", now=now)      # point complete
        try_acquire_lease(tmp_path, pending, "w0", now=now)   # live, pending
        try_acquire_lease(tmp_path, gone, "w0", now=now)      # not in grid
        removed, live = gc_leases(tmp_path, valid_keys={done, pending},
                                  completed_keys={done}, ttl=30.0,
                                  now=now + 1)
        assert (removed, live) == (2, 1)
        assert read_lease(tmp_path, pending) is not None
        removed, live = gc_leases(tmp_path, valid_keys={done, pending},
                                  completed_keys={done}, ttl=30.0,
                                  now=now + 31)               # now stale too
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

    def test_two_processes_one_store_converge(self, tmp_path):
        """Two real concurrent drain processes + the parent as collector."""
        specs = tiny_specs(("ecmp", "contra", "hula"), loads=(0.4, 0.6))
        serial = run_grid(specs, backend=SerialBackend())
        ctx = multiprocessing.get_context("fork")
        workers = [ctx.Process(target=drain_store, args=(specs, tmp_path),
                               kwargs={"owner": f"w{i}", "ttl": 10.0})
                   for i in range(2)]
        for worker in workers:
            worker.start()
        collector = CoordinatedBackend(tmp_path, owner="collector", ttl=10.0,
                                       poll_interval=0.05)
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

    def test_killed_worker_is_reclaimed_and_report_is_identical(self, tmp_path):
        """The crash-safety satellite: die mid-lease, TTL lapse, reclaim."""
        class DiesAfterOne(SerialBackend):
            def __init__(self):
                super().__init__()
                self.ran = 0

            def run_iter_timed(self, inner_specs):
                # The coordinator feeds one spec per call; crash on the
                # second *call*, after the lease for it was acquired.
                self.ran += 1
                if self.ran > 1:
                    raise KeyboardInterrupt("simulated crash")
                yield from super().run_iter_timed(inner_specs)

        specs = tiny_specs(("ecmp", "hula", "contra"))
        serial = run_grid(specs, backend=SerialBackend())
        victim = CoordinatedBackend(tmp_path, inner=DiesAfterOne(),
                                    owner="victim", ttl=0.5)
        with pytest.raises(KeyboardInterrupt):
            victim.drain(specs)
        assert len(ResultsStore(tmp_path).load()) == 1
        orphans = live_leases(tmp_path)
        assert len(orphans) == 1 and orphans[0].owner == "victim"

        time.sleep(0.6)                       # let the orphan lease go stale
        rescuer = CoordinatedBackend(tmp_path, owner="rescuer", ttl=0.5,
                                     poll_interval=0.05)
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

    def test_ttl_must_be_positive(self, tmp_path):
        with pytest.raises(ExperimentError, match="TTL"):
            CoordinatedBackend(tmp_path, ttl=0.0)


NAN, INF = float("nan"), float("inf")


class TestTimingRefusals:
    """Each of these used to be accepted: a NaN TTL made every lease immortal
    (``nan <= 0`` is false), a zero heartbeat interval span the renew loop,
    one no shorter than the TTL let a lease go stale under a live worker, and
    a negative or NaN poll interval surfaced mid-sweep as ``time.sleep``'s
    bare ``ValueError``."""

    @pytest.mark.parametrize("kwargs, match", [
        ({"ttl": NAN}, "TTL"), ({"ttl": INF}, "TTL"), ({"ttl": -INF}, "TTL"),
        ({"ttl": -1.0}, "TTL"), ({"ttl": 0.0}, "TTL"), ({"ttl": "30"}, "TTL"),
        ({"ttl": True}, "TTL"),
        ({"heartbeat_interval": 0.0}, "heartbeat"),
        ({"heartbeat_interval": -0.5}, "heartbeat"),
        ({"heartbeat_interval": NAN}, "heartbeat"),
        ({"heartbeat_interval": INF}, "heartbeat"),
        ({"ttl": 3.0, "heartbeat_interval": 3.0}, "stale under a live worker"),
        ({"ttl": 3.0, "heartbeat_interval": 30.0}, "stale under a live worker"),
        ({"poll_interval": -0.2}, "poll"), ({"poll_interval": NAN}, "poll"),
        ({"poll_interval": INF}, "poll"),
    ], ids=lambda value: None if isinstance(value, str) else
        ",".join(f"{name}={number}" for name, number in value.items()))
    def test_refused_before_anything_is_created(self, tmp_path, kwargs, match):
        directory = tmp_path / "store"
        with pytest.raises(ExperimentError, match=match):
            CoordinatedBackend(directory, **kwargs)
        assert not directory.exists()

    def test_the_accepted_edge_values(self, tmp_path):
        backend = CoordinatedBackend(tmp_path, ttl=3.0, heartbeat_interval=2.999,
                                     poll_interval=0.0)
        assert backend.heartbeat_interval == 2.999
        assert CoordinatedBackend(tmp_path, ttl=3.0).heartbeat_interval == 0.5

    def test_drain_store_and_the_scenario_path_share_the_check(self, tmp_path,
                                                              monkeypatch):
        from repro.experiments import registry
        directory = tmp_path / "store"
        with pytest.raises(ExperimentError, match="TTL"):
            drain_store(tiny_specs(), directory, ttl=NAN)
        monkeypatch.setitem(registry.SCENARIOS, "fig13", _tiny_grid_entry())
        monkeypatch.setattr(registry, "ProcessPoolExecutor", None)  # never reached
        with pytest.raises(ExperimentError, match="TTL"):
            run_scenario_coordinated("fig13", TINY, str(directory), workers=2,
                                     ttl=INF)
        assert not directory.exists()


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
    """``count`` distinct grid points in three locality groups."""
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

    def test_two_workers_stay_linear_and_byte_identical(self, tmp_path, ledger):
        specs = stub_specs(60)
        serial = [json.dumps(encode_result(result), sort_keys=True)
                  for result in StubBackend().run(specs)]
        workers = [CoordinatedBackend(tmp_path, inner=StubBackend(),
                                      owner=f"w{index}", poll_interval=0.01)
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


class FakeClock:
    """A wall clock the test advances; installed as ``coordinator.wall_now``."""

    def __init__(self, start=1_000.0):
        self.now = start

    def __call__(self):
        return self.now


class TickingBackend(StubBackend):
    """Every point costs ``step`` seconds of the fake clock."""

    def __init__(self, clock, step):
        self.clock, self.step = clock, step

    def run_iter_timed(self, specs):
        for outcome in super().run_iter_timed(specs):
            self.clock.now += self.step
            yield outcome


def heartbeat_threads():
    return [thread for thread in threading.enumerate()
            if thread.name.startswith("lease-heartbeat-")]


class TestDrainBookkeeping:
    """What a drain does beside executing points, counted from outside: the
    worker meta is written on the heartbeat's cadence rather than per point,
    one heartbeat thread serves the whole drain, and a claim scan walks the
    points still pending rather than the grid."""

    @pytest.mark.parametrize("step, interval", [(0.01, 5.0), (0.1, 1.0), (0.7, 0.5)])
    def test_meta_writes_follow_the_heartbeat_cadence(self, tmp_path, monkeypatch,
                                                      step, interval):
        clock = FakeClock()
        monkeypatch.setattr(coordinator, "wall_now", clock)
        writes = []
        write_meta = CoordinatedBackend._write_worker_meta
        monkeypatch.setattr(
            CoordinatedBackend, "_write_worker_meta",
            lambda self: (writes.append((clock.now, self.executed)),
                          write_meta(self))[1])
        specs = stub_specs(60)
        backend = CoordinatedBackend(tmp_path, inner=TickingBackend(clock, step),
                                     owner="w0", ttl=6 * interval,
                                     heartbeat_interval=interval,
                                     scenario="cadence")
        started = clock.now
        backend.drain(specs)
        elapsed = clock.now - started
        assert backend.executed == 60
        assert len(writes) <= -(-elapsed // interval) + 2
        # Never two within one interval, except the exact one at drain end.
        gaps = [later - earlier for (earlier, _), (later, _)
                in zip(writes, writes[1:-1])]
        assert all(gap >= interval for gap in gaps)
        assert writes[-1] == (clock.now, 60)
        meta = json.loads((tmp_path / "worker-w0.meta.json").read_text())
        assert {name: meta[name] for name in backend.accounting()} == \
            backend.accounting()
        assert meta["scenario"] == "cadence"
        assert meta["updated_unix"] == round(clock.now, 3)
        status = sweep_status(specs, tmp_path, now=clock.now)
        assert [(w.owner, w.executed) for w in status.workers] == [("w0", 60)]

    def test_a_clock_stepped_back_does_not_silence_the_meta(self, tmp_path,
                                                            monkeypatch):
        clock = FakeClock()
        monkeypatch.setattr(coordinator, "wall_now", clock)
        backend = CoordinatedBackend(tmp_path, inner=TickingBackend(clock, -50.0),
                                     owner="w0")
        backend.drain(stub_specs(6))
        meta = json.loads((tmp_path / "worker-w0.meta.json").read_text())
        assert meta["executed"] == 6

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
        renewals = []
        renew = coordinator.renew_lease

        def watching_renew(directory, lease_key, owner, spec_name="", now=None):
            renewed = renew(directory, lease_key, owner, spec_name, now)
            renewals.append((lease_key, owner, renewed))
            return renewed

        monkeypatch.setattr(coordinator, "renew_lease", watching_renew)

        class Stolen(StubBackend):
            def run_iter_timed(self, specs):
                assert read_lease(tmp_path, key).owner == "A"
                assert reclaim_lease(tmp_path, key, "B")
                assert try_acquire_lease(tmp_path, key, "B", now=50.0)
                deadline = time.monotonic() + 5.0
                while (key, "A", False) not in renewals \
                        and time.monotonic() < deadline:
                    time.sleep(0.005)
                time.sleep(0.05)            # several more ticks
                return super().run_iter_timed(specs)

        backend = CoordinatedBackend(tmp_path, inner=Stolen(), owner="A",
                                     ttl=1.0, heartbeat_interval=0.01)
        backend.drain([spec])
        # (A tick between the claim and the theft renews; none follows the loss.)
        lost = renewals.index((key, "A", False))
        assert renewals[lost:] == [(key, "A", False)]
        assert set(renewals[:lost]) <= {(key, "A", True)}
        info = read_lease(tmp_path, key)
        assert (info.owner, info.heartbeat_unix) == ("B", 50.0)
        assert backend.executed == 1 and key in backend.store.load()

    def test_no_renewal_lands_after_the_release(self, tmp_path, monkeypatch):
        """The heartbeat is cleared, under the lock a renewal holds, before
        the lease is released: a renewal is either finished by then or never
        starts.  Checked where every renewal passes (``renew_lease``), with
        an interval short enough to tick many times a point."""
        released = set()
        late = []
        renew, release = coordinator.renew_lease, coordinator.release_lease

        def watching_renew(directory, key, owner, spec_name="", now=None):
            if key in released:
                late.append(key)
            return renew(directory, key, owner, spec_name, now)

        def watching_release(directory, key, owner=None):
            released.add(key)
            return release(directory, key, owner)

        monkeypatch.setattr(coordinator, "renew_lease", watching_renew)
        monkeypatch.setattr(coordinator, "release_lease", watching_release)

        class Slow(StubBackend):
            def run_iter_timed(self, specs):
                time.sleep(0.004)
                return super().run_iter_timed(specs)

        specs = stub_specs(60)
        backend = CoordinatedBackend(tmp_path, inner=Slow(), owner="w0",
                                     ttl=1.0, heartbeat_interval=0.001)
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

    def test_workers_must_be_positive(self, tmp_path):
        with pytest.raises(ExperimentError, match="workers"):
            run_scenario_coordinated("fig13", TINY, str(tmp_path), workers=0)


class TestCliCoordination:
    def test_coordinate_rejects_contradictory_flags(self, tmp_path):
        from repro import cli
        with pytest.raises(SystemExit, match="mutually exclusive"):
            cli.main(["run-grid", "fig11", "--coordinate", str(tmp_path),
                      "--shard", "0/2", "--results-dir", str(tmp_path)])
        with pytest.raises(SystemExit, match="drop --results-dir"):
            cli.main(["run-grid", "fig11", "--coordinate", str(tmp_path),
                      "--results-dir", str(tmp_path)])
        with pytest.raises(SystemExit, match="--workers"):
            cli.main(["run-grid", "fig11", "--coordinate", str(tmp_path),
                      "--processes", "2"])
        with pytest.raises(SystemExit, match="--workers only applies"):
            cli.main(["run-grid", "fig11", "--workers", "2"])

    def test_sweep_status_requires_existing_dir(self, tmp_path):
        from repro import cli
        with pytest.raises(SystemExit, match="does not exist"):
            cli.main(["sweep-status", "fig11",
                      "--results-dir", str(tmp_path / "nope")])

    def test_cli_coordinate_end_to_end(self, tmp_path, capsys, monkeypatch):
        """Two sequential --coordinate invocations + sweep-status + gc.

        The second invocation executes nothing (the store is complete) but
        still prints the identical full report — the convergence contract —
        and its --json bytes match the plain unsharded run's exactly.
        """
        from repro import cli
        from repro.experiments import registry
        monkeypatch.setitem(registry.SCENARIOS, "fig13", _tiny_grid_entry())
        store = tmp_path / "store"

        first_json = tmp_path / "first.json"
        assert cli.main(["run-grid", "fig13", "--coordinate", str(store),
                         "--json", str(first_json)]) == 0
        first_out = capsys.readouterr().out
        assert "coordinated drain: 4 of 4" in first_out

        second_json = tmp_path / "second.json"
        assert cli.main(["run-grid", "fig13", "--coordinate", str(store),
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

    def test_cli_merge_warns_on_live_leases(self, tmp_path, capsys, monkeypatch):
        from repro import cli
        from repro.experiments import registry
        monkeypatch.setitem(registry.SCENARIOS, "fig13", _tiny_grid_entry())
        store = tmp_path / "store"
        assert cli.main(["run-grid", "fig13", "--coordinate", str(store)]) == 0
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
        assert cli.main(["run-grid", "fig13", "--coordinate", str(store)]) == 0
        capsys.readouterr()
        specs = tiny_specs(("ecmp", "contra"), loads=(0.4, 0.6))
        try_acquire_lease(store, spec_hash(specs[0]), "dead")  # orphaned
        assert cli.main(["gc-results", "fig13",
                         "--results-dir", str(store)]) == 0
        gc_out = capsys.readouterr().out
        assert "1 orphaned/stale removed" in gc_out
        assert not list(store.glob("lease-*"))
