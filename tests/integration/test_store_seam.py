"""The store seam (``repro.experiments.results.StoreFiles``) is the one door
to a results directory: an in-memory subclass stands in for the disk.

* A drain, a resume, ``collect_results`` and ``gc_results`` through the
  in-memory seam leave the record bytes the same sequence leaves on disk,
  and the same file names.
* A listing that omits a live lease created just before it cannot double a
  point: the exclusive create refuses the claim, and the point gets one
  record, from the lease holder.
* A drain and a waiting run leave nothing in the directory but results
  files.
"""

import fnmatch
import itertools
import json
import os
import threading
from collections import Counter

from repro.experiments import coordinator
from repro.experiments.coordinator import (
    CoordinatedBackend,
    release_lease,
    sweep_status,
    try_acquire_lease,
)
from repro.experiments.results import (
    ResultsStore,
    StoreFiles,
    collect_results,
    encode_result,
    gc_results,
)
from repro.experiments.runner import run_grid, spec_hash

from test_coordinator import StubBackend, stub_specs


class MemoryFiles(StoreFiles):
    """A results directory held in a dict: name -> bytes.

    Each primitive runs under one lock (a drain's heartbeat thread renews
    from its own thread), so create, replace and take are atomic here as
    the disk makes them.  ``hidden`` names are left out of the next listing
    that would show them — the stale listing a shared filesystem can give.
    """

    def __init__(self, label):
        super().__init__(label)
        self.data = {}
        self.identity = {}
        self.hidden = set()
        self.refused = []
        self._serial = itertools.count(1)
        self._lock = threading.RLock()

    def _put(self, name, data):
        self.data[name] = bytearray(data)
        self.identity[name] = next(self._serial)

    def mkdir(self):
        pass

    def names(self, pattern):
        with self._lock:
            matching = sorted(name for name in self.data
                              if fnmatch.fnmatchcase(name, pattern))
            omitted = self.hidden.intersection(matching)
            self.hidden -= omitted
            return [name for name in matching if name not in omitted]

    def _get(self, name):
        if name not in self.data:
            raise FileNotFoundError(name)
        return self.data[name]

    def read(self, name):
        with self._lock:
            return self._get(name).decode("utf-8")

    def create(self, name, text):
        with self._lock:
            if name in self.data:
                self.refused.append(name)
                return False
            self._put(name, text.encode("utf-8"))
            return True

    def replace(self, name, text, owner=""):
        with self._lock:
            self._put(name, text.encode("utf-8"))

    def append(self, name, text):
        with self._lock:
            if name not in self.data:
                self._put(name, b"")
            self.data[name] += text.encode("utf-8")

    def tail(self, name, offset):
        with self._lock:
            data = self.data.get(name)
            if data is None:
                return None
            return self.identity[name], len(data), bytes(data[offset:])

    def truncate_torn_tail(self, name):
        with self._lock:
            data = self.data.get(name)
            if data is not None:
                del data[data.rfind(b"\n") + 1:]

    def unlink(self, name):
        with self._lock:
            return self.data.pop(name, None) is not None

    def take(self, name, owner):
        return self.unlink(name)


def drain_resume_collect_gc(directory, specs):
    """The store's life in one sequence; what it returns and what it leaves."""
    drainer = CoordinatedBackend(directory, inner=StubBackend(), owner="w0")
    drainer.drain(specs)
    resumer = CoordinatedBackend(directory, inner=StubBackend(), owner="w1")
    resumed = run_grid(specs, backend=resumer)
    status = sweep_status(specs, directory)
    collected = collect_results(specs, ResultsStore(directory))
    summary = gc_results(specs, directory)
    return {
        "executed": (drainer.executed, resumer.executed),
        "resumed": [encode_result(result) for result in resumed],
        "collected": [encode_result(result) for result in collected],
        "status": (status.total, status.complete, status.leased,
                   [(worker.owner, worker.executed) for worker in status.workers]),
        "gc": summary,
    }


class TestInMemorySeam:
    def test_a_store_lives_the_same_in_memory_as_on_disk(self, tmp_path):
        specs = stub_specs(60)
        disk_dir = tmp_path / "disk"
        memory = MemoryFiles(tmp_path / "never-created")
        on_disk = drain_resume_collect_gc(disk_dir, specs)
        in_memory = drain_resume_collect_gc(memory, specs)
        assert on_disk == in_memory
        assert on_disk["executed"] == (60, 0)
        assert on_disk["gc"]["kept"] == 60
        # What gc leaves: one compacted file, the same bytes.
        assert sorted(os.listdir(disk_dir)) == sorted(memory.data) == \
            [StoreFiles.COMPACTED]
        assert (disk_dir / StoreFiles.COMPACTED).read_bytes() == \
            bytes(memory.data[StoreFiles.COMPACTED])
        assert not memory.directory.exists()

    def test_a_listing_that_omits_a_fresh_lease_cannot_double_a_point(self):
        specs = stub_specs(6)
        held = spec_hash(specs[0])          # the point a fresh drain picks first
        memory = MemoryFiles("memory")
        assert try_acquire_lease(memory, held, "holder", spec_name=specs[0].name)
        memory.hidden.add(StoreFiles.LEASE.format(held))
        worker = CoordinatedBackend(memory, inner=StubBackend(), owner="w1")
        worker.drain(specs)
        # The listing hid the lease, the scan found the point claimable, and
        # the exclusive create refused the claim.
        assert not memory.hidden
        assert memory.refused == [StoreFiles.LEASE.format(held)]
        assert worker.executed == len(specs) - 1
        # The holder finishes its point.
        holder = CoordinatedBackend(memory, inner=StubBackend(), owner="holder")
        assert release_lease(memory, held, "holder")
        holder.drain(specs)
        records = [json.loads(line)
                   for name in memory.names(StoreFiles.RESULTS)
                   for line in memory.read(name).splitlines()]
        assert Counter(record["spec_hash"] for record in records) == \
            Counter(spec_hash(spec) for spec in specs)
        assert [record["owner"] for record in records
                if record["spec_hash"] == held] == ["holder"]

    def test_a_drain_and_a_run_leave_only_results_files(self, monkeypatch):
        """Progress lives in the records: no drain step and no wait for
        another worker's lease writes any other file."""
        monkeypatch.setattr(coordinator, "LEASE_TTL", 0.05)
        monkeypatch.setattr(coordinator, "POLL_INTERVAL", 0.01)
        specs = stub_specs(6)
        memory = MemoryFiles("memory")
        drainer = CoordinatedBackend(memory, inner=StubBackend(), owner="w0")
        drainer.drain(specs[:3])
        # A lease that goes stale while the run waits: the run sleeps, then
        # reclaims and executes the point.
        assert try_acquire_lease(memory, spec_hash(specs[3]), "ghost")
        runner = CoordinatedBackend(memory, inner=StubBackend(), owner="w1")
        assert len(runner.run(specs)) == len(specs)
        assert (runner.executed, runner.reclaimed) == (3, 1)
        assert runner.idle_s > 0
        assert sorted(memory.data) == [StoreFiles.WORKER_RESULTS.format("w0"),
                                       StoreFiles.WORKER_RESULTS.format("w1")]
