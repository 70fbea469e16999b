"""Persistent, mergeable results store for grid sweeps.

A results store is a directory of append-only JSONL files: one record per
completed :class:`~repro.experiments.runner.ScenarioSpec` grid point, keyed
by the spec's canonical content hash (:func:`~repro.experiments.runner
.spec_hash`).  Because the key is a pure function of the spec — not of the
process, worker or execution order — the store gives two properties for
free:

* **resumability** — a rerun loads the store, skips every point whose hash
  is already present, and produces byte-identical output to an uninterrupted
  run (results are deterministic, so the stored copy *is* the recomputation);
* **mergeability** — any number of writers, each appending to its own file,
  leave a directory whose union holds exactly the records one serial run
  would have produced.  :func:`collect_results` reassembles the full grid in
  spec order, so a merged report is byte-identical to an unsharded one.

The one writer that executes grid points into a store is the
lease-coordinated drain of :mod:`repro.experiments.coordinator`; a static
``--shard i/n`` is that drain over the slice ``specs[i::n]``.

Records round-trip exactly: summaries keep their float/int JSON types
(CPython's shortest-repr float serialization is lossless), queue CDFs are
stored as ``[point, value]`` pairs so their float keys survive JSON, and
throughput series are restored to tuples.  Two records for the same hash
must agree — a conflict means the store mixes incompatible runs and raises
:class:`~repro.exceptions.ExperimentError` rather than silently picking one.
"""

from __future__ import annotations

import fnmatch
import io
import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exceptions import ExperimentError
from repro.experiments.runner import RunResult, ScenarioSpec, spec_hash

__all__ = [
    "encode_result",
    "decode_result",
    "StoreFiles",
    "ResultsStore",
    "collect_results",
    "gc_results",
    "parse_shard",
]


def encode_result(result: RunResult) -> dict:
    """One :class:`RunResult` as a JSON-serializable dict (exact round-trip)."""
    return {
        "name": result.name,
        "system": result.system,
        "workload": result.workload,
        "load": result.load,
        "seed": result.seed,
        "summary": result.summary,
        # Pairs, not an object: JSON object keys are strings, and the CDF is
        # keyed by float percentile points that must survive unchanged.
        "queue_cdf": [[point, value] for point, value in result.queue_cdf.items()]
        if result.queue_cdf is not None else None,
        "throughput": [[time, rate] for time, rate in result.throughput]
        if result.throughput is not None else None,
    }


def decode_result(record: dict) -> RunResult:
    """Rebuild the :class:`RunResult` written by :func:`encode_result`."""
    queue_cdf = record.get("queue_cdf")
    throughput = record.get("throughput")
    return RunResult(
        name=record["name"],
        system=record["system"],
        workload=record["workload"],
        load=record["load"],
        seed=record["seed"],
        summary=record["summary"],
        queue_cdf={point: value for point, value in queue_cdf}
        if queue_cdf is not None else None,
        throughput=[(time, rate) for time, rate in throughput]
        if throughput is not None else None,
    )


def parse_shard(text: str) -> Tuple[int, int]:
    """Parse an ``i/n`` shard selector; raises :class:`ExperimentError`."""
    try:
        index_text, count_text = text.split("/", 1)
        index, count = int(index_text), int(count_text)
    except ValueError:
        raise ExperimentError(
            f"invalid shard selector {text!r}; expected i/n, e.g. 0/2") from None
    if count < 1 or not 0 <= index < count:
        raise ExperimentError(
            f"invalid shard selector {text!r}; need 0 <= i < n")
    return index, count


class StoreFiles:
    """The one door to a results directory, and the one home of its layout.

    Every step on records and leases is a call on an instance, on names
    relative to the directory; the names are spelled here only.
    :meth:`read` raises FileNotFoundError for an absent name, the other
    steps return None or False.  A function that takes a results
    ``directory`` accepts an instance as it is (:meth:`of`), so a test can
    substitute an in-memory subclass.
    """

    RESULTS = "results-*.jsonl"
    COMPACTED = "results-shard0of1.jsonl"       # the default file, and gc's
    WORKER_RESULTS = "results-worker-{}.jsonl"
    LEASE = "lease-{}.json"
    SPEC_HASH = "[0-9a-f]" * 64
    #: What gc_results sweeps: the progress metas older builds wrote beside
    #: their workers and shards (and their staging files), and the staging
    #: names and tombstones of killed lease writers.
    DEBRIS = ("worker-*.meta.json", "worker-*.meta.json.tmp", "shard*.meta.json",
              LEASE.format("*") + ".*")

    def __init__(self, directory):
        self.directory = Path(directory)

    @classmethod
    def of(cls, directory) -> "StoreFiles":
        """``directory`` itself when it is a seam already, else one on disk."""
        return directory if isinstance(directory, StoreFiles) else cls(directory)

    def keys(self, template: str, fill: str = "*") -> List[str]:
        """What fills ``{}`` in each name matching ``template.format(fill)``,
        in name order: ``keys(LEASE, SPEC_HASH)`` is every lease's key."""
        prefix, suffix = template.split("{}")
        return [name[len(prefix):-len(suffix)]
                for name in self.names(template.format(fill))]

    def mkdir(self) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)

    def names(self, pattern: str) -> List[str]:
        """The names matching the glob ``pattern``, sorted."""
        return sorted([path.name for path in self.directory.glob(pattern)])

    def read(self, name: str) -> str:
        return (self.directory / name).read_text(encoding="utf-8")

    def create(self, name: str, text: str) -> bool:
        """Exclusive create, atomic with its content; False when ``name``
        exists.  The text is written under a staging name no other writer
        draws, then hard-linked onto ``name``: a reader meets all of it or
        no file.  A staging file swept meanwhile (``gc_results`` takes it
        for a killed writer's) loses the create too."""
        staging = self.directory / f"{name}.{os.urandom(8).hex()}.tmp"
        staging.write_text(text, encoding="utf-8")
        try:
            os.link(staging, self.directory / name)
        except (FileExistsError, FileNotFoundError):
            return False
        finally:
            staging.unlink(missing_ok=True)
        return True

    def replace(self, name: str, text: str, owner: str = "") -> None:
        """Atomic replace: a staging file (``owner``-unique among concurrent
        writers), renamed over ``name``, so a reader sees old or new text."""
        staging = self.directory / (f"{name}.{owner}.tmp" if owner else f"{name}.tmp")
        staging.write_text(text, encoding="utf-8")
        staging.replace(self.directory / name)

    def append(self, name: str, text: str) -> None:
        """Append ``text`` to ``name``, written out to the operating system on
        return: it survives a kill of this process.  There is no ``fsync``:
        a host crash can lose the last records (or tear the line in flight),
        and a resume re-runs their points — a lost record is absent, so the
        re-run never leaves a double record."""
        with (self.directory / name).open("a", encoding="utf-8") as handle:
            handle.write(text)

    def tail(self, name: str, offset: int) -> Optional[Tuple[int, int, bytes]]:
        """``(identity, size, bytes past offset)`` of ``name``; None when
        absent.  The identity is the inode: a replaced file is another."""
        try:
            with (self.directory / name).open("rb") as handle:
                status = os.fstat(handle.fileno())
                handle.seek(offset)
                return status.st_ino, status.st_size, handle.read()
        except FileNotFoundError:
            return None

    def truncate_torn_tail(self, name: str) -> None:
        """Cut a final line without its newline off ``name``, reading back
        from the end a block at a time: a clean file costs its last block."""
        path = self.directory / name
        try:
            handle = path.open("rb")
        except FileNotFoundError:
            return
        with handle:
            size = keep = handle.seek(0, os.SEEK_END)
            newline = -1
            while keep and newline < 0:
                start = max(0, keep - io.DEFAULT_BUFFER_SIZE)
                handle.seek(start)
                newline = handle.read(keep - start).rfind(b"\n")
                keep = start + newline + 1
        if keep < size:
            os.truncate(path, keep)

    def unlink(self, name: str) -> bool:
        try:
            (self.directory / name).unlink()
        except FileNotFoundError:
            return False
        return True

    def take(self, name: str, owner: str) -> bool:
        """Single-winner removal: rename to an ``owner``-unique tombstone,
        then unlink it; of concurrent takers only one rename succeeds."""
        tombstone = self.directory / f"{name}.reclaim-{owner}"
        try:
            os.replace(self.directory / name, tombstone)
        except FileNotFoundError:
            return False
        tombstone.unlink(missing_ok=True)
        return True


class ResultsStore:
    """One results directory: per-writer JSONL appends, union-of-files reads.

    Every store instance appends to its own file (``filename``; by default
    ``results-shard0of1.jsonl``, where :func:`gc_results` also writes the
    compacted store) but :meth:`load` reads **all** ``results-*.jsonl``
    files in the directory, so resume sees every writer's completed work.
    ``directory`` is a path or a :class:`StoreFiles`.  Reading writes
    nothing: the directory is made, and the own file's torn tail cut, at
    the first :meth:`record` or :meth:`begin_writing`.
    """

    def __init__(self, directory, filename: Optional[str] = None):
        self.files = StoreFiles.of(directory)
        self.directory = self.files.directory
        if filename is None:
            filename = StoreFiles.COMPACTED
        elif not fnmatch.fnmatchcase(filename, StoreFiles.RESULTS):
            # load() unions results-*.jsonl; a write file outside that glob
            # would be invisible to every reader, merge and resume.
            raise ExperimentError(
                f"results filename {filename!r} must match {StoreFiles.RESULTS}")
        self.path = self.directory / filename
        self._writing = False
        # The incremental view behind load(): what has been consumed of each
        # results file, and what those bytes validated to.
        self._consumed: Dict[str, Tuple[int, int, int]] = {}  # inode, bytes, lines
        self._canonical: Dict[str, str] = {}
        self._results: Dict[str, RunResult] = {}
        self._log: List[Tuple[str, dict, bool]] = []

    # ------------------------------------------------------------------- read

    def load(self) -> Dict[str, RunResult]:
        """All completed points in the directory, keyed by spec hash.

        Incremental: the store remembers, per ``results-*.jsonl``, how many
        bytes and lines it has consumed and what they validated to, and each
        call parses only what was appended since the last one — a record is
        decoded and checked once per instance, not once per call.  A file
        that shrank, changed identity or vanished (another instance's
        :func:`gc_results`) discards the whole view and re-reads from zero.

        A file's *final* line may be a partial record — the in-flight append
        of a live writer, or of a run that was killed mid-flush.  That line
        is left unconsumed (a live writer's completes and is read by a later
        call; a dead one's point simply re-executes on resume); an
        undecodable line anywhere else is real corruption and raises.

        The returned dict is the caller's own; the :class:`RunResult`
        values are shared with every other call and must not be mutated.
        """
        self.records()
        return dict(self._results)

    def __contains__(self, key: str) -> bool:
        """Whether point ``key`` is complete; reads what :meth:`load` would, no copy."""
        self.records()
        return key in self._results

    def records(self) -> List[Tuple[str, dict, bool]]:
        """Every record in the directory, as ``(spec hash, record, repeat)``.

        Reads what the directory's files gained since the last call, then
        returns the store's own running list (read-only to callers).  A
        record without a spec hash or a decodable result is corruption and
        raises.  ``repeat`` is True from a hash's second record on, once
        that record is verified to carry the same result as the first — a
        conflict raises rather than silently picking a side.  A raise
        consumes nothing: the next call meets the same line again.
        """
        names = self.files.names(StoreFiles.RESULTS)
        if not (self._consumed.keys() <= set(names)
                and all(self._read_appended(name) for name in names)):
            # Compaction replaces and unlinks files: nothing consumed from
            # the old ones can be trusted to still be in the directory.
            self._consumed.clear()
            self._canonical.clear()
            self._results.clear()
            self._log.clear()
            for name in self.files.names(StoreFiles.RESULTS):
                self._read_appended(name)
        return self._log

    def _read_appended(self, name: str) -> bool:
        """Consume the complete lines file ``name`` gained; False if it is not
        the file consumed before (gone, replaced, or shorter than what was read)."""
        inode, offset, line_number = self._consumed.get(name, (None, 0, 0))
        identity, size, chunk = self.files.tail(name, offset) or (None, 0, b"")
        if identity is None or inode not in (None, identity) or size < offset:
            return False
        if not chunk:
            return True
        inode = identity
        # Only newline-terminated lines are candidates; the rest is an
        # append in flight.
        lines = chunk.split(b"\n")
        in_flight = lines.pop()
        where = self.directory / name
        try:
            for index, line in enumerate(lines):
                if line.strip():
                    try:
                        record = json.loads(line)
                    except ValueError:
                        if index == len(lines) - 1 and not in_flight:
                            break           # torn final line: not consumed
                        raise ExperimentError(
                            f"corrupt results record at "
                            f"{where}:{line_number + 1}") from None
                    try:
                        key, payload = record["spec_hash"], record["result"]
                        known = self._canonical.get(key)
                        if known is None:
                            self._results[key] = decode_result(payload)
                    except (KeyError, TypeError, ValueError):
                        raise ExperimentError(
                            f"corrupt results record at "
                            f"{where}:{line_number + 1}") from None
                    # Compare serialized forms, not dicts: summaries
                    # legitimately carry NaN (e.g. avg_fct_ms of a
                    # streams-only run), and NaN != NaN would make
                    # byte-identical duplicates look like a conflict under
                    # dict equality.
                    serialized = json.dumps(payload, sort_keys=True)
                    if known is None:
                        self._canonical[key] = serialized
                    elif known != serialized:
                        raise ExperimentError(
                            f"conflicting results for spec hash {key[:12]}… "
                            f"in {where}: the store mixes records from "
                            f"incompatible runs")
                    self._log.append((key, record, known is not None))
                offset += len(line) + 1
                line_number += 1
        finally:
            self._consumed[name] = (inode, offset, line_number)
        return True

    # ------------------------------------------------------------------ write

    def begin_writing(self) -> None:
        """Make the directory and cut the own file's torn tail, once per store.

        :meth:`record` calls it before its first append; a drain calls it
        before its first lease create, which needs the directory too, so a
        worker makes the directory once.
        """
        if self._writing:
            return
        self.files.mkdir()
        # A killed append leaves a line without its newline, which the next
        # append would glue to a record.  Only the own file: others may be
        # live.
        self.files.truncate_torn_tail(self.path.name)
        self._writing = True

    def record(self, spec: ScenarioSpec, result: RunResult,
               wall_s: Optional[float] = None,
               owner: Optional[str] = None,
               stolen: bool = False, reclaimed: bool = False) -> None:
        """Append one completed grid point (see :meth:`StoreFiles.append`).

        ``wall_s`` is the wall-clock this execution spent on the point
        (measured where it executed); it lives *outside* the ``result``
        payload, so the conflict check stays on the deterministic result
        bytes while :meth:`total_wall_s` can sum the true compute invested
        in the store (every record is one actual execution — re-executed
        points count every time, skipped ones never).  ``owner`` tags the
        record with the coordinated worker that executed it, and ``stolen`` /
        ``reclaimed`` mark a point that worker stole from another locality
        group or reclaimed from a stale lease (written only when true, so an
        ordinary record's bytes carry neither).  Like ``point_wall_s`` these
        live outside the ``result`` payload, so records for one point from
        different workers still deduplicate cleanly; they are what
        ``sweep-status`` counts.  The key is the spec's own memoized
        :func:`~repro.experiments.runner.spec_hash`.
        """
        self.begin_writing()
        record = {
            "spec_hash": spec_hash(spec),
            "spec_name": spec.name,
            "result": encode_result(result),
        }
        if wall_s is not None:
            record["point_wall_s"] = round(wall_s, 4)
        if owner is not None:
            record["owner"] = owner
        if stolen:
            record["stolen"] = True
        if reclaimed:
            record["reclaimed"] = True
        self.files.append(self.path.name,
                          json.dumps(record, separators=(",", ":")) + "\n")

    def total_wall_s(self) -> float:
        """Wall-clock summed over every record in the directory (see record)."""
        return sum(record.get("point_wall_s", 0.0)
                   for _, record, _ in self.records())


def gc_results(specs: Sequence[ScenarioSpec], directory) -> Dict[str, int]:
    """Garbage-collect a results directory against the current spec grid.

    Long-lived stores accumulate records a scenario no longer defines (spec
    or config drift re-keys every point), duplicate records from re-executed
    resumes, and torn half-written tails from killed runs.  GC rewrites the
    directory as **one** compacted file (``results-shard0of1.jsonl``)
    containing exactly one record per *current* spec hash, in spec-grid
    order, and removes the superseded files and the ``worker-*.meta.json`` /
    ``shard*.meta.json`` progress files older builds left beside them.

    Kept records are byte-preserved (including their ``point_wall_s``), so a
    later :func:`collect_results` merge reads the same bytes; duplicate
    records are verified identical first — a conflict raises rather than
    silently picking a side.  Dropped-duplicate wall-clock history is
    discarded with the duplicates (``total_wall_s`` afterwards counts one
    execution per point).

    Returns a summary: total records seen, records kept, stale records
    dropped, duplicates dropped, and how many grid points remain missing.
    """
    store = ResultsStore(directory)
    store.files.mkdir()
    valid = [spec_hash(spec) for spec in specs]
    valid_set = set(valid)
    kept: Dict[str, dict] = {}
    total = stale = duplicates = 0
    for key, record, repeat in store.records():
        total += 1
        if key not in valid_set:
            stale += 1
        elif repeat:
            duplicates += 1
        else:
            kept[key] = record
    # Crash ordering: land the compacted file (atomic replace) *before*
    # unlinking the superseded shards — a kill anywhere in between leaves a
    # store that still holds every kept record (at worst alongside old shard
    # files whose records the compacted file duplicates identically, which
    # load() tolerates).  Deleting first would let a kill destroy the store.
    store.files.replace(StoreFiles.COMPACTED, "".join(
        json.dumps(kept[key], separators=(",", ":")) + "\n"
        for key in valid if key in kept))
    for name in store.files.names(StoreFiles.RESULTS):
        if name != StoreFiles.COMPACTED:
            store.files.unlink(name)
    # Lease hygiene: drop leases whose point is already recorded or no
    # longer in the grid, and stale ones left by killed workers; leases a
    # live drain still holds on pending points are reported, not touched.
    # Imported lazily — coordinator imports this module at top level.
    from repro.experiments.coordinator import gc_leases
    leases_removed, leases_live = gc_leases(store.files, valid_set, set(kept))
    for pattern in StoreFiles.DEBRIS:
        for name in store.files.names(pattern):
            store.files.unlink(name)
    return {
        "total_records": total,
        "kept": len(kept),
        "dropped_stale": stale,
        "dropped_duplicates": duplicates,
        "missing": len(specs) - len(kept),
        "leases_removed": leases_removed,
        "leases_live": leases_live,
    }


def collect_results(specs: Sequence[ScenarioSpec], store: ResultsStore) -> List[RunResult]:
    """Assemble the full grid from the store, in spec order (merge semantics).

    Raises :class:`ExperimentError` naming the first missing point when any
    shard has not completed — a partial merge would silently produce a
    report computed over a different grid than the scenario defines.
    """
    completed = store.load()
    results = []
    missing = []
    for spec in specs:
        result = completed.get(spec_hash(spec))
        if result is None:
            missing.append(spec.name)
        else:
            results.append(result)
    if missing:
        raise ExperimentError(
            f"results store {store.directory} is missing {len(missing)} of "
            f"{len(specs)} grid points (first missing: {missing[0]!r}); "
            f"run the remaining shards before merging")
    return results
