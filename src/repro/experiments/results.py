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


class ResultsStore:
    """One results directory: per-writer JSONL appends, union-of-files reads.

    Every store instance appends to its own file (``filename``; by default
    ``results-shard0of1.jsonl``, where :func:`gc_results` also writes the
    compacted store) but :meth:`load` reads **all** ``results-*.jsonl``
    files in the directory, so resume sees every writer's completed work.
    """

    def __init__(self, directory, filename: Optional[str] = None):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        if filename is None:
            filename = "results-shard0of1.jsonl"
        elif not (filename.startswith("results-") and filename.endswith(".jsonl")):
            # load() unions results-*.jsonl; a write file outside that glob
            # would be invisible to every reader, merge and resume.
            raise ExperimentError(
                f"results filename {filename!r} must match results-*.jsonl")
        self.path = self.directory / filename
        self._repair_torn_tail()
        # The incremental view behind load(): what has been consumed of each
        # results file, and what those bytes validated to.
        self._consumed: Dict[Path, Tuple[int, int, int]] = {}  # inode, bytes, lines
        self._canonical: Dict[str, str] = {}
        self._results: Dict[str, RunResult] = {}
        self._log: List[Tuple[str, dict, bool]] = []

    def _repair_torn_tail(self) -> None:
        """Truncate a partial final line of *this writer's own* file.

        A run killed mid-append leaves a line without a trailing newline;
        appending after it would glue two records into one undecodable line.
        Only the own file is repaired — other writers' files may be
        live right now, and their in-flight partial line is handled (left
        unconsumed) by :meth:`load`'s final-line tolerance instead.  Reads
        backwards from the end, one block at a time, to the last newline: a
        cleanly closed file costs its last block, not a pass over the file.
        """
        try:
            handle = self.path.open("rb")
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
            os.truncate(self.path, keep)

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
        self._validated()
        return dict(self._results)

    def _validated(self) -> List[Tuple[str, dict, bool]]:
        """Every record consumed so far as ``(spec hash, record, repeat)``.

        Reads what the directory's files gained since the last call, then
        returns the store's own running list (read-only to callers).  A
        record without a spec hash or a decodable result is corruption and
        raises.  ``repeat`` is True from a hash's second record on, once
        that record is verified to carry the same result as the first — a
        conflict raises rather than silently picking a side.  A raise
        consumes nothing: the next call meets the same line again.
        """
        files = sorted(self.directory.glob("results-*.jsonl"))
        if not (self._consumed.keys() <= set(files)
                and all(self._read_appended(file) for file in files)):
            # Compaction replaces and unlinks files: nothing consumed from
            # the old ones can be trusted to still be in the directory.
            self._consumed.clear()
            self._canonical.clear()
            self._results.clear()
            self._log.clear()
            for file in sorted(self.directory.glob("results-*.jsonl")):
                self._read_appended(file)
        return self._log

    def _read_appended(self, file: Path) -> bool:
        """Consume the complete lines ``file`` gained; False if it is not the
        file consumed before (gone, replaced, or shorter than what was read)."""
        try:
            handle = file.open("rb")
        except FileNotFoundError:
            return False
        with handle:
            status = os.fstat(handle.fileno())
            inode, offset, line_number = self._consumed.get(
                file, (status.st_ino, 0, 0))
            if status.st_ino != inode or status.st_size < offset:
                return False
            if status.st_size == offset:
                return True
            handle.seek(offset)
            chunk = handle.read()
        # Only newline-terminated lines are candidates; the rest is an
        # append in flight.
        lines = chunk.split(b"\n")
        in_flight = lines.pop()
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
                            f"{file}:{line_number + 1}") from None
                    try:
                        key, payload = record["spec_hash"], record["result"]
                        known = self._canonical.get(key)
                        if known is None:
                            self._results[key] = decode_result(payload)
                    except (KeyError, TypeError, ValueError):
                        raise ExperimentError(
                            f"corrupt results record at "
                            f"{file}:{line_number + 1}") from None
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
                            f"in {file}: the store mixes records from "
                            f"incompatible runs")
                    self._log.append((key, record, known is not None))
                offset += len(line) + 1
                line_number += 1
        finally:
            self._consumed[file] = (inode, offset, line_number)
        return True

    # ------------------------------------------------------------------ write

    def record(self, spec: ScenarioSpec, result: RunResult,
               wall_s: Optional[float] = None,
               key: Optional[str] = None,
               owner: Optional[str] = None) -> None:
        """Append one completed grid point (flushed per record, crash-safe).

        ``wall_s`` is the wall-clock this execution spent on the point
        (measured where it executed); it lives *outside* the ``result``
        payload, so the conflict check stays on the deterministic result
        bytes while :meth:`total_wall_s` can sum the true compute invested
        in the store (every record is one actual execution — re-executed
        points count every time, skipped ones never).  ``key`` lets callers
        that already hold ``spec_hash(spec)`` skip recomputing it.  ``owner``
        tags the record with the coordinated worker that executed it — like
        ``point_wall_s`` it lives outside the ``result`` payload, so records
        for one point from different workers still deduplicate cleanly.
        """
        record = {
            "spec_hash": key if key is not None else spec_hash(spec),
            "spec_name": spec.name,
            "result": encode_result(result),
        }
        if wall_s is not None:
            record["point_wall_s"] = round(wall_s, 4)
        if owner is not None:
            record["owner"] = owner
        with self.path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, separators=(",", ":")) + "\n")

    def total_wall_s(self) -> float:
        """Wall-clock summed over every record in the directory (see record)."""
        return sum(record.get("point_wall_s", 0.0)
                   for _, record, _ in self._validated())


def gc_results(specs: Sequence[ScenarioSpec], directory) -> Dict[str, int]:
    """Garbage-collect a results directory against the current spec grid.

    Long-lived stores accumulate records a scenario no longer defines (spec
    or config drift re-keys every point), duplicate records from re-executed
    resumes, and torn half-written tails from killed runs.  GC rewrites the
    directory as **one** compacted file (``results-shard0of1.jsonl``)
    containing exactly one record per *current* spec hash, in spec-grid
    order, and removes the superseded files, the worker metas and any
    ``shard*.meta.json`` an older build left beside its shard files.

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
    valid = [spec_hash(spec) for spec in specs]
    valid_set = set(valid)
    kept: Dict[str, dict] = {}
    total = stale = duplicates = 0
    for key, record, repeat in store._validated():
        total += 1
        if key not in valid_set:
            stale += 1
        elif repeat:
            duplicates += 1
        else:
            kept[key] = record
    compacted = store.directory / "results-shard0of1.jsonl"
    staging = store.directory / ".gc-compact.tmp"
    with staging.open("w", encoding="utf-8") as handle:
        for key in valid:
            record = kept.get(key)
            if record is not None:
                handle.write(json.dumps(record, separators=(",", ":")) + "\n")
    # Crash ordering: land the compacted file (atomic rename) *before*
    # unlinking the superseded shards — a kill anywhere in between leaves a
    # store that still holds every kept record (at worst alongside old shard
    # files whose records the compacted file duplicates identically, which
    # load() tolerates).  Deleting first would let a kill destroy the store.
    staging.replace(compacted)
    for file in sorted(store.directory.glob("results-*.jsonl")):
        if file != compacted:
            file.unlink()
    for file in sorted(store.directory.glob("shard*.meta.json")):
        file.unlink()
    for file in sorted(store.directory.glob("worker-*.meta.json")):
        file.unlink()
    # Lease hygiene: drop leases whose point is already recorded or no
    # longer in the grid, and stale ones left by killed workers; leases a
    # live drain still holds on pending points are reported, not touched.
    # Imported lazily — coordinator imports this module at top level.
    from repro.experiments.coordinator import gc_leases
    leases_removed, leases_live = gc_leases(directory, valid_set, set(kept))
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
