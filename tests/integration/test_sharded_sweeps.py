"""Integration tests for sharded, resumable sweep execution.

The contracts under test (see ARCHITECTURE.md "Execution backends and the
results store"):

* :func:`spec_hash` is a pure, stable function of the spec — identical
  across processes and for both accepted spellings of an event schedule;
* the results store round-trips every :class:`RunResult` field exactly and
  unions shard files, refusing conflicting records;
* the union of ``n`` shard runs is byte-identical to an unsharded run on
  every summary key, and merged scenario outcomes (text and payload) are
  byte-identical to unsharded ones;
* resume skips store-complete points and yields identical output;
* ``load()`` is an incremental log reader: it parses only appended bytes,
  runs every check once per record, and agrees with a cold instance's
  ``load()`` after any interleaving of appends, torn appends and gc.
"""

import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import ExperimentError
from repro.experiments.config import ExperimentConfig
from repro.experiments.registry import (
    GridScenario,
    SCENARIOS,
    merge_scenario,
    run_scenario,
    run_scenario_shard,
)
from repro.experiments import results as results_module
from repro.experiments.results import (
    ResultsStore,
    ShardedBackend,
    collect_results,
    decode_result,
    encode_result,
    gc_results,
    parse_shard,
)
from repro.experiments.runner import (
    LinkEvent,
    RunResult,
    ScenarioSpec,
    TopologySpec,
    canonical_spec,
    run_grid,
    spec_hash,
)

TINY = ExperimentConfig(workload_duration=1.5, run_duration=20.0, loads=(0.4,),
                        websearch_scale=0.05, cache_scale=0.2)


def tiny_topology():
    return TopologySpec("fattree", k=4, capacity=TINY.host_capacity,
                        oversubscription=TINY.oversubscription)


def tiny_specs(systems=("ecmp", "contra")):
    return [
        ScenarioSpec(name=f"shard-test:{system}", system=system,
                     topology=tiny_topology(), config=TINY,
                     workload="web_search", load=0.4, seed=TINY.seed,
                     stop_after_completion=True)
        for system in systems
    ]


class TestSpecHash:
    def test_hash_is_pure_and_deterministic(self):
        spec = tiny_specs()[0]
        assert spec_hash(spec) == spec_hash(spec)
        rebuilt = tiny_specs()[0]
        assert spec_hash(rebuilt) == spec_hash(spec)

    def test_hash_is_stable_across_processes(self):
        """The store key must not depend on process state (PYTHONHASHSEED…)."""
        program = (
            "from repro.experiments.config import ExperimentConfig\n"
            "from repro.experiments.runner import ScenarioSpec, TopologySpec, spec_hash\n"
            "c = ExperimentConfig(workload_duration=1.5, run_duration=20.0,\n"
            "                     loads=(0.4,), websearch_scale=0.05, cache_scale=0.2)\n"
            "t = TopologySpec('fattree', k=4, capacity=c.host_capacity,\n"
            "                 oversubscription=c.oversubscription)\n"
            "s = ScenarioSpec(name='shard-test:ecmp', system='ecmp', topology=t,\n"
            "                 config=c, workload='web_search', load=0.4, seed=c.seed,\n"
            "                 stop_after_completion=True)\n"
            "print(spec_hash(s))\n"
        )
        import repro
        src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ, PYTHONHASHSEED="12345")
        env["PYTHONPATH"] = os.pathsep.join(
            [p for p in (src_dir, env.get("PYTHONPATH", "")) if p])
        output = subprocess.run([sys.executable, "-c", program], env=env,
                                capture_output=True, text=True, check=True)
        assert output.stdout.strip() == spec_hash(tiny_specs()[0])

    def test_plain_tuple_events_hash_like_linkevents(self):
        base = tiny_specs()[0]
        as_tuples = ScenarioSpec(**{**base.__dict__,
                                    "events": ((5.0, "edge0", "agg0", "fail"),)})
        as_events = ScenarioSpec(**{**base.__dict__,
                                    "events": (LinkEvent(5.0, "edge0", "agg0", "fail"),)})
        assert spec_hash(as_tuples) == spec_hash(as_events)
        assert spec_hash(as_tuples) != spec_hash(base)

    def test_any_field_change_changes_the_hash(self):
        base = tiny_specs()[0]
        for override in ({"load": 0.6}, {"seed": 2}, {"system": "hula"},
                         {"config": ExperimentConfig(**{
                             **TINY.__dict__, "probe_period": 0.512})}):
            changed = ScenarioSpec(**{**base.__dict__, **override})
            assert spec_hash(changed) != spec_hash(base)

    def test_hash_is_memoised_beside_the_fields_not_among_them(self, monkeypatch):
        """One canonicalisation per spec instance, and nothing that reads a
        spec's fields — ``replace``, ``==``, ``hash``, ``asdict``,
        ``__dict__``, pickling — can tell a hashed spec from an unhashed one."""
        import dataclasses
        import pickle

        from repro.experiments import runner

        calls = []
        canonical = runner.canonical_spec
        monkeypatch.setattr(runner, "canonical_spec",
                            lambda spec: calls.append(spec) or canonical(spec))
        spec, twin = tiny_specs()[0], tiny_specs()[0]
        pickled, fields = pickle.dumps(spec), dict(spec.__dict__)
        digest = spec_hash(spec)
        assert [spec_hash(spec) for _ in range(5)] == [digest] * 5
        assert len(calls) == 1
        assert spec == twin and hash(spec) == hash(twin)
        assert spec.__dict__ == fields == twin.__dict__
        assert dataclasses.asdict(spec) == dataclasses.asdict(twin)
        assert repr(spec) == repr(twin)
        assert pickle.dumps(spec) == pickled
        # A copy starts cold and re-derives the same digest; a changed copy
        # never inherits the original's.
        for copy in (pickle.loads(pickled), dataclasses.replace(spec)):
            assert not hasattr(copy, "_spec_hash")
            assert spec_hash(copy) == digest
        changed = dataclasses.replace(spec, seed=spec.seed + 1)
        assert not hasattr(changed, "_spec_hash")
        assert spec_hash(changed) != digest
        assert len(calls) == 4

    def test_canonical_spec_is_plain_json_data(self):
        canonical = canonical_spec(tiny_specs()[0])
        json.dumps(canonical)  # must not raise
        assert canonical["topology"]["family"] == "fattree"
        assert canonical["config"]["loads"] == (0.4,)

    def test_sanitize_stays_out_of_the_spec_hash(self, monkeypatch):
        """The sanitizer plane is an *observer*, not part of the experiment:
        `--sanitize` / CONTRA_SANITIZE must never perturb store keys, or a
        sanitized sweep could not resume an unsanitized one."""
        import dataclasses

        from repro.experiments.runner import _V3_FIELDS

        spec = tiny_specs()[0]
        field_names = {f.name for f in dataclasses.fields(ScenarioSpec)}
        assert "sanitize" not in field_names
        # Canonicalization covers exactly the spec fields — nothing ambient.
        # Fields added after hash v2 are omitted at their defaults so that
        # pre-existing store keys stay resumable (see test_spec_hash_is_pinned).
        assert set(canonical_spec(spec)) == field_names - set(_V3_FIELDS)
        fluid = ScenarioSpec(**{**spec.__dict__, "flow_model": "fluid"})
        assert set(canonical_spec(fluid)) == (field_names - set(_V3_FIELDS)) | {"flow_model"}
        monkeypatch.delenv("CONTRA_SANITIZE", raising=False)
        base = spec_hash(spec)
        monkeypatch.setenv("CONTRA_SANITIZE", "1")
        assert spec_hash(spec) == base

    def test_spec_field_set_is_pinned(self):
        """Adding a ScenarioSpec field is a compatibility event: it must go
        into ``_V3_FIELDS`` (or a future version set) with its default, or
        every existing store key silently changes.  This pin forces that
        decision to be explicit."""
        import dataclasses

        from repro.experiments.runner import _V3_FIELDS

        field_names = [f.name for f in dataclasses.fields(ScenarioSpec)]
        assert field_names == [
            "name", "system", "topology", "config", "policy", "workload",
            "load", "seed", "transport", "ack_every", "traffic",
            "workload_host_rate", "workload_scale", "senders", "receivers",
            "pair_senders_receivers", "incast_fanin", "incast_receiver",
            "stream_rate", "stream_start", "streams_per_pair", "events",
            "fail_agg_core_link", "failed_link", "failure_time",
            "probe_period", "flowlet_timeout", "use_versioning",
            "respect_compiled_probe_period", "record_paths",
            "stop_after_completion", "run_duration", "cdf_points",
            "collect_throughput", "flow_model", "flow_sketch",
            "fct_percentiles",
        ]
        assert _V3_FIELDS == {"flow_model": "packet", "flow_sketch": False,
                              "fct_percentiles": ()}

    def test_spec_hash_is_pinned_for_packet_defaults(self):
        """Regression pin: a spec that leaves every post-v2 field at its
        default must hash exactly as it did before those fields existed, so
        packet-plane sweeps resume against stores written by older builds."""
        spec = tiny_specs()[0]
        pinned = ScenarioSpec(name="pin:ecmp", system="ecmp",
                              topology=TopologySpec("fattree", k=4, capacity=100.0,
                                                    oversubscription=4.0),
                              config=ExperimentConfig(), workload="web_search",
                              load=0.4, seed=1, stop_after_completion=True)
        assert spec_hash(pinned) == (
            "7c7dfd526b7ce05af257b91056d5a52aca3d2e81ec8f80b644be6f6d5ea9ba64")
        # Any v3 field moved off its default must change the hash…
        assert spec_hash(ScenarioSpec(**{**spec.__dict__, "flow_model": "fluid"})) \
            != spec_hash(spec)
        assert spec_hash(ScenarioSpec(**{**spec.__dict__, "flow_sketch": True})) \
            != spec_hash(spec)
        assert spec_hash(ScenarioSpec(**{**spec.__dict__,
                                         "fct_percentiles": (50.0,)})) \
            != spec_hash(spec)
        # …and the three non-default hashes must be distinct from each other.
        hashes = {spec_hash(ScenarioSpec(**{**spec.__dict__, **override}))
                  for override in ({"flow_model": "fluid"}, {"flow_sketch": True},
                                   {"fct_percentiles": (50.0,)})}
        assert len(hashes) == 3


class TestResultsStore:
    def _result(self):
        return RunResult(name="r", system="ecmp", workload="web_search",
                         load=0.4, seed=1,
                         summary={"avg_fct_ms": 1.25, "flows": 7},
                         queue_cdf={0.5: 1.0, 0.99: 30.0},
                         throughput=[(1.0, 96.0), (2.0, 95.5)])

    def test_encode_decode_roundtrip_is_exact(self):
        result = self._result()
        decoded = decode_result(json.loads(json.dumps(encode_result(result))))
        assert decoded == result
        assert isinstance(decoded.throughput[0], tuple)
        assert 0.99 in decoded.queue_cdf

    def test_codec_covers_every_runresult_field(self):
        """Guard against a future RunResult field silently vanishing from
        sharded/resumed runs: the store codec must name every field."""
        import dataclasses
        field_names = {field.name for field in dataclasses.fields(RunResult)}
        assert set(encode_result(self._result())) == field_names

    def test_record_then_load_by_hash(self, tmp_path):
        spec = tiny_specs()[0]
        store = ResultsStore(tmp_path)
        store.record(spec, self._result())
        assert store.load()[spec_hash(spec)] == self._result()

    def test_load_unions_shard_files(self, tmp_path):
        ecmp, contra = tiny_specs()
        ResultsStore(tmp_path, 0, 2).record(ecmp, self._result())
        ResultsStore(tmp_path, 1, 2).record(contra, self._result())
        assert set(ResultsStore(tmp_path).load()) == {spec_hash(ecmp),
                                                      spec_hash(contra)}

    def test_duplicate_identical_records_are_fine(self, tmp_path):
        spec = tiny_specs()[0]
        ResultsStore(tmp_path, 0, 2).record(spec, self._result())
        ResultsStore(tmp_path, 1, 2).record(spec, self._result())
        assert len(ResultsStore(tmp_path).load()) == 1

    def test_conflicting_records_raise(self, tmp_path):
        spec = tiny_specs()[0]
        ResultsStore(tmp_path, 0, 2).record(spec, self._result())
        other = RunResult(name="r", system="ecmp", workload="web_search",
                          load=0.4, seed=1, summary={"avg_fct_ms": 9.99})
        ResultsStore(tmp_path, 1, 2).record(spec, other)
        with pytest.raises(ExperimentError, match="conflicting"):
            ResultsStore(tmp_path).load()

    def test_corrupt_interior_line_raises_with_location(self, tmp_path):
        spec = tiny_specs()[0]
        store = ResultsStore(tmp_path)
        store.path.write_text("not json\n")
        store.record(spec, self._result())
        with pytest.raises(ExperimentError, match="corrupt"):
            store.load()

    def test_torn_final_line_is_tolerated(self, tmp_path):
        """A run killed mid-append leaves a partial last line; the store
        must skip it (the point re-executes) rather than brick resume."""
        spec = tiny_specs()[0]
        store = ResultsStore(tmp_path)
        store.record(spec, self._result())
        with store.path.open("a") as handle:
            handle.write('{"spec_hash": "abc", "result": {"name"')
        loaded = store.load()
        assert set(loaded) == {spec_hash(spec)}
        assert store.total_wall_s() >= 0.0

    def test_resume_after_torn_line_repairs_then_appends_cleanly(self, tmp_path):
        """Re-opening the shard's own file truncates the torn tail, so the
        resumed point's record is not glued onto the partial line."""
        ecmp, contra = tiny_specs()
        store = ResultsStore(tmp_path)
        store.record(ecmp, self._result())
        with store.path.open("a") as handle:
            handle.write('{"spec_hash": "abc", "result": {"name"')
        resumed = ResultsStore(tmp_path)       # same shard file: repairs tail
        resumed.record(contra, self._result())
        loaded = ResultsStore(tmp_path).load()
        assert set(loaded) == {spec_hash(ecmp), spec_hash(contra)}

    def test_nan_summaries_do_not_fake_a_conflict(self, tmp_path):
        """Streams-only runs carry NaN summary values; byte-identical
        duplicate records must still count as duplicates (NaN != NaN under
        dict equality, so the conflict check compares serialized forms)."""
        spec = tiny_specs()[0]
        nan_result = RunResult(name="r", system="contra", workload="",
                               load=0.0, seed=1,
                               summary={"avg_fct_ms": float("nan"), "flows": 0})
        ResultsStore(tmp_path, 0, 2).record(spec, nan_result)
        ResultsStore(tmp_path, 1, 3).record(spec, nan_result)
        loaded = ResultsStore(tmp_path).load()
        assert set(loaded) == {spec_hash(spec)}

    def test_parse_shard(self):
        assert parse_shard("0/2") == (0, 2)
        assert parse_shard("3/4") == (3, 4)
        for bad in ("2/2", "-1/2", "a/b", "1", "1/0"):
            with pytest.raises(ExperimentError):
                parse_shard(bad)

    def test_load_metas_sorts_numerically_beyond_ten_shards(self, tmp_path):
        """Regression: ``sorted(glob)`` is lexicographic, so shard10of12
        sorted before shard2of12 — metas must come back in numeric shard
        order once a sweep uses ten or more shards."""
        count = 12
        for index in [7, 10, 0, 11, 2, 5, 1, 9, 3, 8, 6, 4]:   # write shuffled
            ResultsStore(tmp_path, index, count).write_meta(
                "meta-order", wall_s=1.0, total=count, assigned=1,
                executed=1, skipped=0)
        metas = ResultsStore(tmp_path).load_metas()
        assert [meta["shard_index"] for meta in metas] == list(range(count))

    def test_load_metas_orders_by_count_then_index(self, tmp_path):
        """Metas from different shard layouts group by layout, not filename."""
        for index, count in [(1, 10), (0, 2), (9, 10), (1, 2)]:
            ResultsStore(tmp_path, index, count).write_meta(
                "meta-order", wall_s=1.0, total=1, assigned=1,
                executed=1, skipped=0)
        metas = ResultsStore(tmp_path).load_metas()
        assert [(meta["shard_count"], meta["shard_index"])
                for meta in metas] == [(2, 0), (2, 1), (10, 1), (10, 9)]

    def test_explicit_filename_must_stay_in_the_union_glob(self, tmp_path):
        spec = tiny_specs()[0]
        store = ResultsStore(tmp_path, filename="results-worker-w0.jsonl")
        store.record(spec, self._result(), owner="w0")
        loaded = ResultsStore(tmp_path).load()
        assert set(loaded) == {spec_hash(spec)}
        with pytest.raises(ExperimentError, match="results-"):
            ResultsStore(tmp_path, filename="worker-w0.jsonl")


def record_line(key, value=1.0):
    """One store line as :meth:`ResultsStore.record` writes it."""
    result = RunResult(name="r", system="ecmp", workload="web_search",
                       load=0.4, seed=1, summary={"avg_fct_ms": value},
                       queue_cdf={0.5: value})
    return json.dumps({"spec_hash": key, "spec_name": "r",
                       "result": encode_result(result), "point_wall_s": 0.5},
                      separators=(",", ":")) + "\n"


def append(path, text):
    with path.open("a", encoding="utf-8") as handle:
        handle.write(text)


def assert_matches_cold(live):
    """``live``'s view equals a fresh instance's: keys, result bytes, records."""
    cold = ResultsStore(live.directory)

    def result_bytes(store):
        return {key: json.dumps(encode_result(result), sort_keys=True)
                for key, result in store.load().items()}

    def records(store):
        return sorted(json.dumps(record, sort_keys=True)
                      for _, record, _ in store._validated())

    assert result_bytes(live) == result_bytes(cold)
    assert records(live) == records(cold)


KEYS = [f"{index:064x}" for index in range(6)]


class TestIncrementalView:
    """The reader contract of ARCHITECTURE.md §3: offsets, one reset rule."""

    @pytest.fixture
    def parsed(self, monkeypatch):
        """Counts of store lines parsed and results decoded, from outside."""
        counts = {"lines": 0, "results": 0}
        loads, decode = json.loads, results_module.decode_result

        def counting_loads(text, **kwargs):
            counts["lines"] += isinstance(text, bytes)
            return loads(text, **kwargs)

        def counting_decode(payload):
            counts["results"] += 1
            return decode(payload)

        monkeypatch.setattr(json, "loads", counting_loads)
        monkeypatch.setattr(results_module, "decode_result", counting_decode)
        return counts

    def test_anothers_appends_are_seen_and_only_they_are_parsed(self, tmp_path,
                                                                 parsed):
        live = ResultsStore(tmp_path)
        writer = tmp_path / "results-worker-a.jsonl"
        append(writer, record_line(KEYS[0]) + record_line(KEYS[1]))
        assert set(live.load()) == set(KEYS[:2])
        assert parsed == {"lines": 2, "results": 2}
        live.load()
        assert parsed == {"lines": 2, "results": 2}      # nothing appended
        append(writer, record_line(KEYS[2]))
        append(tmp_path / "results-worker-b.jsonl",
               record_line(KEYS[3]) + record_line(KEYS[0]))
        assert set(live.load()) == set(KEYS[:4])
        assert parsed == {"lines": 5, "results": 4}      # the repeat: no decode
        assert_matches_cold(live)

    def test_load_returns_the_callers_own_dict(self, tmp_path):
        live = ResultsStore(tmp_path)
        append(tmp_path / "results-worker-a.jsonl", record_line(KEYS[0]))
        first = live.load()
        first.clear()
        assert set(live.load()) == {KEYS[0]}

    def test_torn_final_line_is_skipped_then_consumed(self, tmp_path, parsed):
        live = ResultsStore(tmp_path)
        writer = tmp_path / "results-worker-a.jsonl"
        line = record_line(KEYS[1])
        append(writer, record_line(KEYS[0]) + line[:40])
        assert set(live.load()) == {KEYS[0]}
        append(writer, line[40:-1])              # all but the newline
        assert set(live.load()) == {KEYS[0]}
        assert parsed == {"lines": 1, "results": 1}
        append(writer, "\n")
        assert set(live.load()) == set(KEYS[:2])
        assert parsed == {"lines": 2, "results": 2}
        assert_matches_cold(live)

    def test_terminated_garbage_is_tolerated_only_while_final(self, tmp_path):
        live = ResultsStore(tmp_path)
        writer = tmp_path / "results-worker-a.jsonl"
        append(writer, record_line(KEYS[0]) + "{not json\n")
        assert set(live.load()) == {KEYS[0]}
        append(writer, record_line(KEYS[1]))
        with pytest.raises(ExperimentError, match=r"results-worker-a\.jsonl:2"):
            live.load()
        with pytest.raises(ExperimentError, match=r"results-worker-a\.jsonl:2"):
            ResultsStore(tmp_path).load()

    def test_corrupt_middle_line_names_file_and_line_across_refreshes(
            self, tmp_path):
        live = ResultsStore(tmp_path)
        writer = tmp_path / "results-worker-a.jsonl"
        append(writer, record_line(KEYS[0]) + "\n" + record_line(KEYS[1]))
        assert len(live.load()) == 2              # lines 1-3, one blank
        append(writer, record_line(KEYS[2]) + "garbage\n" + record_line(KEYS[3]))
        for _ in range(2):                        # the error is sticky
            with pytest.raises(ExperimentError,
                               match=r"corrupt.*results-worker-a\.jsonl:5"):
                live.load()

    def test_record_without_a_result_names_its_line(self, tmp_path):
        live = ResultsStore(tmp_path)
        writer = tmp_path / "results-worker-a.jsonl"
        append(writer, record_line(KEYS[0]))
        live.load()
        append(writer, json.dumps({"spec_hash": KEYS[1]}) + "\n")
        with pytest.raises(ExperimentError,
                           match=r"corrupt.*results-worker-a\.jsonl:2"):
            live.load()

    def test_conflict_appended_after_first_load_still_raises(self, tmp_path):
        live = ResultsStore(tmp_path)
        append(tmp_path / "results-worker-a.jsonl", record_line(KEYS[0], 1.0))
        assert set(live.load()) == {KEYS[0]}
        append(tmp_path / "results-worker-b.jsonl", record_line(KEYS[0], 1.0))
        assert set(live.load()) == {KEYS[0]}      # identical repeat: fine
        append(tmp_path / "results-worker-b.jsonl", record_line(KEYS[0], 2.0))
        for _ in range(2):
            with pytest.raises(ExperimentError, match="conflicting"):
                live.load()

    def test_gc_by_another_instance_resets_a_live_view(self, tmp_path):
        specs = tiny_specs(("ecmp", "contra"))
        current = [spec_hash(spec) for spec in specs]
        live = ResultsStore(tmp_path)
        append(tmp_path / "results-worker-a.jsonl",
               record_line(current[0]) + record_line(KEYS[0]))
        append(tmp_path / "results-shard0of1.jsonl",
               record_line(current[1]) + record_line(KEYS[1]))
        assert set(live.load()) == set(current) | set(KEYS[:2])
        summary = gc_results(specs, tmp_path)     # a fresh instance inside
        assert summary["dropped_stale"] == 2
        # worker-a vanished and shard0of1 was replaced: the stale keys the
        # live view consumed from them are gone with the files.
        assert set(live.load()) == set(current)
        assert live.total_wall_s() == 1.0
        assert_matches_cold(live)

    def test_a_file_that_shrank_resets_the_view(self, tmp_path):
        live = ResultsStore(tmp_path)
        writer = tmp_path / "results-worker-a.jsonl"
        append(writer, record_line(KEYS[0]) + record_line(KEYS[1]))
        assert len(live.load()) == 2
        writer.write_text(record_line(KEYS[2]))   # same inode, shorter
        assert set(live.load()) == {KEYS[2]}
        assert_matches_cold(live)

    def test_torn_tail_repair_reads_back_over_whole_blocks(self, tmp_path):
        """The tail may be longer than the block the repair reads at a time."""
        store = ResultsStore(tmp_path)
        store.path.write_text(record_line(KEYS[0]) + "x" * 20000)
        ResultsStore(tmp_path)
        assert store.path.read_text() == record_line(KEYS[0])
        store.path.write_text("x" * 20000)        # no newline anywhere
        ResultsStore(tmp_path)
        assert store.path.read_text() == ""
        store.path.write_text(record_line(KEYS[0]))
        ResultsStore(tmp_path)
        assert store.path.read_text() == record_line(KEYS[0])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.one_of(
        st.tuples(st.just("append"), st.integers(0, 2), st.integers(0, 4)),
        st.tuples(st.just("torn"), st.integers(0, 2), st.integers(0, 4)),
        st.tuples(st.just("complete"), st.integers(0, 2), st.just(0)),
        st.tuples(st.just("gc"), st.just(0), st.just(0))), max_size=12))
    def test_any_interleaving_agrees_with_a_cold_load(self, operations):
        """Appends, torn appends, their completion and another instance's gc,
        in any order: after every step the live view equals a cold one."""
        specs = tiny_specs(("ecmp", "contra", "hula"))
        keys = [spec_hash(spec) for spec in specs] + KEYS[:2]   # two stale
        with tempfile.TemporaryDirectory() as directory:
            live = ResultsStore(directory)
            files = [live.directory / f"results-worker-{name}.jsonl"
                     for name in "abc"]
            unwritten = {}                # file -> rest of its torn line
            for operation, writer, key in operations:
                file = files[writer]
                if operation == "gc":
                    gc_results(specs, directory)
                    unwritten.clear()     # the torn tails died with their files
                else:
                    append(file, unwritten.pop(file, ""))
                if operation == "append":
                    append(file, record_line(keys[key]))
                elif operation == "torn":
                    line = record_line(keys[key])
                    append(file, line[:len(line) // 2])
                    unwritten[file] = line[len(line) // 2:]
                assert_matches_cold(live)


class TestShardedExecution:
    def test_union_of_shards_equals_unsharded_on_every_summary_key(self, tmp_path):
        specs = tiny_specs(("ecmp", "contra", "hula"))
        unsharded = run_grid(specs, processes=1)
        for index in range(2):
            run_grid(specs, backend=ShardedBackend(ResultsStore(tmp_path, index, 2)))
        merged = collect_results(specs, ResultsStore(tmp_path))
        assert [r.name for r in merged] == [s.name for s in specs]
        for grid_result, merged_result in zip(unsharded, merged):
            assert merged_result.summary == grid_result.summary
            assert merged_result == grid_result

    def test_shard_assignment_is_round_robin_and_disjoint(self, tmp_path):
        specs = tiny_specs(("ecmp", "contra", "hula"))
        backends = [ShardedBackend(ResultsStore(tmp_path, index, 2))
                    for index in range(2)]
        first = backends[0].run(specs)
        second = backends[1].run(specs)
        assert [r.name for r in first] == [specs[0].name, specs[2].name]
        assert [r.name for r in second] == [specs[1].name]
        assert backends[0].assigned == 2 and backends[1].assigned == 1

    def test_resume_skips_completed_points(self, tmp_path):
        specs = tiny_specs()
        first_backend = ShardedBackend(ResultsStore(tmp_path))
        first = first_backend.run(specs)
        assert first_backend.executed == 2
        second_backend = ShardedBackend(ResultsStore(tmp_path))
        second = second_backend.run(specs)
        assert second_backend.executed == 0
        assert second_backend.skipped == 2
        assert second == first

    def test_pool_inner_records_in_worker_point_walls(self, tmp_path):
        """With a pool inner, per-point wall_s is measured in the worker —
        every record carries a positive compute cost, not arrival gaps
        (which would be ~0 for all but the first point of a chunk)."""
        from repro.experiments.runner import PoolBackend
        specs = tiny_specs(("ecmp", "hula", "contra"))
        store = ResultsStore(tmp_path)
        ShardedBackend(store, inner=PoolBackend(2)).run(specs)
        walls = [record.get("point_wall_s")
                 for _, record, _ in store._validated()]
        assert len(walls) == 3
        assert all(wall is not None and wall > 0 for wall in walls)

    def test_interrupted_shard_persists_completed_points(self, tmp_path):
        """Records stream into the store per point, so a crash loses only
        the in-flight point and resume picks up from the last finished one."""
        from repro.experiments.runner import SerialBackend

        class DiesAfterOne(SerialBackend):
            def run_iter_timed(self, inner_specs):
                results = super().run_iter_timed(inner_specs)
                yield next(results)
                raise KeyboardInterrupt("simulated crash")

        specs = tiny_specs(("ecmp", "hula", "contra"))
        with pytest.raises(KeyboardInterrupt):
            ShardedBackend(ResultsStore(tmp_path), inner=DiesAfterOne()).run(specs)
        assert len(ResultsStore(tmp_path).load()) == 1
        backend = ShardedBackend(ResultsStore(tmp_path))
        backend.run(specs)
        assert backend.skipped == 1 and backend.executed == 2

    def test_partial_store_merge_raises_naming_missing(self, tmp_path):
        specs = tiny_specs(("ecmp", "contra", "hula"))
        run_grid(specs, backend=ShardedBackend(ResultsStore(tmp_path, 0, 2)))
        with pytest.raises(ExperimentError, match="missing"):
            collect_results(specs, ResultsStore(tmp_path))


MICRO = ExperimentConfig(workload_duration=1.5, run_duration=20.0, loads=(0.4,),
                         websearch_scale=0.05, cache_scale=0.2)


class TestScenarioShardingByteIdentity:
    def test_fig11_shards_merge_byte_identical_to_unsharded(self, tmp_path):
        """The acceptance contract: shard 0/2 + shard 1/2 + merge == unsharded."""
        unsharded = run_scenario("fig11", MICRO)
        for index in range(2):
            outcome = run_scenario_shard("fig11", MICRO, tmp_path, index, 2)
            assert outcome.executed == 3 and outcome.skipped == 0
        merged = merge_scenario("fig11", MICRO, tmp_path)
        assert merged.text == unsharded.text
        assert json.dumps(merged.payload, sort_keys=True) == \
            json.dumps(unsharded.payload, sort_keys=True)

    def test_resumed_scenario_run_is_identical(self, tmp_path):
        first = run_scenario("fig13", TINY, results_dir=str(tmp_path))
        resumed = run_scenario("fig13", TINY, results_dir=str(tmp_path))
        assert resumed.text == first.text
        assert json.dumps(resumed.payload, sort_keys=True) == \
            json.dumps(first.payload, sort_keys=True)

    def test_shard_resume_reports_skips(self, tmp_path):
        first = run_scenario_shard("fig13", TINY, tmp_path, 0, 2)
        again = run_scenario_shard("fig13", TINY, tmp_path, 0, 2)
        assert first.executed == 1
        assert again.executed == 0 and again.skipped == 1

    def test_legacy_scenarios_reject_results_dir(self, tmp_path):
        with pytest.raises(ExperimentError, match="not a single spec grid"):
            run_scenario("fig9-10", TINY, results_dir=str(tmp_path))
        with pytest.raises(ExperimentError, match="not a single spec grid"):
            run_scenario_shard("fig9-10", TINY, tmp_path, 0, 2)

    def test_merge_on_empty_store_raises(self, tmp_path):
        with pytest.raises(ExperimentError, match="missing"):
            merge_scenario("fig11", MICRO, tmp_path)

    def test_every_single_grid_scenario_is_shardable(self):
        grid_scenarios = {name for name, entry in SCENARIOS.items()
                          if isinstance(entry, GridScenario)}
        assert {"fig11", "fig11-k8", "fig11-k16", "fig12", "fig13", "fig14",
                "fig15", "fig16", "incast", "multi-failure", "recovery-sweep",
                "recovery-curve", "transport-sensitivity",
                "flow-size-sensitivity"} <= grid_scenarios


class TestCliSharding:
    def test_shard_requires_results_dir(self):
        from repro import cli
        with pytest.raises(SystemExit, match="results-dir"):
            cli.main(["run-grid", "fig11", "--shard", "0/2"])

    def test_bad_shard_selector_rejected(self, tmp_path):
        from repro import cli
        with pytest.raises(SystemExit, match="shard"):
            cli.main(["run-grid", "fig11", "--shard", "2/2",
                      "--results-dir", str(tmp_path)])

    def test_json_with_partial_shard_rejected(self, tmp_path):
        from repro import cli
        with pytest.raises(SystemExit, match="merge-results"):
            cli.main(["run-grid", "fig11", "--shard", "0/2",
                      "--results-dir", str(tmp_path),
                      "--json", str(tmp_path / "out.json")])

    def test_results_dir_rejected_for_legacy_scenario(self, tmp_path):
        from repro import cli
        with pytest.raises(SystemExit, match="shardable"):
            cli.main(["run-grid", "fig9-10", "--results-dir", str(tmp_path)])

    def test_merge_results_requires_existing_dir(self, tmp_path):
        from repro import cli
        with pytest.raises(SystemExit, match="does not exist"):
            cli.main(["merge-results", "fig11",
                      "--results-dir", str(tmp_path / "nope")])

    def test_cli_shard_merge_end_to_end(self, tmp_path, capsys, monkeypatch):
        """Drive the full CLI path on a tiny grid via a patched registry entry."""
        from repro import cli
        from repro.experiments import registry

        def tiny_build(config):
            return tiny_specs()

        def tiny_finish(config, results):
            return registry.ScenarioOutcome(
                "fig13", json.dumps([r.summary for r in results], sort_keys=True),
                [r.summary for r in results])

        monkeypatch.setitem(registry.SCENARIOS, "fig13",
                            GridScenario(tiny_build, tiny_finish))
        store_dir = tmp_path / "store"
        assert cli.main(["run-grid", "fig13", "--shard", "0/2",
                         "--results-dir", str(store_dir)]) == 0
        assert cli.main(["run-grid", "fig13", "--shard", "1/2",
                         "--results-dir", str(store_dir)]) == 0
        capsys.readouterr()
        merged_json = tmp_path / "merged.json"
        bench = tmp_path / "BENCH_fig13_sharded.json"
        assert cli.main(["merge-results", "fig13",
                         "--results-dir", str(store_dir),
                         "--json", str(merged_json),
                         "--bench-artifact", str(bench)]) == 0
        merged_text = capsys.readouterr().out.splitlines()[0]

        unsharded_json = tmp_path / "unsharded.json"
        assert cli.main(["run-grid", "fig13", "--json", str(unsharded_json)]) == 0
        unsharded_text = capsys.readouterr().out.splitlines()[0]

        assert merged_text == unsharded_text
        assert merged_json.read_bytes() == unsharded_json.read_bytes()
        artifact = json.loads(bench.read_text())
        assert artifact["benchmark"] == "fig13_sharded"
        assert artifact["shards"] == 2
        assert artifact["wall_s"] > 0

        # A later 0/1 pass over the same store skips everything, writing no
        # new records — the wall-clock sum (one addend per actual execution)
        # is unchanged by the extra layout.
        assert cli.main(["run-grid", "fig13", "--shard", "0/1",
                         "--results-dir", str(store_dir)]) == 0
        shard_line = capsys.readouterr().out.splitlines()[0]
        assert "0 executed, 2 already complete" in shard_line
        assert cli.main(["merge-results", "fig13",
                         "--results-dir", str(store_dir),
                         "--bench-artifact", str(bench)]) == 0
        assert json.loads(bench.read_text())["wall_s"] == artifact["wall_s"]


@pytest.mark.slow
class TestFig11K16:
    def test_fig11_k16_runs_to_completion_via_shards(self, tmp_path):
        """The k=16 fabric (320 switches, 1024 hosts) as two merged shards.

        The micro config coarsens the probe period and shortens the run so
        the point of the test — the sweep *executes and merges* at k=16 —
        stays affordable; fidelity at k=16 is the full preset's job.
        """
        micro = ExperimentConfig(workload_duration=0.3, run_duration=5.0,
                                 loads=(0.2,), websearch_scale=0.03,
                                 cache_scale=0.1, probe_period=2.048,
                                 flowlet_timeout=4.0, warmup=2.5)
        for index in range(2):
            outcome = run_scenario_shard("fig11-k16", micro, tmp_path, index, 2)
            assert outcome.assigned == 3 and outcome.executed == 3
        merged = merge_scenario("fig11-k16", micro, tmp_path)
        assert "k=16" in merged.text
        # 2 workloads x 1 load x 3 systems, every point completed flows.
        assert len(merged.payload) == 6
        for row in merged.payload:
            assert row["completed"] > 0
