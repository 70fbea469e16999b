"""Results-store garbage collection: drop stale records, compact shards."""

import json

import pytest

from repro import cli
from repro.exceptions import ExperimentError
from repro.experiments.config import ExperimentConfig
from repro.experiments.registry import (
    gc_scenario,
    merge_scenario,
    run_scenario_coordinated,
)
from repro.experiments.results import ResultsStore, gc_results
from repro.experiments.runner import ScenarioSpec, TopologySpec, spec_hash

TINY = ExperimentConfig(workload_duration=1.5, run_duration=20.0, loads=(0.4,),
                        websearch_scale=0.05, cache_scale=0.2)
#: A config the kept records were NOT produced under (stale spec hashes).
OTHER = ExperimentConfig(workload_duration=1.0, run_duration=15.0, loads=(0.4,),
                         websearch_scale=0.05, cache_scale=0.2)


def spec_for(config, system="ecmp"):
    return ScenarioSpec(
        name=f"gc-test:{system}", system=system,
        topology=TopologySpec("fattree", k=4, capacity=config.host_capacity,
                              oversubscription=config.oversubscription),
        config=config, workload="web_search", load=0.4, seed=config.seed,
        stop_after_completion=True)


def fake_record(spec, summary_value=1.0):
    return {
        "spec_hash": spec_hash(spec),
        "spec_name": spec.name,
        "result": {"name": spec.name, "system": spec.system,
                   "workload": spec.workload, "load": spec.load,
                   "seed": spec.seed, "summary": {"value": summary_value},
                   "queue_cdf": None, "throughput": None},
        "point_wall_s": 0.5,
    }


def write_records(path, records, torn_tail=False):
    with path.open("w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, separators=(",", ":")) + "\n")
        if torn_tail:
            handle.write('{"spec_hash": "deadbeef", "result"')


class TestGcResults:
    def test_drops_stale_dedups_and_compacts(self, tmp_path):
        current = [spec_for(TINY, "ecmp"), spec_for(TINY, "contra")]
        stale = spec_for(OTHER, "ecmp")
        write_records(tmp_path / "results-shard0of2.jsonl",
                      [fake_record(current[0]), fake_record(stale)])
        write_records(tmp_path / "results-shard1of2.jsonl",
                      [fake_record(current[1]), fake_record(current[0])],
                      torn_tail=True)
        (tmp_path / "shard0of2.meta.json").write_text("{}\n")

        summary = gc_results(current, tmp_path)
        assert summary == {"total_records": 4, "kept": 2, "dropped_stale": 1,
                           "dropped_duplicates": 1, "missing": 0,
                           "leases_removed": 0, "leases_live": 0}
        files = sorted(p.name for p in tmp_path.iterdir())
        assert files == ["results-shard0of1.jsonl"]    # metas + old shards gone
        # Kept records preserved byte-for-byte (incl. wall-clock), spec order.
        store = ResultsStore(tmp_path)
        assert store.total_wall_s() == 1.0
        loaded = store.load()
        assert set(loaded) == {spec_hash(spec) for spec in current}

    def test_conflicting_duplicates_raise(self, tmp_path):
        spec = spec_for(TINY)
        write_records(tmp_path / "results-shard0of1.jsonl",
                      [fake_record(spec, 1.0), fake_record(spec, 2.0)])
        with pytest.raises(ExperimentError, match="conflicting"):
            gc_results([spec], tmp_path)

    def test_gc_then_merge_is_byte_identical(self, tmp_path):
        for index in range(2):
            run_scenario_coordinated("fig13", TINY, tmp_path, shard=(index, 2))
        before = merge_scenario("fig13", TINY, tmp_path)
        # Pollute with a record no current spec owns, then GC.
        write_records(tmp_path / "results-stale.jsonl",
                      [fake_record(spec_for(OTHER))])
        summary = gc_scenario("fig13", TINY, tmp_path)
        assert summary["dropped_stale"] == 1 and summary["missing"] == 0
        after = merge_scenario("fig13", TINY, tmp_path)
        assert after.text == before.text
        assert after.payload == before.payload

    def test_gc_reports_missing_points(self, tmp_path):
        specs = [spec_for(TINY, "ecmp"), spec_for(TINY, "contra")]
        write_records(tmp_path / "results-shard0of1.jsonl",
                      [fake_record(specs[0])])
        summary = gc_results(specs, tmp_path)
        assert summary["missing"] == 1

    def test_gc_removes_orphaned_and_stale_leases_keeps_live(self, tmp_path):
        from repro.experiments.coordinator import try_acquire_lease

        done, pending = spec_for(TINY, "ecmp"), spec_for(TINY, "contra")
        write_records(tmp_path / "results-shard0of1.jsonl",
                      [fake_record(done)])
        # Orphaned: its point is already recorded.  Live: pending point,
        # fresh heartbeat — a drain is presumably still executing it.
        try_acquire_lease(tmp_path, spec_hash(done), "dead")
        try_acquire_lease(tmp_path, spec_hash(pending), "busy")
        summary = gc_results([done, pending], tmp_path)
        assert summary["leases_removed"] == 1
        assert summary["leases_live"] == 1
        leases = sorted(p.name for p in tmp_path.glob("lease-*"))
        assert leases == [f"lease-{spec_hash(pending)}.json"]

    def test_gc_sweeps_worker_metas_and_lease_debris(self, tmp_path):
        spec = spec_for(TINY)
        write_records(tmp_path / "results-worker-w0.jsonl", [fake_record(spec)])
        (tmp_path / "worker-w0.meta.json").write_text("{}\n")
        (tmp_path / f"lease-{spec_hash(spec)}.json.w1.tmp").write_text("{}")
        summary = gc_results([spec], tmp_path)
        assert summary["kept"] == 1
        files = sorted(p.name for p in tmp_path.iterdir())
        assert files == ["results-shard0of1.jsonl"]


class TestGcCli:
    def test_cli_gc_results(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        store_dir.mkdir()
        spec = spec_for(TINY)
        write_records(store_dir / "results-shard0of1.jsonl", [fake_record(spec)])
        # fig13's quick-preset grid differs from TINY's specs: everything in
        # the store is stale under the CLI's preset and gets dropped.
        assert cli.main(["gc-results", "fig13", "--results-dir",
                         str(store_dir)]) == 0
        out = capsys.readouterr().out
        assert "kept 0 of 1" in out and "1 stale" in out

    def test_cli_rejects_missing_directory(self, tmp_path):
        with pytest.raises(SystemExit, match="does not exist"):
            cli.main(["gc-results", "fig13", "--results-dir",
                      str(tmp_path / "absent")])

    def test_cli_rejects_non_grid_scenario(self, tmp_path):
        store_dir = tmp_path / "store"
        store_dir.mkdir()
        with pytest.raises(SystemExit, match="not a single spec grid"):
            cli.main(["gc-results", "fig9-10", "--results-dir", str(store_dir)])
