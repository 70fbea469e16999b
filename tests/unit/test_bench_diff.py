"""Unit tests for the benchmark wall-clock regression diff tool."""

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[2] / "benchmarks"
sys.path.insert(0, str(BENCH_DIR))

import bench_diff  # noqa: E402  (path set up above)


def write_artifact(directory: Path, name: str, wall_s: float) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    (directory / f"BENCH_{name}.json").write_text(
        json.dumps({"benchmark": name, "wall_s": wall_s, "preset": "quick"}))


class TestLoadArtifacts:
    def test_loads_directory_keyed_by_benchmark_name(self, tmp_path):
        write_artifact(tmp_path, "fig11", 2.5)
        write_artifact(tmp_path, "fig14", 1.0)
        artifacts = bench_diff.load_artifacts(tmp_path)
        assert set(artifacts) == {"fig11", "fig14"}
        assert artifacts["fig11"]["wall_s"] == 2.5

    def test_loads_single_file(self, tmp_path):
        write_artifact(tmp_path, "fig11", 2.5)
        artifacts = bench_diff.load_artifacts(tmp_path / "BENCH_fig11.json")
        assert set(artifacts) == {"fig11"}

    def test_skips_malformed_and_non_wall_clock_files(self, tmp_path):
        write_artifact(tmp_path, "good", 1.0)
        (tmp_path / "BENCH_broken.json").write_text("{not json")
        (tmp_path / "BENCH_pytest_benchmark.json").write_text(
            json.dumps({"machine_info": {}}))
        assert set(bench_diff.load_artifacts(tmp_path)) == {"good"}


    def test_two_files_claiming_one_name_are_refused(self, tmp_path):
        """Keeping either file would silently drop the other's trajectory."""
        write_artifact(tmp_path, "fig11_sharded", 2.0)
        (tmp_path / "BENCH_fig11_coordinated.json").write_text(
            json.dumps({"benchmark": "fig11_sharded", "wall_s": 3.0}))
        with pytest.raises(ValueError) as excinfo:
            bench_diff.load_artifacts(tmp_path)
        message = str(excinfo.value)
        assert "BENCH_fig11_coordinated.json" in message
        assert "BENCH_fig11_sharded.json" in message
        assert "'fig11_sharded'" in message

    def test_distinct_names_side_by_side_both_load(self, tmp_path):
        write_artifact(tmp_path, "fig11_sharded", 2.0)
        write_artifact(tmp_path, "fig11_coordinated", 3.0)
        assert set(bench_diff.load_artifacts(tmp_path)) == {
            "fig11_sharded", "fig11_coordinated"}


class TestDiffSemantics:
    def test_within_threshold_is_ok(self):
        deltas = bench_diff.diff_artifacts(
            {"a": {"wall_s": 10.0}}, {"a": {"wall_s": 10.9}}, threshold=0.10)
        assert deltas[0].status == "ok" and not deltas[0].regressed

    def test_above_threshold_regresses(self):
        deltas = bench_diff.diff_artifacts(
            {"a": {"wall_s": 10.0}}, {"a": {"wall_s": 11.5}}, threshold=0.10)
        assert deltas[0].regressed and deltas[0].status == "REGRESSED"

    def test_new_and_removed_benchmarks_never_fail(self):
        deltas = bench_diff.diff_artifacts(
            {"old": {"wall_s": 5.0}}, {"new": {"wall_s": 5.0}})
        statuses = {d.name: d.status for d in deltas}
        assert statuses == {"old": "removed", "new": "new"}
        assert not any(d.regressed for d in deltas)

    def test_improvement_labelled(self):
        deltas = bench_diff.diff_artifacts(
            {"a": {"wall_s": 10.0}}, {"a": {"wall_s": 5.0}})
        assert deltas[0].status == "improved"


class TestMainExitCodes:
    def test_exit_zero_when_no_regression(self, tmp_path, capsys):
        write_artifact(tmp_path / "base", "fig11", 10.0)
        write_artifact(tmp_path / "cur", "fig11", 10.5)
        code = bench_diff.main([str(tmp_path / "base"), str(tmp_path / "cur")])
        assert code == 0
        assert "OK" in capsys.readouterr().out

    def test_exit_nonzero_on_regression(self, tmp_path, capsys):
        write_artifact(tmp_path / "base", "fig11", 10.0)
        write_artifact(tmp_path / "cur", "fig11", 12.0)
        code = bench_diff.main([str(tmp_path / "base"), str(tmp_path / "cur")])
        assert code == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_missing_baseline_is_skipped_not_failed(self, tmp_path):
        write_artifact(tmp_path / "cur", "fig11", 1.0)
        (tmp_path / "base").mkdir()
        assert bench_diff.main([str(tmp_path / "base"), str(tmp_path / "cur")]) == 0

    def test_missing_current_is_an_error(self, tmp_path):
        write_artifact(tmp_path / "base", "fig11", 1.0)
        (tmp_path / "cur").mkdir()
        assert bench_diff.main([str(tmp_path / "base"), str(tmp_path / "cur")]) == 2

    def test_duplicate_benchmark_name_is_an_error(self, tmp_path, capsys):
        write_artifact(tmp_path / "base", "fig11", 1.0)
        write_artifact(tmp_path / "cur", "fig11", 1.0)
        (tmp_path / "cur" / "BENCH_fig11_copy.json").write_text(
            json.dumps({"benchmark": "fig11", "wall_s": 1.0}))
        assert bench_diff.main([str(tmp_path / "base"), str(tmp_path / "cur")]) == 2
        assert "both claim benchmark 'fig11'" in capsys.readouterr().err

    def test_custom_threshold(self, tmp_path):
        write_artifact(tmp_path / "base", "fig11", 10.0)
        write_artifact(tmp_path / "cur", "fig11", 12.0)
        assert bench_diff.main([str(tmp_path / "base"), str(tmp_path / "cur"),
                                "--threshold", "0.5"]) == 0
