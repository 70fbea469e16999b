"""Self-test of the benchmark harness (collected by ``pytest benchmarks``, < 60 s).

Guards the three things a later PR can silently break: the file -> layer map
(a new module under ``src/repro`` must be assigned before it is profiled), the
verdict logic of ``compare.py``, and the agreement between ``BENCHMARK.json``,
the metric table and what ``run.py`` actually prints.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import run
from perf_layers import LAYER_FILES, LAYERS, file_layers
from perf_metrics import BY_NAME, END_TO_END, PER_LAYER, Metric, benchmark_json_entries

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------- layer map

def test_every_source_file_maps_to_exactly_one_layer():
    package = ROOT / "src" / "repro"
    on_disk = {str(path.relative_to(package)) for path in package.rglob("*.py")}
    mapped = file_layers()              # raises on a file listed under two layers
    assert sum(len(files) for files in LAYER_FILES.values()) == len(mapped)
    assert set(mapped) == on_disk, (
        f"unmapped: {sorted(on_disk - set(mapped))}; stale: {sorted(set(mapped) - on_disk)} "
        f"— assign every module to a layer in benchmarks/perf/perf_layers.py")
    assert set(mapped.values()) | {"external"} == set(LAYERS)


# ------------------------------------------------------------ compare verdicts

TIME = Metric("wall_s", "s", "lower", 0.10)
RATE = Metric("work_per_cpu_s", "unit/s", "higher", 0.10)
COUNT = Metric("events", "count", "lower", None, True)
SIM = Metric("sim_avg_fct_ms", "ms", "lower", 0.01, True)
INFO = Metric("layer.self_s", "s", "lower")


def entry(*samples):
    return {"value": compare.statistics.median(samples), "samples": list(samples)}


def test_spread_is_iqr_from_four_samples_and_range_below():
    assert compare.spread([10.0]) == 0.0
    assert compare.spread([9.0, 10.0, 11.0]) == pytest.approx(0.2)
    # One outlier among eight barely moves the quartiles.
    assert compare.spread([10, 10, 10, 10, 10, 10, 10, 30]) < 0.1


def test_worse_by_respects_direction_and_zero_base():
    assert compare.worse_by(TIME, 10.0, 12.0) == pytest.approx(0.2)
    assert compare.worse_by(RATE, 10.0, 12.0) == pytest.approx(-0.2)
    assert compare.worse_by(TIME, 0.0, 0.0) == 0.0
    assert compare.worse_by(TIME, 0.0, 1.0) == float("inf")


def test_bounded_metric_verdicts():
    assert compare.verdict(TIME, entry(10.0, 10.1, 10.2), entry(10.3, 10.4, 10.5)) == "ok"
    assert compare.verdict(TIME, entry(10.0, 10.1, 10.2), entry(11.5, 11.6, 11.7)) == "REGRESSED"
    assert compare.verdict(TIME, entry(10.0, 10.1, 10.2), entry(8.0, 8.1, 8.2)) == "improved"
    assert compare.verdict(RATE, entry(100.0, 101.0, 102.0), entry(80.0, 81.0, 82.0)) == "REGRESSED"


def test_wide_spread_is_unresolved_unless_the_sides_separate():
    noisy = entry(8.0, 10.0, 12.0)                       # spread 0.4 > bound
    assert compare.verdict(TIME, noisy, entry(10.0, 10.1, 10.2)) == "unresolved"
    assert compare.verdict(TIME, entry(10.0, 10.1, 10.2), noisy) == "unresolved"
    # Every candidate sample is slower than every base sample: resolved.
    assert compare.verdict(TIME, noisy, entry(14.0, 16.0, 19.0)) == "REGRESSED"
    assert compare.verdict(TIME, noisy, entry(5.0, 6.0, 7.5)) == "improved"


def test_exact_metrics_have_zero_tolerance():
    assert compare.verdict(COUNT, entry(1000), entry(1000)) == "same"
    assert compare.verdict(COUNT, entry(1000), entry(1001)) == "behaviour changed"
    assert compare.verdict(SIM, entry(2.0), entry(2.001)) == "behaviour changed"
    assert compare.verdict(SIM, entry(2.0), entry(2.5)) == "REGRESSED, behaviour changed"
    assert compare.verdict(INFO, entry(1.0), entry(5.0)) == "info"


# ------------------------------------------------------------- BENCHMARK.json

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_benchmark_json_matches_the_metric_table_and_the_contract():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert BENCHMARK["command"] == ["python3", "benchmarks/perf/run.py"]
    assert BENCHMARK["paths"] == ["benchmarks/perf"]
    assert BENCHMARK["run_seconds"] == run.RUN_SECONDS
    entries = benchmark_json_entries()
    assert BENCHMARK["end_to_end"] == entries["end_to_end"]
    assert BENCHMARK["per_layer"] == entries["per_layer"]
    assert len(BY_NAME) == len(END_TO_END) + len(PER_LAYER)      # every name used once
    assert 1 <= len(END_TO_END) <= 16 and 1 <= len(PER_LAYER) <= 128
    for metric in END_TO_END + PER_LAYER:
        assert NAME.fullmatch(metric.name) and UNIT.fullmatch(metric.unit), metric
        assert metric.better in ("lower", "higher")
    assert all(0 < metric.bound <= 0.25 for metric in END_TO_END)
    setup = BY_NAME["setup_s"]
    assert (setup.unit, setup.better) == ("s", "lower")
    assert setup.bound == max(metric.bound for metric in END_TO_END)


def test_benchmark_json_workloads_are_the_harness_workloads():
    from perf_workloads import WORKLOADS
    listed = {entry["name"]: entry["why"] for entry in BENCHMARK["workloads"]}
    assert tuple(listed) == run.WORKLOAD_NAMES == tuple(WORKLOADS)
    for name, why in listed.items():
        assert NAME.fullmatch(name) and why == WORKLOADS[name].why
        assert len(why) <= 200 and "\n" not in why


# ------------------------------------------------------------------ smoke run

def test_smoke_run_emits_every_metric_with_its_unit(tmp_path):
    out = tmp_path / "smoke.json"
    done = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out)],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    document = json.loads(out.read_text())
    assert document["comparable"] is False
    assert tuple(document["workloads"]) == run.WORKLOAD_NAMES
    for workload, record in document["workloads"].items():
        assert not record["failures"], (workload, record["failures"])
        assert re.fullmatch(r"[0-9a-f]{64}", record["digest"])
        for kind, metrics in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
            assert list(record[kind]) == [metric.name for metric in metrics]
            for metric in metrics:
                assert record[kind][metric.name]["unit"] == metric.unit
                assert record[kind][metric.name]["value"] == record[kind][metric.name]["value"]
        assert all(record["end_to_end"][metric.name]["value"] > 0 for metric in END_TO_END)
        assert (tmp_path / f"trace-{workload}.json").exists()
    # The driver's line: the last line of stdout is the last run's JSON object.
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] >= 1 and line["failed"] == 0
    assert list(line["metrics"]) == [metric.name for metric in PER_LAYER]
    # A smoke result is refused by compare.py.
    assert compare.main([str(out), str(out)]) == 2
