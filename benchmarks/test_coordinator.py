"""Straggler-skewed sweep benchmark: static 2-shard split vs 2 coordinated workers.

The grid is deliberately skewed: two expensive Contra points sit at *even*
spec positions, so the static round-robin split (``--shard i/2``: the drain
of ``specs[i::2]``) hands **both** of them to shard 0 while shard 1 draws
only the near-free ECMP points and then idles — the straggler pathology
that draining the whole grid with work stealing fixes.  Draining the same
grid coordinated, the second worker finishes the cheap group and then
*steals* the straggler group's remaining point, so wall-clock drops from
``2 × C`` (the straggler shard's serialized cost) to ``≈ C`` plus the cheap
remainder and one extra policy compile — the predicted ~1.9× against the
asserted ≥1.5× bound.

Point costs are *injected*: each point runs the real simulator (tiny
config — the records are genuine, and both stores are checked to hold the
identical grid) and is then padded to its nominal cost with a sleep.  A
sleep is scheduler-bound, not CPU-bound, so the measured speedup reflects
the coordinator's claim/steal behavior — what this benchmark tracks — and
not how many cores the runner happens to have: two CPU-bound straggler
simulations on a small runner would contend with each other and bury the
scheduling signal in machine-size noise.  The padding also makes the
``BENCH_*.json`` wall-clock essentially deterministic, so the cross-commit
``bench_diff`` trajectory isolates regressions in the coordinator's own
overhead (lease I/O, claim scans, poll loops).

A second benchmark prices that overhead directly: a stub backend that
returns canned results leaves nothing in a drain but claim scans, lease
files and record appends, and draining 180 and then 1 440
such points shows whether the per-point cost depends on the size of the grid
(it did: every claim re-parsed the whole store and probed one lease file per
pending point, 7× from 180 to 1 440 points).
"""

from __future__ import annotations

import multiprocessing
import time

from repro.experiments import coordinator, results
from repro.experiments.config import ExperimentConfig
from repro.experiments.coordinator import CoordinatedBackend
from repro.experiments.results import ResultsStore
from repro.experiments.runner import (
    ExecutionBackend,
    RunContext,
    RunResult,
    ScenarioSpec,
    SerialBackend,
    TopologySpec,
)

from conftest import run_once, write_bench_artifact

TINY = ExperimentConfig(workload_duration=1.5, run_duration=20.0, loads=(0.4,),
                        websearch_scale=0.05, cache_scale=0.2)

#: Nominal per-point cost padding (seconds): the Contra points are the
#: stragglers, the ECMP points are near-free filler.
PAD_S = {"contra": 3.0, "ecmp": 0.05}


def _topology() -> TopologySpec:
    return TopologySpec("fattree", k=4, capacity=TINY.host_capacity,
                        oversubscription=TINY.oversubscription)


def straggler_specs() -> list:
    """Four points, the expensive ones at even positions.

    Round-robin 2-sharding assigns positions 0 and 2 — both Contra
    stragglers — to shard 0, and the two cheap ECMP points to shard 1.
    """
    expensive = [
        ScenarioSpec(name=f"straggler:contra-{seed}", system="contra",
                     topology=_topology(), config=TINY,
                     workload="web_search", load=0.4, seed=seed,
                     stop_after_completion=True)
        for seed in (1, 2)
    ]
    cheap = [
        ScenarioSpec(name=f"straggler:ecmp-{seed}", system="ecmp",
                     topology=_topology(), config=TINY,
                     workload="web_search", load=0.4, seed=seed,
                     stop_after_completion=True)
        for seed in (1, 2)
    ]
    return [expensive[0], cheap[0], expensive[1], cheap[1]]


class PaddedSerialBackend(SerialBackend):
    """Real simulation results, padded to each point's nominal cost."""

    def run_iter_timed(self, specs):
        for spec, (result, wall_s) in zip(specs, super().run_iter_timed(specs)):
            pad = PAD_S[spec.system]
            time.sleep(pad)
            yield result, wall_s + pad


def _static_worker(index: int, specs, directory) -> None:
    CoordinatedBackend(directory, inner=PaddedSerialBackend(RunContext()),
                       owner=f"static-{index}").run(specs[index::2])


def _coordinated_worker(owner: str, specs, directory) -> None:
    CoordinatedBackend(directory, inner=PaddedSerialBackend(RunContext()),
                       owner=owner).drain(specs)


def _run_two(target, jobs) -> float:
    """Fork two workers, wait for both, return the concurrent wall-clock."""
    ctx = multiprocessing.get_context("fork")
    workers = [ctx.Process(target=target, args=args) for args in jobs]
    started = time.perf_counter()
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    wall = time.perf_counter() - started
    for worker in workers:
        assert worker.exitcode == 0, f"worker died with {worker.exitcode}"
    return wall


def _run_straggler_showdown(static_dir, coordinated_dir) -> dict:
    specs = straggler_specs()
    static_wall = _run_two(_static_worker,
                           [(0, specs, static_dir), (1, specs, static_dir)])
    coordinated_wall = _run_two(
        _coordinated_worker,
        [("bench-w0", specs, coordinated_dir),
         ("bench-w1", specs, coordinated_dir)])
    stolen = sum(bool(record.get("stolen"))
                 for _, record, _ in ResultsStore(coordinated_dir).records())
    return {
        "static_wall_s": round(static_wall, 4),
        "coordinated_wall_s": round(coordinated_wall, 4),
        "speedup": round(static_wall / coordinated_wall, 4),
        "stolen": stolen,
    }


def test_coordinated_drain_beats_static_split(benchmark, tmp_path):
    static_dir = tmp_path / "static"
    coordinated_dir = tmp_path / "coordinated"
    outcome = run_once(benchmark, _run_straggler_showdown,
                       static_dir, coordinated_dir)

    # Identity first: both stores hold the identical full grid.
    specs = straggler_specs()
    static_loaded = ResultsStore(static_dir).load()
    coordinated_loaded = ResultsStore(coordinated_dir).load()
    assert set(static_loaded) == set(coordinated_loaded)
    assert len(static_loaded) == len(specs)
    for key, result in static_loaded.items():
        assert coordinated_loaded[key].summary == result.summary

    # The perf claim: dynamic stealing beats the straggler shard by ≥1.5×.
    assert outcome["speedup"] >= 1.5, (
        f"coordinated drain only {outcome['speedup']:.2f}x faster than the "
        f"static split (static {outcome['static_wall_s']:.1f}s, "
        f"coordinated {outcome['coordinated_wall_s']:.1f}s)")

    write_bench_artifact("test_coordinated_drain_beats_static_split",
                         outcome["static_wall_s"] + outcome["coordinated_wall_s"],
                         extra=outcome)
    print(f"\nstatic 2-shard split : {outcome['static_wall_s']:.2f} s")
    print(f"2 coordinated workers: {outcome['coordinated_wall_s']:.2f} s "
          f"({outcome['speedup']:.2f}x, {outcome['stolen']} steal(s))")


class StubBackend(ExecutionBackend):
    """A canned result per spec: the drain's cost is all coordinator."""

    def run(self, specs):
        return [result for result, _ in self.run_iter_timed(specs)]

    def run_iter_timed(self, specs):
        for spec in specs:
            yield RunResult(name=spec.name, system=spec.system,
                            workload=spec.workload, load=spec.load,
                            seed=spec.seed,
                            summary={"avg_fct_ms": 1.25, "flows": 7}), 0.0


def stub_specs(count: int) -> list:
    """``count`` distinct points in two locality groups (ECMP and Hula
    share one: neither compiles)."""
    return [
        ScenarioSpec(name=f"drain-overhead:{system}-{seed}", system=system,
                     topology=_topology(), config=TINY, workload="web_search",
                     load=0.4, seed=seed)
        for system in ("ecmp", "hula", "contra")
        for seed in range(1, count // 3 + 1)
    ]


def _stub_drain(directory, count: int, counts: dict) -> dict:
    """Drain ``count`` stub points with one worker: CPU ms per point, and
    how far the drain moved each of the caller's ``counts``."""
    specs = stub_specs(count)
    before = dict(counts)
    backend = CoordinatedBackend(directory, inner=StubBackend(), owner="bench")
    started = time.process_time()
    backend.drain(specs)
    cpu_s = time.process_time() - started
    assert backend.executed == count
    return {"points": count, "ms_per_point": round(cpu_s * 1e3 / count, 4),
            **{name: counts[name] - before[name] for name in counts}}


def test_drain_overhead_scales_linearly(benchmark, tmp_path, monkeypatch):
    counts = {"records_parsed": 0, "lease_reads": 0}
    decode_result, read_lease = results.decode_result, coordinator.read_lease

    def counting_decode(payload):
        counts["records_parsed"] += 1
        return decode_result(payload)

    def counting_read(*args, **kwargs):
        counts["lease_reads"] += 1
        return read_lease(*args, **kwargs)

    monkeypatch.setattr(results, "decode_result", counting_decode)
    monkeypatch.setattr(coordinator, "read_lease", counting_read)

    def both_sizes() -> list:
        # Best of two per size: the claim is about the code's cost, and the
        # sandbox's neighbours only ever add to a reading.
        return [min((_stub_drain(tmp_path / f"drain-{count}-{attempt}", count,
                                 counts) for attempt in range(2)),
                    key=lambda run: run["ms_per_point"])
                for count in (180, 1440)]

    started = time.perf_counter()
    small, large = benchmark.pedantic(both_sizes, rounds=1, iterations=1)
    wall_s = time.perf_counter() - started

    # Linear work, as counts: each record decoded once, and one lease read
    # per point (release checks the owner) — none from the claim scans.
    for size in (small, large):
        assert size["records_parsed"] == size["points"]
        assert size["lease_reads"] == size["points"]
    ratio = large["ms_per_point"] / small["ms_per_point"]
    assert ratio <= 1.5, (
        f"coordinator overhead grows with the grid: {small['ms_per_point']} "
        f"ms/point at {small['points']} points, {large['ms_per_point']} at "
        f"{large['points']} ({ratio:.2f}x)")

    write_bench_artifact("test_drain_overhead", wall_s,
                         extra={"sizes": [small, large],
                                "ms_per_point_ratio": round(ratio, 4)})
    for size in (small, large):
        print(f"\n{size['points']:>5d} points: {size['ms_per_point']:.3f} "
              f"ms/point, {size['records_parsed']} records parsed, "
              f"{size['lease_reads']} lease reads")
