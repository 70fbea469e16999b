#!/usr/bin/env python3
"""The repo's benchmark: six workloads, end-to-end metrics and a traced per-layer ledger.

    python3 benchmarks/perf/run.py [--workload NAME ...] [--seed 1] [--seconds 10]
                                   [--trace 0|1] [--smoke] [--out FILE]

With one ``--workload`` and a ``--trace`` value this is the driver contract of
``BENCHMARK.json``: the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (every end-to-end metric with
``--trace 0``, every per-layer metric with ``--trace 1``).  Without them it
runs every workload both ways, prints every metric by name with its unit, and
``--out`` keeps the samples for ``compare.py``.  Exit status is 1 when a
correctness oracle fails.  README.md has the protocol and the metric tables.

Run protocol.  Every measurement happens in a fresh child process
(``PYTHONHASHSEED=0``, one working thread, pinned to one CPU), one at a time.
Untraced: three children, each reporting the CPU time of its set-up (import,
spec grid, pre-warm) and then iterating the workload for a third of
``--seconds``: fresh ``RunContext``, untimed pre-warm, ``gc.collect()``, timed
region, oracles.  Metrics are medians over the pooled iterations (set-up and
RSS: over the children).  Traced: one child runs untraced iterations for the
phase timings and unit costs, then one more under ``cProfile`` for per-layer
self time and call counts.

Clock.  The sandbox is a few virtual CPUs of a shared host: the host takes the
CPU away for milliseconds at a time (wall time doubles, the thread's CPU time
does not) and the core's own speed drifts from second to second with what the
neighbours run.  So the bounded host-time metrics are read on the measuring
thread's CPU clock and divided by a speed index: while the thread works, a
sampler thread times a fixed 1.4 ms reference loop every 50 ms, and the index
is ``REFERENCE_S`` over the mean of those readings.  Wall time stays in the
per-layer ledger.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import itertools
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SOURCE = ROOT / "src"

sys.path.insert(0, str(HERE))

from perf_layers import LAYERS, bucket_profile       # noqa: E402
from perf_metrics import END_TO_END, PER_LAYER       # noqa: E402

#: Default ``--seconds``; equals ``run_seconds`` in BENCHMARK.json.
RUN_SECONDS = 10
#: Untraced child processes per run (each one is a set-up sample).
CHILDREN = 3
#: A child that has not finished by then is killed and the run fails.
CHILD_TIMEOUT_S = 170
#: CPU seconds one ``_reference_loop`` takes on the 2-core sandbox when nothing
#: else runs.  A constant of the benchmark, not a tunable: it only fixes the
#: scale on which ``work_per_cpu_s`` and ``setup_s`` are reported.
REFERENCE_S = 0.00145

#: Spelled out (the self-test keeps it equal to ``perf_workloads.WORKLOADS``) so
#: that the parent parses arguments without importing ``repro``.
WORKLOAD_NAMES = ("dc-fct", "k16-micro", "wan-failover", "fluid-churn",
                  "compile-scale", "sweep-drain")


# --------------------------------------------------------------------- spans

class Span:
    __slots__ = ("id", "parent", "name", "detail", "start", "end")

    def __init__(self, id: int, parent: Optional[int], name: str, detail: str):
        self.id, self.parent, self.name, self.detail = id, parent, name, detail
        self.start = time.perf_counter()
        self.end = self.start

    @property
    def duration(self) -> float:
        return self.end - self.start


class Spans:
    """Driver-level spans (process -> set-up / iteration -> point / phase), kept in memory."""

    def __init__(self) -> None:
        self.rows: List[Span] = []
        self._open: List[Span] = []

    @contextmanager
    def span(self, name: str, detail: str = ""):
        span = Span(len(self.rows), self._open[-1].id if self._open else None, name, detail)
        self.rows.append(span)
        self._open.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def child_total(self, parent: Span, name: str) -> float:
        return sum(span.duration for span in self.rows
                   if span.parent == parent.id and span.name == name)

    def as_rows(self) -> List[dict]:
        origin = self.rows[0].start if self.rows else 0.0
        return [{"id": span.id, "parent": span.parent, "name": span.name,
                 "detail": span.detail, "start_s": span.start - origin,
                 "end_s": span.end - origin} for span in self.rows]


# --------------------------------------------------------------------- child

def _reference_loop() -> None:
    """Interpreter dispatch and small-int arithmetic only: no allocation, no memory."""
    x = 0
    for _ in itertools.repeat(None, 40_000):
        x = (x * 5 + 1) & 255


class SpeedSampler(threading.Thread):
    """Reads how fast the CPU runs while the main thread works: ``with SpeedSampler() as s``.

    Every ``PERIOD_S`` it times the reference loop on its own CPU clock (so time
    taken by the host, or spent waiting for the GIL, is not in the reading).
    ``index`` is 1.0 at the quiet sandbox's speed and 0.5 at half of it; the mean
    of the readings, because the CPU seconds it corrects are a sum over the same
    stretch of time.  The main thread pays for it in wall time (3 %), not in the
    CPU time of its own clock.
    """

    PERIOD_S = 0.05

    def __init__(self) -> None:
        super().__init__(daemon=True)
        self._done = threading.Event()
        self.readings: List[float] = []

    def run(self) -> None:
        while True:
            started = time.thread_time()
            _reference_loop()
            self.readings.append(time.thread_time() - started)
            if self._done.wait(self.PERIOD_S):
                break

    def __enter__(self) -> "SpeedSampler":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self._done.set()
        self.join()

    @property
    def index(self) -> float:
        return REFERENCE_S / statistics.fmean(self.readings)


def _iterate(workload, spans: Spans, specs_span: Span, prewarm: Span, state,
             profiler: Optional[cProfile.Profile] = None) -> dict:
    """One timed iteration plus its (untimed) oracles and counters."""
    gc.collect()
    with spans.span("iteration"), SpeedSampler() as sampler:
        cpu_started = time.thread_time()
        started = time.perf_counter()
        if profiler is not None:
            profiler.enable()
        out = workload.run(state, spans)
        if profiler is not None:
            profiler.disable()
        wall_s = time.perf_counter() - started
        cpu_s = time.thread_time() - cpu_started
    with spans.span("check"):
        failures = workload.check(state, out)
        values = workload.measure(state, out, wall_s)
    values.setdefault("topology.build_s", spans.child_total(prewarm, "topology.build"))
    values.setdefault("core.compile_s", spans.child_total(prewarm, "core.compile"))
    values["experiments.runner.specs_s"] = specs_span.duration
    return {"wall_s": wall_s, "cpu_s": cpu_s, "speed": sampler.index, "work": values.pop("work"),
            "ops": workload.ops(), "failures": failures,
            "digest": workload.digest(out), "values": values}


def child_main(args: argparse.Namespace) -> None:
    """One measurement process: set up, iterate for ``--seconds``, print one JSON line."""
    if hasattr(os, "sched_setaffinity"):
        # One CPU, so the scheduler never migrates the run, and the last one:
        # the first is where the kernel and the parent do their own work.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    spans = Spans()
    with spans.span("process", args.workload[0]):
        with spans.span("setup"), SpeedSampler() as sampler:
            from perf_workloads import WORKLOADS
            workload = WORKLOADS[args.workload[0]]
            with spans.span("specs") as specs_span:
                workload.build(args.seed, args.smoke)
            with spans.span("prewarm") as prewarm:
                state = workload.prewarm(spans)
            # CPU time of this thread since the process was created: interpreter
            # start and this file's own imports are in it.
            setup_s = time.thread_time()
        setup_s *= sampler.index

        samples: List[dict] = []
        started = time.perf_counter()
        while True:
            if samples:
                with spans.span("prewarm") as prewarm:
                    state = workload.prewarm(spans)
            samples.append(_iterate(workload, spans, specs_span, prewarm, state))
            if time.perf_counter() - started >= args.seconds:
                break

        traced = None
        if args.trace == 1:
            with spans.span("prewarm") as prewarm:
                state = workload.prewarm(spans)
            profiler = cProfile.Profile()
            with spans.span("traced"):
                traced = _iterate(workload, spans, specs_span, prewarm, state, profiler)
            traced["layers"] = bucket_profile(profiler.getstats(), SOURCE / "repro")
    print(json.dumps({
        "setup_s": setup_s,
        "samples": samples,
        "traced": traced,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "spans": spans.as_rows() if args.trace == 1 else None,
    }))


# -------------------------------------------------------------------- parent

def spawn(workload: str, seed: int, seconds: float, trace: int, smoke: bool
          ) -> dict:
    """Run one child to completion; returns its JSON payload."""
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=f"{SOURCE}{os.pathsep}{inherited}" if inherited else str(SOURCE))
    # The grid runner reads these; a benchmark run must not inherit them.
    env.pop("CONTRA_SANITIZE", None)
    env.pop("CONTRA_PROCS", None)
    command = [sys.executable, str(Path(__file__).resolve()), "--child",
               "--workload", workload, "--seed", str(seed),
               "--seconds", repr(seconds), "--trace", str(trace)]
    if smoke:
        command.append("--smoke")
    process = subprocess.Popen(command, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                               text=True)
    try:
        output, _ = process.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if process.poll() is None:
            process.kill()
        process.wait()
    if process.returncode != 0:
        raise SystemExit(f"{workload}: measurement child failed "
                         f"(exit {process.returncode})")
    return json.loads(output.strip().splitlines()[-1])


def _verdict(samples: List[dict]) -> Tuple[int, List[str]]:
    """Operations attempted and the failure messages over all iterations."""
    failures = [failure for sample in samples for failure in sample["failures"]]
    if len({sample["digest"] for sample in samples}) > 1:
        failures.append("output digest differs between iterations of the same inputs")
    return sum(sample["ops"] for sample in samples), failures


def _entry(metric, samples: List[float]) -> dict:
    return {"value": statistics.median(samples), "unit": metric.unit, "samples": samples}


def measure_end_to_end(workload: str, seed: int, seconds: float, smoke: bool) -> dict:
    children = 1 if smoke else CHILDREN
    setups, rss, samples = [], [], []
    for _ in range(children):
        payload = spawn(workload, seed, seconds / children, 0, smoke)
        setups.append(payload["setup_s"])
        rss.append(payload["peak_rss_mb"])
        samples += payload["samples"]
    series = {
        "setup_s": setups,
        "work_per_cpu_s": [sample["work"] / (sample["cpu_s"] * sample["speed"])
                           for sample in samples],
        "peak_rss_mb": rss,
    }
    attempted, failures = _verdict(samples)
    return {"attempted": attempted, "failures": failures, "digest": samples[0]["digest"],
            "metrics": {metric.name: _entry(metric, series[metric.name])
                        for metric in END_TO_END}}


def measure_per_layer(workload: str, seed: int, seconds: float, smoke: bool) -> dict:
    payload = spawn(workload, seed, seconds / CHILDREN, 1, smoke)
    samples, traced = payload["samples"], payload["traced"]
    attempted, failures = _verdict(samples + [traced])
    untraced_wall = statistics.median(sample["wall_s"] for sample in samples)
    traced_total = sum(layer["self_s"] for layer in traced["layers"].values())
    values: Dict[str, List[float]] = {
        "run.wall_s": [sample["wall_s"] for sample in samples],
        "run.cpu_s": [sample["cpu_s"] for sample in samples],
        "run.speed_index": [sample["speed"] for sample in samples],
        "trace.overhead_ratio": [traced["wall_s"] / untraced_wall],
    }
    for layer in LAYERS:
        bucket = traced["layers"][layer]
        values[f"{layer}.self_s"] = [bucket["self_s"]]
        values[f"{layer}.self_share"] = [bucket["self_s"] / traced_total]
        values[f"{layer}.calls"] = [bucket["calls"]]
    metrics = {}
    for metric in PER_LAYER:
        series = values.get(metric.name) or [sample["values"].get(metric.name, 0.0)
                                             for sample in samples]
        if metric.exact and len(set(series)) > 1:
            failures.append(f"{metric.name} differs between iterations: {series}")
        metrics[metric.name] = _entry(metric, series)
    return {"attempted": attempted, "failures": failures, "digest": samples[0]["digest"],
            "metrics": metrics, "spans": payload["spans"]}


def report(workload: str, result: dict) -> None:
    """Every metric by name with its unit, then the driver's JSON line."""
    for name, entry in result["metrics"].items():
        print(f"{workload:14s} {name:48s} {entry['value']:.9g} {entry['unit']} "
              f"(n={len(entry['samples'])})")
    for failure in dict.fromkeys(result["failures"]):
        print(f"{workload}: FAILED {failure} (x{result['failures'].count(failure)})",
              file=sys.stderr)
    print(f"{workload:14s} digest {result['digest']}")
    print(json.dumps({
        "correct": not result["failures"],
        "attempted": result["attempted"],
        "failed": min(len(result["failures"]), result["attempted"]),
        "metrics": {name: {"value": entry["value"], "unit": entry["unit"]}
                    for name, entry in result["metrics"].items()},
    }), flush=True)


def provenance(args: argparse.Namespace) -> dict:
    def git(*command: str) -> str:
        return subprocess.run(["git", *command], cwd=ROOT, text=True, capture_output=True,
                              check=True).stdout.strip()
    try:
        commit = git("rev-parse", "HEAD") + ("+dirty" if git("status", "--porcelain") else "")
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"                  # e.g. an exported checkout
    nproc = os.cpu_count() or 1
    load_1m = os.getloadavg()[0]
    return {"commit": commit, "python": platform.python_version(), "nproc": nproc,
            "seed": args.seed, "seconds": args.seconds, "load_1m": load_1m,
            # Measured on a machine that was already busy: do not trust timings.
            "noisy": load_1m > nproc}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOAD_NAMES,
                        help="workload to run (repeatable; default: all six)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="how long one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics only, 1: per-layer only (default: both)")
    parser.add_argument("--smoke", action="store_true",
                        help="shrunk sizes, one child, one iteration; not comparable")
    parser.add_argument("--out", type=Path, help="write the samples of every run here")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SOURCE / "repro").is_dir():
        print(f"run.py: {SOURCE / 'repro'} not found: run from a checkout of the repo",
              file=sys.stderr)
        return 2
    if args.child:
        child_main(args)
        return 0
    if args.smoke:
        args.seconds = 0.0

    document = {"schema": 1, "comparable": not args.smoke,
                "provenance": provenance(args), "workloads": {}}
    failed = False
    for workload in args.workload or WORKLOAD_NAMES:
        record = document["workloads"][workload] = {"attempted": 0, "failures": []}
        for trace, kind, measure in ((0, "end_to_end", measure_end_to_end),
                                     (1, "per_layer", measure_per_layer)):
            if args.trace in (None, trace):
                result = measure(workload, args.seed, args.seconds, args.smoke)
                report(workload, result)
                failed = failed or bool(result["failures"])
                record[kind] = result["metrics"]
                record["digest"] = result["digest"]
                record["attempted"] += result["attempted"]
                record["failures"] += result["failures"]
                if args.out and result.get("spans"):
                    trace_file = args.out.with_name(f"trace-{workload}.json")
                    trace_file.write_text(json.dumps(result["spans"]) + "\n")
    if args.out:
        # One metric per line, so the diff of two baselines reads metric by metric.
        text = re.sub(r'\{\n\s+"value":.*?\}', lambda entry: " ".join(entry.group().split()),
                      json.dumps(document, indent=1), flags=re.DOTALL)
        args.out.write_text(text + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
