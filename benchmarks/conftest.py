"""Shared fixtures for the per-figure benchmark harness.

Every figure benchmark builds its spec grid (``<fig>_specs``), times one
:func:`~repro.experiments.runner.run_grid` call over it exactly once
(``benchmark.pedantic`` with a single round — the experiments are
seconds-to-minutes long, so repeated timing rounds would be wasteful),
projects the results (``to_*_points`` / ``analyse_*``) and prints the same
rows/series the paper's figure reports.  Set
``CONTRA_EXPERIMENT_PRESET=default`` or ``full`` for longer,
higher-fidelity sweeps; the default ``quick`` preset reproduces the shapes
in a few minutes.

Set ``CONTRA_PROCS`` (or pass ``processes=`` to ``run_grid`` in library use)
to fan the grid points of one experiment across cores — the results are
byte-identical to a serial run.

Each benchmark additionally drops a ``BENCH_<name>.json`` wall-clock artifact
(into ``$CONTRA_BENCH_DIR`` or the working directory) so CI can archive the
performance trajectory across commits.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro.experiments.config import config_from_env


@pytest.fixture(scope="session")
def experiment_config():
    """The experiment preset selected via CONTRA_EXPERIMENT_PRESET (default: quick)."""
    return config_from_env()


def _bench_dir() -> Path:
    return Path(os.environ.get("CONTRA_BENCH_DIR", "."))


def write_bench_artifact(name: str, wall_s: float, extra: dict = None) -> None:
    """Record one benchmark's wall-clock as BENCH_<name>.json."""
    payload = {
        "benchmark": name,
        "wall_s": round(wall_s, 4),
        "preset": os.environ.get("CONTRA_EXPERIMENT_PRESET", "quick"),
        "processes": os.environ.get("CONTRA_PROCS", "1"),
    }
    if extra:
        payload.update(extra)
    path = _bench_dir() / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n")


def run_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under pytest-benchmark timing (+ JSON artifact)."""
    held = {}

    def timed(*fn_args, **fn_kwargs):
        started = time.perf_counter()
        result = fn(*fn_args, **fn_kwargs)
        held["wall_s"] = time.perf_counter() - started
        return result

    result = benchmark.pedantic(timed, args=args, kwargs=kwargs, rounds=1, iterations=1)
    if "wall_s" in held:
        # Key the artifact by the *test* name, not the driver function: several
        # benchmarks share a driver (fig9/fig10, fig11/fig12) and must not
        # overwrite each other's wall-clock record.
        name = getattr(benchmark, "name", None) or getattr(fn, "__name__", "experiment")
        write_bench_artifact(name, held["wall_s"],
                             extra={"driver": getattr(fn, "__name__", "experiment")})
    return result
