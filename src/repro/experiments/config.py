"""Shared experiment configuration.

Every evaluation experiment uses the same scaled simulation regime (DESIGN.md
§4): link capacities in packets/ms, flow sizes drawn from scaled empirical
CDFs, and a probe period of 0.256 ms (the paper's 256 µs).  The defaults here
reproduce the figure shapes in a few minutes on a laptop; the ``quick`` preset
shrinks durations for CI/benchmark runs and ``full`` enlarges them for closer
statistics.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple

from repro.exceptions import COUNT, NON_NEGATIVE, POSITIVE, within
from repro.simulator.flow import TRANSPORT_DOMAIN

__all__ = ["ExperimentConfig", "default_config", "quick_config", "full_config",
           "config_from_env", "sanitize_from_env", "procs_from_env"]


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by the FCT / overhead / failure experiments (domains: repro.exceptions)."""

    # Topology scale.
    fattree_k: int = 4
    host_capacity: float = within(POSITIVE, 100.0)      # packets per ms
    oversubscription: float = 4.0             # paper §6.3 uses 4:1
    abilene_capacity: float = 100.0
    #: Offered rate per Abilene sender host (packets/ms); below the backbone
    #: capacity so that the aggregate demand is routable, mirroring the
    #: paper's 10 Gbps hosts on a 40 Gbps backbone.
    abilene_host_rate: float = 50.0

    # Transport / switch parameters.
    buffer_packets: int = within(COUNT, 500)  # paper: 1000 MSS; scaled regime uses 500
    host_window: int = within(COUNT, 16)
    host_rto: float = within(POSITIVE, 5.0)
    #: Host sender behaviour: "fixed" (full window from the first segment,
    #: the historical default), "slowstart" (slow start + AIMD + fast
    #: retransmit) or "paced" (slowstart plus per-RTT packet pacing).  See
    #: repro.simulator.flow.TRANSPORT_MODES; ScenarioSpec.transport overrides
    #: this per grid point.
    transport: str = within(TRANSPORT_DOMAIN, "fixed")
    util_window: float = within(POSITIVE, 0.5)

    # Protocol parameters (paper §6.3).
    probe_period: float = within(POSITIVE, 0.256)       # ms (256 us)
    #: The paper uses 200 us at 10 Gbps.  In the scaled regime queue-drain
    #: transients span several probe periods (a packet serializes in 10 us
    #: here vs 1.2 us on the paper's links), so a timeout below one probe
    #: period lets every flowlet of a ToR re-pin mid-transient — the whole
    #: pod herds onto whichever uplink looked best last round and the tail
    #: queue oscillates past ECMP's (Figure 13).  Two probe periods keeps
    #: flowlets pinned across one full probe refresh.
    flowlet_timeout: float = within(NON_NEGATIVE, 0.5)  # ms (scaled 200 us)
    failure_periods: int = within(COUNT, 3)

    # Workload parameters.
    websearch_scale: float = within(POSITIVE, 0.1)
    cache_scale: float = within(POSITIVE, 0.25)
    workload_duration: float = within(POSITIVE, 30.0)   # ms of flow arrivals
    run_duration: float = within(POSITIVE, 90.0)        # ms of simulation
    #: Delay before the first flow arrives, giving the routing protocol a few
    #: probe periods to converge (the paper measures steady-state FCT).
    warmup: float = within(NON_NEGATIVE, 2.0)
    seed: int = 1

    # Sweep points (paper sweeps 10..90%).
    loads: Tuple[float, ...] = (0.2, 0.4, 0.6, 0.8, 0.9)

    # Compiler-scalability sweep sizes (Figure 9/10); run-grid config
    # overrides reach the sweep through these.
    scalability_fattree_sizes: Tuple[int, ...] = (20, 125)
    scalability_random_sizes: Tuple[int, ...] = (100, 200)

    def scaled(self, duration_factor: float, loads: Optional[Sequence[float]] = None
               ) -> "ExperimentConfig":
        """A copy with durations scaled and (optionally) different load points."""
        return replace(
            self,
            workload_duration=self.workload_duration * duration_factor,
            run_duration=self.run_duration * duration_factor,
            loads=tuple(loads) if loads is not None else self.loads,
        )


def default_config() -> ExperimentConfig:
    """The standard configuration used by EXPERIMENTS.md."""
    return ExperimentConfig()


def quick_config() -> ExperimentConfig:
    """A fast preset for CI and pytest-benchmark runs (minutes, not tens of minutes)."""
    return ExperimentConfig().scaled(0.4, loads=(0.4, 0.8))


def full_config() -> ExperimentConfig:
    """A slower preset with the paper's full load sweep."""
    return ExperimentConfig(loads=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)).scaled(1.5)


def config_from_env() -> ExperimentConfig:
    """Pick a preset via the ``CONTRA_EXPERIMENT_PRESET`` environment variable.

    Recognised values: ``quick`` (default for benchmarks), ``default``, ``full``.
    """
    preset = os.environ.get("CONTRA_EXPERIMENT_PRESET", "quick").lower()
    if preset == "full":
        return full_config()
    if preset == "default":
        return default_config()
    return quick_config()


def sanitize_from_env() -> Optional[bool]:
    """Resolve the ``CONTRA_SANITIZE`` environment variable.

    Returns ``None`` when unset (caller falls back to its default), ``False``
    for ``""``/``"0"``, ``True`` otherwise.  This is the *only* place the
    sanitizer opt-in touches the environment: the simulator package itself
    never reads ``os.environ`` (enforced by tools/lint_determinism.py), and
    the flag deliberately stays out of ``spec_hash`` — sanitizing a run must
    not re-key its results.
    """
    value = os.environ.get("CONTRA_SANITIZE")
    if value is None:
        return None
    return value.strip() not in ("", "0")


def procs_from_env() -> str:
    """Raw ``CONTRA_PROCS`` value (worker-count default for grid runs).

    Centralised here so every environment read outside the CLI lives in this
    module (lint-enforced); the caller parses and validates.
    """
    return os.environ.get("CONTRA_PROCS", "1")
