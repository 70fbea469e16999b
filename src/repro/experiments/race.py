"""Same-tick race detector: seeded permutations of commutable event orders.

The engine's determinism contract (ARCHITECTURE.md §6) divides same-timestamp
event ordering into *contractual* orders — batch-lane FIFO registration
order, sequence-number tie-breaking, per-(link, tick) probe runs — and
*free* orders: the relative firing order of independent periodic rounds
(probe origination vs failure checking) and the per-switch iteration order
inside a failure-check round.  A summary that changes when only free orders
change is a hidden order dependence — exactly the bug class the batched
probe plane (PR 5) had to debug by hand.

``contra race-check <scenario> [--seeds N]`` re-runs grid points under
seeded permutations of those free orders only:

* **heap axis** — as a round the routing system declares commutable
  (``RoutingSystem.commutable_rounds``) fires, the sanitizer's tagged
  callback lets the engine's loop fire an adjacent same-timestamp
  commutable round first, with probability ½ per adjacency under a seeded
  RNG;
* **round axis** — ``_failure_check_all`` shuffles its per-switch iteration
  order under the same RNG.

Each permuted run's full summary is diffed against the unpermuted baseline;
any divergent key is reported, and the run is repeated with schedule tracing
to name the provenance tags at the first point where the two schedules
disagree.  Runs execute under the sanitizer in collect mode, so invariant
violations surface in the same report instead of aborting the sweep.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.exceptions import ExperimentError
from repro.experiments.config import ExperimentConfig
from repro.experiments.registry import SCENARIOS, GridScenario, scenario_names
from repro.experiments.runner import RunContext, RunResult, ScenarioSpec
from repro.simulator.network import Network

__all__ = ["RaceDivergence", "RaceReport", "install_race", "race_check",
           "RACE_FAST_SCENARIOS"]

#: The fast registry scenarios CI sweeps (small grids, seconds per point).
RACE_FAST_SCENARIOS: Tuple[str, ...] = ("fig13", "recovery-sweep")


@dataclass
class RaceDivergence:
    """One grid point whose summary changed under a permutation seed."""

    point: str
    permute_seed: int
    divergent_keys: List[str]
    #: Where the schedules first disagree: trace index, time, and the
    #: provenance tags on each side (None when the traces never diverged —
    #: the order dependence is inside a single callback).
    first_divergence: Optional[Dict[str, Any]] = None

    def render(self) -> str:
        lines = [f"{self.point} permute_seed={self.permute_seed}: "
                 f"divergent keys {self.divergent_keys}"]
        if self.first_divergence is not None:
            d = self.first_divergence
            lines.append(
                f"    first schedule divergence at event #{d['index']}: "
                f"base {d['base']} vs permuted {d['permuted']}")
        return "\n".join(lines)

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "point": self.point,
            "permute_seed": self.permute_seed,
            "divergent_keys": list(self.divergent_keys),
            "first_divergence": self.first_divergence,
        }


@dataclass
class RaceReport:
    """Outcome of a race-check sweep over one scenario's grid."""

    scenario: str
    seeds: int
    points_checked: int = 0
    runs: int = 0
    divergences: List[RaceDivergence] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences and not self.problems

    def __bool__(self) -> bool:
        return self.ok

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario,
            "seeds": self.seeds,
            "points_checked": self.points_checked,
            "runs": self.runs,
            "ok": self.ok,
            "divergences": [d.to_json_dict() for d in self.divergences],
            "problems": list(self.problems),
            "notes": list(self.notes),
        }

    def render(self) -> str:
        lines = [f"race-check {self.scenario}: {self.points_checked} point(s) "
                 f"x {self.seeds} seed(s), {self.runs} permuted run(s): "
                 + ("OK" if self.ok
                    else f"{len(self.divergences)} divergence(s), "
                         f"{len(self.problems)} problem(s)")]
        lines.extend("  DIVERGENCE: " + d.render() for d in self.divergences)
        lines.extend(f"  PROBLEM: {p}" for p in self.problems)
        lines.extend(f"  note: {n}" for n in self.notes)
        return "\n".join(lines)


def install_race(network: Network, permute_seed: int) -> None:
    """Arm the permutation hooks on a freshly built sanitized network.

    One seeded RNG drives both permutation axes, so a (scenario point,
    seed) pair is fully deterministic — a divergence always reproduces.
    """
    sanitizer = network.sanitizer
    if sanitizer is None:
        raise ExperimentError(
            "race permutations need a sanitized network (the sanitizer's "
            "tagged callbacks make the swaps); build with sanitize=True")
    rng = random.Random(f"race-{permute_seed}")
    system = network.routing_system
    commutable = frozenset(
        getattr(type(system), name)
        for name in getattr(system, "commutable_rounds", ()))
    system.race_rng = rng
    sanitizer.race_rng = rng
    sanitizer.race_commutable = commutable


def _point_label(spec: ScenarioSpec) -> str:
    return (f"{spec.name}/{spec.system} load={spec.load} seed={spec.seed}")


def _run_point(spec: ScenarioSpec, permute_seed: Optional[int],
               trace: bool) -> Tuple[RunResult, Any]:
    """One sanitized run of a grid point, optionally permuted and traced."""
    captured: Dict[str, Any] = {}
    context = RunContext(sanitize=True)

    def hook(network: Network) -> None:
        sanitizer = network.sanitizer
        assert sanitizer is not None
        sanitizer.mode = "collect"      # diff complete runs, don't abort
        sanitizer.trace_enabled = trace
        if permute_seed is not None:
            install_race(network, permute_seed)
        captured["sanitizer"] = sanitizer

    context.network_hook = hook
    result = context.run(spec)
    return result, captured.get("sanitizer")


def _canon(value: Any) -> str:
    """Serialized form for comparison — the byte-identity the repo promises.

    Plain ``!=`` would flag every NaN-valued key (``nan != nan``); the
    determinism contract is about the *serialized* summary, where NaN has
    one spelling.
    """
    return json.dumps(value, sort_keys=True, default=str)


def _diff_result(base: RunResult, permuted: RunResult) -> List[str]:
    keys: List[str] = []
    all_keys = sorted(set(base.summary) | set(permuted.summary))
    keys.extend(k for k in all_keys
                if _canon(base.summary.get(k)) != _canon(permuted.summary.get(k)))
    if _canon(base.queue_cdf) != _canon(permuted.queue_cdf):
        keys.append("queue_cdf")
    if _canon(base.throughput) != _canon(permuted.throughput):
        keys.append("throughput")
    return keys


def _first_trace_divergence(spec: ScenarioSpec,
                            permute_seed: int) -> Optional[Dict[str, Any]]:
    """Re-run base + permuted with tracing; locate the first schedule split."""
    _, base_san = _run_point(spec, None, trace=True)
    _, perm_san = _run_point(spec, permute_seed, trace=True)
    if base_san is None or perm_san is None:
        return None
    base_trace, perm_trace = base_san.trace, perm_san.trace
    for index, (b, p) in enumerate(zip(base_trace, perm_trace)):
        if b != p:
            return {
                "index": index,
                "base": {"time": b[0], "tag": list(b[1])},
                "permuted": {"time": p[0], "tag": list(p[1])},
            }
    if len(base_trace) != len(perm_trace):
        index = min(len(base_trace), len(perm_trace))
        longer = base_trace if len(base_trace) > len(perm_trace) else perm_trace
        side = "base" if longer is base_trace else "permuted"
        return {
            "index": index,
            "base": None,
            "permuted": None,
            "extra_side": side,
            "extra": {"time": longer[index][0], "tag": list(longer[index][1])},
        }
    return None


def _note_violations(report: RaceReport, point: str, label: str,
                     sanitizer: Any) -> None:
    if sanitizer is None:
        return
    for violation in sanitizer.violations:
        report.problems.append(
            f"{point} ({label}): sanitizer violation {violation.render()}")


def race_check(name: str, config: ExperimentConfig, seeds: int = 2,
               points: Optional[int] = None) -> RaceReport:
    """Race-check one grid scenario: permute free orders, diff summaries.

    ``seeds`` permutation seeds per grid point; ``points`` caps how many of
    the scenario's specs are swept (None = all).  Serial by construction —
    each permuted run must see exactly one RNG stream.
    """
    entry = SCENARIOS.get(name)
    if entry is None:
        raise ExperimentError(
            f"unknown scenario {name!r}; available: {scenario_names()}")
    if not isinstance(entry, GridScenario):
        raise ExperimentError(
            f"scenario {name!r} is not a single spec grid; race-check needs "
            f"a GridScenario")
    if seeds < 1:
        raise ExperimentError(f"race-check needs at least one seed, got {seeds}")
    specs = entry.build_specs(config)
    if points is not None:
        specs = specs[:points]
    report = RaceReport(scenario=name, seeds=seeds)
    for spec in specs:
        point = _point_label(spec)
        base, base_san = _run_point(spec, None, trace=False)
        report.points_checked += 1
        _note_violations(report, point, "baseline", base_san)
        for permute_seed in range(seeds):
            permuted, perm_san = _run_point(spec, permute_seed, trace=False)
            report.runs += 1
            _note_violations(report, point, f"permute_seed={permute_seed}",
                             perm_san)
            divergent = _diff_result(base, permuted)
            if divergent:
                report.divergences.append(RaceDivergence(
                    point=point,
                    permute_seed=permute_seed,
                    divergent_keys=divergent,
                    first_divergence=_first_trace_divergence(spec, permute_seed),
                ))
    return report
