"""Compiler scalability experiments (Figures 9 and 10).

Figure 9 measures compilation time and Figure 10 the per-switch state of the
generated programs, both as a function of topology size (20–500 switches) for
three policies:

* **MU** — minimum utilization: no regexes, one metric;
* **WP** — waypointing: three regular expressions, one metric;
* **CA** — congestion-aware routing: no regexes, non-isotonic, two metrics.

The sweep covers fat-trees and random networks, builds each topology once,
compiles every policy on it and records wall-clock compile time plus the
maximum per-switch state estimate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.ast import Policy
from repro.core.builder import if_, inf, matches, minimize, path
from repro.core.compiler import compile_policy
from repro.core.policies import CA, MU
from repro.exceptions import ExperimentError
from repro.topology.fattree import fattree_for_switch_count
from repro.topology.graph import Topology
from repro.topology.random_graphs import random_network

__all__ = [
    "ScalabilityPoint",
    "scalability_policies",
    "waypoint_policy_for",
    "run_scalability_sweep",
    "FATTREE_SIZES",
    "RANDOM_SIZES",
]

#: The paper's Figure 9a/10a x-axis (switch counts of growing fat-trees).
FATTREE_SIZES = (20, 125, 245, 405, 500)
#: The paper's Figure 9b/10b x-axis.
RANDOM_SIZES = (100, 200, 300, 400, 500)
#: The sweep's policies, in the order :func:`scalability_policies` builds them.
POLICY_NAMES = ("MU", "WP", "CA")
#: Degree of the random family's switches; a random network needs more switches than that.
RANDOM_DEGREE = 4


@dataclass
class ScalabilityPoint:
    """One measurement: a (topology family, size, policy) triple."""

    family: str
    size: int
    actual_switches: int
    policy: str
    compile_time_s: float
    max_state_kb: float
    pg_nodes: int
    pg_edges: int
    num_probe_ids: int


def waypoint_policy_for(topology: Topology, waypoints: int = 2) -> Policy:
    """The WP policy instantiated with concrete waypoint switches of a topology.

    WP uses three regular expressions: a preferred waypoint group, a backup
    waypoint, and the fallback pattern — mirroring the paper's description of
    a waypointing policy with three regexes.
    """
    switches = topology.switches
    chosen = switches[len(switches) // 2: len(switches) // 2 + max(1, waypoints)]
    if len(chosen) < 2:
        chosen = switches[:2] if len(switches) >= 2 else switches
    first, second = chosen[0], chosen[-1]
    expression = if_(matches(f".* {first} .*"), path.util,
                     if_(matches(f".* {second} .*"), path.util,
                         if_(matches(".*"), inf, inf)))
    return minimize(expression, name="WP")


def scalability_policies(topology: Topology) -> Dict[str, Policy]:
    """The three policies of the Figure 9/10 sweep, bound to a topology."""
    return {
        "MU": MU(),
        "WP": waypoint_policy_for(topology),
        "CA": CA(),
    }


def _compile_fabric(
    task: Tuple[str, int, int, Tuple[str, ...]],
) -> List[ScalabilityPoint]:
    """Build one (family, size, seed) fabric and compile each policy on it, in order.

    Module-level for pool pickling.  Sharing the fabric leaves each timed
    compile the work it had on a fabric of its own: the generator's
    ``validate()`` builds the switch-graph index before any timer starts,
    ``compile_policy`` recomputes ``max_rtt()`` every time and reads no
    :meth:`Topology.derived` table, so nothing one compile leaves on the
    topology is read by the next.
    """
    family, size, seed, policy_names = task
    topology = _build_topology(family, size, seed)
    bound = scalability_policies(topology)
    actual_switches = len(topology.switches)
    points = []
    for policy_name in policy_names:
        started = time.perf_counter()
        compiled = compile_policy(bound[policy_name], topology)
        elapsed = time.perf_counter() - started
        points.append(ScalabilityPoint(
            family=family,
            size=size,
            actual_switches=actual_switches,
            policy=policy_name,
            compile_time_s=elapsed,
            max_state_kb=compiled.max_state_kb(),
            pg_nodes=compiled.product_graph.num_nodes,
            pg_edges=compiled.product_graph.num_edges,
            num_probe_ids=compiled.num_probe_ids,
        ))
    return points


def run_scalability_sweep(
    families: Sequence[str] = ("fattree", "random"),
    fattree_sizes: Sequence[int] = FATTREE_SIZES,
    random_sizes: Sequence[int] = RANDOM_SIZES,
    policies: Optional[Sequence[str]] = None,
    seed: int = 0,
    processes: Optional[int] = None,
) -> List[ScalabilityPoint]:
    """Compile every (family, size, policy) combination and measure it.

    Each fabric is built once and compiles the requested policies in turn;
    fabrics are independent, so the sweep distributes them through
    :func:`~repro.experiments.runner.grid_map` (``processes=`` /
    ``$CONTRA_PROCS``).  Points come back family, size, then policy order.
    Note that wall-clock compile *times* are only comparable within a run
    when executed serially on an idle machine.
    """
    from repro.experiments.runner import grid_map

    if policies is None:
        policies = POLICY_NAMES
    for policy_name in policies:
        if policy_name not in POLICY_NAMES:
            raise ExperimentError(
                f"unknown scalability policy {policy_name!r}; available: {POLICY_NAMES}")
    smallest = {"fattree": 1, "random": RANDOM_DEGREE + 1}
    sizes = {"fattree": fattree_sizes, "random": random_sizes}
    for family in families:
        if family not in sizes:
            raise ExperimentError(
                f"unknown topology family {family!r}; available: {tuple(sizes)}")
        for size in sizes[family]:
            if isinstance(size, bool) or not isinstance(size, int) or size < smallest[family]:
                raise ExperimentError(
                    f"{family} size {size!r} must be an integer >= {smallest[family]}")
    if not policies:
        return []
    tasks = [(family, size, seed, tuple(policies))
             for family in families for size in sizes[family]]
    return [point for points in grid_map(_compile_fabric, tasks, processes)
            for point in points]


def _build_topology(family: str, size: int, seed: int) -> Topology:
    if family == "fattree":
        return fattree_for_switch_count(size)
    if family == "random":
        return random_network(size, seed=seed, degree=RANDOM_DEGREE)
    raise ExperimentError(f"unknown topology family {family!r}")
