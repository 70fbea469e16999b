"""The policy library from Figure 3 plus the policies used in the evaluation.

Each function returns a fresh :class:`~repro.core.ast.Policy`.  The policies
P1–P9 correspond line-for-line to Figure 3 of the paper; the three evaluation
policies (MU, WP, CA) from §6.2 are aliases with the paper's parameters.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core import ast
from repro.exceptions import PolicyError
from repro.core.builder import (
    add,
    as_expr,
    if_,
    inf,
    lt,
    matches,
    minimize,
    path,
    rank_tuple,
)

__all__ = [
    "shortest_path",
    "minimum_utilization",
    "widest_shortest_paths",
    "shortest_widest_paths",
    "waypointing",
    "link_preference",
    "weighted_link",
    "source_local_preference",
    "congestion_aware",
    "minimize_latency",
    "failover_preference",
    "MU",
    "WP",
    "CA",
    "ALL_POLICIES",
    "POLICY_ALIASES",
    "policy_by_name",
]


def shortest_path() -> ast.Policy:
    """P1 — classic shortest-path routing (RIP-style): ``minimize(path.len)``."""
    return minimize(path.len, name="P1-shortest-path")


def minimum_utilization() -> ast.Policy:
    """P2 — Hula-style least-utilized path: ``minimize(path.util)``."""
    return minimize(path.util, name="P2-minimum-utilization")


def widest_shortest_paths() -> ast.Policy:
    """P3 — widest shortest paths: ``minimize((path.util, path.len))``."""
    return minimize(rank_tuple(path.util, path.len), name="P3-widest-shortest")


def shortest_widest_paths() -> ast.Policy:
    """P4 — shortest widest paths: ``minimize((path.len, path.util))``."""
    return minimize(rank_tuple(path.len, path.util), name="P4-shortest-widest")


def waypointing(waypoints: Sequence[str] = ("F1", "F2")) -> ast.Policy:
    """P5 — traffic must pass one of the waypoints, preferring least utilization.

    ``minimize(if .*(F1+F2).* then path.util else inf)``
    """
    if not waypoints:
        raise ValueError("waypointing requires at least one waypoint switch")
    alternatives = " + ".join(waypoints)
    return minimize(if_(matches(f".* ({alternatives}) .*"), path.util, inf),
                    name="P5-waypointing")


def link_preference(a: str = "X", b: str = "Y") -> ast.Policy:
    """P6 — only paths traversing link ``a``-``b`` are allowed, least utilized first.

    ``minimize(if .*XY.* then path.util else inf)``
    """
    return minimize(if_(matches(f".* {a} {b} .*"), path.util, inf), name="P6-link-preference")


def weighted_link(a: str = "X", b: str = "Y", weight: float = 10.0) -> ast.Policy:
    """P7 — penalise a costly link by ``weight`` on top of shortest paths.

    ``minimize((if .*XY.* then 10 else 0) + path.len)``
    """
    penalty = if_(matches(f".* {a} {b} .*"), weight, 0)
    return minimize(add(penalty, path.len), name="P7-weighted-link")


def source_local_preference(source: str = "X") -> ast.Policy:
    """P8 — the named source optimises utilization, everyone else latency.

    ``minimize(if X.* then path.util else path.lat)``
    """
    return minimize(if_(matches(f"{source} .*"), path.util, path.lat),
                    name="P8-source-local-preference")


def congestion_aware(threshold: float = 0.8) -> ast.Policy:
    """P9 — congestion-aware routing (non-isotonic, §2 and Figure 3).

    ``minimize(if path.util < .8 then (1, 0, path.util) else (2, path.len, path.util))``
    """
    return minimize(
        if_(lt(path.util, threshold),
            rank_tuple(1, 0, path.util),
            rank_tuple(2, path.len, path.util)),
        name="P9-congestion-aware")


def minimize_latency() -> ast.Policy:
    """Latency-optimal routing, useful on WAN topologies: ``minimize(path.lat)``."""
    return minimize(path.lat, name="minimize-latency")


def failover_preference(primary: Sequence[str], backup: Sequence[str]) -> ast.Policy:
    """Propane-style static preference: use ``primary`` if available, else ``backup``.

    ``minimize(if <primary> then 0 else if <backup> then 1 else inf)``
    """
    primary_regex = " ".join(primary)
    backup_regex = " ".join(backup)
    return minimize(
        if_(matches(primary_regex), 0, if_(matches(backup_regex), 1, inf)),
        name="failover-preference")


# Aliases used throughout the evaluation section (§6.2).

def MU() -> ast.Policy:
    """The "minimum utilization" evaluation policy (no regexes, one metric)."""
    policy = minimum_utilization()
    return ast.Policy(policy.expression, name="MU")


def WP(waypoints: Sequence[str] = ("F1", "F2"), extra: Optional[Sequence[str]] = None) -> ast.Policy:
    """The "waypointing" evaluation policy (three regexes, one metric).

    The paper describes WP as using three regular expressions; we model it as a
    preference order: least-utilized paths through the primary waypoint, then
    (at a penalty) paths through the backup waypoint, and a fallback pattern
    that forbids paths avoiding all waypoints.
    """
    primary = waypoints[0]
    backup_group = extra if extra else waypoints[1:] or waypoints[:1]
    backup = " + ".join(backup_group)
    expression = if_(matches(f".* {primary} .*"), path.util,
                     if_(matches(f".* ({backup}) .*"),
                         add(path.util, 1),
                         if_(matches(".*"), inf, inf)))
    return ast.Policy(as_expr(expression), name="WP")


def CA(threshold: float = 0.8) -> ast.Policy:
    """The "congestion aware" evaluation policy (non-isotonic, two metrics)."""
    policy = congestion_aware(threshold)
    return ast.Policy(policy.expression, name="CA")


ALL_POLICIES = {
    "P1": shortest_path,
    "P2": minimum_utilization,
    "P3": widest_shortest_paths,
    "P4": shortest_widest_paths,
    "P5": waypointing,
    "P6": link_preference,
    "P7": weighted_link,
    "P8": source_local_preference,
    "P9": congestion_aware,
}

#: Paper-name aliases accepted wherever a bundled policy is named (CLI, CI).
POLICY_ALIASES = {
    "MU": MU,
    "WP": WP,
    "CA": CA,
    "minimize-latency": minimize_latency,
}


def policy_by_name(name: str) -> ast.Policy:
    """Instantiate a bundled policy by registry key (``P1``..``P9``) or alias.

    Raises :class:`PolicyError` for unknown names, listing what is available.
    """
    factory = ALL_POLICIES.get(name) or POLICY_ALIASES.get(name)
    if factory is None:
        known = ", ".join(sorted(ALL_POLICIES) + sorted(POLICY_ALIASES))
        raise PolicyError(f"unknown bundled policy {name!r} (known: {known})")
    return factory()
