"""Loading real-world topologies in the style of the Internet Topology Zoo.

The paper's evaluation mentions real-world topologies from the Topology Zoo.
The Zoo distributes GraphML files; since this environment is offline we accept
two simple on-disk formats instead and bundle a handful of well-known research
topologies so experiments can run without any external data:

* an **edge-list** format: one ``A B [capacity [latency]]`` line per link,
  ``#`` comments allowed, and
* an **adjacency dict** passed programmatically.

:func:`builtin_topologies` returns the bundled networks by name.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple, Union

from repro.exceptions import TopologyError
from repro.topology.abilene import abilene
from repro.topology.graph import Topology

__all__ = [
    "from_edge_list",
    "from_edge_list_file",
    "from_adjacency",
    "builtin_topologies",
    "builtin_topology",
]

#: A few small, published research/ISP topologies (node names abbreviated),
#: expressed as undirected edge lists.  These stand in for the Topology Zoo
#: GraphML files that are unavailable offline.
_BUILTIN_EDGE_LISTS: Dict[str, List[Tuple[str, str]]] = {
    # NSFNET T1 backbone (14 nodes) — a standard benchmark WAN.
    "nsfnet": [
        ("WA", "CA1"), ("WA", "CA2"), ("WA", "IL"), ("CA1", "CA2"), ("CA1", "UT"),
        ("CA2", "TX"), ("UT", "CO"), ("UT", "MI"), ("CO", "TX"), ("CO", "NE"),
        ("TX", "DC"), ("TX", "GA"), ("NE", "IL"), ("NE", "MD"), ("IL", "PA"),
        ("PA", "MD"), ("PA", "NY"), ("MD", "NJ"), ("NY", "NJ"), ("NY", "MI"),
        ("GA", "MI"), ("GA", "NJ"), ("DC", "MD"),
    ],
    # GÉANT-like European research backbone (subset, 12 nodes).
    "geant_small": [
        ("UK", "FR"), ("UK", "NL"), ("FR", "ES"), ("FR", "CH"), ("NL", "DE"),
        ("DE", "CH"), ("DE", "PL"), ("DE", "DK"), ("CH", "IT"), ("IT", "AT"),
        ("AT", "PL"), ("AT", "HU"), ("PL", "CZ"), ("CZ", "DE"), ("ES", "IT"),
        ("DK", "SE"), ("SE", "PL"), ("HU", "CZ"),
    ],
    # A small ring-with-chords ISP-style network useful in tests.
    "ring8": [
        ("r0", "r1"), ("r1", "r2"), ("r2", "r3"), ("r3", "r4"), ("r4", "r5"),
        ("r5", "r6"), ("r6", "r7"), ("r7", "r0"), ("r0", "r4"), ("r2", "r6"),
    ],
}


def from_edge_list(
    edges: Iterable[Union[Tuple[str, str], Tuple[str, str, float], Tuple[str, str, float, float]]],
    name: str = "custom",
    default_capacity: float = 10.0,
    default_latency: float = 0.05,
    hosts_per_switch: int = 0,
) -> Topology:
    """Build a topology from an iterable of (a, b[, capacity[, latency]]) tuples."""
    topo = Topology(name)
    parsed: List[Tuple[str, str, float, float]] = []
    for edge in edges:
        if len(edge) == 2:
            a, b = edge  # type: ignore[misc]
            cap, lat = default_capacity, default_latency
        elif len(edge) == 3:
            a, b, cap = edge  # type: ignore[misc]
            lat = default_latency
        elif len(edge) == 4:
            a, b, cap, lat = edge  # type: ignore[misc]
        else:
            raise TopologyError(f"edge tuple must have 2-4 elements, got {edge!r}")
        parsed.append((str(a), str(b), float(cap), float(lat)))

    for a, b, _, _ in parsed:
        if not topo.has_node(a):
            topo.add_switch(a)
        if not topo.has_node(b):
            topo.add_switch(b)
    for a, b, cap, lat in parsed:
        if not topo.has_link(a, b):
            topo.add_link(a, b, capacity=cap, latency=lat)

    for switch in list(topo.switches):
        for j in range(hosts_per_switch):
            host = f"h_{switch}_{j}"
            topo.add_host(host, switch)
            topo.add_link(host, switch, capacity=default_capacity, latency=default_latency)

    topo.validate()
    return topo


def from_edge_list_file(path: Union[str, Path], **kwargs) -> Topology:
    """Parse an edge-list file: ``A B [capacity [latency]]`` per line, ``#`` comments."""
    path = Path(path)
    edges: List[Tuple] = []
    with path.open() as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) < 2 or len(parts) > 4:
                raise TopologyError(f"{path}:{lineno}: expected 'A B [cap [lat]]', got {raw!r}")
            try:
                edge: Tuple = tuple(parts[:2]) + tuple(float(x) for x in parts[2:])
            except ValueError as exc:
                raise TopologyError(f"{path}:{lineno}: bad numeric field in {raw!r}") from exc
            edges.append(edge)
    kwargs.setdefault("name", path.stem)
    return from_edge_list(edges, **kwargs)


def from_adjacency(
    adjacency: Mapping[str, Sequence[str]],
    name: str = "custom",
    **kwargs,
) -> Topology:
    """Build a topology from an adjacency mapping ``{node: [neighbors...]}``."""
    edges = []
    seen = set()
    for a, nbrs in adjacency.items():
        for b in nbrs:
            if (b, a) in seen or (a, b) in seen:
                continue
            seen.add((a, b))
            edges.append((a, b))
    return from_edge_list(edges, name=name, **kwargs)


def builtin_topologies() -> List[str]:
    """Names of the bundled real-world topologies."""
    return sorted(list(_BUILTIN_EDGE_LISTS) + ["abilene"])


def builtin_topology(name: str, hosts_per_switch: int = 0, **kwargs) -> Topology:
    """Load a bundled topology by name (``abilene``, ``nsfnet``, ``geant_small``, ``ring8``)."""
    if name == "abilene":
        # Abilene has its own generator: default_capacity maps onto its
        # backbone capacity, but its per-link latencies are intrinsic —
        # reject default_latency rather than silently dropping it.
        if "default_latency" in kwargs:
            raise TopologyError(
                "abilene has intrinsic per-link latencies; default_latency is "
                "not supported (use scale_latency)")
        capacity = kwargs.pop("default_capacity", None)
        if capacity is not None:
            kwargs.setdefault("capacity", capacity)
        return abilene(hosts_per_switch=hosts_per_switch, **kwargs)
    try:
        edges = _BUILTIN_EDGE_LISTS[name]
    except KeyError:
        raise TopologyError(
            f"unknown builtin topology {name!r}; available: {builtin_topologies()}") from None
    return from_edge_list(edges, name=name, hosts_per_switch=hosts_per_switch, **kwargs)
