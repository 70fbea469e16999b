"""Random graph topologies for the compiler scalability experiments.

Figure 9b/10b sweep "random networks" with 100–500 nodes.  The paper does not
specify the random-graph family, so :func:`random_regular` provides the most
common choice for synthetic network fabrics: every switch has the same degree,
the graph is guaranteed connected and deterministic given a seed.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.exceptions import TopologyError
from repro.topology.graph import Topology

__all__ = ["random_regular", "random_network"]


def _names(n: int) -> list:
    width = max(2, len(str(n - 1)))
    return [f"s{str(i).zfill(width)}" for i in range(n)]


def _attach_hosts(topo: Topology, hosts_per_switch: int, capacity: float, latency: float) -> None:
    for switch in list(topo.switches):
        for j in range(hosts_per_switch):
            host = f"h_{switch}_{j}"
            topo.add_host(host, switch)
            topo.add_link(host, switch, capacity=capacity, latency=latency)


def _ensure_connected(topo: Topology, rng: random.Random, capacity: float, latency: float) -> None:
    """Add links between components until the switch graph is connected."""
    while not topo.is_connected():
        switches = topo.switches
        seen = {switches[0]}
        stack = [switches[0]]
        while stack:
            node = stack.pop()
            for nbr in topo.switch_neighbors(node):
                if nbr not in seen:
                    seen.add(nbr)
                    stack.append(nbr)
        outside = [s for s in switches if s not in seen]
        a = rng.choice(sorted(seen))
        b = rng.choice(outside)
        if not topo.has_link(a, b):
            topo.add_link(a, b, capacity=capacity, latency=latency)


def random_regular(
    n: int,
    degree: int = 4,
    seed: int = 0,
    capacity: float = 10.0,
    latency: float = 0.05,
    hosts_per_switch: int = 0,
    name: Optional[str] = None,
) -> Topology:
    """A connected random (approximately) ``degree``-regular graph on ``n`` switches."""
    if n < 2:
        raise TopologyError("random_regular needs at least 2 switches")
    if degree < 1 or degree >= n:
        raise TopologyError(f"degree must be in [1, n-1], got {degree} for n={n}")

    rng = random.Random(seed)
    names = _names(n)
    topo = Topology(name or f"random-regular-{n}-d{degree}")
    for s in names:
        topo.add_switch(s)

    # Pairing model: create degree "stubs" per node, match them randomly, skip
    # self-loops/duplicates, then repair connectivity.
    stubs = [s for s in names for _ in range(degree)]
    rng.shuffle(stubs)
    for i in range(0, len(stubs) - 1, 2):
        a, b = stubs[i], stubs[i + 1]
        if a != b and not topo.has_link(a, b):
            topo.add_link(a, b, capacity=capacity, latency=latency)
    _ensure_connected(topo, rng, capacity, latency)
    _attach_hosts(topo, hosts_per_switch, capacity, latency)
    topo.validate()
    return topo


def random_network(n: int, seed: int = 0, **kwargs) -> Topology:
    """The default "random network" family used by the Figure 9b/10b sweep."""
    degree = kwargs.pop("degree", 4)
    return random_regular(n, degree=degree, seed=seed, **kwargs)
