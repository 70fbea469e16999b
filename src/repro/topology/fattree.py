"""k-ary fat-tree topology generator (Al-Fares et al.).

A k-ary fat-tree has ``(k/2)^2`` core switches, ``k`` pods each containing
``k/2`` aggregation and ``k/2`` edge switches, and ``(k/2)`` hosts per edge
switch, for ``k^3/4`` hosts total.  The Contra evaluation uses fat-trees both
for the compiler-scalability experiments (Figure 9/10, switch counts 20–500)
and for the FCT experiments (Figure 11/12).

Node naming convention (stable and human readable):

* cores:        ``c0 .. c{(k/2)^2-1}``
* aggregation:  ``a{pod}_{i}``
* edge:         ``e{pod}_{i}``
* hosts:        ``h{pod}_{edge}_{j}``
"""

from __future__ import annotations

from typing import Optional

from repro.exceptions import TopologyError
from repro.topology.graph import NodeKind, Topology

__all__ = ["fattree", "fattree_for_switch_count", "FATTREE_SWITCH_COUNTS"]

#: Switch counts of k=4,6,8,10,... fat-trees; the paper's Figure 9a x-axis
#: (20, 125, 245, 405, 500) corresponds approximately to k=4..12 fat-trees.
FATTREE_SWITCH_COUNTS = {4: 20, 6: 45, 8: 80, 10: 125, 12: 180, 14: 245, 16: 320, 18: 405, 20: 500}


def fattree(
    k: int = 4,
    hosts_per_edge: Optional[int] = None,
    capacity: float = 10.0,
    latency: float = 0.05,
    host_capacity: Optional[float] = None,
    oversubscription: float = 1.0,
    name: Optional[str] = None,
) -> Topology:
    """Build a k-ary fat-tree.

    Parameters
    ----------
    k:
        Fat-tree arity; must be even and >= 2.
    hosts_per_edge:
        Hosts attached to each edge switch (default ``k/2``).
    capacity:
        Switch-to-switch link capacity (packets per millisecond).
    latency:
        Per-link propagation delay in milliseconds.
    host_capacity:
        Host uplink capacity; defaults to ``capacity``.
    oversubscription:
        Ratio by which the edge-to-aggregation capacity is reduced relative to
        the host-facing capacity (the paper uses 4:1 in §6.3).  A value of 4.0
        divides the edge uplink capacity by 4.
    """
    if k < 2 or k % 2 != 0:
        raise TopologyError(f"fat-tree arity k must be even and >= 2, got {k}")
    if oversubscription <= 0:
        raise TopologyError("oversubscription must be positive")

    half = k // 2
    if hosts_per_edge is None:
        hosts_per_edge = half
    if host_capacity is None:
        host_capacity = capacity
    uplink_capacity = capacity / oversubscription

    topo = Topology(name or f"fattree-k{k}")

    cores = [f"c{i}" for i in range(half * half)]
    for core in cores:
        topo.add_switch(core, role=NodeKind.CORE)

    for pod in range(k):
        aggs = [f"a{pod}_{i}" for i in range(half)]
        edges = [f"e{pod}_{i}" for i in range(half)]
        for agg in aggs:
            topo.add_switch(agg, role=NodeKind.AGGREGATION)
        for edge in edges:
            topo.add_switch(edge, role=NodeKind.EDGE)

        # Edge <-> aggregation: complete bipartite within the pod.
        for edge in edges:
            for agg in aggs:
                topo.add_link(edge, agg, capacity=uplink_capacity, latency=latency)

        # Aggregation <-> core: agg i connects to cores [i*half, (i+1)*half).
        for i, agg in enumerate(aggs):
            for j in range(half):
                core = cores[i * half + j]
                topo.add_link(agg, core, capacity=uplink_capacity, latency=latency)

        # Hosts.
        for e_idx, edge in enumerate(edges):
            for j in range(hosts_per_edge):
                host = f"h{pod}_{e_idx}_{j}"
                topo.add_host(host, edge)
                topo.add_link(host, edge, capacity=host_capacity, latency=latency)

    topo.validate()
    return topo


def fattree_for_switch_count(target_switches: int, with_hosts: bool = False, **kwargs) -> Topology:
    """Build the smallest fat-tree with at least ``target_switches`` switches.

    Used by the Figure 9/10 scalability sweep, whose x-axis is switch count.
    Hosts are omitted by default because the compiler only sees switches.
    """
    if target_switches < 1:
        raise TopologyError("target_switches must be positive")
    k = 2
    while True:
        k += 2
        switch_count = 5 * (k // 2) ** 2  # (k/2)^2 cores + k pods * k switches = 5(k/2)^2
        if switch_count >= target_switches:
            hosts_per_edge = None if with_hosts else 0
            return fattree(k, hosts_per_edge=hosts_per_edge, **kwargs)
        if k > 64:
            raise TopologyError(f"refusing to build a fat-tree larger than k=64 "
                                f"for target {target_switches}")
