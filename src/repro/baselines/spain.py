"""SPAIN baseline (Mudigonda et al., NSDI 2010).

SPAIN pre-computes a set of paths per destination that avoid sharing links
where possible (offline, load-oblivious), maps each path set onto a VLAN, and
spreads flows across the VLANs end-to-end.  It is the multipath-but-static
comparison point for the Abilene experiment (Figure 15).

The reproduction keeps the essential behaviour:

* **offline path computation** — for every switch pair, up to
  :data:`SPAIN_PATHS` paths are chosen greedily: each successive path is a
  shortest path under edge weights that penalise links already used by
  previously chosen paths (the standard SPAIN path-set heuristic of "avoid
  overlap");
* **static flow-to-path assignment** — the ingress switch hashes the flow onto
  one of the precomputed paths (VLAN selection) and the packet is pinned to it
  end-to-end via a source route, mirroring VLAN forwarding without modelling
  802.1Q itself;
* **failure handling** — if the chosen path contains a failed link the ingress
  falls back to the next path in the set.
"""

from __future__ import annotations

import heapq
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Tuple

from repro.protocol.tables import packet_flow_hash
from repro.simulator.network import Network, RoutingSystem
from repro.simulator.packet import Packet
from repro.simulator.switchnode import RoutingLogic
from repro.topology.graph import Topology

__all__ = ["SpainSystem", "SpainRouting", "compute_spain_paths"]

#: (ingress switch, egress switch) -> the pair's paths, each a switch sequence.
SpainPaths = Mapping[Tuple[str, str], Tuple[Tuple[str, ...], ...]]

#: Paths chosen per switch pair (VLANs per destination).
SPAIN_PATHS = 4
#: Extra cost of a link per earlier path of the pair already using it.
OVERLAP_PENALTY = 4.0


def compute_spain_paths(network_topology: Topology) -> SpainPaths:
    """Greedy SPAIN path sets for every ordered switch pair.

    Each successive path is a least-cost path where every link already used by
    the pair's previous paths costs :data:`OVERLAP_PENALTY` more than 1, which
    pushes later paths onto disjoint links when the topology allows it.

    Computed once per topology and shared, read-only, by every simulation on
    it (:meth:`Topology.derived`).
    """
    return network_topology.derived(("spain_paths",), _greedy_path_sets)


def _greedy_path_sets(network_topology: Topology) -> SpainPaths:
    switches = network_topology.switches
    paths: Dict[Tuple[str, str], Tuple[Tuple[str, ...], ...]] = {}
    for src in switches:
        for dst in switches:
            if src == dst:
                continue
            chosen: List[List[str]] = []
            used_links: Dict[Tuple[str, str], int] = {}
            for _ in range(SPAIN_PATHS):
                path = _weighted_shortest_path(network_topology, src, dst, used_links)
                if path is None:
                    break
                if path in chosen:
                    break
                chosen.append(path)
                for a, b in zip(path, path[1:]):
                    used_links[(a, b)] = used_links.get((a, b), 0) + 1
                    used_links[(b, a)] = used_links.get((b, a), 0) + 1
            if chosen:
                paths[(src, dst)] = tuple(map(tuple, chosen))
    return MappingProxyType(paths)


def _weighted_shortest_path(topology, src: str, dst: str,
                            used_links: Dict[Tuple[str, str], int]) -> Optional[List[str]]:
    dist: Dict[str, float] = {src: 0.0}
    prev: Dict[str, str] = {}
    heap: List[Tuple[float, str]] = [(0.0, src)]
    while heap:
        d, node = heapq.heappop(heap)
        if node == dst:
            break
        if d > dist.get(node, float("inf")):
            continue
        for neighbor in topology.switch_neighbors(node):
            weight = 1.0 + OVERLAP_PENALTY * used_links.get((node, neighbor), 0)
            nd = d + weight
            if nd < dist.get(neighbor, float("inf")):
                dist[neighbor] = nd
                prev[neighbor] = node
                heapq.heappush(heap, (nd, neighbor))
    if dst not in dist:
        return None
    path = [dst]
    while path[-1] != src:
        path.append(prev[path[-1]])
    path.reverse()
    return path


class SpainRouting(RoutingLogic):
    """Per-switch SPAIN logic: assign a path at ingress, then follow the source route."""

    def __init__(self, system: "SpainSystem"):
        self.system = system

    def on_data_packet(self, packet: Packet, inport: str) -> Optional[str]:
        from_host = not self.network.is_switch(inport)
        if from_host or packet.source_route is None:
            route = self.system.select_path(self.switch, packet)
            if route is None:
                return None
            packet.source_route = route[1:]     # remaining hops after this switch

        if not packet.source_route:
            return None
        next_hop, *rest = packet.source_route
        packet.source_route = tuple(rest)
        if self.switch.link_failed(next_hop):
            return None
        return next_hop


class SpainSystem(RoutingSystem):
    """SPAIN: static multipath over precomputed low-overlap path sets."""

    name = "spain"

    def __init__(self) -> None:
        self.paths: SpainPaths = {}

    def prepare(self, network: Network) -> None:
        self.paths = compute_spain_paths(network.topology)

    def create_switch_logic(self, switch: str) -> RoutingLogic:
        return SpainRouting(self)

    def select_path(self, switch, packet: Packet) -> Optional[Tuple[str, ...]]:
        """Hash the flow onto one of the precomputed paths, skipping failed ones."""
        candidates = self.paths.get((switch.name, packet.dst_switch), ())
        if not candidates:
            return None
        flow_hash = packet.flow_hash
        if flow_hash is None:           # hand-built packet: hosts stamp theirs
            flow_hash = packet_flow_hash(packet)
        start = flow_hash % len(candidates)
        for offset in range(len(candidates)):
            path = candidates[(start + offset) % len(candidates)]
            if all(not switch.network.link(a, b).failed for a, b in zip(path, path[1:])):
                return path
        return None
