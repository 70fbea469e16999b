"""Hula baseline (Katta et al., SOSR 2016).

Hula is the state-of-the-art hand-crafted comparison point in Figures 11/12/14:
utilization-aware load balancing over the *shortest* paths of a datacenter
topology, implemented entirely in the data plane with periodic probes and
flowlet switching.

The implementation here follows the published design:

* every ToR (a switch with attached hosts) periodically originates probes
  carrying the bottleneck (max) utilization seen so far;
* probes are flooded along the shortest-path DAG away from the origin — on a
  Fat-tree this is exactly Hula's "up then down" multicast, and the same rule
  generalises the baseline to any topology where it is given shortest paths
  a priori (the paper notes this static knowledge is precisely what Hula has
  and Contra must discover);
* each switch keeps, per destination ToR, the best next hop and its path
  utilization, refreshed by versioned probes;
* data packets are forwarded with flowlet switching on the best next hop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.simulator.network import Network, ProbeDrivenSystem
from repro.simulator.packet import BASE_PROBE_BYTES, Packet, Probe
from repro.simulator.switchnode import FlowletKey, ProbeDrivenRouting

__all__ = ["HulaSystem", "HulaRouting"]

#: Hula probe payload: origin ToR id + version + utilization.
_HULA_PROBE_BYTES = BASE_PROBE_BYTES + 8


class HulaProbe(Probe):
    """One Hula probe: origin ToR, version and the path's bottleneck utilization."""

    __slots__ = ("origin", "version", "util")

    def __init__(self, origin: str, version: int, util: float):
        self.size_bytes = _HULA_PROBE_BYTES
        self.origin = origin
        self.version = version
        self.util = util

    def __repr__(self) -> str:
        return f"HulaProbe(origin={self.origin!r}, version={self.version}, util={self.util})"


@dataclass(slots=True)
class _BestHop:
    next_hop: str
    utilization: float
    version: int
    updated_at: float


class HulaSystem(ProbeDrivenSystem):
    """Hula: utilization-aware load balancing over shortest paths."""

    name = "hula"

    def __init__(
        self,
        probe_period: float = 0.25,
        flowlet_timeout: float = 0.2,
        failure_periods: int = 3,
    ):
        super().__init__(probe_period, flowlet_timeout, failure_periods)
        #: hop distance between every pair of switches (static shortest paths).
        self.distances: Dict[str, Dict[str, float]] = {}

    def prepare(self, network: Network) -> None:
        self.distances = network.topology.shortest_path_lengths()

    def create_switch_logic(self, switch: str) -> "HulaRouting":
        logic = HulaRouting(self, switch)
        self._logics[switch] = logic
        return logic


class HulaRouting(ProbeDrivenRouting):
    """Per-switch Hula logic."""

    system: HulaSystem

    def __init__(self, system: HulaSystem, name: str):
        super().__init__(system)
        self.name = name
        self.best: Dict[str, _BestHop] = {}
        #: origin -> this switch's downstream neighbours (static shortest paths).
        self._downstream: Dict[str, Tuple[str, ...]] = {}

    # ------------------------------------------------------------------ probes

    def probe_round(self) -> None:
        self._version += 1
        self._send_probe(HulaProbe(self.name, self._version, 0.0), exclude=None)

    def _downstream_neighbors(self, origin: str) -> Tuple[str, ...]:
        """Neighbours strictly farther from ``origin`` (the shortest-path DAG),
        computed at the first probe from ``origin`` and kept (paths are static)."""
        distances = self.system.distances.get(origin, {})
        here = distances.get(self.name)
        neighbors = () if here is None else tuple(
            [neighbor for neighbor in self.switch.switch_neighbors()
             if distances.get(neighbor, here) > here])
        self._downstream[origin] = neighbors
        return neighbors

    def _send_probe(self, probe: HulaProbe, exclude: Optional[str]) -> None:
        # Believed-failed neighbours still get probes: the failed link drops
        # them, and the first probe through the recovered link is what clears
        # the far side's failure belief (recovery detection mirrors failure
        # detection — both work purely by probe arrival/silence).
        neighbors = self._downstream.get(probe.origin)
        if neighbors is None:
            neighbors = self._downstream_neighbors(probe.origin)
        switch = self.switch
        switch.send_probes(neighbors, switch.ports, exclude, probe, switch.probe_groups)

    def on_probe(self, probe: HulaProbe, inport: str) -> None:
        now = self.sim._now
        self._last_probe_from[inport] = now
        self._believed_failed[inport] = False
        origin = probe.origin
        version = probe.version
        if origin == self.name:
            return
        # Bottleneck utilization of the traffic-direction link (this -> inport),
        # including standing-queue pressure (same estimator Contra reads).
        util = max(probe.util, self.switch.egress(inport).congestion)

        entry = self.best.get(origin)
        accept = (
            entry is None
            or version > entry.version
            or (version == entry.version and util < entry.utilization)
        )
        if not accept:
            return
        self.best[origin] = _BestHop(inport, util, version, now)
        self._send_probe(HulaProbe(origin, version, util), exclude=inport)

    # -------------------------------------------------------------- forwarding

    def _flowlet_key(self, packet: Packet, inport: str, flow_hash: int, fid: int,
                     now: float) -> FlowletKey:
        return (packet.dst_switch, 0, 0, fid)

    def _fresh_hop(self, packet: Packet, inport: str, fid: int,
                   now: float) -> Optional[str]:
        destination = packet.dst_switch
        entry = self.best.get(destination)
        next_hop = entry.next_hop if entry is not None and self._entry_valid(entry) \
            else self._fallback_next_hop(destination)
        if next_hop is None:
            return None
        self.flowlets.install(destination, 0, 0, fid, next_hop, 0, now)
        return next_hop

    def _fallback_next_hop(self, destination: str) -> Optional[str]:
        """When probe state is missing, fall back to any live shortest-path hop."""
        distances = self.system.distances
        here = distances.get(destination, {}).get(self.name)
        if here is None:
            return None
        candidates = []
        for neighbor in self.switch.switch_neighbors():
            there = distances.get(destination, {}).get(neighbor)
            if there is not None and there < here and self._usable_next_hop(neighbor):
                candidates.append(neighbor)
        return candidates[0] if candidates else None
