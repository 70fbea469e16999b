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

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.protocol.tables import FlowletTable, packet_flow_hash
from repro.simulator.network import Network, RoutingSystem
from repro.simulator.packet import BASE_PROBE_BYTES, Packet, PacketKind
from repro.simulator.switchnode import RoutingLogic

__all__ = ["HulaSystem", "HulaRouting"]

#: Hula probe payload: origin ToR id + version + utilization.
_HULA_PROBE_BYTES = BASE_PROBE_BYTES + 8


@dataclass(slots=True)
class _BestHop:
    next_hop: str
    utilization: float
    version: int
    updated_at: float


class HulaSystem(RoutingSystem):
    """Hula: utilization-aware load balancing over shortest paths."""

    name = "hula"

    def __init__(
        self,
        probe_period: float = 0.25,
        flowlet_timeout: float = 0.2,
        failure_periods: int = 3,
    ):
        self.probe_period = probe_period
        self.flowlet_timeout = flowlet_timeout
        self.failure_periods = failure_periods
        self._logics: Dict[str, "HulaRouting"] = {}
        #: hop distance between every pair of switches (static shortest paths).
        self.distances: Dict[str, Dict[str, float]] = {}

    def prepare(self, network: Network) -> None:
        self.distances = network.topology.shortest_path_lengths()

    def create_switch_logic(self, switch: str) -> RoutingLogic:
        logic = HulaRouting(self, switch)
        self._logics[switch] = logic
        return logic

    def start(self, network: Network) -> None:
        # One recurring engine event coalesces every per-switch round of a
        # probe period (and one more the failure checks); see ContraSystem.
        origins = [self._logics[switch] for switch in network.destination_switches()]
        if origins:
            network.sim.schedule_periodic(self.probe_period, self._probe_all, origins)
        logics = list(self._logics.values())
        if logics:
            network.sim.schedule_periodic(
                self.probe_period, self._failure_check_all, logics,
                start_delay=self.probe_period * self.failure_periods)

    #: Same-tick rounds the race detector may permute; see ContraSystem.
    commutable_rounds = ("_probe_all", "_failure_check_all")

    @staticmethod
    def _probe_all(origins: List["HulaRouting"]) -> None:
        for logic in origins:
            logic.probe_round()

    def _failure_check_all(self, logics: List["HulaRouting"]) -> None:
        # Mutually independent per-switch checks; order is undocumented and
        # shuffled by the race detector when installed (see ContraSystem).
        rng = self.race_rng
        if rng is not None:
            logics = list(logics)
            rng.shuffle(logics)
        for logic in logics:
            logic.failure_check()

    def logic(self, switch: str) -> "HulaRouting":
        return self._logics[switch]


class HulaRouting(RoutingLogic):
    """Per-switch Hula logic."""

    def __init__(self, system: HulaSystem, name: str):
        self.system = system
        self.name = name
        self.best: Dict[str, _BestHop] = {}
        self.flowlets = FlowletTable(system.flowlet_timeout)
        self._version = 0
        self._last_probe_from: Dict[str, float] = {}
        self._believed_failed: Dict[str, bool] = {}

    # ------------------------------------------------------------------ probes

    def probe_round(self) -> None:
        self._version += 1
        for neighbor in self._downstream_neighbors(self.name, origin=self.name):
            self._send_probe(neighbor, origin=self.name, version=self._version, util=0.0)

    def _downstream_neighbors(self, switch: str, origin: str) -> List[str]:
        """Neighbours strictly farther from ``origin`` (the shortest-path DAG)."""
        distances = self.system.distances
        here = distances.get(origin, {}).get(switch)
        if here is None:
            return []
        result = []
        for neighbor in self.network.switches[switch].switch_neighbors():
            there = distances.get(origin, {}).get(neighbor)
            if there is not None and there > here:
                result.append(neighbor)
        return result

    def _send_probe(self, neighbor: str, origin: str, version: int, util: float) -> None:
        # Believed-failed neighbours still get probes: the failed link drops
        # them, and the first probe through the recovered link is what clears
        # the far side's failure belief (recovery detection mirrors failure
        # detection — both work purely by probe arrival/silence).
        packet = Packet(
            kind=PacketKind.PROBE,
            src_host=self.name,
            dst_host="",
            size_bytes=_HULA_PROBE_BYTES,
            probe={"origin": origin, "version": version, "util": util},
        )
        self.switch.send_probe(packet, neighbor)

    def on_probe(self, packet: Packet, inport: str) -> None:
        now = self.network.sim.now
        self._last_probe_from[inport] = now
        self._believed_failed[inport] = False
        data = packet.probe or {}
        origin = data["origin"]
        version = int(data["version"])
        if origin == self.name:
            return
        # Bottleneck utilization of the traffic-direction link (this -> inport),
        # including standing-queue pressure (same estimator Contra reads).
        util = max(float(data["util"]), self.switch.egress(inport).congestion)

        entry = self.best.get(origin)
        accept = (
            entry is None
            or version > entry.version
            or (version == entry.version and util < entry.utilization)
        )
        if not accept:
            return
        self.best[origin] = _BestHop(inport, util, version, now)
        for neighbor in self._downstream_neighbors(self.name, origin):
            if neighbor != inport:
                self._send_probe(neighbor, origin, version, util)

    # -------------------------------------------------------------- forwarding

    def on_data_packet(self, packet: Packet, inport: str) -> Optional[str]:
        destination = packet.dst_switch
        now = self.network.sim.now
        flow_hash = packet.flow_hash
        if flow_hash is None:           # hand-built packet: hosts stamp theirs
            flow_hash = packet_flow_hash(packet)
        fid = flow_hash % self.flowlets.slots

        pinned = self.flowlets.lookup(destination, 0, 0, fid, now)
        if pinned is not None and self._usable(pinned.next_hop):
            self.flowlets.touch(pinned, now)
            return pinned.next_hop
        if pinned is not None:
            self.flowlets.expire(destination, 0, 0, fid)
            self.network.stats.flowlet_expirations += 1

        entry = self.best.get(destination)
        if entry is None or not self._usable(entry.next_hop) or self._stale(entry, now):
            fallback = self._fallback_next_hop(destination)
            if fallback is None:
                return None
            self.flowlets.install(destination, 0, 0, fid, fallback, 0, now)
            return fallback
        self.flowlets.install(destination, 0, 0, fid, entry.next_hop, 0, now)
        return entry.next_hop

    def _stale(self, entry: _BestHop, now: float) -> bool:
        max_age = self.system.probe_period * (self.system.failure_periods + 1)
        return now - entry.updated_at > max_age

    def _usable(self, neighbor: str) -> bool:
        return not self._believed_failed.get(neighbor, False) and \
            not self.switch.link_failed(neighbor)

    def _fallback_next_hop(self, destination: str) -> Optional[str]:
        """When probe state is missing, fall back to any live shortest-path hop."""
        distances = self.system.distances
        here = distances.get(destination, {}).get(self.name)
        if here is None:
            return None
        candidates = []
        for neighbor in self.switch.switch_neighbors():
            there = distances.get(destination, {}).get(neighbor)
            if there is not None and there < here and self._usable(neighbor):
                candidates.append(neighbor)
        return candidates[0] if candidates else None

    # ---------------------------------------------------------------- failures

    def failure_check(self) -> None:
        """Probe-silence failure detection; a neighbour is watched from its first probe."""
        now = self.network.sim.now
        window = self.system.probe_period * self.system.failure_periods
        for neighbor, last_seen in self._last_probe_from.items():
            silent = now - last_seen > window
            if silent and not self._believed_failed.get(neighbor, False):
                self._believed_failed[neighbor] = True
                self.network.stats.failure_detections += 1
                self.network.stats.flowlet_expirations += self.flowlets.expire_via(neighbor)
            elif not silent:
                self._believed_failed[neighbor] = False
