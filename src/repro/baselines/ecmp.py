"""ECMP and single shortest-path baselines.

ECMP hashes each flow onto one of the equal-cost shortest-path next hops,
irrespective of network load — the classic static load balancer Contra and
Hula are compared against in Figures 11/12.  :class:`ShortestPathSystem` is
the even simpler "SP" baseline used on Abilene (Figure 15): a single,
deterministic shortest path per destination.
"""

from __future__ import annotations

from typing import Mapping, Optional, Tuple

from repro.protocol.tables import packet_flow_hash
from repro.simulator.network import Network, RoutingSystem
from repro.simulator.packet import Packet
from repro.simulator.switchnode import RoutingLogic
from repro.topology.graph import NextHopTable, Topology

__all__ = ["EcmpSystem", "ShortestPathSystem", "next_hop_table"]


def next_hop_table(topology: Topology, all_hops: bool) -> NextHopTable:
    """For every switch, the shortest-path next hops towards every other switch.

    ``all_hops`` keeps every equal-cost next hop (ECMP); otherwise only the
    first in name order (single shortest path).  This is
    :meth:`Topology.next_hop_table <repro.topology.graph.Topology.next_hop_table>`:
    one table per topology, shared by every simulation on it — the packet
    systems here and the fluid path models (:mod:`repro.simulator.fluid`)
    alike — and read-only down to its tuple rows.
    """
    return topology.next_hop_table(all_hops)


class _HashingLogic(RoutingLogic):
    """Forward by hashing the flow onto the precomputed next-hop set."""

    def __init__(self, system: "EcmpSystem"):
        self.system = system
        self._rows: Optional[Mapping[str, Tuple[str, ...]]] = None

    def on_data_packet(self, packet: Packet, inport: str) -> Optional[str]:
        rows = self._rows
        if rows is None:  # the table is computed in prepare(), after wiring
            rows = self._rows = self.system._table.get(self.switch.name, {})
        hops = rows.get(packet.dst_switch)
        if not hops:
            return None
        # Fast path: hash across the full hop set; only when the chosen link
        # is down re-hash across the live subset (identical to hashing the
        # live subset directly whenever nothing has failed).
        flow_hash = packet.flow_hash
        if flow_hash is None:           # hand-built packet: hosts stamp theirs
            flow_hash = packet_flow_hash(packet)
        choice = hops[flow_hash % len(hops)]
        ports = self.switch.ports
        link = ports.get(choice)
        if link is not None and not link.failed:
            return choice
        usable = [h for h in hops if h in ports and not ports[h].failed]
        if not usable:
            return None
        return usable[flow_hash % len(usable)]


class EcmpSystem(RoutingSystem):
    """Equal-cost multipath over shortest paths (load-oblivious)."""

    name = "ecmp"
    _all_hops = True

    def __init__(self) -> None:
        self._table: NextHopTable = {}

    def prepare(self, network: Network) -> None:
        self._table = next_hop_table(network.topology, all_hops=self._all_hops)

    def create_switch_logic(self, switch: str) -> RoutingLogic:
        return _HashingLogic(self)

    def next_hops(self, switch: str, destination: str) -> Tuple[str, ...]:
        return self._table.get(switch, {}).get(destination, ())


class ShortestPathSystem(EcmpSystem):
    """Single shortest path per destination (the "SP" baseline of Figure 15)."""

    name = "shortest-path"
    _all_hops = False
