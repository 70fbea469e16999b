"""Switch nodes and the routing-logic interface.

A :class:`SwitchNode` owns the egress links of one physical switch and
delegates every forwarding decision to a :class:`RoutingLogic` instance —
ECMP, shortest-path, SPAIN, Hula or the compiled Contra program.  This mirrors
the paper's architecture: the simulator provides the substrate, the routing
system provides the per-switch data-plane program.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.exceptions import SimulationError
from repro.simulator.link import send_probes
from repro.simulator.packet import Packet, Probe

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulator.link import ProbeGroups, SimLink
    from repro.simulator.network import Network, ProbeDrivenSystem

__all__ = ["RoutingLogic", "ProbeDrivenRouting", "SwitchNode"]


class RoutingLogic:
    """Per-switch data-plane program interface.

    Concrete routing systems subclass this; the switch calls
    :meth:`on_data_packet` for every data/ACK packet that is not destined to a
    locally attached host.  Control probes reach :meth:`on_probe` directly:
    ``Network`` wires it as the probe sink of every link towards the switch
    (the bound method is captured at wiring time).
    """

    def attach(self, switch: "SwitchNode", network: "Network") -> None:
        """Bind this logic to its switch.

        Called from ``SwitchNode.__init__``, so the switch has **no ports
        yet** — per-port state must be built later (``RoutingSystem.prepare``
        or lazily), never here.
        """
        self.switch = switch
        self.network = network

    def on_data_packet(self, packet: Packet, inport: str) -> Optional[str]:
        """Return the next-hop node name for a transit packet, or None to drop."""
        raise NotImplementedError

    def on_probe(self, probe: Probe, inport: str) -> None:
        """Handle a control probe.  Optional (static systems ignore probes)."""

    def on_link_change(self, neighbor: str, failed: bool) -> None:
        """Notification that the link towards ``neighbor`` failed or recovered.

        Probe-driven systems ignore it: they detect failures by probe silence.
        """


class ProbeDrivenRouting(RoutingLogic):
    """Per-switch half of a probe-driven system: probe version and failure belief.

    Subclasses provide :meth:`probe_round`, :meth:`on_probe` (which stamps
    ``_last_probe_from[inport]`` and clears ``_believed_failed[inport]``) and
    :meth:`on_data_packet`, and own a ``flowlets`` table.
    """

    #: The switch's flowlet table, built by the subclass.
    flowlets: Any

    def __init__(self, system: "ProbeDrivenSystem"):
        self.system = system
        self._version = 0
        self._last_probe_from: Dict[str, float] = {}
        self._believed_failed: Dict[str, bool] = {}

    def probe_round(self) -> None:
        """Originate this switch's probes for one period."""
        raise NotImplementedError

    def _usable_next_hop(self, neighbor: str) -> bool:
        return not self._believed_failed.get(neighbor, False) and \
            not self.switch.link_failed(neighbor)

    def failure_check(self) -> None:
        """Mark neighbours silent for ``failure_periods`` probe periods as failed (§5.4).

        Probe-silence tracking starts at a neighbour's *first* probe: only
        neighbours that have sent one are watched.  Under a regex policy a
        link may legitimately carry no probes at all, and silence on it must
        not be read as a failure.  A failed neighbour's flowlet pins expire.
        """
        now = self.network.sim.now
        window = self.system.probe_period * self.system.failure_periods
        for neighbor, last_seen in self._last_probe_from.items():
            silent = now - last_seen > window
            if silent and not self._believed_failed.get(neighbor, False):
                self._believed_failed[neighbor] = True
                self.network.stats.failure_detections += 1
                expired = self.flowlets.expire_via(neighbor)
                self.network.stats.flowlet_expirations += expired
            elif not silent and self._believed_failed.get(neighbor, False):
                self._believed_failed[neighbor] = False


class SwitchNode:
    """One physical switch in the simulation."""

    #: :func:`repro.simulator.link.send_probes`, the one way a probe enters a
    #: link; reached through the switch so a sanitized network can shadow it
    #: per instance.
    send_probes = staticmethod(send_probes)

    def __init__(self, network: "Network", name: str, routing: RoutingLogic):
        self.network = network
        self.sim = network.sim
        self.stats = network.stats
        self.name = name
        self.routing = routing
        #: egress links keyed by neighbor node name (switches and hosts).
        self.ports: Dict[str, "SimLink"] = {}
        #: hosts attached directly to this switch.
        self.attached_hosts: List[str] = []
        #: The receivers tuple of each multicast target set this switch has
        #: sent to, built at its first send (:func:`send_probes`).
        self.probe_groups: "ProbeGroups" = {}
        routing.attach(self, network)

    # ------------------------------------------------------------------ wiring

    def add_port(self, neighbor: str, link: "SimLink") -> None:
        self.ports[neighbor] = link

    def add_host(self, host: str) -> None:
        self.attached_hosts.append(host)

    def egress(self, neighbor: str) -> "SimLink":
        try:
            return self.ports[neighbor]
        except KeyError:
            raise SimulationError(f"switch {self.name} has no port towards {neighbor!r}") from None

    def switch_neighbors(self) -> List[str]:
        """Neighbouring switches (hosts excluded), sorted for determinism."""
        return sorted(n for n in self.ports if self.network.is_switch(n))

    def link_metrics(self, neighbor: str) -> Dict[str, float]:
        """Metric values of the egress link towards ``neighbor`` (traffic direction)."""
        return self.egress(neighbor).metric_values()

    def link_failed(self, neighbor: str) -> bool:
        link = self.ports.get(neighbor)
        return link is None or link.failed

    # ----------------------------------------------------------------- receive

    def receive(self, packet: "Packet | Probe", inport: str) -> None:
        """Entry point for packets delivered by an ingress link.

        Wired links deliver probes to ``routing.on_probe`` themselves; the
        probe branch serves direct callers and hand-built links.
        """
        kind = packet.kind
        if kind == "probe":
            self.routing.on_probe(packet, inport)
            return
        stats = self.stats

        # Measurement only: record the path and spot revisits (loops).
        if stats.record_paths and kind == "data":
            if packet.path_trace is None:
                packet.path_trace = []
            if self.name in packet.path_trace and not packet.looped:
                packet.looped = True
                stats.looped_packets += 1
            packet.path_trace.append(self.name)

        # Local delivery to an attached host.
        ports = self.ports
        link = ports.get(packet.dst_host)
        if link is not None and packet.dst_switch == self.name:
            link.enqueue(packet)
            return

        packet.ttl -= 1
        if packet.ttl <= 0:
            stats.record_switch_drop(packet)
            return

        next_hop = self.routing.on_data_packet(packet, inport)
        if next_hop is None:
            stats.record_switch_drop(packet)
            return
        link = ports.get(next_hop)
        if link is None:
            stats.record_switch_drop(packet)
            return
        if kind == "data":
            stats.data_packets_forwarded += 1
        link.enqueue(packet)

    # ------------------------------------------------------------------- misc

    def __repr__(self) -> str:
        return f"SwitchNode({self.name}, ports={len(self.ports)})"
