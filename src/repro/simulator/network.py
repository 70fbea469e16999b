"""Network assembly: topology + routing system + workload → a runnable simulation.

:class:`Network` wires hosts, switches and directed links together, installs a
routing system (one :class:`~repro.simulator.switchnode.RoutingLogic` per
switch), schedules the workload's flow arrivals, and exposes failure injection
and statistics.  This is the reproduction's stand-in for the paper's ns-3
testbed (DESIGN.md §4).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.exceptions import SimulationError
from repro.simulator.engine import Simulator
from repro.simulator.flow import TRANSPORT_MODES, Flow
from repro.simulator.host import Host
from repro.simulator.link import SimLink
from repro.simulator.packet import Packet
from repro.simulator.stats import StatsCollector
from repro.simulator.switchnode import RoutingLogic, SwitchNode
from repro.topology.graph import Topology

__all__ = ["RoutingSystem", "Network"]


class RoutingSystem:
    """Factory for per-switch routing logic; one instance per simulation run.

    Subclasses provide :meth:`create_switch_logic`; :meth:`prepare` runs after
    the network is wired (useful for precomputing paths), and :meth:`start`
    after flows are scheduled (useful for kicking off periodic probes).
    """

    name = "routing"

    #: Race-detector hooks (repro.experiments.race).  ``commutable_rounds``
    #: names periodic-round methods whose same-tick relative order is *not*
    #: part of the determinism contract — the race detector may permute
    #: adjacent same-timestamp firings of these, and ``race_rng`` (when
    #: installed) additionally shuffles intra-round iteration orders that are
    #: likewise undocumented.  Both stay inert in normal runs.
    race_rng = None
    commutable_rounds: Tuple[str, ...] = ()

    def prepare(self, network: "Network") -> None:
        """Called once after all nodes and links exist."""

    def create_switch_logic(self, switch: str) -> RoutingLogic:
        raise NotImplementedError

    def start(self, network: "Network") -> None:
        """Called once just before the simulation starts running."""

    #: Extra per-packet header bits this system adds to data packets (overhead
    #: accounting for Figure 16); Contra overrides this.
    def packet_header_bits(self) -> int:
        return 0


class Network:
    """A fully wired simulation of one topology under one routing system."""

    def __init__(
        self,
        topology: Topology,
        routing_system: RoutingSystem,
        buffer_packets: int = 1000,
        host_window: int = 12,
        host_rto: float = 5.0,
        util_window: float = 1.0,
        stats: Optional[StatsCollector] = None,
        transport: str = "fixed",
        host_ack_every: int = 1,
        sanitize: Optional[bool] = None,
    ):
        if transport not in TRANSPORT_MODES:
            raise SimulationError(
                f"unknown transport mode {transport!r}; available: {TRANSPORT_MODES}")
        if host_ack_every < 1:
            raise SimulationError(
                f"host_ack_every must be >= 1, got {host_ack_every}")
        self.topology = topology
        #: host -> attachment switch: the topology's own live map, read here
        #: once for every host and for the wiring in :meth:`_build`.
        self.host_attachments = topology.host_attachments
        self.routing_system = routing_system
        self.sim = Simulator(sanitize=sanitize)
        #: The sanitizer plane, present only when ``sanitize`` resolved true.
        self.sanitizer = getattr(self.sim, "sanitizer", None)
        self.stats = stats if stats is not None else StatsCollector()
        self.buffer_packets = buffer_packets
        self.util_window = util_window
        self.transport = transport

        self.hosts: Dict[str, Host] = {}
        self.switches: Dict[str, SwitchNode] = {}
        #: directed links keyed by (src node, dst node).
        self.links: Dict[Tuple[str, str], SimLink] = {}

        self._host_window = host_window
        self._host_rto = host_rto
        self._host_ack_every = host_ack_every
        self._pending_failures: List[Tuple[float, str, str]] = []
        self._scheduled_flows = 0
        self._build()
        if self.sanitizer is not None:
            # After _build so every node and link exists, before anything is
            # scheduled so every registered delivery is a wrapped one.
            self.sanitizer.instrument_network(self)

    # ------------------------------------------------------------------ build

    def _build(self) -> None:
        for host_name in self.topology.hosts:
            self.hosts[host_name] = Host(self, host_name,
                                         window=self._host_window, rto=self._host_rto,
                                         transport=self.transport,
                                         ack_every=self._host_ack_every)
        for switch_name in self.topology.switches:
            logic = self.routing_system.create_switch_logic(switch_name)
            self.switches[switch_name] = SwitchNode(self, switch_name, logic)

        for (src, dst), params in self.topology.link_params():
            # Deliveries call the destination node's receive() directly; the
            # node objects all exist by now, so no per-delivery lookup is paid.
            dst_node = self.switches.get(dst) or self.hosts.get(dst)
            if dst_node is None:  # pragma: no cover - topology guarantees a node
                raise SimulationError(f"link {src}->{dst} has no destination node")
            sim_link = SimLink(
                self.sim, src, dst,
                capacity=params.capacity, latency=params.latency,
                buffer_packets=self.buffer_packets,
                deliver=dst_node.receive,
                stats=self.stats,
                util_window=self.util_window,
            )
            # A link towards a switch hands probes straight to that switch's
            # PROCESSPROBE (receive() would only dispatch them there).  Links
            # towards a wave-judging routing logic additionally accumulate
            # their same-tick probe runs into wave views and deliver probes
            # to its wave entry point (array probe plane).
            dst_routing = getattr(dst_node, "routing", None)
            if dst_routing is not None:
                sim_link.probe_sink = dst_routing.on_probe
                if dst_routing.wants_probe_waves:
                    sim_link.probe_wave_sink = dst_routing.on_probe_wave
            self.links[(src, dst)] = sim_link
            if src in self.switches:
                self.switches[src].add_port(dst, sim_link)
            elif src in self.hosts:
                self.hosts[src].uplink = sim_link

        for host_name in self.hosts:            # built in sorted-name order
            self.switches[self.host_attachments[host_name]].add_host(host_name)

        self.routing_system.prepare(self)

    # ---------------------------------------------------------------- queries

    def is_switch(self, name: str) -> bool:
        return name in self.switches

    def is_host(self, name: str) -> bool:
        return name in self.hosts

    def attachment_switch(self, host: str) -> str:
        return self.topology.attachment_switch(host)

    def link(self, src: str, dst: str) -> SimLink:
        try:
            return self.links[(src, dst)]
        except KeyError:
            raise SimulationError(f"no simulated link {src!r} -> {dst!r}") from None

    def destination_switches(self) -> List[str]:
        """Switches with at least one attached host (the probe destinations)."""
        return sorted({self.topology.attachment_switch(h) for h in self.topology.hosts})

    def link_metric_lookup(self) -> Callable[[str, str], Dict[str, float]]:
        """A ``link_metrics(a, b)`` callable for the compiler's reference oracle."""
        def lookup(a: str, b: str) -> Dict[str, float]:
            return self.link(a, b).metric_values()
        return lookup

    # -------------------------------------------------------------- workloads

    def schedule_flows(self, flows: Iterable[Flow]) -> int:
        """Schedule the arrival of every flow; returns how many were scheduled."""
        count = 0
        for flow in flows:
            if flow.src_host not in self.hosts:
                raise SimulationError(f"flow references unknown source host {flow.src_host!r}")
            if flow.dst_host not in self.hosts:
                raise SimulationError(f"flow references unknown destination host {flow.dst_host!r}")
            self.sim.call_at(flow.start_time, self.hosts[flow.src_host].start_flow, flow)
            count += 1
        self._scheduled_flows += count
        return count

    # ---------------------------------------------------------------- failures

    def fail_link(self, a: str, b: str, at_time: float = 0.0, bidirectional: bool = True) -> None:
        """Schedule a link failure (both directions by default)."""
        def fail() -> None:
            self.link(a, b).fail()
            if bidirectional and (b, a) in self.links:
                self.link(b, a).fail()
            if a in self.switches:
                self.switches[a].routing.on_link_change(b, failed=True)
            if b in self.switches and bidirectional:
                self.switches[b].routing.on_link_change(a, failed=True)
        self.sim.call_at(at_time, fail)

    def recover_link(self, a: str, b: str, at_time: float = 0.0, bidirectional: bool = True) -> None:
        """Schedule a link recovery."""
        def recover() -> None:
            self.link(a, b).recover()
            if bidirectional and (b, a) in self.links:
                self.link(b, a).recover()
            if a in self.switches:
                self.switches[a].routing.on_link_change(b, failed=False)
            if b in self.switches and bidirectional:
                self.switches[b].routing.on_link_change(a, failed=False)
        self.sim.call_at(at_time, recover)

    # --------------------------------------------------------------------- run

    def run(self, duration: float, stop_after_completion: bool = False) -> StatsCollector:
        """Start the routing system and run the simulation for ``duration`` ms.

        With ``stop_after_completion`` the run ends as soon as every scheduled
        flow has completed (FCT experiments spend a large fraction of their
        budget simulating the probe-only tail after the last flow otherwise).
        Runs with incomplete flows still go the full duration.
        """
        if stop_after_completion and self._scheduled_flows > 0:
            self.stats.watch_completion(self._scheduled_flows, self.sim.stop)
        self.routing_system.start(self)
        self.sim.run(until=duration)
        if self.sanitizer is not None:
            self.sanitizer.finish(self)
        return self.stats
