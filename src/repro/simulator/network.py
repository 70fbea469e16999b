"""Network assembly: topology + routing system + workload → a runnable simulation.

:class:`Network` wires hosts, switches and directed links together, installs a
routing system (one :class:`~repro.simulator.switchnode.RoutingLogic` per
switch), schedules the workload's flow arrivals, and exposes failure injection
and statistics.  This is the reproduction's stand-in for the paper's ns-3
testbed (DESIGN.md §4).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.exceptions import COUNT, NON_NEGATIVE, POSITIVE, SimulationError, require
from repro.simulator.engine import Simulator
from repro.simulator.flow import TRANSPORT_DOMAIN, Flow
from repro.simulator.host import Host
from repro.simulator.link import SimLink
from repro.simulator.stats import StatsCollector
from repro.simulator.switchnode import ProbeDrivenRouting, RoutingLogic, SwitchNode
from repro.topology.graph import Topology

__all__ = ["RoutingSystem", "ProbeDrivenSystem", "Network"]


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


class ProbeDrivenSystem(RoutingSystem):
    """A distance-vector system run by periodic probes: Contra and Hula.

    Every probe period each origin switch sends a versioned probe round
    (§5.1), and every switch checks which neighbours have been silent for
    ``failure_periods`` periods (§5.4).  Subclasses provide
    :meth:`create_switch_logic` (registering each logic in ``_logics``) and
    the per-switch :class:`~repro.simulator.switchnode.ProbeDrivenRouting`.
    """

    def __init__(self, probe_period: float, flowlet_timeout: float,
                 failure_periods: int):
        require("probe_period", probe_period, POSITIVE, SimulationError)
        require("flowlet_timeout", flowlet_timeout, NON_NEGATIVE, SimulationError)
        require("failure_periods", failure_periods, COUNT, SimulationError)
        self.probe_period = probe_period
        self.flowlet_timeout = flowlet_timeout
        self.failure_periods = failure_periods
        #: The freshness bound of probe-installed state: a row no probe
        #: refreshed for one period past the failure window is not followed.
        self.max_age = probe_period * (failure_periods + 1)
        self._logics: Dict[str, ProbeDrivenRouting] = {}

    def logic(self, switch: str) -> ProbeDrivenRouting:
        return self._logics[switch]

    def start(self, network: "Network") -> None:
        """Arm the periodic probe rounds and failure checks.

        All per-switch rounds of one period fire at the same instant, so they
        are coalesced under a single recurring engine event each (origination
        and failure checking) instead of one self-rescheduling chain per
        switch; the per-switch work runs in deterministic creation order.
        """
        origins = [self._logics[switch] for switch in network.destination_switches()]
        if origins:
            network.sim.schedule_periodic(self.probe_period, self._probe_all, origins)
        logics = list(self._logics.values())
        if logics:
            network.sim.schedule_periodic(
                self.probe_period, self._failure_check_all, logics,
                start_delay=self.probe_period * self.failure_periods)

    #: Same-tick rounds whose relative heap order is free, not contractual
    #: (probe origination reads link state, failure checking flips belief
    #: bits neither round reads back this tick) — the race detector is
    #: allowed to permute adjacent firings of these.
    commutable_rounds = ("_probe_all", "_failure_check_all")

    @staticmethod
    def _probe_all(origins: List[ProbeDrivenRouting]) -> None:
        for logic in origins:
            logic.probe_round()

    def _failure_check_all(self, logics: List[ProbeDrivenRouting]) -> None:
        # Per-switch failure checks are mutually independent (each flips its
        # own belief bits); the iteration order is undocumented, so the race
        # detector shuffles it when installed.
        rng = self.race_rng
        if rng is not None:
            logics = list(logics)
            rng.shuffle(logics)
        for logic in logics:
            logic.failure_check()


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
        sanitize: Optional[bool] = None,
    ):
        require("transport", transport, TRANSPORT_DOMAIN, SimulationError)
        require("buffer_packets", buffer_packets, COUNT, SimulationError)
        require("host_window", host_window, COUNT, SimulationError)
        require("host_rto", host_rto, POSITIVE, SimulationError)
        require("util_window", util_window, POSITIVE, SimulationError)
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
        self._scheduled_flows = 0
        self._closed = False
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
                                         transport=self.transport)
        for switch_name in self.topology.switches:
            logic = self.routing_system.create_switch_logic(switch_name)
            self.switches[switch_name] = SwitchNode(self, switch_name, logic)

        # Only links between two switches carry probes.  Each hands them
        # straight to the far switch's PROCESSPROBE (receive() would only
        # dispatch them there), over a pair built here, before any run; a
        # switch's sink is bound once, for all the links into it.
        sinks = {name: switch.routing.on_probe for name, switch in self.switches.items()}
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
            if src in sinks and dst in sinks:
                sim_link.probe_receivers = (sinks[dst], src)
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

    # -------------------------------------------------------------- workloads

    def schedule_flows(self, flows: Iterable[Flow]) -> int:
        """Schedule the arrival of every flow; returns how many were scheduled."""
        self._refuse_if_closed("schedule flows on")
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

    def fail_link(self, a: str, b: str, at_time: float = 0.0) -> None:
        """Schedule a failure of the a-b link, both directions."""
        self._refuse_if_closed("fail a link of")

        def fail() -> None:
            self.link(a, b).fail()
            if (b, a) in self.links:
                self.link(b, a).fail()
            if a in self.switches:
                self.switches[a].routing.on_link_change(b, failed=True)
            if b in self.switches:
                self.switches[b].routing.on_link_change(a, failed=True)
        self.sim.call_at(at_time, fail)

    def recover_link(self, a: str, b: str, at_time: float = 0.0) -> None:
        """Schedule a recovery of the a-b link, both directions."""
        self._refuse_if_closed("recover a link of")

        def recover() -> None:
            self.link(a, b).recover()
            if (b, a) in self.links:
                self.link(b, a).recover()
            if a in self.switches:
                self.switches[a].routing.on_link_change(b, failed=False)
            if b in self.switches:
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
        self._refuse_if_closed("run")
        if stop_after_completion and self._scheduled_flows > 0:
            self.stats.watch_completion(self._scheduled_flows, self.sim.stop)
        self.routing_system.start(self)
        self.sim.run(until=duration)
        if self.sanitizer is not None:
            self.sanitizer.finish(self)
        return self.stats

    # ------------------------------------------------------------------- close

    def close(self) -> None:
        """End the network's life: cut the back-edges that make it a cycle.

        A wired network is one reference cycle — links call into nodes,
        nodes and logics point back at the network, their switch and their
        system, and pending events hold bound methods — so without this it
        is freed only when the cyclic collector next runs.  Closing clears
        the engine's pending events (:meth:`Simulator.close`, which under
        the sanitizer also takes off its wrappers), gives every link the
        no-op receiver (:meth:`SimLink.close`), and drops each node's
        ``network`` and each logic's ``switch``, ``network`` and (probe
        driven) ``system`` (:meth:`RoutingLogic.detach`).  What a reader
        looks at after the run stays: ``switches`` and their ``routing``
        with its tables, ``links`` and their counters, ``stats``,
        ``routing_system`` and ``sim.events_processed``.  A closed network
        refuses :meth:`run`, :meth:`schedule_flows`, :meth:`fail_link` and
        :meth:`recover_link`; closing twice does nothing.
        """
        if self._closed:
            return
        self._closed = True
        self.sim.close()
        for link in self.links.values():
            link.close()
        for host in self.hosts.values():
            del host.network
        for switch in self.switches.values():
            del switch.network
            switch.routing.detach()

    def _refuse_if_closed(self, action: str) -> None:
        if self._closed:
            raise SimulationError(f"cannot {action} a closed network")
