"""Switch nodes and the routing-logic interface.

A :class:`SwitchNode` owns the egress links of one physical switch and
delegates every forwarding decision to a :class:`RoutingLogic` instance —
ECMP, shortest-path, SPAIN, Hula or the compiled Contra program.  This mirrors
the paper's architecture: the simulator provides the substrate, the routing
system provides the per-switch data-plane program.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.exceptions import SimulationError
from repro.simulator.link import send_probes
from repro.simulator.packet import Packet, Probe, packet_flow_hash

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulator.link import ProbeGroups, SimLink
    from repro.simulator.network import Network, ProbeDrivenSystem

__all__ = ["RoutingLogic", "FlowletEntry", "FlowletTable", "ProbeDrivenRouting",
           "SwitchNode"]

#: A flowlet pin's key: (destination switch, tag, probe id, flowlet id).
FlowletKey = Tuple[str, int, int, int]


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
        or lazily), never here.  ``ports`` is the switch's own port dict,
        filled in as the network wires it; ``sim`` and ``stats`` are the
        run's.  After :meth:`detach` those three are what the logic still
        reads.
        """
        self.switch = switch
        self.network = network
        self.sim = network.sim
        self.stats = network.stats
        self.ports = switch.ports

    def detach(self) -> None:
        """Drop the references back into the network (``Network.close``).

        The switch holds this logic and the network holds the switch, so
        ``switch`` and ``network`` close reference cycles; a finished
        logic's tables and read methods need neither.
        """
        del self.switch, self.network

    def on_data_packet(self, packet: Packet, inport: str) -> Optional[str]:
        """Return the next-hop node name for a transit packet, or None to drop."""
        raise NotImplementedError

    def on_probe(self, probe: Probe, inport: str) -> None:
        """Handle a control probe.  Optional (static systems ignore probes)."""

    def on_link_change(self, neighbor: str, failed: bool) -> None:
        """Notification that the link towards ``neighbor`` failed or recovered.

        Probe-driven systems ignore it: they detect failures by probe silence.
        """


@dataclass(slots=True)
class FlowletEntry:
    """One policy-aware flowlet pinning decision."""

    next_hop: str
    next_tag: int
    last_seen: float


class FlowletTable:
    """Flowlet table keyed by (destination, tag, pid, flowlet id) (§5.3).

    Including the tag and probe id in the key is exactly what makes flowlet
    switching *policy-aware*: a preference change that re-tags packets starts
    a fresh flowlet entry instead of reusing a pin that would violate the
    policy.  Hula keys its pins with tag and probe id 0.

    Expiry is **lazy**: the pin step (:meth:`ProbeDrivenRouting.on_data_packet`)
    drops an expired entry on touch, and a high-water-mark sweep
    (:meth:`_sweep`, triggered from :meth:`install`) reclaims entries whose
    flows ended and are never touched again — without it the table grows
    monotonically with every (destination, flowlet) pair a run ever pins,
    which is what made large fabrics accumulate unbounded switch state.  The
    sweep removes only entries the pin step would already refuse to follow,
    so forwarding decisions are unaffected, and it is amortized O(1) per
    install (the threshold doubles with the surviving live set, classic
    table-halving style).
    """

    #: Sweep threshold floor; per table the trigger is
    #: ``max(SWEEP_HIGH_WATER, 2 * live entries after the last sweep)``.
    SWEEP_HIGH_WATER = 4096

    def __init__(self, timeout: float, slots: int):
        self.timeout = timeout
        self.slots = slots
        self._sweep_at = self.SWEEP_HIGH_WATER
        #: Entries reclaimed by high-water sweeps (observability/tests only;
        #: swept entries are *not* flowlet expirations in the stats sense —
        #: they were already dead to every pin step).
        self.swept_entries = 0
        self._entries: Dict[FlowletKey, FlowletEntry] = {}

    def install(self, destination: str, tag: int, pid: int, fid: int,
                next_hop: str, next_tag: int, now: float) -> FlowletEntry:
        if len(self._entries) >= self._sweep_at:
            self._sweep(now)
        entry = FlowletEntry(next_hop, next_tag, now)
        self._entries[(destination, tag, pid, fid)] = entry
        return entry

    def _sweep(self, now: float) -> None:
        """Reclaim every expired entry (high-water-mark memory bound)."""
        timeout = self.timeout
        entries = self._entries
        expired = [key for key, entry in entries.items()
                   if now - entry.last_seen > timeout]
        for key in expired:
            del entries[key]
        self.swept_entries += len(expired)
        self._sweep_at = max(self.SWEEP_HIGH_WATER, 2 * len(entries))

    def expire_flowlet_everywhere(self, fid: int) -> int:
        """Flush every entry with the given flowlet id (loop breaking, §5.5)."""
        keys = [k for k in self._entries if k[3] == fid]
        for key in keys:
            del self._entries[key]
        return len(keys)

    def expire_via(self, next_hop: str) -> int:
        """Flush entries pinned to a next hop believed to have failed (§5.4)."""
        keys = [k for k, v in self._entries.items() if v.next_hop == next_hop]
        for key in keys:
            del self._entries[key]
        return len(keys)

    def __len__(self) -> int:
        return len(self._entries)


class ProbeDrivenRouting(RoutingLogic):
    """Per-switch half of a probe-driven system: probe version, failure belief
    and the flowlet data path.

    Subclasses provide :meth:`probe_round`, :meth:`on_probe` (which stamps
    ``_last_probe_from[inport]`` and clears ``_believed_failed[inport]``) and
    the two halves of the data path around the shared pin step of
    :meth:`on_data_packet`: :meth:`_flowlet_key` and :meth:`_fresh_hop`.
    """

    #: Slots of the switch's flowlet table.
    flowlet_slots = 1024
    #: Whether a followed pin rewrites the packet's tag with the pin's next
    #: tag (Contra's policy tags, §5.3).
    retag_pinned = False

    def __init__(self, system: "ProbeDrivenSystem"):
        self.system = system
        #: The system's freshness bound, kept here so a detached logic
        #: still judges its rows (``best_next_hop`` after the run).
        self._max_age = system.max_age
        self._version = 0
        self._last_probe_from: Dict[str, float] = {}
        self._believed_failed: Dict[str, bool] = {}
        self.flowlets = FlowletTable(system.flowlet_timeout, self.flowlet_slots)

    def probe_round(self) -> None:
        """Originate this switch's probes for one period."""
        raise NotImplementedError

    def detach(self) -> None:
        """Also drop the system, whose logic table holds this logic."""
        super().detach()
        del self.system

    def _usable_next_hop(self, neighbor: str) -> bool:
        """Not believed failed (§5.4), and the egress link exists and is up."""
        if self._believed_failed.get(neighbor, False):
            return False
        link = self.ports.get(neighbor)
        return link is not None and not link.failed

    def _entry_valid(self, entry) -> bool:
        """Probe-installed state (``next_hop``, ``updated_at``) is followed only
        while its next hop is usable and a probe refreshed it within the
        system's ``max_age``."""
        return self._usable_next_hop(entry.next_hop) and \
            self.sim._now - entry.updated_at <= self._max_age

    # -------------------------------------------------------------- forwarding

    def on_data_packet(self, packet: Packet, inport: str) -> Optional[str]:
        """Follow the packet's flowlet pin, or pin it to a fresh hop (§5.3).

        A live pin whose next hop is usable is refreshed and followed.  A
        timed-out pin is dropped silently (lazy expiry, not a counted
        expiration).  A pin towards an unusable next hop is dropped and
        counted once in ``flowlet_expirations`` (§5.4).  Either way the
        packet then takes :meth:`_fresh_hop`.
        """
        flow_hash = packet.flow_hash
        if flow_hash is None:           # hand-built packet: hosts stamp theirs
            flow_hash = packet_flow_hash(packet)
        flowlets = self.flowlets
        fid = flow_hash % flowlets.slots
        now = self.sim._now
        key = self._flowlet_key(packet, inport, flow_hash, fid, now)
        if key is None:
            return None
        pins = flowlets._entries
        pinned = pins.get(key)
        if pinned is not None:
            if now - pinned.last_seen > flowlets.timeout:
                del pins[key]
            elif self._usable_next_hop(pinned.next_hop):
                pinned.last_seen = now
                if self.retag_pinned:
                    packet.tag = pinned.next_tag
                return pinned.next_hop
            else:
                del pins[key]
                self.stats.flowlet_expirations += 1
        return self._fresh_hop(packet, inport, fid, now)

    def _flowlet_key(self, packet: Packet, inport: str, flow_hash: int, fid: int,
                     now: float) -> Optional[FlowletKey]:
        """The key of the packet's pin, or None to drop the packet."""
        raise NotImplementedError

    def _fresh_hop(self, packet: Packet, inport: str, fid: int,
                   now: float) -> Optional[str]:
        """The next hop of a packet without a pin to follow; installs its pin."""
        raise NotImplementedError

    def failure_check(self) -> None:
        """Mark neighbours silent for ``failure_periods`` probe periods as failed (§5.4).

        Probe-silence tracking starts at a neighbour's *first* probe: only
        neighbours that have sent one are watched.  Under a regex policy a
        link may legitimately carry no probes at all, and silence on it must
        not be read as a failure.  A failed neighbour's flowlet pins expire.
        """
        now = self.sim._now
        window = self.system.probe_period * self.system.failure_periods
        for neighbor, last_seen in self._last_probe_from.items():
            silent = now - last_seen > window
            if silent and not self._believed_failed.get(neighbor, False):
                self._believed_failed[neighbor] = True
                self.stats.failure_detections += 1
                expired = self.flowlets.expire_via(neighbor)
                self.stats.flowlet_expirations += expired
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
