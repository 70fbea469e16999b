"""The Contra data-plane runtime: the behaviour of the synthesized switch programs.

:class:`ContraSystem` installs one :class:`ContraRouting` instance per switch,
each interpreting the switch's compiled :class:`~repro.core.device_config
.DeviceConfig`.  Together they implement the full protocol of §4–§5:

* periodic, versioned probes multicast along product-graph edges,
* FwdT/BestT maintenance with the ``f``/``s`` ranking split of Figure 7,
* policy-aware flowlet switching (§5.3),
* TTL-delta loop detection and flowlet flushing (§5.5), and
* failure detection by probe silence plus metric expiration (§5.4).
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.analysis.decomposition import SubPolicy
from repro.core.ast import Attr, PathContext, Policy, TupleExpr
from repro.core.attributes import MetricVector
from repro.core.compiler import CompiledPolicy
from repro.core.device_config import DeviceConfig
from repro.core.rank import INFINITY, Rank
from repro.exceptions import SimulationError
from repro.protocol.probe import ProbePayload, make_probe_packet
from repro.protocol.tables import (
    BestChoiceTable,
    ForwardingEntry,
    ForwardingTable,
    FlowletTable,
    FwdKey,
    LoopDetectionTable,
    packet_flow_hash,
)
from repro.simulator.link import SimLink
from repro.simulator.network import Network, RoutingSystem
from repro.simulator.packet import Packet
from repro.simulator.switchnode import RoutingLogic

__all__ = ["ContraSystem", "ContraRouting"]


class ContraSystem(RoutingSystem):
    """Routing system that deploys a compiled Contra policy on every switch."""

    name = "contra"

    def __init__(
        self,
        compiled: CompiledPolicy,
        probe_period: Optional[float] = None,
        flowlet_timeout: float = 0.2,
        failure_periods: int = 3,
        loop_threshold: int = 4,
        probe_all_switches: bool = False,
        split_horizon: bool = True,
        use_versioning: bool = True,
    ):
        self.compiled = compiled
        self.probe_period = probe_period if probe_period is not None else compiled.probe_period
        if self.probe_period <= 0:
            raise SimulationError("probe period must be positive")
        self.flowlet_timeout = flowlet_timeout
        self.failure_periods = failure_periods
        self.loop_threshold = loop_threshold
        self.probe_all_switches = probe_all_switches
        self.split_horizon = split_horizon
        #: §5.1 refinement: versioned probes.  Disabling this reproduces the
        #: persistent-loop hazard of an unversioned distance-vector protocol
        #: and is exposed only for the ablation benchmark.
        self.use_versioning = use_versioning
        self._logics: Dict[str, "ContraRouting"] = {}

    def create_switch_logic(self, switch: str) -> "ContraRouting":
        logic = ContraRouting(self, self.compiled.device(switch))
        self._logics[switch] = logic
        return logic

    def start(self, network: Network) -> None:
        """Arm the periodic probe flood and failure detection.

        All per-switch rounds of one period fire at the same instant, so they
        are coalesced under a single recurring engine event each (origination
        and failure checking) instead of one self-rescheduling chain per
        switch; the per-switch work runs in deterministic creation order.
        """
        destinations = (network.topology.switches if self.probe_all_switches
                        else network.destination_switches())
        origins = [self._logics[switch] for switch in destinations]
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
    def _probe_all(origins: List["ContraRouting"]) -> None:
        for logic in origins:
            logic.probe_round()

    def _failure_check_all(self, logics: List["ContraRouting"]) -> None:
        # Per-switch failure checks are mutually independent (each flips its
        # own belief bits); the iteration order is undocumented, so the race
        # detector shuffles it when installed.
        rng = self.race_rng
        if rng is not None:
            logics = list(logics)
            rng.shuffle(logics)
        for logic in logics:
            logic.failure_check()

    def packet_header_bits(self) -> int:
        configs = self.compiled.device_configs.values()
        return max(cfg.packet_tag_bits() for cfg in configs) if configs else 0

    def logic(self, switch: str) -> "ContraRouting":
        return self._logics[switch]


class ContraRouting(RoutingLogic):
    """The per-switch program synthesized from the user policy."""

    def __init__(self, system: ContraSystem, config: DeviceConfig):
        self.system = system
        self.config = config
        self.compiled = system.compiled
        self.subpolicies: List[SubPolicy] = list(self.compiled.decomposition.subpolicies)
        if not self.subpolicies:
            raise SimulationError("compiled policy has no subpolicies")

        self.fwdt = ForwardingTable()
        self.bestt = BestChoiceTable()
        self.flowlets = FlowletTable(system.flowlet_timeout, slots=config.flowlet_slots)
        self.loop_detector = LoopDetectionTable(
            threshold=system.loop_threshold, slots=config.loop_table_slots)

        self._version = 0
        self._last_probe_from: Dict[str, float] = {}
        self._believed_failed: Dict[str, bool] = {}
        self._probe_bits = config.probe_bits()
        self._packet_tag_bits = config.packet_tag_bits()

        # Hot-path caches.  Per subpolicy: the positions of its propagation
        # attributes inside the carried metric vector, so the isotonic key
        # f(pid, mv) is a plain tuple slice instead of a Rank construction.
        # ``True`` marks the identity projection (propagation attrs == the
        # carried vector, the figure-policy shape): the extended values tuple
        # *is* the propagation key, no copy needed.
        self._prop_indices: Dict[int, object] = {}
        for sub in self.subpolicies:
            try:
                indices = tuple(
                    sub.carried_attrs.index(name) for name in sub.propagation_attrs)
                self._prop_indices[sub.pid] = \
                    True if indices == tuple(range(len(sub.carried_attrs))) else indices
            except ValueError:  # attr not carried: fall back to the slow path
                self._prop_indices[sub.pid] = None
        #: Interning pool for installed propagation keys: within one probe
        #: round, thousands of entries share the handful of distinct metric
        #: tuples, so installed rows reference one shared tuple each instead
        #: of keeping a private copy alive per (destination, tag, pid) row.
        self._prop_key_pool: Dict[Tuple[float, ...], Tuple[float, ...]] = {}
        # ECMP alternates are only sound when the propagation rank carries
        # the hop count: equal rank then implies equal path length, and a
        # cycle (which strictly increases ``len``) can never tie.  Without
        # ``len`` (pure-MU on a WAN), a longer detour can tie an entry
        # exactly and an alternate pointing back along it would ping-pong.
        self._allow_alternates: Dict[int, bool] = {
            sub.pid: "len" in sub.propagation_attrs for sub in self.subpolicies}
        # Specialized evaluator for regex-free pure-attribute policies (the
        # common minimize(attr) / minimize((attr, attr)) shapes).
        self._fast_rank = _fast_rank_evaluator(self.compiled.policy)
        # Specialized per-names metric extenders (False = use the generic path).
        self._extenders: Dict[Tuple[str, ...], object] = {}
        # Bound-method caches for the probe hot loop (instance constants;
        # rebinding them per probe showed up in k=16 profiles).  The FwdT
        # probe is the table dict's own ``get``: ``ForwardingTable.lookup``
        # is that call behind one more frame.
        self._fwdt_get = self.fwdt._entries.get
        self._fwdt_install = self.fwdt.install
        #: Per-in-port probe state, built at a neighbour's first probe
        #: (``attach`` runs before the switch has ports): in-port -> (the
        #: ``get`` of that neighbour's tag -> local-tag row of
        #: ``probe_transition``, the traffic-direction link or None).
        self._inports: Dict[
            str, Tuple[Callable[[int], Optional[int]], Optional[SimLink]]] = {}

    # ----------------------------------------------------------------- probes

    def probe_round(self) -> None:
        """INITPROBE: originate one probe per subpolicy and multicast it."""
        self._version += 1
        origin_tag = self.config.probe_origin_tag
        for sub in self.subpolicies:
            payload = ProbePayload(
                origin=self.switch.name,
                pid=sub.pid,
                version=self._version,
                tag=origin_tag,
                metrics=sub.initial_metrics(),
            )
            self._multicast(payload, exclude=None)

    def _multicast(self, payload: ProbePayload, exclude: Optional[str]) -> None:
        """MULTICASTPROBE: send along all product-graph out-edges of the payload's tag.

        One packet object is shared by every target: probe packets are
        immutable in flight (only data packets are re-tagged or TTL-decremented),
        so per-target copies would only burn allocations — together with the
        by-reference payload this keeps a probe round's allocations
        O(accepted probes), not O(received).
        """
        packet = None
        ports = self.switch.ports
        split_horizon = self.system.split_horizon
        for neighbor in self.config.multicast_targets(payload.tag):
            if exclude is not None and split_horizon and neighbor == exclude:
                continue
            # Probes are still multicast towards believed-failed neighbours:
            # a failed link simply drops them, and their arrival after the
            # link comes back is what clears the failure belief on the far
            # side.  Suppressing them would make recovery undetectable —
            # both endpoints would wait forever for the other's probes.
            if packet is None:
                packet = make_probe_packet(payload, self.switch.name, self._probe_bits)
            link = ports.get(neighbor)
            if link is not None and not link.failed:
                link.enqueue(packet)

    def _wire_inport(
            self, inport: str
    ) -> Tuple[Callable[[int], Optional[int]], Optional[SimLink]]:
        """Build the per-in-port probe state for ``inport`` (once per port).

        The product-graph transition is keyed ``(in-port, tag)``; a probe
        names its in-port on every hop, so the row for one neighbour is
        sliced out once and a hop probes it by tag alone.  The link is the
        traffic-direction one (this switch -> ``inport``) UPDATEMVEC folds
        in; ``None`` when the switch has no such port, which ``on_probe``
        turns into the canonical error exactly where it always raised.
        """
        row = {tag: local_tag
               for (neighbor, tag), local_tag in self.config.probe_transition.items()
               if neighbor == inport}
        state = self._inports[inport] = (row.get, self.switch.ports.get(inport))
        return state

    def on_probe(self, packet: Packet, inport: str) -> None:
        """PROCESSPROBE (Figure 7) with the versioning refinement of §5.1.

        The sole mutator of FwdT/BestT state on the probe path.  ~90% of
        probes in a converged fabric are rejected, so the reject path is the
        hot path.
        Links deliver here directly (``SimLink.probe_sink``).

        Read contract: the traffic-direction link's ``congestion`` is read
        exactly once for a probe that has a transition and is not
        self-originated, and never otherwise — the read advances the link's
        EWMA decay, so adding, skipping or reordering one changes results.
        """
        now = self.network.sim._now
        self._last_probe_from[inport] = now
        believed_failed = self._believed_failed
        if believed_failed.get(inport, False):
            believed_failed[inport] = False

        payload = packet.probe
        tag = payload.tag
        state = self._inports.get(inport)
        if state is None:
            state = self._wire_inport(inport)
        local_tag = state[0](tag)
        if local_tag is None:
            return  # no product-graph edge: the probe is policy-irrelevant here
        origin = payload.origin
        switch = self.switch
        if origin == switch.name:
            return  # probes never advertise a destination back to itself

        # UPDATEMVEC: fold in the traffic-direction link (this switch ->
        # inport).  Only the extended *values* tuple is computed up front;
        # the metric vector object is materialized after the accept decision.
        link = state[1]
        if link is None:
            link = switch.egress(inport)        # raises the canonical error
        mv = payload.metrics
        names = mv.names
        extend = self._extenders.get(names)
        if extend is None:
            extend = self._extenders[names] = _make_metric_extender(names) or False
        # The specialized extender reads the link's congestion directly; an
        # instance-level metric_values override (tests pin link metrics that
        # way) must keep winning over it.
        if extend is not False and "metric_values" not in link.__dict__:
            new_values = extend(mv.values, link)
        else:
            new_values = mv.extend(link.metric_values()).values

        pid = payload.pid
        key: FwdKey = (origin, local_tag, pid)
        entry = self._fwdt_get(key)
        indices = self._prop_indices.get(pid)
        if indices is True:      # identity projection: the values tuple is the key
            prop_key = new_values
        elif indices is None:    # attrs outside the carried vector: slow path
            prop_key = self.compiled.decomposition.subpolicy(pid) \
                .propagation_rank(MetricVector._make(names, new_values)).values
        else:
            prop_key = tuple([new_values[i] for i in indices])

        version = payload.version
        if entry is None:
            pass                     # first word about this key: accept
        elif not self.system.use_versioning:
            # Ablation: unversioned distance-vector — accept purely on
            # metric, plus staleness refresh so entries do not expire
            # spuriously.
            if not (prop_key < entry.prop_key
                    or now - entry.updated_at > self.system.probe_period):
                if prop_key == entry.prop_key and inport != entry.next_hop \
                        and self._allow_alternates.get(pid, False):
                    entry.add_alternate(inport, tag)
                return
        elif version > entry.version:
            pass                     # newer round always replaces stale state
        elif version == entry.version and prop_key < entry.prop_key:
            pass                     # same round: keep the better path under f
        else:
            # An exact same-round tie is an ECMP sibling of the installed
            # path: remember it as an alternate next hop (no re-multicast
            # — the equal-metric flood already went out via the primary).
            if prop_key == entry.prop_key and inport != entry.next_hop and \
                    version == entry.version and self._allow_alternates.get(pid, False):
                entry.add_alternate(inport, tag)
            return

        metrics = MetricVector._make(names, new_values)
        prop_key = self._prop_key_pool.setdefault(prop_key, prop_key)
        new_entry = ForwardingEntry(
            metrics=metrics,
            next_tag=tag,
            next_hop=inport,
            version=version,
            updated_at=now,
            prop_key=prop_key,
            rank=self._rank_of(key, metrics),
        )
        self._fwdt_install(key, new_entry)
        self._maybe_update_best(origin, key, new_entry)
        self._multicast(payload.advanced(local_tag, metrics), exclude=inport)

    # ------------------------------------------------------------ best choice

    def _rank_of(self, key: FwdKey, metrics) -> Rank:
        """s(key): evaluate the full user policy on one metric vector."""
        fast = self._fast_rank
        if fast is not None:
            return fast(metrics)
        acceptance = self.config.acceptance_of(key[1])
        ctx = PathContext((), metrics.as_dict(), acceptance)
        return self.compiled.policy.evaluate(ctx)

    def _entry_rank(self, key: FwdKey, entry: ForwardingEntry) -> Rank:
        """The cached policy rank of one FwdT entry (computed at install time)."""
        rank = entry.rank
        if rank is None:
            rank = entry.rank = self._rank_of(key, entry.metrics)
        return rank

    def _entry_valid(self, entry: ForwardingEntry) -> bool:
        """An entry is stale if its probes stopped or its next hop is believed dead."""
        next_hop = entry.next_hop
        if self._believed_failed.get(next_hop, False):
            return False
        link = self.switch.ports.get(next_hop)      # SwitchNode.link_failed
        if link is None or link.failed:
            return False
        system = self.system
        max_age = system.probe_period * (system.failure_periods + 1)
        return self.network.sim._now - entry.updated_at <= max_age

    def _maybe_update_best(self, destination: str, key: FwdKey,
                           entry: ForwardingEntry) -> None:
        """Fold a freshly installed entry into the co-best set for its destination.

        BestT holds *every* FwdT key of minimal (equal) rank, not just one:
        fresh flowlets spread across the co-best entries by flowlet id
        (:meth:`on_data_packet`).  With a single pointer, every host under a
        ToR pinned its new flowlets to the same uplink for up to a probe
        period — a synchronized burst then built a queue ECMP's per-flow
        hashing never sees (the Figure 13 tail).  Ties are common precisely
        when it matters: idle equal-length paths all rank (len, 0.0).
        """
        new_rank = entry.rank                 # on_probe ranks at install time
        if new_rank is None:
            new_rank = self._entry_rank(key, entry)
        current = self.bestt._best.get(destination)
        if not current:
            if new_rank.is_finite:
                self.bestt.set(destination, (key,))
            return
        reference_rank = None
        fwdt_get = self._fwdt_get
        for current_key in current:
            current_entry = fwdt_get(current_key)
            if current_entry is not None and self._entry_valid(current_entry):
                reference_rank = current_entry.rank
                if reference_rank is None:
                    reference_rank = self._entry_rank(current_key, current_entry)
                break
        if reference_rank is None:
            if new_rank.is_finite:
                self.bestt.set(destination, (key,))
            return
        # Rank.__lt__/__eq__ pad the shorter tuple with zeros; ranks of one
        # policy have one length, so the tuples compare as they are.
        new_values, reference_values = new_rank._values, reference_rank._values
        if len(new_values) != len(reference_values):
            new_values, reference_values = new_rank._padded_pair(reference_rank)
        if new_values < reference_values:
            self.bestt.set(destination, (key,))
        elif new_values == reference_values:
            if key not in current:
                self.bestt.set(destination, current + (key,))
        elif key in current:
            # The refreshed entry fell behind its co-best peers: drop it.
            remaining = tuple(k for k in current if k != key)
            if remaining:
                self.bestt.set(destination, remaining)
            else:
                self.bestt.clear(destination)

    def _best_key(self, destination: str) -> Optional[FwdKey]:
        """The single best valid FwdT key (deterministic first of the co-best set)."""
        keys = self._best_keys(destination)
        return keys[0] if keys else None

    def _best_keys(self, destination: str) -> Tuple[FwdKey, ...]:
        """All valid equal-rank best FwdT keys, refreshing BestT if stale."""
        keys = self.bestt.get(destination)
        if keys:
            first_rank = None
            for key in keys:
                entry = self.fwdt.lookup(key)
                if entry is None or not self._entry_valid(entry):
                    return self._rescan_best(destination)
                rank = self._entry_rank(key, entry)
                if not rank.is_finite:
                    return self._rescan_best(destination)
                if first_rank is None:
                    first_rank = rank
                elif rank != first_rank:
                    return self._rescan_best(destination)
            return keys
        return self._rescan_best(destination)

    def _rescan_best(self, destination: str) -> Tuple[FwdKey, ...]:
        best_keys: List[FwdKey] = []
        best_rank = INFINITY
        for key, entry in self.fwdt.entries_for_destination(destination).items():
            if not self._entry_valid(entry):
                continue
            rank = self._entry_rank(key, entry)
            if rank < best_rank:
                best_rank = rank
                best_keys = [key]
            elif best_keys and rank == best_rank:
                best_keys.append(key)
        result = tuple(best_keys)
        if result:
            self.bestt.set(destination, result)
        else:
            self.bestt.clear(destination)
        return result

    # -------------------------------------------------------------- forwarding

    def on_data_packet(self, packet: Packet, inport: str) -> Optional[str]:
        """SWIFORWARDPKT with policy-aware flowlet switching and loop breaking."""
        destination = packet.dst_switch
        network = self.network
        from_host = inport not in network.switches
        flow_hash = packet.flow_hash
        if flow_hash is None:           # hand-built packet: hosts stamp theirs
            flow_hash = packet_flow_hash(packet)
        flowlets = self.flowlets
        fid = flow_hash % flowlets.slots

        if from_host or packet.tag is None:
            # Fresh flowlets spread across the equal-rank co-best entries by
            # flowlet id — policy-compliant load balancing over ties.
            best_keys = self._best_keys(destination)
            if not best_keys:
                return None
            _, tag, pid = best_keys[fid % len(best_keys)]
            packet.tag = tag
            packet.pid = pid
            packet.extra_header_bits = self._packet_tag_bits

        now = network.sim._now

        # Lazy loop breaking (§5.5): on suspicion, flush the flowlet pins so the
        # next packet re-reads the freshest FwdT entry.
        if self.loop_detector.observe_hash(flow_hash, packet.ttl, now):
            flushed = flowlets.expire_flowlet_everywhere(fid)
            network.stats.loop_detections += 1
            network.stats.flowlet_expirations += flushed

        # FlowletTable.lookup / _usable_next_hop / touch / expire, in place:
        # the pinned path is most data hops, and each was a frame.
        pins = flowlets._entries
        pin_key = (destination, packet.tag, packet.pid, fid)
        pinned = pins.get(pin_key)
        if pinned is not None:
            if now - pinned.last_seen > flowlets.timeout:
                del pins[pin_key]       # lazy expiry: not a counted expiration
            else:
                next_hop = pinned.next_hop
                if not self._believed_failed.get(next_hop, False):
                    link = self.switch.ports.get(next_hop)
                    if link is not None and not link.failed:
                        pinned.last_seen = now
                        packet.tag = pinned.next_tag
                        return next_hop
                # §5.4: expire flowlet entries whose next hop is along a failed link.
                del pins[pin_key]
                network.stats.flowlet_expirations += 1

        key: FwdKey = (destination, packet.tag, packet.pid)
        entry = self.fwdt.lookup(key)
        if entry is None or not self._entry_valid(entry) or \
                not self._usable_next_hop(entry.next_hop):
            # The constrained path for this tag is gone; only a source switch may
            # legitimately re-tag the packet (policy compliance, §4.2).
            if from_host:
                best_keys = self._rescan_best(destination)
                if not best_keys:
                    return None
                _, tag, pid = best_keys[fid % len(best_keys)]
                packet.tag = tag
                packet.pid = pid
                key = (destination, tag, pid)
                entry = self.fwdt.lookup(key)
                if entry is None or not self._usable_next_hop(entry.next_hop):
                    return None
            else:
                return None

        next_hop, next_tag = self._choose_hop(entry, fid)
        flowlets.install(destination, key[1], key[2], fid, next_hop, next_tag, now)
        packet.tag = next_tag
        return next_hop

    def _choose_hop(self, entry: ForwardingEntry, fid: int) -> Tuple[str, int]:
        """Pick among the entry's equal-rank next hops by flowlet id."""
        alternates = entry.alternates
        if alternates:
            index = fid % (1 + len(alternates))
            if index:
                next_hop, next_tag = alternates[index - 1]
                if self._usable_next_hop(next_hop):
                    return next_hop, next_tag
        return entry.next_hop, entry.next_tag

    def _usable_next_hop(self, neighbor: str) -> bool:
        return not self._believed_failed.get(neighbor, False) and \
            not self.switch.link_failed(neighbor)

    # ---------------------------------------------------------------- failures

    def failure_check(self) -> None:
        """Mark neighbours silent for ``failure_periods`` probe periods as failed (§5.4).

        Probe-silence tracking starts at a neighbour's *first* probe: only
        neighbours that have sent one are watched.  Under a regex policy a
        link may legitimately carry no probes at all, and silence on it must
        not be read as a failure.
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

    def on_link_change(self, neighbor: str, failed: bool) -> None:
        """React immediately to a simulator-signalled link event (optional fast path).

        The protocol's own detection works purely by probe silence; this hook
        merely lets experiments model switches with local link-down interrupts.
        It is intentionally *not* used by default (the Figure 14 experiment
        measures the probe-silence detection delay).
        """

    # ------------------------------------------------------------------ debug

    def forwarding_snapshot(self) -> Dict[FwdKey, Tuple[str, int, Tuple[float, ...]]]:
        """A compact view of FwdT used by tests: key -> (nhop, version, metrics)."""
        return {key: (entry.next_hop, entry.version, entry.metrics.values)
                for key, entry in self.fwdt.items()}

    def best_next_hop(self, destination: str) -> Optional[str]:
        """The next hop this switch would use for a fresh flowlet to ``destination``."""
        key = self._best_key(destination)
        if key is None:
            return None
        entry = self.fwdt.lookup(key)
        return entry.next_hop if entry is not None else None


#: Per-attribute link extension steps used by the specialized extender: the
#: built-in compositions (util = bottleneck max, lat = additive, len = count)
#: read the link object directly instead of building a metric dict per probe.
_EXTEND_OPS = {
    "util": lambda values, index, link: max(values[index], link.congestion),
    "lat": lambda values, index, link: values[index] + link.latency,
    "len": lambda values, index, link: values[index] + 1.0,
}


def _extend_len_util(values, link) -> Tuple[float, ...]:
    """Unrolled extender for the ``(len, util)`` datacenter-policy shape.

    The bottleneck fold is ``max(carried, link.congestion)`` spelled as a
    conditional: a builtin call costs more than the rest of the extender.
    """
    carried = values[1]
    congestion = link.congestion
    return (values[0] + 1.0, congestion if congestion > carried else carried)


def _extend_util_len(values, link) -> Tuple[float, ...]:
    carried = values[0]
    congestion = link.congestion
    return (congestion if congestion > carried else carried, values[1] + 1.0)


def _extend_util(values, link) -> Tuple[float, ...]:
    """Unrolled extender for the pure-``util`` WAN-policy shape."""
    carried = values[0]
    congestion = link.congestion
    return (congestion if congestion > carried else carried,)


def _extend_lat(values, link) -> Tuple[float, ...]:
    return (values[0] + link.latency,)


#: Unrolled extenders for the metric shapes every figure policy uses — no
#: generator or per-attribute closure dispatch on the hot path.
_UNROLLED_EXTENDERS = {
    ("len", "util"): _extend_len_util,
    ("util", "len"): _extend_util_len,
    ("util",): _extend_util,
    ("lat",): _extend_lat,
}


def _make_metric_extender(names: Tuple[str, ...]):
    """A specialized ``(carried values tuple, link) -> extended values tuple`` extender.

    Returns None when a name falls outside the built-in attribute set, in
    which case the caller uses the generic dict-based path.
    """
    unrolled = _UNROLLED_EXTENDERS.get(names)
    if unrolled is not None:
        return unrolled
    try:
        ops = tuple((index, _EXTEND_OPS[name]) for index, name in enumerate(names))
    except KeyError:
        return None

    def extend(values, link) -> Tuple[float, ...]:
        return tuple(op(values, index, link) for index, op in ops)

    return extend


def _fast_rank_evaluator(policy: Policy):
    """A specialized metric-vector evaluator for regex-free attribute policies.

    ``minimize(path.attr)`` and ``minimize((path.a, path.b))`` — the shapes
    every figure experiment uses — rank an entry as a plain tuple of its
    metric values.  Evaluating them through the generic AST walk built a
    PathContext, a metrics dict and several intermediate Ranks per entry;
    this closure produces an identical Rank directly.  Returns None for any
    other policy shape (conditionals, regexes, arithmetic), which keeps the
    general evaluator authoritative.
    """
    expression = policy.expression
    items = expression.items if isinstance(expression, TupleExpr) else (expression,)
    if not all(isinstance(item, Attr) for item in items):
        return None
    names = tuple(item.name for item in items)

    def evaluate(metrics) -> Rank:
        if metrics.names == names:      # the carried vector *is* the rank
            return Rank.of_values(metrics.values)
        get = metrics.get
        return Rank.of_values(tuple(get(name) for name in names))

    return evaluate
