"""Common machinery for the evaluation experiments.

Three parts live here:

* the routing systems and policies — :func:`build_routing_system` turns a
  system name plus configuration into a ready
  :class:`~repro.simulator.network.RoutingSystem`, and
  :data:`POLICY_BUILDERS` names the policies a spec can reference;
* the **experiment layer** every figure builds on — a declarative
  :class:`ScenarioSpec` describes one (topology, system, workload, load, seed)
  point as plain data, a :class:`RunContext` executes specs while caching
  topologies, compiled policies and generated workloads, and :func:`run_grid`
  hands a list of specs to a pluggable :class:`ExecutionBackend` (inline
  :class:`SerialBackend`, process-pool :class:`PoolBackend`, or the
  lease-coordinated store-backed drain from
  :mod:`repro.experiments.coordinator`), returning :class:`RunResult`
  objects in spec order;
* **spec hashing** — :func:`spec_hash` digests a spec's canonical plain-data
  form (:func:`canonical_spec`) into a stable SHA-256 key, which is what the
  persistent results store keys completed grid points by.

Because a spec is pure data (strings, numbers, tuples and the frozen
:class:`~repro.experiments.config.ExperimentConfig`), it pickles cleanly into
worker processes, and because every derived object (topology, compiled
policy, workload) is reconstructed deterministically from it, a grid run
produces byte-identical summaries whether executed serially or on any number
of workers.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass, fields, replace
from importlib import import_module
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.ast import Policy
from repro.core.builder import minimize, path, rank_tuple
from repro.core.compiler import CompiledPolicy, compile_policy
from repro.exceptions import (COUNT, FLAG, FLUID_SYSTEM_NAMES, MAX_LOAD, NATURAL,
                              NON_NEGATIVE, POSITIVE, WORKLOAD_NAMES, ExperimentError,
                              WorkloadError, check_fields, closed, each, one_of,
                              optional, within)
from repro.experiments.config import (ExperimentConfig, procs_from_env,
                                      sanitize_from_env)
from repro.simulator.flow import TRANSPORT_DOMAIN, Flow
from repro.topology.abilene import abilene
from repro.topology.fattree import fattree
from repro.topology.graph import Topology
from repro.topology.leafspine import leafspine
from repro.topology.random_graphs import random_network
from repro.topology.zoo import builtin_topology

if TYPE_CHECKING:
    from repro.simulator.network import Network

__all__ = [
    "datacenter_policy",
    "wan_policy",
    "build_routing_system",
    "SYSTEM_NAMES",
    "POLICY_BUILDERS",
    "TopologySpec",
    "LinkEvent",
    "ScenarioSpec",
    "RunResult",
    "RunContext",
    "canonical_spec",
    "spec_hash",
    "compile_group_key",
    "group_label",
    "ExecutionBackend",
    "SerialBackend",
    "PoolBackend",
    "default_backend",
    "run_grid",
    "grid_map",
    "resolve_processes",
    "default_failed_link",
]

SYSTEM_NAMES = ("ecmp", "hula", "contra", "spain", "shortest-path")


def datacenter_policy() -> Policy:
    """The policy Contra runs in the fat-tree FCT experiments.

    The paper's datacenter comparison uses the least-utilized *shortest* path
    (§6.3 explains Contra carries path length as well as utilization there),
    i.e. ``minimize((path.len, path.util))``.
    """
    return minimize(rank_tuple(path.len, path.util), name="MU-datacenter")


def wan_policy() -> Policy:
    """The minimum-utilization policy used on Abilene (Figure 15, "Contra (MU)").

    Unlike the datacenter policy this is the pure bottleneck-utilization
    objective: on a WAN the whole point is that Contra may take longer detours
    around congested links, which neither shortest-path routing nor SPAIN's
    static path sets can do.
    """
    return minimize(path.util, name="MU-wan")


#: Named policy builders a ScenarioSpec can reference (a spec carries the
#: *name*, each worker compiles the policy locally and caches the result).
POLICY_BUILDERS: Dict[str, Callable[[], Policy]] = {
    "datacenter": datacenter_policy,
    "wan": wan_policy,
}


def _require_policy_name(name: str) -> None:
    if name not in POLICY_BUILDERS:
        raise ExperimentError(
            f"unknown policy {name!r}; available: {sorted(POLICY_BUILDERS)}")


def default_failed_link(topology: Topology) -> Tuple[str, str]:
    """The aggregation–core link failed in the asymmetric experiments (§6.3)."""
    for agg in topology.switches_with_role("aggregation"):
        for neighbor in topology.switch_neighbors(agg):
            if topology.node_role(neighbor) == "core":
                return (agg, neighbor)
    raise ExperimentError("topology has no aggregation-core link to fail")


#: The simulating planes a run uses: the simulator's network, stats and fluid
#: plane, the protocol, the baselines and the workload generator.  Importing
#: this module loads none of them, so a process that only compiles, hashes
#: specs or reads a results store never does (ARCHITECTURE.md §3, "Import
#: contract"); each function imports what it uses, and building a
#: :class:`RunContext` loads them all, so a simulating process pays during its
#: set-up, never inside a run.
_PLANE_MODULES = (
    "repro.baselines.ecmp",
    "repro.baselines.hula",
    "repro.baselines.spain",
    "repro.protocol.contra_switch",
    "repro.simulator.fluid",
    "repro.simulator.network",
    "repro.simulator.stats",
    "repro.workloads.distributions",
    "repro.workloads.generator",
)


def build_routing_system(
    name: str,
    topology: Topology,
    config: ExperimentConfig,
    compiled: Optional[CompiledPolicy] = None,
    use_versioning: bool = True,
):
    """Instantiate one routing system by name under the shared configuration.

    Contra runs ``compiled``, or the datacenter policy compiled on
    ``topology`` when none is given.
    """
    name = name.lower()
    if name == "ecmp":
        from repro.baselines.ecmp import EcmpSystem
        return EcmpSystem()
    if name == "shortest-path":
        from repro.baselines.ecmp import ShortestPathSystem
        return ShortestPathSystem()
    if name == "spain":
        from repro.baselines.spain import SpainSystem
        return SpainSystem()
    if name == "hula":
        from repro.baselines.hula import HulaSystem
        return HulaSystem(
            probe_period=config.probe_period,
            flowlet_timeout=config.flowlet_timeout,
            failure_periods=config.failure_periods,
        )
    if name == "contra":
        from repro.protocol.contra_switch import ContraSystem
        if compiled is None:
            compiled = compile_policy(datacenter_policy(), topology)
        return ContraSystem(
            compiled,
            probe_period=config.probe_period,
            flowlet_timeout=config.flowlet_timeout,
            failure_periods=config.failure_periods,
            use_versioning=use_versioning,
        )
    raise ExperimentError(f"unknown routing system {name!r}; available: {SYSTEM_NAMES}")


# =============================================================================
# Experiment layer: declarative scenarios and the grid runner
# =============================================================================

#: Per-link propagation delay every generator defaults to; a spec leaving
#: ``latency`` at this value means "family default".
_DEFAULT_LATENCY = 0.05

#: When ``traffic="streams"`` starts its constant-rate streams (ms).
STREAM_START = 0.5

_TRAFFIC = one_of(("flows", "incast", "permutation", "streams"), "traffic shape")


@dataclass(frozen=True)
class TopologySpec:
    """A declarative, hashable description of a topology (cache key + recipe).

    Specs are cache keys, so :meth:`build` applies **every** field that is
    meaningful for the family and raises :class:`ExperimentError` for fields
    set to a non-default value the family cannot honour — a silently dropped
    field would let two specs that *meaningfully differ* cache under distinct
    keys yet build identical networks.  (The sentinel shorthands — 0 meaning
    "family default" for ``hosts_per_switch``/``oversubscription``/``leaves``/
    ``spines`` — intentionally alias their spelled-out equivalents; a grid
    should pick one spelling to share the cache.)
    """

    family: str                         # fattree | leafspine | abilene | random | zoo
    k: int = within(COUNT, 4)           # fat-tree arity / square leaf-spine size
    size: int = within(NATURAL, 0)      # random-graph switch count
    capacity: float = within(POSITIVE, 100.0)
    #: Uplink oversubscription ratio for the Clos families; 0 means the
    #: generator default (1:1, no oversubscription).
    oversubscription: float = within(NON_NEGATIVE, 0.0)
    #: Hosts attached per edge/leaf/PoP switch; 0 means the family default
    #: (k/2 per fat-tree edge switch, 2 per leaf, 1 per WAN PoP).
    hosts_per_switch: int = within(NATURAL, 0)
    seed: int = within(NATURAL, 0)
    leaves: int = within(NATURAL, 0)    # leaf-spine leaf count (0 -> k)
    spines: int = within(NATURAL, 0)    # leaf-spine spine count (0 -> k)
    latency: float = within(NON_NEGATIVE, _DEFAULT_LATENCY)
    name: str = ""                      # zoo: bundled topology name (nsfnet, ...)

    def _reject_unsupported(self, **used) -> None:
        """Raise if a field with a non-default value is unused by this family.

        Defaults come from the dataclass fields themselves, so changing a
        field default cannot drift out of sync with this validation.
        ``family`` is the discriminator and ``capacity`` is honoured by every
        family; everything else must be declared used or left at its default.
        """
        for spec_field in fields(self):
            if spec_field.name in ("family", "capacity"):
                continue
            if used.get(spec_field.name):
                continue
            if getattr(self, spec_field.name) != spec_field.default:
                raise ExperimentError(
                    f"TopologySpec field {spec_field.name!r}="
                    f"{getattr(self, spec_field.name)!r} "
                    f"is not supported by family {self.family!r}")

    def build(self) -> Topology:
        check_fields(self, "TopologySpec", ExperimentError)
        if self.family == "fattree":
            self._reject_unsupported(k=True, oversubscription=True,
                                     hosts_per_switch=True, latency=True)
            return fattree(self.k, capacity=self.capacity,
                           hosts_per_edge=self.hosts_per_switch or None,
                           oversubscription=self.oversubscription or 1.0,
                           latency=self.latency)
        if self.family == "leafspine":
            # k is the square-fabric shorthand; once both leaves and spines
            # are explicit it would be silently dropped, so reject it then.
            self._reject_unsupported(k=not (self.leaves and self.spines),
                                     oversubscription=True,
                                     hosts_per_switch=True, leaves=True,
                                     spines=True, latency=True)
            return leafspine(self.leaves or self.k, self.spines or self.k,
                             hosts_per_leaf=self.hosts_per_switch or 2,
                             capacity=self.capacity,
                             oversubscription=self.oversubscription or 1.0,
                             latency=self.latency)
        if self.family == "abilene":
            self._reject_unsupported(hosts_per_switch=True)
            return abilene(capacity=self.capacity,
                           hosts_per_switch=self.hosts_per_switch or 1)
        if self.family == "random":
            self._reject_unsupported(size=True, seed=True,
                                     hosts_per_switch=True, latency=True)
            if self.size < 2:
                raise ExperimentError("random topology spec needs size >= 2")
            return random_network(self.size, seed=self.seed,
                                  capacity=self.capacity,
                                  hosts_per_switch=self.hosts_per_switch,
                                  latency=self.latency)
        if self.family == "zoo":
            # Abilene's generator has per-link latencies (scaled), not a
            # single default; a generic latency would be silently dropped.
            self._reject_unsupported(name=True, hosts_per_switch=True,
                                     latency=self.name != "abilene")
            if not self.name:
                raise ExperimentError("zoo topology spec needs a builtin name")
            kwargs = dict(hosts_per_switch=self.hosts_per_switch or 1,
                          default_capacity=self.capacity)
            if self.name != "abilene":
                kwargs["default_latency"] = self.latency
            return builtin_topology(self.name, **kwargs)
        raise ExperimentError(f"unknown topology family {self.family!r}")


@dataclass(frozen=True)
class LinkEvent:
    """One scheduled topology event: fail or recover the (a, b) link at ``time``.

    Events are plain picklable data, so a spec can carry an arbitrary
    fail/recover schedule (multi-failure sequences, fail→recover sweeps)
    through the grid runner unchanged.
    """

    time: float = within(NON_NEGATIVE)
    a: str
    b: str
    action: str = within(one_of(("fail", "recover"), "link event action"), "fail")


@dataclass(frozen=True)
class ScenarioSpec:
    """One (system × topology × workload × load × seed) grid point as pure data.

    Everything a worker process needs to reproduce the run deterministically
    is carried by value; nothing is pickled that is not a plain string,
    number, tuple or frozen dataclass.
    """

    #: A slot beside the instance dict for :func:`spec_hash`'s memo, so that
    #: ``__dict__`` stays exactly the fields.
    __slots__ = ("_spec_hash", "__dict__", "__weakref__")

    name: str
    system: str
    topology: TopologySpec
    config: ExperimentConfig
    policy: str = "datacenter"          # key into POLICY_BUILDERS
    workload: str = "web_search"
    load: float = within(closed(0, MAX_LOAD), 0.0)    # flow traffic needs > 0
    seed: int = within(NATURAL, 1)

    #: Host transport mode override ("fixed" | "slowstart" | "paced"); None
    #: uses the config's transport.  Pure data, so transport grids are plain
    #: spec grids with the full determinism contract.
    transport: Optional[str] = within(optional(TRANSPORT_DOMAIN), None, plane="packet")

    # Traffic shape: Poisson flow arrivals ("flows"), N-to-1 fan-in flow
    # arrivals ("incast"), derangement-paired flow arrivals ("permutation"),
    # or constant-rate UDP streams between host pairs ("streams", the
    # Figure 14 traffic, started at STREAM_START).
    traffic: str = within(_TRAFFIC, "flows")
    workload_host_rate: Optional[float] = within(optional(POSITIVE), None)  # per-sender rate
    #: Flow-size distribution scale override (sensitivity knob); None uses the
    #: config's per-workload scale (1.0 for non-paper workloads).
    workload_scale: Optional[float] = within(optional(POSITIVE), None)
    senders: Optional[Tuple[str, ...]] = None
    receivers: Optional[Tuple[str, ...]] = None
    pair_senders_receivers: bool = within(FLAG, False)
    #: Incast fan-in: how many senders converge on one seed-chosen receiver
    #: (None = every other host).
    incast_fanin: Optional[int] = within(optional(COUNT), None)
    stream_rate: Optional[float] = within(optional(POSITIVE), None)  # packets/ms per stream
    streams_per_pair: int = within(COUNT, 1)

    #: Failure/recovery schedule: an ordered tuple of :class:`LinkEvent`.
    events: Tuple[LinkEvent, ...] = ()

    # Protocol overrides (the ablation experiments sweep these).
    probe_period: Optional[float] = within(optional(POSITIVE), None, plane="packet")
    flowlet_timeout: Optional[float] = within(optional(NON_NEGATIVE), None, plane="packet")
    use_versioning: bool = within(FLAG, True, plane="packet")
    #: Clamp the probe period to the compiler's RTT-derived bound (§5.2) —
    #: required on WANs whose detour paths exceed the datacenter default.
    respect_compiled_probe_period: bool = within(FLAG, False, plane="packet")

    # Measurement.
    record_paths: bool = within(FLAG, False, plane="packet")
    stop_after_completion: bool = within(FLAG, False)
    run_duration: Optional[float] = within(optional(POSITIVE), None)
    cdf_points: Tuple[float, ...] = within(each(closed(0, 1)), (), plane="packet")  # queue CDF
    collect_throughput: bool = within(FLAG, False, plane="packet")  # throughput series

    # Data path selection.
    #: Which simulation plane executes the point: "packet" (the default and
    #: the validation oracle) or "fluid" (epoch-driven max-min rate
    #: allocation — see ARCHITECTURE.md §7 for what it does and doesn't model).
    flow_model: str = within(one_of(("packet", "fluid"), "flow model"), "packet")
    #: Opt-in per-switch flow-cardinality HyperLogLog sketch (fluid only:
    #: the packet plane never feeds the sketch, so it would silently report
    #: nothing there).
    flow_sketch: bool = within(FLAG, False, plane="fluid")
    #: Extra FCT percentiles reported as ``p<q>_fct_ms`` summary keys
    #: (both planes; the fidelity scenario compares medians through this).
    fct_percentiles: Tuple[float, ...] = within(each(closed(0, 100)), ())

    def __getstate__(self) -> Dict[str, object]:
        """The fields alone: :func:`spec_hash`'s memo is never pickled."""
        return self.__dict__


# ---------------------------------------------------------------- spec hashing

#: Bumped whenever the canonical encoding changes, so a store written by
#: another encoder resolves nothing: a resume re-runs its points and
#: ``gc-results`` drops its records as stale.
_SPEC_HASH_VERSION = 4


def canonical_spec(spec: ScenarioSpec) -> Dict:
    """The canonical plain-data form of a spec used for hashing: every field,
    each dataclass (topology, config, events) a plain dict of its fields.
    Nothing is dropped, so specs that differ anywhere never collide."""
    return asdict(spec)


def spec_hash(spec: ScenarioSpec) -> str:
    """A stable content hash of one grid point.

    The canonical form is serialized as compact JSON with sorted keys and
    hashed with SHA-256: the digest is identical across processes,
    interpreter invocations and platforms (CPython's shortest-repr float
    serialization is deterministic, and no randomized ``hash()`` is
    involved), which is what makes results stores shardable and resumable.

    Computed once per spec instance: a spec is frozen, so the digest is kept
    on the instance — in a slot beside its fields, so ``replace``, ``==``,
    ``hash``, ``asdict``, ``__dict__`` and pickling never see it — and a
    drain, its resume, ``collect_results`` and ``gc_results`` canonicalise a
    grid once between them.
    """
    try:
        return spec._spec_hash
    except AttributeError:
        pass
    payload = json.dumps({"v": _SPEC_HASH_VERSION, "spec": canonical_spec(spec)},
                         sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    object.__setattr__(spec, "_spec_hash", digest)
    return digest


def compile_group_key(spec: ScenarioSpec) -> Tuple[str, TopologySpec]:
    """The locality group of one grid point: its compile-cache footprint.

    Mirrors :meth:`RunContext.compiled_policy`'s cache key: points that
    compile a policy group under ``(policy, topology)``; points that never
    touch the compiler (non-Contra systems without
    ``respect_compiled_probe_period``) group under ``("", topology)`` — they
    still share the topology cache.  The sweep coordinator clusters points
    of one group onto one worker so a ~20 s k=32 compile is paid once per
    worker, not once per point.
    """
    if spec.system == "contra" or spec.respect_compiled_probe_period:
        return (spec.policy, spec.topology)
    return ("", spec.topology)


def group_label(group: Tuple[str, TopologySpec]) -> str:
    """A short human-readable name for a compile group (status displays)."""
    policy, topo = group
    detail = topo.name or (
        f"k={topo.k}" if topo.family == "fattree"
        else f"{topo.leaves or topo.k}x{topo.spines or topo.k}" if topo.family == "leafspine"
        else f"size={topo.size}" if topo.family == "random" else "")
    label = f"{topo.family}({detail})" if detail else topo.family
    return f"{label}+{policy}" if policy else label


@dataclass
class RunResult:
    """The per-spec outcome a grid run returns (picklable, no live objects)."""

    name: str
    system: str
    workload: str
    load: float
    seed: int
    summary: Dict[str, float]
    queue_cdf: Optional[Dict[float, float]] = None
    throughput: Optional[List[Tuple[float, float]]] = None


class RunContext:
    """Per-process execution context with memoized derived state.

    Topologies and compiled policies (keyed by ``(policy, topology)``) are
    deterministic functions of the spec, so each worker builds them at most
    once however many grid points share them — Contra is no longer
    recompiled for every (system, load, seed) point.  Generated workloads
    are deterministic too, but a worker holds only the latest one: adjacent
    grid points that share a workload (the systems of one load and seed)
    generate it once, and memory does not grow with the points a worker
    runs.  Points that share a workload but run apart draw it again (a
    store drain runs compile group by compile group, so ECMP/Hula and
    Contra each draw it); a draw is well under 1 % of a point's CPU.
    Building one loads the simulating planes (:data:`_PLANE_MODULES`).
    """

    def __init__(self, sanitize: Optional[bool] = None) -> None:
        for module in _PLANE_MODULES:
            import_module(module)
        self._topologies: Dict[TopologySpec, Topology] = {}
        self._compiled: Dict[Tuple[str, TopologySpec], CompiledPolicy] = {}
        self._workloads: Dict[Tuple, object] = {}
        #: Sanitizer plane opt-in: explicit argument wins, else the
        #: CONTRA_SANITIZE environment variable (resolved here, once per
        #: context, so worker processes pick it up from their environment).
        #: Deliberately NOT part of spec_hash — sanitizing never re-keys runs.
        self._sanitize = sanitize if sanitize is not None else sanitize_from_env()
        #: Test/race-detector hook, called with each freshly built Network
        #: before its run starts (e.g. to install the race permuter).
        self.network_hook: Optional[Callable[[Network], None]] = None

    # ------------------------------------------------------------------ caches

    def topology(self, spec: TopologySpec) -> Topology:
        topology = self._topologies.get(spec)
        if topology is None:
            topology = self._topologies[spec] = spec.build()
        return topology

    def compiled_policy(self, policy_name: str, topo_spec: TopologySpec) -> CompiledPolicy:
        key = (policy_name, topo_spec)
        compiled = self._compiled.get(key)
        if compiled is None:
            _require_policy_name(policy_name)
            compiled = compile_policy(POLICY_BUILDERS[policy_name](),
                                      self.topology(topo_spec))
            self._compiled[key] = compiled
        return compiled

    def _workload_scale(self, spec: ScenarioSpec) -> float:
        if spec.workload_scale is not None:
            return spec.workload_scale
        config = spec.config
        if spec.workload == "web_search":
            return config.websearch_scale
        if spec.workload == "cache":
            return config.cache_scale
        return 1.0

    def _flows(self, spec: ScenarioSpec, topology: Topology) -> Sequence[Flow]:
        from repro.workloads.distributions import distribution_by_name
        from repro.workloads.generator import (generate_workload, incast_pairs,
                                               permutation_pairs)
        config = spec.config
        scale = self._workload_scale(spec)

        senders, receivers = spec.senders, spec.receivers
        paired = spec.pair_senders_receivers
        load = spec.load
        if spec.traffic == "incast":
            incast_senders, incast_receivers = incast_pairs(
                topology, fanin=spec.incast_fanin, seed=spec.seed)
            senders, receivers = tuple(incast_senders), tuple(incast_receivers)
            paired = True
            # Incast load targets the *receiver* access link: N senders share
            # the offered load so the fan-in sums to ``load`` at the sink.
            load = spec.load / len(senders)
        elif spec.traffic == "permutation":
            perm_senders, perm_receivers = permutation_pairs(topology, seed=spec.seed)
            senders, receivers = tuple(perm_senders), tuple(perm_receivers)
            paired = True

        key = (spec.topology, spec.traffic, spec.workload, scale, spec.load,
               spec.seed, config.workload_duration,
               spec.workload_host_rate or config.host_capacity,
               senders, receivers, paired,
               spec.incast_fanin, config.warmup)
        cached = self._workloads.get(key)
        if cached is None:
            # One workload at a time: drop the last one before drawing anew.
            self._workloads.clear()
            distribution = distribution_by_name(spec.workload, scale)
            cached = generate_workload(
                topology, distribution, load=load,
                duration=config.workload_duration,
                host_capacity=spec.workload_host_rate or config.host_capacity,
                seed=spec.seed,
                senders=list(senders) if senders else None,
                receivers=list(receivers) if receivers else None,
                pair_senders_receivers=paired,
                start_after=config.warmup,
            )
            self._workloads[key] = cached
        return cached.flows

    # --------------------------------------------------------------- execution

    @staticmethod
    def _validate_traffic_fields(spec: ScenarioSpec, topology: Topology) -> None:
        """Reject what the traffic shape cannot honour: fields it would
        silently ignore, a zero flow load, and explicit endpoints no workload
        generator can draw from (an empty list is refused, not read as
        "every host").  Each field's own domain is already judged."""
        if spec.traffic != "streams" and spec.load == 0:
            raise ExperimentError(
                f"spec field load={spec.load!r} must be > 0 for traffic={spec.traffic!r}")
        if spec.traffic in ("incast", "permutation") and (
                spec.senders is not None or spec.receivers is not None
                or spec.pair_senders_receivers):
            raise ExperimentError(
                f"traffic={spec.traffic!r} computes its own sender/receiver "
                f"pairing; explicit senders/receivers/pair_senders_receivers "
                f"would be ignored")
        fanin = spec.incast_fanin
        if fanin is not None and not (spec.traffic == "incast"
                                      and fanin < len(topology.hosts)):
            raise ExperimentError(
                f"spec field incast_fanin={fanin!r} requires traffic='incast' "
                f"(got {spec.traffic!r}) and an integer in [1, {len(topology.hosts) - 1}]")
        if spec.traffic in ("flows", "streams") and (
                spec.senders is not None or spec.receivers is not None):
            from repro.workloads.generator import resolve_endpoints
            try:
                # Streams pair senders with receivers by position.
                resolve_endpoints(topology, spec.senders, spec.receivers,
                                  spec.pair_senders_receivers
                                  or spec.traffic == "streams")
            except WorkloadError as error:
                raise ExperimentError(
                    f"spec field senders={spec.senders!r} with "
                    f"receivers={spec.receivers!r}: {error}") from None

    @staticmethod
    def _validate_fluid_fields(spec: ScenarioSpec) -> None:
        """Reject what the fluid plane cannot run; its packet-only fields are
        refused by their plane marker (:func:`~repro.exceptions.check_fields`)."""
        if spec.system not in FLUID_SYSTEM_NAMES:
            raise ExperimentError(
                f"flow_model='fluid' does not support system {spec.system!r}; "
                f"available: {FLUID_SYSTEM_NAMES}")
        if spec.traffic == "streams":
            raise ExperimentError(
                "flow_model='fluid' models flow arrivals, not constant-rate "
                "UDP streams; use the packet plane for traffic='streams'")

    #: Expected flow count above which the fluid plane streams the workload
    #: lazily (seed-deterministic, O(senders) memory) instead of
    #: materializing the eager list.  The two draws differ, so the threshold
    #: is part of the determinism contract — never derive it from available
    #: memory or core count.
    _STREAM_THRESHOLD = 100_000

    def _fluid_flows(self, spec: ScenarioSpec, topology: Topology):
        """The fluid run's flow source: eager list, or a lazy stream at scale."""
        from repro.workloads.distributions import distribution_by_name
        from repro.workloads.generator import split_senders_receivers, stream_workload
        config = spec.config
        if spec.traffic == "flows":
            scale = self._workload_scale(spec)
            distribution = distribution_by_name(spec.workload, scale)
            if spec.senders is not None:
                sender_count = len(spec.senders)
            else:
                sender_count = len(split_senders_receivers(topology)[0])
            host_rate = spec.workload_host_rate or config.host_capacity
            expected = (sender_count * spec.load * host_rate
                        / distribution.mean() * config.workload_duration)
            if expected >= self._STREAM_THRESHOLD:
                stream = stream_workload(
                    topology, distribution, load=spec.load,
                    duration=config.workload_duration,
                    host_capacity=host_rate, seed=spec.seed,
                    senders=list(spec.senders) if spec.senders else None,
                    receivers=list(spec.receivers) if spec.receivers else None,
                    pair_senders_receivers=spec.pair_senders_receivers,
                    start_after=config.warmup)
                return iter(stream)
        return self._flows(spec, topology)

    def _run_fluid(self, spec: ScenarioSpec, topology: Topology,
                   events: List[LinkEvent]) -> RunResult:
        from repro.simulator.fluid import FluidSimulation, FluidStats, build_path_model
        config = spec.config
        model = build_path_model(spec.system, topology, policy=spec.policy)
        simulation = FluidSimulation(
            topology, model,
            stats=FluidStats(fct_percentiles=spec.fct_percentiles,
                             flow_sketch=spec.flow_sketch),
            host_window=config.host_window,
            sanitize=self._sanitize,
        )
        simulation.add_flows(self._fluid_flows(spec, topology))
        for event in events:
            if event.action == "fail":
                simulation.fail_link(event.a, event.b, at_time=event.time)
            else:
                simulation.recover_link(event.a, event.b, at_time=event.time)
        run_duration = spec.run_duration if spec.run_duration is not None \
            else config.run_duration
        stats = simulation.run(run_duration,
                               stop_after_completion=spec.stop_after_completion)
        return RunResult(
            name=spec.name,
            system=spec.system,
            workload=spec.workload,
            load=spec.load,
            seed=spec.seed,
            summary=stats.summary(),
        )

    def run(self, spec: ScenarioSpec) -> RunResult:
        check_fields(spec, "spec", ExperimentError, plane=spec.flow_model)
        check_fields(spec.config, "config", ExperimentError)
        topology = self.topology(spec.topology)
        self._validate_traffic_fields(spec, topology)
        events = self._link_events(spec, topology)
        if spec.flow_model == "fluid":
            self._validate_fluid_fields(spec)
        # The names a builder looks up, judged before any compile or draw.
        # They are exact: a "Contra" that build_routing_system would
        # lower-case skips the compile of spec.policy below.  Streams draw no
        # flow sizes, so their workload name is never read.  The policy name
        # is judged on every system, though only Contra compiles it.
        if spec.system not in SYSTEM_NAMES:
            raise ExperimentError(
                f"unknown routing system {spec.system!r}; available: {SYSTEM_NAMES}")
        _require_policy_name(spec.policy)
        if spec.traffic != "streams" and spec.workload not in WORKLOAD_NAMES:
            raise ExperimentError(
                f"unknown workload {spec.workload!r}; available: {WORKLOAD_NAMES}")
        if spec.flow_model == "fluid":
            return self._run_fluid(spec, topology, events)
        config = spec.config

        compiled: Optional[CompiledPolicy] = None
        if spec.system == "contra" or spec.respect_compiled_probe_period:
            compiled = self.compiled_policy(spec.policy, spec.topology)

        overrides = {}
        if spec.probe_period is not None:
            overrides["probe_period"] = spec.probe_period
        if spec.flowlet_timeout is not None:
            overrides["flowlet_timeout"] = spec.flowlet_timeout
        if spec.respect_compiled_probe_period and compiled is not None:
            overrides["probe_period"] = max(
                overrides.get("probe_period", config.probe_period), compiled.probe_period)
        if overrides:
            config = replace(config, **overrides)

        system = build_routing_system(spec.system, topology, config, compiled=compiled,
                                      use_versioning=spec.use_versioning)

        from repro.simulator.network import Network
        from repro.simulator.stats import StatsCollector
        network = Network(
            topology, system,
            buffer_packets=config.buffer_packets,
            host_window=config.host_window,
            host_rto=config.host_rto,
            util_window=config.util_window,
            stats=StatsCollector(record_paths=spec.record_paths,
                                 fct_percentiles=spec.fct_percentiles),
            transport=spec.transport if spec.transport is not None else config.transport,
            sanitize=self._sanitize,
        )
        if self.network_hook is not None:
            self.network_hook(network)

        run_duration = spec.run_duration if spec.run_duration is not None \
            else config.run_duration
        if spec.traffic == "streams":
            self._schedule_streams(spec, topology, network, run_duration)
        else:
            network.schedule_flows(self._flows(spec, topology))

        for event in events:
            if event.action == "fail":
                network.fail_link(event.a, event.b, at_time=event.time)
            else:
                network.recover_link(event.a, event.b, at_time=event.time)

        stats = network.run(run_duration,
                            stop_after_completion=spec.stop_after_completion)
        return RunResult(
            name=spec.name,
            system=spec.system,
            workload=spec.workload,
            load=spec.load,
            seed=spec.seed,
            summary=stats.summary(),
            queue_cdf=stats.queue_length_cdf(spec.cdf_points) if spec.cdf_points else None,
            throughput=stats.throughput_series() if spec.collect_throughput else None,
        )

    def _link_events(self, spec: ScenarioSpec, topology: Topology) -> List[LinkEvent]:
        """The spec's event schedule in time order.

        Judged whole before anything is compiled: every entry must be a
        :class:`LinkEvent` within its fields' domains, on one of
        ``topology``'s links.
        """
        for event in spec.events:
            if not isinstance(event, LinkEvent):
                raise ExperimentError(
                    f"link event {event!r} must be a LinkEvent")
            check_fields(event, f"link event at time {event.time!r}:", ExperimentError)
            if not topology.has_link(event.a, event.b):
                raise ExperimentError(
                    f"link event references unknown link {event.a!r}-{event.b!r}")
        return sorted(spec.events, key=lambda event: event.time)

    def _schedule_streams(self, spec: ScenarioSpec, topology: Topology,
                          network: Network, run_duration: float) -> None:
        rate = spec.stream_rate
        if rate is None:
            rate = 0.06 * spec.config.host_capacity
        if spec.senders is not None and spec.receivers is not None:
            pairs = list(zip(spec.senders, spec.receivers))
        else:
            hosts = topology.hosts
            half = len(hosts) // 2
            pairs = list(zip(hosts[:half], hosts[half:]))

        def start_streams() -> None:
            for src, dst in pairs:
                for _ in range(spec.streams_per_pair):
                    network.hosts[src].start_constant_stream(dst, rate, run_duration)

        network.sim.call_at(STREAM_START, start_streams)


# ----------------------------------------------------------------- backends

#: Worker-process context, created lazily on first task (survives across
#: tasks of one pool, so caches amortize over every spec the worker executes).
_WORKER_CONTEXT: Optional[RunContext] = None


def _worker_run(spec: ScenarioSpec) -> RunResult:
    global _WORKER_CONTEXT
    if _WORKER_CONTEXT is None:
        _WORKER_CONTEXT = RunContext()
    return _WORKER_CONTEXT.run(spec)


def resolve_processes(processes: Optional[int], tasks: int) -> int:
    """How many workers to use: explicit argument, else $CONTRA_PROCS, else 1.

    The default stays serial: grid results are byte-identical either way, and
    forking only pays off once the per-point runtime exceeds worker startup.
    ``0`` means every core; a negative or non-integer count is refused.
    """
    if processes is None:
        raw = procs_from_env()
        try:
            processes = int(raw)
        except ValueError:
            raise ExperimentError(
                f"CONTRA_PROCS must be an integer >= 0 (0 = every core), "
                f"got {raw!r}") from None
    if processes < 0:
        raise ExperimentError(
            f"worker count (--processes / CONTRA_PROCS) must be >= 0 "
            f"(0 = every core), got {processes}")
    if processes == 0:
        processes = os.cpu_count() or 1
    return max(1, min(processes, tasks))


class ExecutionBackend:
    """How a grid of specs gets executed.

    Backends are interchangeable behind :func:`run_grid`: given the same
    specs, every backend returns the same :class:`RunResult` list in spec
    order (the determinism contract).  ``serial`` and ``pool`` live here;
    the lease-coordinated ``CoordinatedBackend`` — the one backend that
    writes a results store, with skip-complete resume, static slices and
    work stealing — lives in :mod:`repro.experiments.coordinator`.

    Subclasses override :meth:`run` or :meth:`run_iter_timed`; the defaults
    delegate to one another.
    """

    def run(self, specs: Sequence[ScenarioSpec]) -> List[RunResult]:
        return [result for result, _ in self.run_iter_timed(specs)]

    def run_iter_timed(self, specs: Sequence[ScenarioSpec]):
        """Yield ``(result, wall_s)`` pairs in spec order.

        The default times :meth:`run` one spec at a time — exact for the
        coordinator, which hands its inner backend one point per call.
        """
        for spec in specs:
            started = time.perf_counter()
            [result] = self.run([spec])
            yield result, time.perf_counter() - started


class SerialBackend(ExecutionBackend):
    """Run every spec inline in this process, through one shared context."""

    def __init__(self, context: Optional[RunContext] = None):
        self._context = context

    def run_iter_timed(self, specs: Sequence[ScenarioSpec]):
        context = self._context if self._context is not None else RunContext()
        for spec in specs:
            started = time.perf_counter()
            result = context.run(spec)
            yield result, time.perf_counter() - started


class PoolBackend(ExecutionBackend):
    """Fan specs across a process pool; falls back to serial for tiny grids."""

    def __init__(self, processes: Optional[int] = None):
        self.processes = processes

    def run(self, specs: Sequence[ScenarioSpec]) -> List[RunResult]:
        specs = list(specs)
        workers = resolve_processes(self.processes, len(specs))
        if workers <= 1:
            return SerialBackend().run(specs)
        return grid_map(_worker_run, specs, workers)


def default_backend(processes: Optional[int] = None, tasks: int = 0) -> ExecutionBackend:
    """The backend ``run_grid`` uses when none is supplied explicitly."""
    if resolve_processes(processes, tasks) <= 1:
        return SerialBackend()
    return PoolBackend(processes)


def run_grid(specs: Sequence[ScenarioSpec], processes: Optional[int] = None,
             backend: Optional[ExecutionBackend] = None) -> List[RunResult]:
    """Execute every spec through an :class:`ExecutionBackend`, in spec order.

    With no explicit ``backend``, ``processes=None`` consults
    ``$CONTRA_PROCS`` (default serial) and ``processes=0`` uses every core.
    Results are returned in input order regardless of completion order, and
    are byte-identical whichever backend executes them.
    """
    specs = list(specs)
    if not specs:
        return []
    if backend is None:
        backend = default_backend(processes, len(specs))
    return backend.run(specs)


def grid_map(fn: Callable, items: Sequence, processes: Optional[int] = None) -> List:
    """Map a picklable module-level function over items, optionally in a pool.

    The one place a process pool opens: :class:`PoolBackend` maps grid
    points through it, the coordinated scenario run its drain workers, and
    the compile-scalability sweep its (topology, policy) compile jobs.
    """
    items = list(items)
    if not items:
        return []
    workers = resolve_processes(processes, len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import ProcessPoolExecutor
    chunksize = max(1, len(items) // workers)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items, chunksize=chunksize))
