"""Common machinery for the evaluation experiments.

Two tiers live here:

* the single-run helpers the seed started from — :func:`build_routing_system`
  turns a system name plus configuration into a ready
  :class:`~repro.simulator.network.RoutingSystem`, and :func:`run_simulation`
  wires a network, injects a workload and returns the statistics summary;
* the **experiment layer** every figure driver now builds on — a declarative
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
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.baselines import EcmpSystem, HulaSystem, ShortestPathSystem, SpainSystem
from repro.core.ast import Policy
from repro.core.builder import minimize, path, rank_tuple
from repro.core.compiler import CompiledPolicy, compile_policy
from repro.exceptions import ExperimentError, WorkloadError
from repro.experiments.config import (ExperimentConfig, procs_from_env,
                                      sanitize_from_env)
from repro.protocol import ContraSystem
from repro.simulator import Network, StatsCollector
from repro.simulator.flow import Flow
from repro.simulator.fluid import (FLUID_SYSTEM_NAMES, FluidSimulation,
                                   FluidStats, build_path_model)
from repro.topology.abilene import abilene
from repro.topology.fattree import fattree
from repro.topology.graph import Topology
from repro.topology.leafspine import leafspine
from repro.topology.random_graphs import random_network
from repro.topology.zoo import builtin_topology
from repro.workloads import distribution_by_name, generate_workload
from repro.workloads.generator import (incast_pairs, permutation_pairs,
                                       resolve_endpoints,
                                       split_senders_receivers,
                                       stream_workload)

__all__ = [
    "SimulationResult",
    "datacenter_policy",
    "wan_policy",
    "build_routing_system",
    "run_simulation",
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


@dataclass
class SimulationResult:
    """Outcome of one simulation run."""

    system: str
    load: float
    workload: str
    summary: Dict[str, float]
    stats: StatsCollector
    network: Network

    @property
    def avg_fct(self) -> float:
        return self.summary["avg_fct_ms"]


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


def default_failed_link(topology: Topology) -> Tuple[str, str]:
    """The aggregation–core link failed in the asymmetric experiments (§6.3)."""
    for agg in topology.switches_with_role("aggregation"):
        for neighbor in topology.switch_neighbors(agg):
            if topology.node_role(neighbor) == "core":
                return (agg, neighbor)
    raise ValueError("topology has no aggregation-core link to fail")


def build_routing_system(
    name: str,
    topology: Topology,
    config: ExperimentConfig,
    policy: Optional[Policy] = None,
    compiled: Optional[CompiledPolicy] = None,
    use_versioning: bool = True,
):
    """Instantiate one routing system by name under the shared configuration."""
    name = name.lower()
    if name == "ecmp":
        return EcmpSystem()
    if name == "shortest-path":
        return ShortestPathSystem()
    if name == "spain":
        return SpainSystem()
    if name == "hula":
        return HulaSystem(
            probe_period=config.probe_period,
            flowlet_timeout=config.flowlet_timeout,
            failure_periods=config.failure_periods,
        )
    if name == "contra":
        if compiled is None:
            compiled = compile_policy(policy if policy is not None else datacenter_policy(),
                                      topology)
        return ContraSystem(
            compiled,
            probe_period=config.probe_period,
            flowlet_timeout=config.flowlet_timeout,
            failure_periods=config.failure_periods,
            use_versioning=use_versioning,
        )
    raise ExperimentError(f"unknown routing system {name!r}; available: {SYSTEM_NAMES}")


def run_simulation(
    topology: Topology,
    system,
    flows: Sequence[Flow],
    config: ExperimentConfig,
    run_duration: Optional[float] = None,
    failed_link: Optional[Tuple[str, str]] = None,
    failure_time: float = 0.0,
    system_name: str = "",
    load: float = 0.0,
    workload_name: str = "",
    record_paths: bool = False,
    stop_after_completion: bool = False,
) -> SimulationResult:
    """Run one simulation with the shared transport/switch parameters."""
    network = Network(
        topology,
        system,
        buffer_packets=config.buffer_packets,
        host_window=config.host_window,
        host_rto=config.host_rto,
        util_window=config.util_window,
        stats=StatsCollector(record_paths=record_paths),
        transport=config.transport,
    )
    network.schedule_flows(flows)
    if failed_link is not None:
        network.fail_link(failed_link[0], failed_link[1], at_time=failure_time)
    stats = network.run(run_duration if run_duration is not None else config.run_duration,
                        stop_after_completion=stop_after_completion)
    return SimulationResult(
        system=system_name or getattr(system, "name", type(system).__name__),
        load=load,
        workload=workload_name,
        summary=stats.summary(),
        stats=stats,
        network=network,
    )


# =============================================================================
# Experiment layer: declarative scenarios and the grid runner
# =============================================================================

#: Per-link propagation delay every generator defaults to; a spec leaving
#: ``latency`` at this value means "family default".
_DEFAULT_LATENCY = 0.05


def _finite_number(value: object, positive: bool) -> bool:
    """Whether ``value`` is a finite real number ``>= 0`` (``> 0`` when ``positive``)."""
    return not isinstance(value, bool) and isinstance(value, (int, float)) \
        and math.isfinite(value) and (value > 0 if positive else value >= 0)


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
    k: int = 4                          # fat-tree arity / square leaf-spine size
    size: int = 0                       # random-graph switch count
    capacity: float = 100.0
    #: Uplink oversubscription ratio for the Clos families; 0 means the
    #: generator default (1:1, no oversubscription).
    oversubscription: float = 0.0
    #: Hosts attached per edge/leaf/PoP switch; 0 means the family default
    #: (k/2 per fat-tree edge switch, 2 per leaf, 1 per WAN PoP).
    hosts_per_switch: int = 0
    seed: int = 0
    leaves: int = 0                     # leaf-spine leaf count (0 -> k)
    spines: int = 0                     # leaf-spine spine count (0 -> k)
    latency: float = _DEFAULT_LATENCY
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
        # A NaN latency used to build, compile (max_rtt 0.0, so the 0.25 ms
        # fallback probe period) and run; no generator can honour these.
        for name, positive in (("capacity", True), ("latency", False),
                               ("oversubscription", False)):
            value = getattr(self, name)
            if not _finite_number(value, positive):
                raise ExperimentError(
                    f"TopologySpec field {name}={value!r} must be a finite number "
                    f"{'> 0' if positive else '>= 0'}")
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

    time: float
    a: str
    b: str
    action: str = "fail"                # "fail" | "recover"


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
    load: float = 0.0
    seed: int = 1

    #: Host transport mode override ("fixed" | "slowstart" | "paced"); None
    #: uses the config's transport.  Pure data, so transport grids are plain
    #: spec grids with the full determinism contract.
    transport: Optional[str] = None
    #: Receiver ACK coalescing: one cumulative ACK per this many in-order
    #: segments (delayed-ACK analogue; out-of-order, duplicate and completing
    #: segments always ACK immediately).  1 — the default — is the historical
    #: one-ACK-per-segment wire behaviour, byte-identical to before the knob.
    ack_every: int = 1

    # Traffic shape: Poisson flow arrivals ("flows"), N-to-1 fan-in flow
    # arrivals ("incast"), derangement-paired flow arrivals ("permutation"),
    # or constant-rate UDP streams between host pairs ("streams", the
    # Figure 14 traffic).
    traffic: str = "flows"
    workload_host_rate: Optional[float] = None   # per-sender offered rate override
    #: Flow-size distribution scale override (sensitivity knob); None uses the
    #: config's per-workload scale (1.0 for non-paper workloads).
    workload_scale: Optional[float] = None
    senders: Optional[Tuple[str, ...]] = None
    receivers: Optional[Tuple[str, ...]] = None
    pair_senders_receivers: bool = False
    #: Incast shape: how many senders fan in (None = every other host) and to
    #: which host (None = a seed-deterministic choice).
    incast_fanin: Optional[int] = None
    incast_receiver: Optional[str] = None
    stream_rate: Optional[float] = None          # packets/ms per stream
    stream_start: float = 0.5
    streams_per_pair: int = 1

    # Failure/recovery schedule: an ordered tuple of LinkEvents (or plain
    # (time, a, b, action) tuples).  The single-failure fields below remain
    # as a compatibility shim and are folded into the schedule at run time.
    events: Tuple[LinkEvent, ...] = ()
    fail_agg_core_link: bool = False
    failed_link: Optional[Tuple[str, str]] = None
    failure_time: float = 0.0

    # Protocol overrides (the ablation experiments sweep these).
    probe_period: Optional[float] = None
    flowlet_timeout: Optional[float] = None
    use_versioning: bool = True
    #: Clamp the probe period to the compiler's RTT-derived bound (§5.2) —
    #: required on WANs whose detour paths exceed the datacenter default.
    respect_compiled_probe_period: bool = False

    # Measurement.
    record_paths: bool = False
    stop_after_completion: bool = False
    run_duration: Optional[float] = None
    cdf_points: Tuple[float, ...] = ()           # collect the queue-length CDF
    collect_throughput: bool = False             # collect the throughput series

    # Data path selection (v3 hash fields; at these defaults they are omitted
    # from the canonical form, so packet-default spec hashes predating the
    # fields keep resolving in existing results stores).
    #: Which simulation plane executes the point: "packet" (the default and
    #: the validation oracle) or "fluid" (epoch-driven max-min rate
    #: allocation — see ARCHITECTURE.md §7 for what it does and doesn't model).
    flow_model: str = "packet"
    #: Opt-in per-switch flow-cardinality HyperLogLog sketch (fluid only:
    #: the packet plane never feeds the sketch, so it would silently report
    #: nothing there).
    flow_sketch: bool = False
    #: Extra FCT percentiles reported as ``p<q>_fct_ms`` summary keys
    #: (both planes; the fidelity scenario compares medians through this).
    fct_percentiles: Tuple[float, ...] = ()

    def __getstate__(self) -> Dict[str, object]:
        """The fields alone: :func:`spec_hash`'s memo is never pickled."""
        return self.__dict__


# ---------------------------------------------------------------- spec hashing

#: Bumped whenever the canonical spec encoding changes shape, so stale results
#: stores can never satisfy a lookup from a newer encoder.  v2: ScenarioSpec
#: gained ``ack_every``.  v3: ``flow_model`` / ``flow_sketch`` /
#: ``fct_percentiles`` — encoded *only* when set away from their defaults
#: (and the version tag stays 2 when none is), so every pre-existing
#: packet-default hash keeps resolving in long-lived results stores.
_SPEC_HASH_VERSION = 3

#: The v3 fields and the default under which each is omitted from the
#: canonical form.  Appending to this dict (never mutating an entry) is the
#: established pattern for adding spec fields without re-keying old stores.
_V3_FIELDS: Dict[str, object] = {
    "flow_model": "packet",
    "flow_sketch": False,
    "fct_percentiles": (),
}


def canonical_spec(spec: ScenarioSpec) -> Dict:
    """The canonical plain-data form of a spec used for hashing.

    Canonicalization rules (the results-store contract, see ARCHITECTURE.md):

    * every dataclass (the spec itself, its :class:`TopologySpec`,
      :class:`~repro.experiments.config.ExperimentConfig` and
      :class:`LinkEvent` entries) becomes a plain dict of its fields;
    * ``events`` entries given as bare ``(time, a, b, action)`` tuples are
      normalized to :class:`LinkEvent` first, so the two accepted spellings
      of the same schedule hash identically;
    * the :data:`_V3_FIELDS` entries are dropped when equal to their default
      (a default-valued new field must not re-key every old store record);
    * tuples become JSON arrays; nothing else is transformed — in particular
      no *other* field is ever dropped, so two specs that differ anywhere
      (including the config) never collide by construction.
    """
    events = tuple(event if isinstance(event, LinkEvent) else LinkEvent(*event)
                   for event in spec.events)
    canonical = asdict(replace(spec, events=events))
    for name, default in _V3_FIELDS.items():
        if canonical[name] == default:
            del canonical[name]
    return canonical


def spec_hash(spec: ScenarioSpec) -> str:
    """A stable content hash of one grid point.

    The canonical form is serialized as compact JSON with sorted keys and
    hashed with SHA-256: the digest is identical across processes,
    interpreter invocations and platforms (CPython's shortest-repr float
    serialization is deterministic, and no randomized ``hash()`` is
    involved), which is what makes results stores shardable and resumable.

    Specs whose v3 fields all sit at their defaults hash under version tag 2
    — byte-identical payloads to the pre-v3 encoder — so resuming an old
    packet results store under the new encoder skips exactly the points it
    already holds.

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
    canonical = canonical_spec(spec)
    version = _SPEC_HASH_VERSION \
        if any(name in canonical for name in _V3_FIELDS) else 2
    payload = json.dumps({"v": version, "spec": canonical},
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
    detail = topo.name or (f"k={topo.k}" if topo.family in ("fattree", "leafspine")
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

    Topologies, compiled policies (keyed by ``(policy, topology)``) and
    generated workloads are deterministic functions of the spec, so each
    worker builds them at most once however many grid points share them —
    Contra is no longer recompiled for every (system, load, seed) point.
    """

    def __init__(self, sanitize: Optional[bool] = None) -> None:
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
            try:
                builder = POLICY_BUILDERS[policy_name]
            except KeyError:
                raise ExperimentError(
                    f"unknown policy {policy_name!r}; available: {sorted(POLICY_BUILDERS)}"
                ) from None
            compiled = compile_policy(builder(), self.topology(topo_spec))
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
        config = spec.config
        scale = self._workload_scale(spec)

        senders, receivers = spec.senders, spec.receivers
        paired = spec.pair_senders_receivers
        load = spec.load
        if spec.traffic == "incast":
            incast_senders, incast_receivers = incast_pairs(
                topology, receiver=spec.incast_receiver, fanin=spec.incast_fanin,
                seed=spec.seed)
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
               spec.incast_fanin, spec.incast_receiver, config.warmup)
        cached = self._workloads.get(key)
        if cached is None:
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
        """Reject spec fields the selected traffic shape would silently ignore,
        protocol timing and data-plane values no switch, link or host could
        run, and explicit flow endpoints no workload generator can draw from.

        The second half: a zero, negative or NaN probe period, a negative or
        NaN flowlet timeout and a non-positive failure-detection window used
        to surface as a bare ``SimulationError`` after the compile — or not
        at all (a NaN period ran and completed 2 of 29 flows;
        ``failure_periods=0`` declared every neighbour failed every round).
        The data-plane values likewise: ``util_window=0`` was a bare
        ``ZeroDivisionError`` from the link EWMA and NaN a ``ValueError``,
        ``buffer_packets <= 0`` ran and dropped every packet,
        ``host_window=0`` ran as window 1, ``host_rto=0`` re-armed its
        timeout check at the same instant forever and a negative one was a
        bare ``SimulationError``.  Checked for the spec override and the
        config value alike, here, so before anything is compiled.

        The third part: a sender or receiver that is not a host of
        ``topology`` used to escape as a bare ``KeyError``, a sender with no
        eligible receiver as numpy's ``ValueError``; the generators' own
        resolver judges them.
        """
        timing = (("probe_period", True, "a finite number > 0"),
                  ("flowlet_timeout", False, "a finite number >= 0"),
                  ("util_window", True, "a finite number > 0"),
                  ("host_rto", True, "a finite number > 0"))
        for source, owner in (("spec", spec), ("config", spec.config)):
            for name, positive, rule in timing:
                value = getattr(owner, name, None)
                if value is None and owner is spec:
                    continue            # no override (or a config-only field)
                if not _finite_number(value, positive):
                    raise ExperimentError(
                        f"{source} field {name}={value!r} must be {rule}")
        for source, owner, name in (("config", spec.config, "failure_periods"),
                                    ("config", spec.config, "buffer_packets"),
                                    ("config", spec.config, "host_window"),
                                    ("spec", spec, "ack_every")):
            value = getattr(owner, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ExperimentError(
                    f"{source} field {name}={value!r} must be an integer >= 1")
        if spec.traffic in ("incast", "permutation") and (
                spec.senders is not None or spec.receivers is not None
                or spec.pair_senders_receivers):
            raise ExperimentError(
                f"traffic={spec.traffic!r} computes its own sender/receiver "
                f"pairing; explicit senders/receivers/pair_senders_receivers "
                f"would be ignored")
        if spec.traffic != "incast" and (
                spec.incast_fanin is not None or spec.incast_receiver is not None):
            raise ExperimentError(
                f"incast_fanin/incast_receiver require traffic='incast', "
                f"got traffic={spec.traffic!r}")
        if spec.traffic == "flows" and (spec.senders or spec.receivers):
            try:
                resolve_endpoints(topology, spec.senders or None,
                                  spec.receivers or None,
                                  spec.pair_senders_receivers)
            except WorkloadError as error:
                raise ExperimentError(
                    f"spec field senders={spec.senders!r} with "
                    f"receivers={spec.receivers!r}: {error}") from None

    @staticmethod
    def _validate_fluid_fields(spec: ScenarioSpec) -> None:
        """Reject spec fields the fluid plane would silently ignore.

        The fluid model has no segments, windows, probes or queues, so every
        packet-plane knob that would change nothing must fail loudly — a
        silently dropped field would let two meaningfully different specs
        produce identical runs (the same contract
        :meth:`TopologySpec._reject_unsupported` enforces for topologies).
        """
        if spec.system not in FLUID_SYSTEM_NAMES:
            raise ExperimentError(
                f"flow_model='fluid' does not support system {spec.system!r}; "
                f"available: {FLUID_SYSTEM_NAMES}")
        if spec.traffic == "streams":
            raise ExperimentError(
                "flow_model='fluid' models flow arrivals, not constant-rate "
                "UDP streams; use the packet plane for traffic='streams'")
        rejected = [
            ("transport", spec.transport, None),
            ("ack_every", spec.ack_every, 1),
            ("record_paths", spec.record_paths, False),
            ("cdf_points", spec.cdf_points, ()),
            ("collect_throughput", spec.collect_throughput, False),
            ("probe_period", spec.probe_period, None),
            ("flowlet_timeout", spec.flowlet_timeout, None),
            ("respect_compiled_probe_period",
             spec.respect_compiled_probe_period, False),
            ("use_versioning", spec.use_versioning, True),
        ]
        for name, value, default in rejected:
            if value != default:
                raise ExperimentError(
                    f"spec field {name}={value!r} has no fluid-plane "
                    f"equivalent (packets, probes and queues are not "
                    f"modelled); leave it at its default or use "
                    f"flow_model='packet'")

    #: Expected flow count above which the fluid plane streams the workload
    #: lazily (seed-deterministic, O(senders) memory) instead of
    #: materializing the eager list.  The two draws differ, so the threshold
    #: is part of the determinism contract — never derive it from available
    #: memory or core count.
    _STREAM_THRESHOLD = 100_000

    def _fluid_flows(self, spec: ScenarioSpec, topology: Topology):
        """The fluid run's flow source: eager list, or a lazy stream at scale."""
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

    def _run_fluid(self, spec: ScenarioSpec) -> RunResult:
        topology = self.topology(spec.topology)
        self._validate_traffic_fields(spec, topology)
        self._validate_fluid_fields(spec)
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
        for event in self._link_events(spec, topology):
            if event.action == "fail":
                simulation.fail_link(event.a, event.b, at_time=event.time)
            elif event.action == "recover":
                simulation.recover_link(event.a, event.b, at_time=event.time)
            else:
                raise ExperimentError(
                    f"unknown link event action {event.action!r} "
                    f"(expected 'fail' or 'recover')")
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
        if spec.flow_model == "fluid":
            return self._run_fluid(spec)
        if spec.flow_model != "packet":
            raise ExperimentError(
                f"unknown flow model {spec.flow_model!r} "
                f"(expected 'packet' or 'fluid')")
        if spec.flow_sketch:
            raise ExperimentError(
                "flow_sketch requires flow_model='fluid': the packet plane "
                "never feeds the cardinality sketch, so the option would "
                "silently report nothing")
        topology = self.topology(spec.topology)
        self._validate_traffic_fields(spec, topology)
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

        network = Network(
            topology, system,
            buffer_packets=config.buffer_packets,
            host_window=config.host_window,
            host_rto=config.host_rto,
            util_window=config.util_window,
            stats=StatsCollector(record_paths=spec.record_paths,
                                 fct_percentiles=spec.fct_percentiles),
            transport=spec.transport if spec.transport is not None else config.transport,
            host_ack_every=spec.ack_every,
            sanitize=self._sanitize,
        )
        if self.network_hook is not None:
            self.network_hook(network)

        run_duration = spec.run_duration if spec.run_duration is not None \
            else config.run_duration
        if spec.traffic in ("flows", "incast", "permutation"):
            network.schedule_flows(self._flows(spec, topology))
        elif spec.traffic == "streams":
            self._schedule_streams(spec, topology, network, run_duration)
        else:
            raise ExperimentError(f"unknown traffic shape {spec.traffic!r}")

        for event in self._link_events(spec, topology):
            if event.action == "fail":
                network.fail_link(event.a, event.b, at_time=event.time)
            elif event.action == "recover":
                network.recover_link(event.a, event.b, at_time=event.time)
            else:
                raise ExperimentError(
                    f"unknown link event action {event.action!r} "
                    f"(expected 'fail' or 'recover')")

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
        """The spec's full event schedule, legacy single-failure fields folded in."""
        events = [event if isinstance(event, LinkEvent) else LinkEvent(*event)
                  for event in spec.events]
        failed_link = spec.failed_link
        if failed_link is None and spec.fail_agg_core_link:
            failed_link = default_failed_link(topology)
        if failed_link is not None:
            events.append(LinkEvent(spec.failure_time, failed_link[0], failed_link[1],
                                    "fail"))
        for event in events:
            if not topology.has_link(event.a, event.b):
                raise ExperimentError(
                    f"link event references unknown link {event.a!r}-{event.b!r}")
        return sorted(events, key=lambda event: event.time)

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

        network.sim.call_at(spec.stream_start, start_streams)


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
        chunksize = max(1, len(specs) // workers)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_worker_run, specs, chunksize=chunksize))


def default_backend(processes: Optional[int] = None, tasks: int = 0,
                    context: Optional[RunContext] = None) -> ExecutionBackend:
    """The backend ``run_grid`` uses when none is supplied explicitly."""
    if resolve_processes(processes, tasks) <= 1:
        return SerialBackend(context)
    return PoolBackend(processes)


def run_grid(specs: Sequence[ScenarioSpec], processes: Optional[int] = None,
             context: Optional[RunContext] = None,
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
        backend = default_backend(processes, len(specs), context)
    return backend.run(specs)


def grid_map(fn: Callable, items: Sequence, processes: Optional[int] = None) -> List:
    """Map a picklable module-level function over items, optionally in a pool.

    The compile-scalability sweep uses this for (topology, policy) compile
    jobs, which carry no simulation state.
    """
    items = list(items)
    if not items:
        return []
    workers = resolve_processes(processes, len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    chunksize = max(1, len(items) // workers)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items, chunksize=chunksize))
