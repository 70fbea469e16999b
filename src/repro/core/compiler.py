"""The Contra compiler: policy + topology → per-switch device programs (§4).

The compiler performs, in order:

1. **Policy analysis** — monotonicity check (loops die out, §5.1), isotonicity
   check and decomposition into isotonic subpolicies with separate probe ids
   (§3 challenge #3, §4).
2. **Product graph construction** — the policy's regexes are reversed,
   determinised, and combined with the topology (§4.1), then tags are
   minimised.
3. **Device configuration generation** — one :class:`DeviceConfig` per switch,
   containing the probe tag-transition table, multicast sets, acceptance
   signatures and sizing information (§4.2, §4.3).
4. **Protocol parameter selection** — a probe period of at least half the
   network's worst round-trip time (§5.2).

The output, :class:`CompiledPolicy`, is interpreted directly by the simulator
runtime (:mod:`repro.protocol`) and can be rendered to P4-style source with
:mod:`repro.core.p4gen`.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left
from dataclasses import dataclass, field
from numbers import Real
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core import ast
from repro.core.analysis.crosscheck import verify_lowered_tables
from repro.core.analysis.decomposition import Decomposition, decompose
from repro.core.analysis.isotonicity import IsotonicityResult, check_isotonicity
from repro.core.analysis.monotonicity import MonotonicityResult, check_monotonicity
from repro.core.device_config import DeviceConfig, TagInfo
from repro.core.product_graph import ProductGraph, build_product_graph
from repro.core.rank import INFINITY, Rank
from repro.exceptions import CompilationError, PolicyAnalysisError
from repro.topology.graph import Topology

__all__ = ["CompileOptions", "CompiledPolicy", "compile_policy"]


@dataclass(frozen=True)
class CompileOptions:
    """Knobs controlling compilation (all defaults match the paper's prototype)."""

    #: Run DFA minimisation on the policy automata.
    minimize_automata: bool = True
    #: Merge behaviourally equivalent product-graph nodes (fewer tags).
    minimize_tags: bool = True
    #: Raise if the policy is not provably monotone (otherwise only record it).
    strict_monotonicity: bool = True
    #: Flowlet-table slots provisioned per (tag, pid) on every switch.
    flowlet_slots: int = 256
    #: Loop-detection table slots on every switch.
    loop_table_slots: int = 256
    #: Multiplier applied to the measured worst-case RTT when choosing the
    #: probe period (must be >= 0.5 per §5.2; a smaller one is refused).
    probe_period_rtt_multiplier: float = 0.5
    #: Run the device-table cross-checker as a post-compile assertion and
    #: raise :class:`~repro.exceptions.VerificationError` on any disagreement.
    verify: bool = False

    def __post_init__(self) -> None:
        multiplier = self.probe_period_rtt_multiplier
        # Chained so that NaN, which compares false with everything, is refused.
        if isinstance(multiplier, bool) or not isinstance(multiplier, Real) \
                or not 0.5 <= multiplier < math.inf:
            raise CompilationError(
                f"probe_period_rtt_multiplier must be a finite number of at least 0.5 "
                f"(§5.2), got {multiplier!r}")
        for name in ("flowlet_slots", "loop_table_slots"):
            slots = getattr(self, name)
            if type(slots) is not int or slots <= 0:
                raise CompilationError(f"{name} must be a positive int, got {slots!r}")


@dataclass
class CompiledPolicy:
    """Everything the compiler produces for one (policy, topology) pair."""

    policy: ast.Policy
    topology: Topology
    options: CompileOptions
    decomposition: Decomposition
    monotonicity: MonotonicityResult
    isotonicity: IsotonicityResult
    product_graph: ProductGraph
    device_configs: Dict[str, DeviceConfig]
    #: Recommended probe period in milliseconds (>= 0.5 x worst RTT, §5.2).
    probe_period: float
    #: Wall-clock compile time in seconds (Figure 9).
    compile_time: float = 0.0
    #: Where ``compile_time`` went: seconds per compiler phase, in phase
    #: order (``analysis``, ``product_graph``, ``tag_minimization``,
    #: ``device_configs``, ``probe_period``).
    phase_times: Dict[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------------ sizing

    def _state_bytes(self) -> List[int]:
        """Per switch, in config order, the total of its state estimate.

        An estimate reads nothing but the tag count and the sizing fields
        every config of one compile shares, so configs that agree on those
        share one :class:`StateEstimate`.
        """
        totals: Dict[Tuple, int] = {}
        sized = []
        for cfg in self.device_configs.values():
            key = (len(cfg.tags), cfg.network_size, cfg.num_probe_ids, cfg.carried_attrs,
                   cfg.flowlet_slots, cfg.loop_table_slots)
            total = totals.get(key)
            if total is None:
                total = totals[key] = cfg.state_estimate().total_bytes
            sized.append(total)
        return sized

    def total_state_bytes(self) -> int:
        """Sum of the per-switch state estimates (Figure 10 reports the max)."""
        return sum(self._state_bytes())

    def max_state_bytes(self) -> int:
        """The largest per-switch state estimate."""
        return max(self._state_bytes())

    def max_state_kb(self) -> float:
        return self.max_state_bytes() / 1024.0

    @property
    def num_probe_ids(self) -> int:
        return self.decomposition.num_probes

    @property
    def carried_attrs(self) -> Tuple[str, ...]:
        return self.decomposition.carried_attrs

    def device(self, switch: str) -> DeviceConfig:
        try:
            return self.device_configs[switch]
        except KeyError:
            raise CompilationError(f"no device configuration for switch {switch!r}") from None

    # ------------------------------------------------------- reference oracle

    def rank_of_path(
        self,
        path: Sequence[str],
        link_metrics: Callable[[str, str], Mapping[str, float]],
    ) -> Rank:
        """Evaluate the user policy on a concrete traffic path.

        ``link_metrics(a, b)`` returns the metric values of the directed link
        ``a -> b`` (e.g. ``{"util": 0.3, "lat": 0.05}``).  Used by tests and by
        the reference oracle below; the data plane never does this explicitly.
        """
        from repro.core.attributes import ATTRIBUTES

        metrics: Dict[str, float] = {}
        for name in self.carried_attrs or ("len",):
            metrics[name] = ATTRIBUTES[name].initial
        for a, b in zip(path, path[1:]):
            values = link_metrics(a, b)
            for name in list(metrics):
                metrics[name] = ATTRIBUTES[name].extend(metrics[name], float(values.get(name, 0.0)))
        metrics.setdefault("len", float(max(0, len(path) - 1)))
        regex_results = self.product_graph.traffic_path_acceptance(path)
        return self.policy.rank_path(path, metrics, regex_results)

    def reference_best_paths(
        self,
        src: str,
        dst: str,
        link_metrics: Callable[[str, str], Mapping[str, float]],
        cutoff: Optional[int] = None,
    ) -> Tuple[Rank, List[List[str]]]:
        """Exhaustive oracle: the optimal policy rank and all paths achieving it.

        Enumerates simple paths (exponential; only for tests and small
        topologies) and evaluates the policy on each.  The protocol's converged
        choice must match this oracle under stable metrics — that is the
        "Optimal" property in Figure 1.
        """
        best_rank = INFINITY
        best_paths: List[List[str]] = []
        for path in self.topology.all_simple_paths(src, dst, cutoff=cutoff):
            rank = self.rank_of_path(path, link_metrics)
            if rank < best_rank:
                best_rank = rank
                best_paths = [path]
            elif rank == best_rank and rank.is_finite:
                best_paths.append(path)
        return best_rank, best_paths

    def __repr__(self) -> str:
        return (f"CompiledPolicy(policy={self.policy.name!r}, "
                f"switches={len(self.device_configs)}, "
                f"pids={self.num_probe_ids}, pg_nodes={self.product_graph.num_nodes})")


def compile_policy(
    policy: ast.Policy,
    topology: Topology,
    options: Optional[CompileOptions] = None,
) -> CompiledPolicy:
    """Compile a policy for a topology into per-switch device configurations."""
    if options is None:
        options = CompileOptions()
    if not topology.switches:
        raise CompilationError("cannot compile for a topology without switches")

    started = lap_started = time.perf_counter()
    phase_times: Dict[str, float] = {}

    def lap(phase: str) -> None:
        nonlocal lap_started
        now = time.perf_counter()
        phase_times[phase] = now - lap_started
        lap_started = now

    monotonicity = check_monotonicity(policy)
    if options.strict_monotonicity and not monotonicity.is_monotone:
        raise PolicyAnalysisError(
            "policy is not monotone and strict_monotonicity is enabled: "
            + "; ".join(monotonicity.reasons))
    isotonicity = check_isotonicity(policy)
    decomposition = decompose(policy)
    lap("analysis")

    regexes = policy.regexes()
    product_graph = build_product_graph(
        topology,
        regexes,
        minimize_automata=options.minimize_automata,
        minimize_tags=False,
    )
    lap("product_graph")
    if options.minimize_tags and regexes:
        product_graph.merge_tags()
    lap("tag_minimization")

    device_configs = _generate_device_configs(policy, topology, product_graph, decomposition, options)
    lap("device_configs")

    probe_period = options.probe_period_rtt_multiplier * topology.max_rtt()
    if probe_period <= 0:
        probe_period = 0.25
    lap("probe_period")

    elapsed = time.perf_counter() - started
    compiled = CompiledPolicy(
        policy=policy,
        topology=topology,
        options=options,
        decomposition=decomposition,
        monotonicity=monotonicity,
        isotonicity=isotonicity,
        product_graph=product_graph,
        device_configs=device_configs,
        probe_period=probe_period,
        compile_time=elapsed,
        phase_times=phase_times,
    )
    if options.verify:
        verify_lowered_tables(compiled)
    return compiled


def _generate_device_configs(
    policy: ast.Policy,
    topology: Topology,
    product_graph: ProductGraph,
    decomposition: Decomposition,
    options: CompileOptions,
) -> Dict[str, DeviceConfig]:
    """One :class:`DeviceConfig` per switch, read off the product graph's rows.

    Compile's graph is never pruned, so every node's row holds one successor
    per neighbour of its switch, in neighbour order.  A switch's nodes thus
    share one multicast tuple, and the probes a neighbour ``N`` sends to
    switch ``S`` move into the tags in column ``k`` of ``N``'s rows, where
    ``k`` is ``S``'s position among ``N``'s neighbours.
    """
    regexes = tuple(policy.regexes())
    carried = decomposition.carried_attrs
    num_probe_ids = max(1, decomposition.num_probes)
    names, adjacency = topology.switch_id_rows()
    vectors, vector_ids = product_graph.vectors, product_graph.vector_ids
    rows, node_tags = product_graph.successor_rows, product_graph.node_tags
    tag_of = node_tags.__getitem__
    accepted = [product_graph.acceptance_of(states) for states in vectors]
    nodes_at: List[List[int]] = [[] for _ in names]
    for node, switch in enumerate(product_graph.switch_ids):
        nodes_at[switch].append(node)
    #: Per switch id, built the first time it is someone's neighbour: the
    #: ``(name, tag)`` keys of its nodes, and its rows' columns.
    keys_of: List[Optional[List[Tuple[str, int]]]] = [None] * len(names)
    columns_of: List[List[Tuple[int, ...]]] = [[] for _ in names]
    configs: Dict[str, DeviceConfig] = {}

    for switch, name in enumerate(names):
        neighbors = adjacency[switch]
        multicast = tuple([names[neighbor] for neighbor in neighbors])
        tags: Dict[int, TagInfo] = {}
        for node in nodes_at[switch]:
            tag = node_tags[node]
            vector = vector_ids[node]
            tags[tag] = TagInfo(tag, vectors[vector], accepted[vector], multicast)

        # Keyed by the switch's own neighbours, in (neighbour name, node)
        # order: P4 codegen and the cross-checker iterate this table.
        probe_transition: Dict[Tuple[str, int], int] = {}
        for neighbor in neighbors:
            back = adjacency[neighbor]
            column = bisect_left(back, switch)
            if column == len(back) or back[column] != switch:
                continue                        # no link back: no probe arrives
            keys = keys_of[neighbor]
            if keys is None:
                neighbor_name = names[neighbor]
                neighbor_nodes = nodes_at[neighbor]
                keys = keys_of[neighbor] = [(neighbor_name, node_tags[node])
                                            for node in neighbor_nodes]
                columns_of[neighbor] = list(zip(*[rows[node] for node in neighbor_nodes]))
            probe_transition.update(zip(keys, map(tag_of, columns_of[neighbor][column])))

        configs[name] = DeviceConfig(
            switch=name,
            regexes=regexes,
            tags=tags,
            probe_transition=probe_transition,
            probe_origin_tag=node_tags[product_graph.origin_ids[switch]],
            carried_attrs=carried,
            num_probe_ids=num_probe_ids,
            network_size=len(names),
            flowlet_slots=options.flowlet_slots,
            loop_table_slots=options.loop_table_slots,
        )
    return configs
