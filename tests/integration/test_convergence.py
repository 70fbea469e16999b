"""Integration tests: the Contra protocol converges to the policy-optimal paths.

Figure 1 lists "Optimal — converges to best paths under stable metrics" as a
design goal.  These tests run the compiled protocol inside the simulator with
stable link metrics, then compare every source switch's converged choice
against the exhaustive reference oracle (`CompiledPolicy.reference_best_paths`).
"""

import pytest

from repro.core.builder import if_, inf, lt, matches, minimize, path, rank_tuple
from repro.core.compiler import compile_policy
from repro.core.policies import MU, congestion_aware
from repro.core.rank import INFINITY
from repro.protocol.contra_switch import ContraSystem
from repro.simulator.network import Network
from repro.topology.abilene import abilene
from repro.topology.leafspine import leafspine
from repro.topology.graph import Topology


def diamond_topology():
    """A-B, A-C, B-C, B-D, C-D with hosts on A, B and D (Figure 6a)."""
    topo = Topology("figure6")
    for switch in ("A", "B", "C", "D"):
        topo.add_switch(switch)
    for a, b in (("A", "B"), ("A", "C"), ("B", "C"), ("B", "D"), ("C", "D")):
        topo.add_link(a, b)
    for switch in ("A", "B", "D"):
        host = f"h{switch}"
        topo.add_host(host, switch)
        topo.add_link(host, switch)
    return topo


def converge(policy, topology, link_utils, probe_period=0.2, settle=5.0, **system_kwargs):
    """Run only the control plane (probes) with pinned link utilizations.

    ``link_utils`` maps directed (a, b) pairs to a fixed utilization; all other
    links report 0.  Pass ``probe_period=None`` to use the compiler's
    recommended period (>= 0.5x the worst RTT, §5.2) — required for optimality
    on topologies with heterogeneous latencies.  Returns (compiled, system,
    network).
    """
    compiled = compile_policy(policy, topology)
    system = ContraSystem(compiled, probe_period=probe_period, **system_kwargs)
    network = Network(topology, system)
    # Pin every switch-switch link's reported metrics so the protocol and the
    # oracle both see exactly the configured, stable utilizations.
    for (a, b), link in network.links.items():
        if not (network.is_switch(a) and network.is_switch(b)):
            continue
        value = link_utils.get((a, b), 0.0)
        link.metric_values = (  # type: ignore[method-assign]
            lambda v=value, lat=link.latency: {"util": v, "lat": lat, "len": 1.0})
    network.run(settle)
    return compiled, system, network


def protocol_path(system, network, src_switch, dst_switch, max_hops=12):
    """Follow each switch's current best/FwdT choice hop by hop (new flowlet)."""
    compiled = system.compiled
    logic = system.logic(src_switch)
    best = logic._best_key(dst_switch)
    if best is None:
        return None
    path_nodes = [src_switch]
    _, tag, pid = best
    current = src_switch
    for _ in range(max_hops):
        logic = system.logic(current)
        entry = logic.fwdt.lookup((dst_switch, tag, pid))
        if entry is None:
            return None
        tag = entry.next_tag
        current = entry.next_hop
        path_nodes.append(current)
        if current == dst_switch:
            return path_nodes
    return None


def oracle_metrics(network):
    def lookup(a, b):
        return network.link(a, b).metric_values()
    return lookup


class TestMinUtilConvergence:
    def test_leafspine_picks_least_utilized_spine(self):
        topo = leafspine(2, 2, hosts_per_leaf=1, capacity=50.0)
        utils = {("leaf0", "spine0"): 0.7, ("spine0", "leaf1"): 0.7,
                 ("leaf0", "spine1"): 0.1, ("spine1", "leaf1"): 0.1}
        compiled, system, network = converge(MU(), topo, utils)
        assert protocol_path(system, network, "leaf0", "leaf1") == ["leaf0", "spine1", "leaf1"]

    def test_diamond_matches_oracle(self):
        topo = diamond_topology()
        utils = {("A", "B"): 0.2, ("B", "A"): 0.2,
                 ("B", "D"): 0.8, ("D", "B"): 0.8,
                 ("A", "C"): 0.3, ("C", "A"): 0.3,
                 ("C", "D"): 0.1, ("D", "C"): 0.1,
                 ("B", "C"): 0.1, ("C", "B"): 0.1}
        compiled, system, network = converge(MU(), topo, utils)
        chosen = protocol_path(system, network, "A", "D")
        best_rank, best_paths = compiled.reference_best_paths("A", "D", oracle_metrics(network))
        assert chosen in best_paths
        # The protocol's rank for the chosen path equals the oracle's optimum.
        assert compiled.rank_of_path(chosen, oracle_metrics(network)) == best_rank

    def test_abilene_all_sources_match_oracle(self):
        topo = abilene(capacity=50.0, hosts_per_switch=1)
        utils = {("KSC", "IPL"): 0.9, ("IPL", "KSC"): 0.9,
                 ("DEN", "KSC"): 0.6, ("KSC", "DEN"): 0.6}
        # Abilene's heterogeneous latencies need a generous probe period: the
        # least-utilized path can be much longer (in propagation delay) than
        # the shortest path, and probes travelling it must arrive before the
        # next version invalidates them (§5.2).
        compiled, system, network = converge(MU(), topo, utils,
                                             probe_period=1.0, settle=20.0)
        for source in ("SEA", "LAX", "DEN"):
            chosen = protocol_path(system, network, source, "NYC")
            assert chosen is not None, f"{source} found no path"
            best_rank, best_paths = compiled.reference_best_paths(
                source, "NYC", oracle_metrics(network), cutoff=7)
            assert compiled.rank_of_path(chosen, oracle_metrics(network)) == best_rank


class TestConstrainedConvergence:
    def test_waypoint_policy_routes_through_waypoint(self):
        topo = diamond_topology()
        policy = minimize(if_(matches(".* C .*"), path.util, inf))
        utils = {("A", "B"): 0.0, ("B", "D"): 0.0}
        compiled, system, network = converge(policy, topo, utils)
        chosen = protocol_path(system, network, "A", "D")
        assert chosen is not None
        assert "C" in chosen

    def test_figure5_scenario_sources_get_their_own_best(self):
        """Figure 5: A uses A-B-D (rank 0) while B itself uses the least
        utilized B-C-D — the probe for A's constraint must not be discarded."""
        topo = diamond_topology()
        policy = minimize(if_(matches("A B D"), 0, path.util))
        utils = {("B", "D"): 0.3, ("D", "B"): 0.3,
                 ("B", "C"): 0.1, ("C", "B"): 0.1,
                 ("C", "D"): 0.2, ("D", "C"): 0.2,
                 ("A", "B"): 0.1, ("B", "A"): 0.1,
                 ("A", "C"): 0.4, ("C", "A"): 0.4}
        compiled, system, network = converge(policy, topo, utils)
        assert protocol_path(system, network, "A", "D") == ["A", "B", "D"]
        assert protocol_path(system, network, "B", "D") == ["B", "C", "D"]

    def test_forbidden_subpath_is_never_used(self):
        """§3 challenge #2: traffic must never traverse B then A."""
        topo = diamond_topology()
        policy = minimize(if_(matches(".* B A .*"), inf, path.util))
        utils = {("A", "C"): 0.9, ("C", "A"): 0.9, ("C", "D"): 0.9, ("D", "C"): 0.9}
        compiled, system, network = converge(policy, topo, utils)
        for source in ("A", "B"):
            chosen = protocol_path(system, network, source, "D")
            assert chosen is not None
            assert not any(chosen[i] == "B" and chosen[i + 1] == "A"
                           for i in range(len(chosen) - 1))

    def test_static_failover_policy_uses_primary(self):
        topo = diamond_topology()
        policy = minimize(if_(matches("A B D"), 0, if_(matches("A C D"), 1, inf)))
        compiled, system, network = converge(policy, topo, {})
        assert protocol_path(system, network, "A", "D") == ["A", "B", "D"]

    def test_unreachable_policy_installs_no_route(self):
        topo = diamond_topology()
        policy = minimize(if_(matches(".* Z .*"), path.util, inf))
        from repro.core.compiler import CompileOptions
        compiled = compile_policy(policy, topo, CompileOptions(strict_monotonicity=False))
        system = ContraSystem(compiled, probe_period=0.2)
        network = Network(topo, system)
        network.run(3.0)
        assert system.logic("A")._best_key("D") is None


class TestNonIsotonicConvergence:
    def test_congestion_aware_prefers_uncongested_paths(self):
        topo = diamond_topology()
        utils = {("A", "B"): 0.9, ("B", "A"): 0.9, ("B", "D"): 0.9, ("D", "B"): 0.9,
                 ("A", "C"): 0.3, ("C", "A"): 0.3, ("C", "D"): 0.3, ("D", "C"): 0.3}
        compiled, system, network = converge(congestion_aware(0.8), topo, utils)
        chosen = protocol_path(system, network, "A", "D")
        best_rank, best_paths = compiled.reference_best_paths("A", "D", oracle_metrics(network))
        assert compiled.rank_of_path(chosen, oracle_metrics(network)) == best_rank
        assert chosen == ["A", "C", "D"]

    def test_congestion_aware_switches_to_shortest_when_all_congested(self):
        topo = diamond_topology()
        utils = {(a, b): 0.95 for (a, b) in
                 [("A", "B"), ("B", "A"), ("B", "D"), ("D", "B"), ("A", "C"), ("C", "A"),
                  ("C", "D"), ("D", "C"), ("B", "C"), ("C", "B")]}
        compiled, system, network = converge(congestion_aware(0.8), topo, utils)
        chosen = protocol_path(system, network, "A", "D")
        # Above the threshold the policy prefers shortest paths: 2 hops.
        assert len(chosen) == 3

    def test_widest_shortest_decomposition_reaches_oracle_rank(self):
        topo = diamond_topology()
        policy = minimize(rank_tuple(path.util, path.len), name="widest-shortest")
        utils = {("B", "D"): 0.6, ("D", "B"): 0.6, ("A", "B"): 0.1, ("B", "A"): 0.1,
                 ("A", "C"): 0.2, ("C", "A"): 0.2, ("C", "D"): 0.2, ("D", "C"): 0.2}
        compiled, system, network = converge(policy, topo, utils)
        chosen = protocol_path(system, network, "A", "D")
        best_rank, best_paths = compiled.reference_best_paths("A", "D", oracle_metrics(network))
        assert compiled.rank_of_path(chosen, oracle_metrics(network)) == best_rank
