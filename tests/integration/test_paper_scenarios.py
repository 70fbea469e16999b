"""Integration tests reproducing the paper's illustrative scenarios.

* Figure 4(b)-(e): on a non-tree topology with changing metrics, versioned
  probes prevent the persistent loop that an unversioned distance-vector
  protocol can form.
* Figure 4(f)-(h): constrained routing — traffic must never traverse B then A
  even while preferences flip.
* Figure 8(a): policy-aware flowlet switching — packets constrained to one of
  two allowed end-to-end paths never take the forbidden "zigzag".
"""

import pytest

from repro.core.builder import if_, inf, matches, minimize, path
from repro.core.compiler import compile_policy
from repro.core.policies import MU
from repro.protocol.contra_switch import ContraSystem
from repro.simulator.flow import Flow
from repro.simulator.network import Network
from repro.simulator.stats import StatsCollector
from repro.topology.graph import Topology


def square_with_diagonal():
    """S, A, B, D with links S-A, A-D, S-B, B-D, S-D, A-B and hosts at S and D."""
    topo = Topology("figure4")
    for switch in ("S", "A", "B", "D"):
        topo.add_switch(switch)
    for a, b in (("S", "A"), ("A", "D"), ("S", "B"), ("B", "D"), ("S", "D"), ("A", "B")):
        topo.add_link(a, b, capacity=50.0)
    for switch in ("S", "D"):
        host = f"h{switch}"
        topo.add_host(host, switch)
        topo.add_link(host, switch, capacity=50.0)
    return topo


def double_diamond():
    """The Figure 8(a) topology: S-C-E-F-D (upper) and S-A-E-B-D (lower) share E."""
    topo = Topology("figure8a")
    for switch in ("S", "A", "B", "C", "D", "E", "F"):
        topo.add_switch(switch)
    for a, b in (("S", "C"), ("C", "E"), ("E", "F"), ("F", "D"),
                 ("S", "A"), ("A", "E"), ("E", "B"), ("B", "D")):
        topo.add_link(a, b, capacity=50.0)
    for switch in ("S", "D"):
        host = f"h{switch}"
        topo.add_host(host, switch)
        topo.add_link(host, switch, capacity=50.0)
    return topo


def run_with_oscillating_metrics(topology, policy, flows, duration=30.0,
                                 use_versioning=True, oscillate_links=(),
                                 period=1.7, probe_period=0.25):
    """Run Contra while flipping the utilization of selected links periodically.

    The oscillation recreates the "metrics changed while probes were in
    flight" conditions of Figure 4 without having to time individual probes.
    """
    compiled = compile_policy(policy, topology)
    system = ContraSystem(compiled, probe_period=probe_period,
                          use_versioning=use_versioning)
    stats = StatsCollector(record_paths=True)
    network = Network(topology, system, stats=stats)
    network.schedule_flows(flows)

    state = {"high": False}

    def flip():
        state["high"] = not state["high"]
        for (a, b) in oscillate_links:
            value = 0.9 if state["high"] else 0.05
            link = network.link(a, b)
            link.metric_values = (  # type: ignore[method-assign]
                lambda v=value, lat=link.latency: {"util": v, "lat": lat, "len": 1.0})
        network.sim.call_later(period, flip)

    network.sim.call_later(0.0, flip)
    network.run(duration)
    return network, stats


class TestFigure4LoopAvoidance:
    def make_flows(self):
        return [Flow("hS", "hD", size_packets=60, start_time=1.0 + 0.5 * i, flow_id=i)
                for i in range(10)]

    def test_versioned_probes_avoid_persistent_loops(self):
        topology = square_with_diagonal()
        network, stats = run_with_oscillating_metrics(
            topology, MU(), self.make_flows(),
            oscillate_links=[("A", "D"), ("D", "A"), ("S", "D"), ("D", "S")])
        assert stats.completion_ratio() == 1.0
        # Delivered paths never contain a repeated switch (no persistent loop
        # survived until delivery), and the TTL-based detector rarely fires.
        for _flow, trace in stats.delivered_paths:
            assert len(trace) == len(set(trace)), f"looped path {trace}"
        assert stats.loop_fraction() < 0.05

    def test_flows_complete_even_without_versioning_on_small_topology(self):
        """The unversioned ablation still delivers traffic here; the point of
        versioning is the *guarantee*, exercised statistically above."""
        topology = square_with_diagonal()
        network, stats = run_with_oscillating_metrics(
            topology, MU(), self.make_flows(), use_versioning=False,
            oscillate_links=[("A", "D"), ("D", "A")])
        assert stats.completion_ratio() > 0.8


class TestFigure4ConstrainedRouting:
    def test_traffic_never_traverses_b_then_a(self):
        """§3 challenge #2: the policy forbids ... B A ... subpaths."""
        topology = square_with_diagonal()
        policy = minimize(if_(matches(".* B A .*"), inf, path.util))
        flows = [Flow("hS", "hD", size_packets=40, start_time=1.0 + 0.8 * i, flow_id=i)
                 for i in range(8)]
        network, stats = run_with_oscillating_metrics(
            topology, policy, flows,
            oscillate_links=[("B", "D"), ("D", "B"), ("S", "D"), ("D", "S")])
        assert stats.completion_ratio() == 1.0
        for _flow, trace in stats.delivered_paths:
            assert not any(trace[i] == "B" and trace[i + 1] == "A"
                           for i in range(len(trace) - 1)), trace

    def test_waypoint_policy_always_visits_waypoint(self):
        topology = square_with_diagonal()
        policy = minimize(if_(matches(".* A .*"), path.util, inf))
        flows = [Flow("hS", "hD", size_packets=30, start_time=1.0 + 1.0 * i, flow_id=i)
                 for i in range(6)]
        network, stats = run_with_oscillating_metrics(
            topology, policy, flows,
            oscillate_links=[("A", "D"), ("D", "A")])
        assert stats.completion_ratio() == 1.0
        for _flow, trace in stats.delivered_paths:
            assert "A" in trace


class TestFigure8PolicyAwareFlowlets:
    def test_zigzag_path_never_used(self):
        """Only the upper (S-C-E-F-D) and lower (S-A-E-B-D) paths are allowed;
        the zigzag S-A-E-F-D / S-C-E-B-D must never appear even as preferences
        flip mid-flowlet (§5.3)."""
        topology = double_diamond()
        # The forward alternatives from the paper plus their reverses so that
        # ACK traffic (D back to S) is also routable.
        policy = minimize(if_(matches("S C E F D + S A E B D + D F E C S + D B E A S"),
                              path.util, inf))
        flows = [Flow("hS", "hD", size_packets=50, start_time=1.0 + 0.6 * i, flow_id=i)
                 for i in range(10)]
        network, stats = run_with_oscillating_metrics(
            topology, policy, flows,
            oscillate_links=[("C", "E"), ("E", "C"), ("A", "E"), ("E", "A")],
            period=1.3)
        assert stats.completion_ratio() == 1.0
        allowed = {("S", "C", "E", "F", "D"), ("S", "A", "E", "B", "D")}
        for _flow, trace in stats.delivered_paths:
            assert tuple(trace) in allowed, f"policy violation: {trace}"

    def test_both_allowed_paths_are_exercised(self):
        """With oscillating utilizations both compliant paths carry traffic."""
        topology = double_diamond()
        # The forward alternatives from the paper plus their reverses so that
        # ACK traffic (D back to S) is also routable.
        policy = minimize(if_(matches("S C E F D + S A E B D + D F E C S + D B E A S"),
                              path.util, inf))
        flows = [Flow("hS", "hD", size_packets=30, start_time=1.0 + 0.5 * i, flow_id=i)
                 for i in range(14)]
        network, stats = run_with_oscillating_metrics(
            topology, policy, flows,
            oscillate_links=[("C", "E"), ("E", "C"), ("A", "E"), ("E", "A")],
            period=1.1)
        used = {tuple(trace) for _flow, trace in stats.delivered_paths}
        assert len(used) == 2
