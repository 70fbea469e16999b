#!/usr/bin/env python3
"""WAN policy routing on Abilene: waypoints, forbidden segments and failover.

This example shows the part of Contra that hand-crafted load balancers cannot
do at all: *policy-constrained*, performance-aware routing on an arbitrary
topology.  On the Abilene backbone it

1. forces traffic from Seattle to New York through a scrubbing waypoint
   (Kansas City) while still picking the least-utilized compliant path,
2. forbids a politically sensitive segment (Denver→Houston via Kansas City),
3. shows Propane-style failover preferences, and
4. demonstrates re-routing after a backbone link failure.

Run with::

    python examples/wan_waypoint_routing.py
"""

from __future__ import annotations

from repro.core.compiler import compile_policy
from repro.core.parser import parse_policy
from repro.protocol.contra_switch import ContraSystem
from repro.simulator.network import Network
from repro.topology.abilene import abilene


def converged_network(policy_text, probe_period=1.0, settle=15.0, failures=()):
    """Compile a policy for Abilene and let the probes converge."""
    topology = abilene(capacity=100.0, hosts_per_switch=1)
    policy = parse_policy(policy_text)
    compiled = compile_policy(policy, topology)
    system = ContraSystem(compiled, probe_period=max(probe_period, compiled.probe_period))
    network = Network(topology, system)
    for (a, b, at_time) in failures:
        network.fail_link(a, b, at_time=at_time)
    network.run(settle)
    return compiled, system, network


def trace(system, src, dst, max_hops=12):
    """Follow the converged forwarding state hop by hop (a fresh flowlet's path)."""
    logic = system.logic(src)
    best = logic._best_key(dst)
    if best is None:
        return None
    _, tag, pid = best
    hops = [src]
    current = src
    for _ in range(max_hops):
        entry = system.logic(current).fwdt.lookup((dst, tag, pid))
        if entry is None:
            return None
        tag, current = entry.next_tag, entry.next_hop
        hops.append(current)
        if current == dst:
            return hops
    return None


def show(title, system, pairs):
    print(f"\n=== {title}")
    for src, dst in pairs:
        path_taken = trace(system, src, dst)
        rendered = " -> ".join(path_taken) if path_taken else "(no policy-compliant path)"
        print(f"  {src:>3s} to {dst:<3s}: {rendered}")


def main() -> None:
    # 1. Waypointing: all traffic to NYC must pass through the KSC scrubber,
    #    but among compliant paths the least utilized one is used.
    _, system, _ = converged_network(
        "minimize( if .* KSC .* then path.util else inf )")
    show("Waypoint through Kansas City (policy P5 style)", system,
         [("SEA", "NYC"), ("LAX", "NYC"), ("ATL", "NYC")])

    # 2. Forbidden segment: never route over the DEN-KSC link, latency-optimal
    #    otherwise (policy P6/P7 style, with a dynamic metric).
    _, system, _ = converged_network(
        "minimize( if .* DEN KSC .* then inf else path.lat )")
    show("Forbid the DEN-KSC segment, minimize latency", system,
         [("SEA", "NYC"), ("SNV", "CHI")])

    # 3. Propane-style failover preference: prefer the northern route, fall
    #    back to the southern one, never anything else.
    _, system, _ = converged_network(
        "minimize( if SEA DEN KSC IPL CHI NYC then 0 "
        "else if SEA SNV LAX HOU ATL WDC NYC then 1 else inf )")
    show("Failover preference (northern route primary)", system, [("SEA", "NYC")])

    # 4. Same policy after the northern route loses a link: traffic falls back
    #    to the southern route within a few probe periods.
    _, system, _ = converged_network(
        "minimize( if SEA DEN KSC IPL CHI NYC then 0 "
        "else if SEA SNV LAX HOU ATL WDC NYC then 1 else inf )",
        failures=[("KSC", "IPL", 1.0)], settle=25.0)
    show("Failover after the KSC-IPL link fails", system, [("SEA", "NYC")])

    print("\nEach path above is policy-compliant by construction: the compiler only "
          "installs forwarding state along product-graph edges, and switches re-tag "
          "packets so downstream hops stay inside the allowed path set (§4.2).")


if __name__ == "__main__":
    main()
