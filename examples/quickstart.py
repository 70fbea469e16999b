#!/usr/bin/env python3
"""Quickstart: write a policy, compile it, run it, and inspect the result.

This walks through the full Contra workflow on a tiny leaf-spine network:

1. describe the topology,
2. write a performance-aware policy in the paper's textual syntax,
3. compile it into per-switch device programs (and peek at the P4 output),
4. run the compiled protocol in the discrete-event simulator next to ECMP,
5. compare flow completion times and look at the converged switch state.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro.baselines.ecmp import EcmpSystem
from repro.core.compiler import compile_policy
from repro.core.parser import parse_policy
from repro.core.p4gen.codegen import generate_p4
from repro.protocol.contra_switch import ContraSystem
from repro.simulator.network import Network
from repro.topology.leafspine import leafspine
from repro.workloads.distributions import web_search_distribution
from repro.workloads.generator import generate_workload


def main() -> None:
    # ------------------------------------------------------------------ topology
    # Two leaf switches, two spines, two hosts per leaf.  Capacities are in
    # full-size packets per millisecond (see DESIGN.md for the scaling story).
    topology = leafspine(leaves=2, spines=2, hosts_per_leaf=2, capacity=100.0)
    print(f"topology: {topology}")

    # -------------------------------------------------------------------- policy
    # "Use the least utilized path" — the policy Hula hard-codes, written as a
    # one-line Contra policy.  Any of the Figure 3 policies would work here.
    policy = parse_policy("minimize( (path.len, path.util) )")
    print(f"policy:   {policy}")

    # ------------------------------------------------------------------- compile
    compiled = compile_policy(policy, topology)
    print(f"compiled in {compiled.compile_time * 1000:.1f} ms; "
          f"{compiled.num_probe_ids} probe id(s); "
          f"product graph has {compiled.product_graph.num_nodes} virtual nodes; "
          f"max switch state {compiled.max_state_kb():.1f} kB")

    # Peek at the P4-style program synthesized for one switch.
    program = generate_p4(compiled.device("leaf0"), policy_name="quickstart")
    print(f"generated P4 for leaf0: {program.lines_of_code} lines "
          f"({program.table_entries} table entries)")

    # ------------------------------------------------------------------ workload
    workload = generate_workload(
        topology,
        web_search_distribution(scale=0.1),
        load=0.6,                # 60% offered load on the sender access links
        duration=20.0,           # ms of flow arrivals
        host_capacity=100.0,
        seed=42,
        start_after=2.0,         # let the protocol converge first
    )
    print(f"workload: {len(workload.flows)} flows, {workload.total_packets} packets")

    # ---------------------------------------------------------------- simulation
    results = {}
    for name, system in (
        ("contra", ContraSystem(compiled, probe_period=0.256)),
        ("ecmp", EcmpSystem()),
    ):
        network = Network(topology, system)
        network.schedule_flows(workload.flows)
        stats = network.run(80.0)
        results[name] = stats.summary()

    print("\nsystem   avg FCT (ms)   completed   probe+tag overhead")
    for name, summary in results.items():
        print(f"{name:8s} {summary['avg_fct_ms']:12.2f}   "
              f"{summary['completed_flows']:.0f}/{summary['flows']:.0f}       "
              f"{summary['overhead_ratio'] * 100:.2f}% of data bytes")

    # -------------------------------------------------------- converged state
    contra_system = ContraSystem(compiled, probe_period=0.256)
    network = Network(topology, contra_system)
    network.run(3.0)
    leaf0 = contra_system.logic("leaf0")
    print("\nleaf0 forwarding table after convergence (destination, tag, pid) -> next hop:")
    for key, (next_hop, version, metrics) in sorted(leaf0.forwarding_snapshot().items()):
        print(f"  {key} -> {next_hop}  (probe version {version}, metrics {metrics})")
    print(f"leaf0 best next hop towards leaf1: {leaf0.best_next_hop('leaf1')}")


if __name__ == "__main__":
    main()
