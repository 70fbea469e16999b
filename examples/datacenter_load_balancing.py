#!/usr/bin/env python3
"""Datacenter load balancing: Contra vs Hula vs ECMP on a fat-tree.

Reproduces the §6.3 scenario in miniature: a k=4 fat-tree with 4:1
oversubscription, the web-search workload, and a comparison of flow completion
times on the symmetric fabric and after an aggregation–core link failure
(the Figure 11/12 story).

Run with::

    python examples/datacenter_load_balancing.py [--load 0.8] [--asymmetric]
"""

from __future__ import annotations

import argparse

from repro.core.compiler import compile_policy
from repro.core.builder import minimize, path, rank_tuple
from repro.experiments.runner import default_failed_link
from repro.baselines.ecmp import EcmpSystem
from repro.baselines.hula import HulaSystem
from repro.protocol.contra_switch import ContraSystem
from repro.simulator.network import Network
from repro.topology.fattree import fattree
from repro.workloads.distributions import web_search_distribution
from repro.workloads.generator import generate_workload


def build_systems(compiled):
    """The three systems of Figure 11, configured identically."""
    return {
        "ecmp": EcmpSystem(),
        "hula": HulaSystem(probe_period=0.256, flowlet_timeout=0.2),
        "contra": ContraSystem(compiled, probe_period=0.256, flowlet_timeout=0.2),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--load", type=float, default=0.8,
                        help="offered load as a fraction of host capacity (default 0.8)")
    parser.add_argument("--asymmetric", action="store_true",
                        help="fail one aggregation-core link (the Figure 12 variant)")
    parser.add_argument("--duration", type=float, default=25.0,
                        help="milliseconds of flow arrivals (default 25)")
    args = parser.parse_args()

    topology = fattree(4, capacity=100.0, oversubscription=4.0)
    print(f"topology: {topology} (oversubscription 4:1)")

    # The datacenter policy: least-utilized shortest path — what Hula
    # hard-codes, expressed as a two-line Contra policy.
    policy = minimize(rank_tuple(path.len, path.util), name="least-utilized-shortest-path")
    compiled = compile_policy(policy, topology)
    print(f"compiled {policy.name!r}: probe period >= {compiled.probe_period:.3f} ms, "
          f"max switch state {compiled.max_state_kb():.1f} kB")

    workload = generate_workload(
        topology, web_search_distribution(0.1), load=args.load,
        duration=args.duration, host_capacity=100.0, seed=7, start_after=2.0)
    print(f"workload: {len(workload.flows)} flows at {int(args.load * 100)}% load "
          f"({'asymmetric' if args.asymmetric else 'symmetric'} fabric)\n")

    failed_link = default_failed_link(topology) if args.asymmetric else None
    print(f"{'system':8s} {'avg FCT (ms)':>14s} {'p99 FCT (ms)':>14s} "
          f"{'completed':>10s} {'drops':>7s}")
    for name, system in build_systems(compiled).items():
        network = Network(topology, system, buffer_packets=500, host_window=16, host_rto=5.0)
        network.schedule_flows(workload.flows)
        if failed_link is not None:
            network.fail_link(*failed_link, at_time=0.0)
        stats = network.run(args.duration + 60.0)
        summary = stats.summary()
        print(f"{name:8s} {summary['avg_fct_ms']:14.2f} {summary['p99_fct_ms']:14.2f} "
              f"{summary['completed_flows']:6.0f}/{summary['flows']:.0f} "
              f"{summary['drops']:7.0f}")

    print("\nExpected shape (paper §6.3): Contra tracks Hula closely; both beat ECMP at "
          "high load, and ECMP collapses on the asymmetric fabric while the "
          "utilization-aware systems route around the failure.")


if __name__ == "__main__":
    main()
