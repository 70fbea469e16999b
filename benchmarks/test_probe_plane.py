"""Probe-plane microbenchmark — the control-plane hot path in isolation.

No data traffic at all: a Contra fabric simply floods its periodic probe
waves for a fixed number of rounds.  This isolates exactly the per-probe
path — engine batch lane → ``on_probe`` on the way in, one
``send_probes`` call per accepted probe's multicast on the way out — so the
``BENCH_*.json`` artifact it drops tracks that path's cost — and any future
regression of it — independently of workload noise in the figure
benchmarks.
"""

from __future__ import annotations

import pytest

from repro.core.compiler import compile_policy
from repro.experiments.runner import datacenter_policy
from repro.protocol.contra_switch import ContraSystem
from repro.simulator.network import Network
from repro.simulator.stats import StatsCollector
from repro.topology.fattree import fattree

from conftest import run_once

#: Fabric arity and round count sized so the benchmark exercises a few
#: hundred thousand probe hops in seconds (CI-affordable, still far above
#: timer noise).
PROBE_PLANE_K = 8
PROBE_PLANE_ROUNDS = 20
PROBE_PERIOD_MS = 0.256

#: The k=16 variant floods ~1.5M probe hops in a few rounds: tens of probes
#: per (link, tick) run, where the k=8 flood has a handful.
PROBE_PLANE_K16 = 16
PROBE_PLANE_K16_ROUNDS = 3


def run_probe_plane(k: int = PROBE_PLANE_K, rounds: int = PROBE_PLANE_ROUNDS,
                    probe_period: float = PROBE_PERIOD_MS) -> Network:
    """Run ``rounds`` probe periods of a flow-less Contra fat-tree."""
    topology = fattree(k, capacity=100.0, oversubscription=4.0)
    compiled = compile_policy(datacenter_policy(), topology)
    system = ContraSystem(compiled, probe_period=probe_period)
    network = Network(topology, system, stats=StatsCollector())
    # Run just past the final round so its whole wave is processed.
    network.run(probe_period * (rounds + 0.5))
    return network


def _assert_flood_converged(network: Network) -> None:
    stats = network.stats
    assert stats.probe_bytes > 0
    assert stats.data_bytes == 0 and stats.ack_bytes == 0
    # The flood must have converged: every switch knows a next hop towards
    # every probe destination (the edge switches).
    destinations = network.destination_switches()
    for switch_name, switch in network.switches.items():
        for destination in destinations:
            if destination == switch_name:
                continue
            assert switch.routing.best_next_hop(destination) is not None, \
                f"{switch_name} has no route towards {destination}"


@pytest.mark.benchmark(group="probe-plane")
def test_probe_plane_flood(benchmark):
    network = run_once(benchmark, run_probe_plane)
    _assert_flood_converged(network)
    print()
    print(f"probe plane: {PROBE_PLANE_ROUNDS} rounds on k={PROBE_PLANE_K}, "
          f"{network.stats.total_packets} probe transmissions, "
          f"{network.sim.events_processed} engine events")


@pytest.mark.benchmark(group="probe-plane")
def test_probe_plane_flood_k16(benchmark):
    network = run_once(benchmark, run_probe_plane,
                       k=PROBE_PLANE_K16, rounds=PROBE_PLANE_K16_ROUNDS)
    _assert_flood_converged(network)
    print()
    print(f"probe plane: {PROBE_PLANE_K16_ROUNDS} rounds on "
          f"k={PROBE_PLANE_K16}, {network.stats.total_packets} probe "
          f"transmissions, {network.sim.events_processed} engine events")
