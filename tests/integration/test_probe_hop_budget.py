"""The probe hop's budget, as exact counts, so it cannot creep back.

Measured from outside on the first probe wave of a k=8 fat-tree under the
datacenter policy — 11 168 probe hops installing 1 632 FwdT rows:

* Python-level calls into ``src/repro`` per hop (the ``call_budget`` fixture,
  the same count the perf ledger's ``*.calls`` rows report).  The delivery chain is
  ``_fire_batch -> on_probe``, and an accepted probe leaves its switch in one
  ``send_probes`` call however many targets it has; a frame added to either,
  or a property put back in front of a per-hop read, lands here.
* automatic garbage collections during the flood.  A *rejected* probe must
  allocate nothing that outlives its hop — the batch lane holds a whole wave
  of registrations at once, so per-registration containers used to fill the
  young generation faster than the accepted probes' real allocations did.

Counts, not timings: they repeat exactly, so the bounds are tight.
"""

import gc
import os

import pytest

import repro
from repro.core.compiler import compile_policy
from repro.protocol import ContraSystem
from repro.protocol.probe import ProbePayload, make_probe_packet
from repro.simulator import Network
from repro.simulator.link import send_probes
from repro.topology import fattree

# The sanitizer wraps every delivery (more frames, more allocations); the
# budget is the default path's.
pytestmark = pytest.mark.no_sanitize

PACKAGE_ROOT = os.path.dirname(repro.__file__) + os.sep

#: GC-tracked objects an *accepted* probe may leave behind (FwdT row, metric
#: vector, rank, key and value tuples, the re-multicast payload and packet,
#: its ECMP alternates): 9.8–12.0 measured, 20.4–23.6 before the lane went flat.
ALLOCATIONS_PER_ACCEPTED_PROBE = 16


def first_wave_network(dc_policy, **system_kwargs):
    topology = fattree(8)
    system = ContraSystem(compile_policy(dc_policy, topology), **system_kwargs)
    return system, Network(topology, system)


def fwdt_rows(system, network) -> int:
    return sum(len(system.logic(switch).fwdt) for switch in network.switches)


class CollectionCounter:
    """Counts automatic collections (any generation) while installed."""

    def __init__(self):
        self.collections = 0

    def __call__(self, phase, info):
        if phase == "stop":
            self.collections += 1

    def __enter__(self):
        assert gc.isenabled()
        gc.collect()
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self)


class TestCallsPerHop:
    def test_first_wave_stays_under_the_python_call_budget_a_hop(self, dc_policy,
                                                                 call_budget):
        system, network = first_wave_network(dc_policy)
        calls = call_budget(network.run, system.probe_period * 0.9).under(PACKAGE_ROOT)
        hops = network.stats.total_packets
        assert hops == 11_168
        assert fwdt_rows(system, network) == 1_632
        # 5.02 here; 6.31 with a SimLink.enqueue frame per multicast target
        # and the _deliver_probe epoch guard per delivery; 11.07 also with
        # receive() dispatch, the MetricVector property frames,
        # ForwardingTable.lookup and the un-inlined link accounting.
        assert calls / hops <= 5.3


class TestCollectionsFollowAcceptedProbes:
    @pytest.mark.parametrize("all_switches", [False, True])
    def test_flood_collections_bounded_by_accepted_probes(self, dc_policy, all_switches):
        # With every switch originating, rejected probes more than double
        # (9 536 -> 21 344); the bound is in *accepted* probes either way.
        system, network = first_wave_network(dc_policy,
                                             probe_all_switches=all_switches)
        with CollectionCounter() as counter:
            network.run(system.probe_period * 0.9)
        accepted = fwdt_rows(system, network)
        assert accepted == (4_560 if all_switches else 1_632)
        threshold = gc.get_threshold()[0]
        assert counter.collections * threshold <= \
            ALLOCATIONS_PER_ACCEPTED_PROBE * accepted

    def test_collections_do_not_grow_when_rejected_probes_double(self, dc_policy):
        collections = []
        for repeats in (4, 8):
            system, network = first_wave_network(dc_policy)
            network.run(system.probe_period * 0.9)
            # One stale (version 0) copy of the probe behind every FwdT row,
            # re-sent ``repeats`` times over the link it arrived on: each has
            # a transition, reads the link, finds its row and loses to it.
            stale = []
            for name in sorted(network.switches):
                for (origin, _, pid), entry in system.logic(name).fwdt.items():
                    payload = ProbePayload(origin, pid, 0, entry.next_tag,
                                           entry.metrics)
                    stale.append((network.switches[entry.next_hop].ports, name,
                                  make_probe_packet(payload, entry.next_hop, 96)))
            before = fwdt_rows(system, network)
            with CollectionCounter() as counter:
                for _ in range(repeats):
                    for ports, name, packet in stale:
                        send_probes((name,), ports, None, packet)
                # (sim.run, not network.run: that would re-arm the rounds.)
                network.sim.run(until=system.probe_period * 0.95)
            assert network.stats.total_packets == 11_168 + repeats * len(stale)
            assert fwdt_rows(system, network) == before
            collections.append(counter.collections)
        # 6 528 and 13 056 rejected probes, each registered on the lane and
        # alive until its wave fires: 18 and 37 collections with two tuples a
        # registration, none with flat members.
        assert collections[1] <= collections[0] + 1
        assert collections[1] <= 2
