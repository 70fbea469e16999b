"""The probe hop's budget, as exact counts, so it cannot creep back.

Measured from outside on the first probe wave of a k=8 fat-tree under the
datacenter policy — 11 168 probe hops installing 1 632 FwdT rows:

* Python-level calls into ``src/repro`` per hop (the ``call_budget`` fixture,
  the same count the perf ledger's ``*.calls`` rows report).  The delivery chain is
  ``_fire_batch -> on_probe``, and an accepted probe leaves its switch in one
  ``send_probes`` call — one ``call_multicast`` on the fat-tree's uniform
  links — however many targets it has; a frame added to either, or a
  property put back in front of a per-hop read, lands here.
* blocks a finished wave retains per installed FwdT row (``tracemalloc``,
  allocations made in ``src/repro``): the row itself, plus whatever of its
  vector, rank, key and groups the system's ``StatePool`` did not share.
* young-generation growth during the flood: ``gc.get_count()[0]``, which
  counts GC-tracked allocations net of frees while ``Simulator.run`` holds
  the collector paused (before the pause these tests counted automatic
  collections).  A *rejected* probe must allocate nothing that outlives its
  hop — the batch lane holds a whole wave of registrations at once, so
  per-registration containers used to fill the young generation faster
  than the accepted probes' real allocations did.

Counts, not timings: they repeat exactly, so the bounds are tight.
"""

import gc
import os
import tracemalloc

import pytest

import repro
from repro.core.compiler import compile_policy
from repro.protocol.contra_switch import ContraSystem
from repro.protocol.probe import ContraProbe, probe_wire_size
from repro.simulator.network import Network
from repro.simulator.link import send_probes
from repro.topology.fattree import fattree

# The sanitizer wraps every delivery (more frames, more allocations); the
# budget is the default path's.
pytestmark = pytest.mark.no_sanitize

PACKAGE_ROOT = os.path.dirname(repro.__file__) + os.sep

#: GC-tracked objects an *accepted* probe may leave behind (the FwdT row, the
#: re-multicast probe, a pool entry when its vector, key or group is new, and
#: the first wave's share of the switches' multicast receivers tuples):
#: 2.24–3.19 measured as young-generation growth; 2.65–3.47 with a packet
#: and a payload per probe, 8.2–10.3 before the StatePool, 9.8–12.0 as
#: collections × threshold before the collector was paused, and 20.4–23.6
#: before the lane went flat.
ALLOCATIONS_PER_ACCEPTED_PROBE = 3.2

#: ``tracemalloc`` blocks allocated in ``src/repro`` that one probe wave
#: leaves alive, per FwdT row it installed: 4.79 measured (7 817 blocks for
#: 1 632 rows: the rows, the wave still in flight, per-in-port state, the
#: switches' multicast receivers tuples and the pool); 4.98 with a packet
#: and a payload per in-flight probe and a lane slot triple per delivery;
#: 12.88 with a private vector, rank, key and group per row.
RETAINED_BLOCKS_PER_ROW = 4.8


def first_wave_network(dc_policy):
    topology = fattree(8)
    system = ContraSystem(compile_policy(dc_policy, topology))
    return system, Network(topology, system)


def fwdt_rows(system, network) -> int:
    return sum(len(system.logic(switch).fwdt) for switch in network.switches)


class YoungGrowth:
    """Young-generation growth (GC-tracked allocations net of frees) while installed.

    Meaningful because ``Simulator.run`` pauses the collector: no collection
    resets the count in the middle of the measurement.
    """

    def __init__(self):
        self.objects = 0

    def __enter__(self):
        assert gc.isenabled()
        gc.collect()
        self._before = gc.get_count()[0]
        return self

    def __exit__(self, *exc):
        self.objects = gc.get_count()[0] - self._before


class TestCallsPerHop:
    def test_first_wave_stays_under_the_python_call_budget_a_hop(self, dc_policy,
                                                                 call_budget):
        system, network = first_wave_network(dc_policy)
        calls = call_budget(network.run, system.probe_period * 0.9).under(PACKAGE_ROOT)
        hops = network.stats.total_packets
        assert hops == 11_168
        assert fwdt_rows(system, network) == 1_632
        # 2.91 here; 3.85 with a Simulator.call_batched call per multicast
        # target instead of one call_multicast per multicast and a
        # ProbePayload + make_probe_packet pair per probe; 4.28 with a
        # _fast_rank and a Rank.of_values call per
        # accepted probe instead of per pooled vector; 5.02 also with the
        # ForwardingTable.install, DeviceConfig.multicast_targets / tag_info,
        # ProbePayload.advanced and _rank_of frames on an accepted probe; 6.31
        # also with a SimLink.enqueue frame per multicast target and the
        # _deliver_probe epoch guard per delivery; 11.07 also with receive()
        # dispatch, the MetricVector property frames, ForwardingTable.lookup
        # and the un-inlined link accounting.
        assert calls / hops <= 2.92


class TestRetainedMemoryPerRow:
    def test_a_wave_retains_few_blocks_per_installed_row(self, dc_policy):
        system, network = first_wave_network(dc_policy)
        in_package = [tracemalloc.Filter(True, PACKAGE_ROOT + "*")]
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot().filter_traces(in_package)
            network.run(system.probe_period * 0.9)
            gc.collect()
            after = tracemalloc.take_snapshot().filter_traces(in_package)
        finally:
            tracemalloc.stop()
        rows = fwdt_rows(system, network)
        assert rows == 1_632
        blocks = sum(stat.count_diff for stat in after.compare_to(before, "filename"))
        assert blocks <= RETAINED_BLOCKS_PER_ROW * rows


class TestCollectionsFollowAcceptedProbes:
    def test_flood_allocations_bounded_by_accepted_probes(self, dc_policy):
        system, network = first_wave_network(dc_policy)
        with YoungGrowth() as growth:
            network.run(system.probe_period * 0.9)
        accepted = fwdt_rows(system, network)
        assert accepted == 1_632
        assert growth.objects <= ALLOCATIONS_PER_ACCEPTED_PROBE * accepted

    def test_allocations_do_not_grow_when_rejected_probes_double(self, dc_policy):
        growths = []
        for repeats in (4, 8):
            system, network = first_wave_network(dc_policy)
            network.run(system.probe_period * 0.9)
            # One stale (version 0) copy of the probe behind every FwdT row,
            # re-sent ``repeats`` times over the link it arrived on: each has
            # a transition, reads the link, finds its row and loses to it.
            stale = []
            for name in sorted(network.switches):
                for (origin, _, pid), entry in system.logic(name).fwdt.items():
                    probe = ContraProbe(origin, pid, 0, entry.next_tag,
                                        entry.metrics, probe_wire_size(96))
                    stale.append((network.switches[entry.next_hop].ports, name,
                                  probe))
            before = fwdt_rows(system, network)
            with YoungGrowth() as growth:
                for _ in range(repeats):
                    for ports, name, packet in stale:
                        send_probes((name,), ports, None, packet)
                # (sim.run, not network.run: that would re-arm the rounds.)
                network.sim.run(until=system.probe_period * 0.95)
            assert network.stats.total_packets == 11_168 + repeats * len(stale)
            assert fwdt_rows(system, network) == before
            growths.append(growth.objects)
        # 6 528 and 13 056 rejected probes, each registered on the lane and
        # alive until its wave fires: 5 objects of growth either way with
        # flat members; two tuples a registration were 13 056 and 26 112.
        assert growths[1] <= growths[0] + 64
        assert growths[1] <= 64
