"""The data hop's budget, as exact counts, so it cannot creep back.

Measured from outside on one k=4 fat-tree point (4:1 oversubscribed, the
figure grids' link and host parameters) carrying 192 hand-built flows, every
host to a host in another pod — once under ECMP, which sends no probes at
all, and once under its Contra twin:

* Python-level calls into ``src/repro`` per link transmission (the
  ``call_budget`` fixture, the same count the perf ledger's ``*.calls`` rows
  report).  A data packet crossing a switch is ``_deliver_packet -> receive
  -> on_data_packet -> enqueue -> _transmit -> call_at``; a frame added to
  that chain, or a property, accessor or builtin-wrapping helper put back in
  front of a per-packet read, lands here.
* ``Simulator.now`` property frames: every per-packet clock read is
  ``sim._now``; what remains is per flow, per timer and per probe round.
* ``stable_flow_hash`` calls: one per flow direction (sender state, receiver
  state), never one per packet.
* ``DeviceConfig.packet_tag_bits`` calls inside ``Network.run``: none — two
  ``math.log2`` a from-host packet, computed once per switch instead.

Counts, not timings: they repeat exactly, so the bounds are tight.
"""

import os

import pytest

import repro
from repro.baselines import EcmpSystem
from repro.core.builder import minimize, path, rank_tuple
from repro.core.compiler import compile_policy
from repro.protocol import ContraSystem
from repro.simulator import Flow, Network
from repro.topology import fattree

# The sanitizer wraps every delivery (more frames); the budget is the default
# path's.
pytestmark = pytest.mark.no_sanitize

PACKAGE_ROOT = os.path.dirname(repro.__file__) + os.sep

FLOWS = 192


def data_point(make_system) -> Network:
    """The point: 12 flows a host, sizes 1-60 segments, arrivals over 12 ms."""
    topology = fattree(4, capacity=100.0, oversubscription=4.0)
    network = Network(topology, make_system(topology), buffer_packets=500,
                      host_window=16, host_rto=5.0, util_window=0.5)
    hosts = topology.hosts
    sizes = (1, 2, 4, 9, 20, 60)
    flows = []
    for index in range(FLOWS):
        src = hosts[index % len(hosts)]
        # Four hosts a pod: +4, +8 and +12 all land in another pod.
        dst = hosts[(index + 4 * (1 + index % 3)) % len(hosts)]
        flows.append(Flow(src, dst, sizes[index % len(sizes)],
                          start_time=2.0 + 12.0 * index / FLOWS))
    assert network.schedule_flows(flows) == FLOWS
    return network


@pytest.fixture(scope="module")
def ecmp_point(call_budget):
    network = data_point(lambda topology: EcmpSystem())
    return network, call_budget(network.run, 60.0, stop_after_completion=True)


@pytest.fixture(scope="module")
def contra_point(call_budget):
    policy = minimize(rank_tuple(path.len, path.util), name="dc")   # conftest's dc_policy
    network = data_point(lambda topology: ContraSystem(
        compile_policy(policy, topology), probe_period=0.256, flowlet_timeout=0.5))
    return network, call_budget(network.run, 60.0, stop_after_completion=True)


class TestCallsPerTransmission:
    def test_probe_free_ecmp_point(self, ecmp_point):
        network, calls = ecmp_point
        stats = network.stats
        assert stats.completed_count == FLOWS and stats.probe_bytes == 0
        assert stats.total_packets == 38_524
        # 8.86 here; 17.50 with _transmit_next/_record_transmission/
        # _decay_util, the ``now`` property, record_queue_length ->
        # StreamingHistogram.record, per-packet hashes and attachment lookups.
        assert calls.under(PACKAGE_ROOT) / stats.total_packets <= 9.5

    def test_contra_twin(self, contra_point):
        network, calls = contra_point
        stats = network.stats
        assert stats.completed_count == FLOWS and stats.probe_bytes > 0
        assert stats.total_packets == 69_872
        # 11.33 here; 22.24 with all of the above plus is_switch,
        # packet_flow_hash, packet_tag_bits, FlowletTable.lookup/touch,
        # _usable_next_hop -> link_failed, builtin max/min in observe_hash,
        # and the accepted probe's evaluate -> genexpr -> get and Rank
        # comparisons through _padded_pair.
        assert calls.under(PACKAGE_ROOT) / stats.total_packets <= 12.0


class TestPerPacketReads:
    @pytest.mark.parametrize("point", ["ecmp_point", "contra_point"])
    def test_the_clock_is_not_read_through_its_property(self, point, request):
        network, calls = request.getfixturevalue(point)
        frames = calls("now", "repro/simulator/engine.py")
        # None (ECMP) and 0.02 (Contra: probe rounds and failure checks) a
        # transmission here; 2.98 and 2.31 at the parent.
        assert frames / network.stats.total_packets < 0.2

    @pytest.mark.parametrize("point", ["ecmp_point", "contra_point"])
    def test_one_flow_hash_per_flow_direction(self, point, request):
        _, calls = request.getfixturevalue(point)
        hashes = calls("stable_flow_hash", "repro/simulator/packet.py")
        assert 0 < hashes <= 2 * FLOWS

    def test_tag_bits_are_not_recomputed_inside_the_run(self, contra_point):
        _, calls = contra_point
        assert calls("packet_tag_bits", "repro/core/device_config.py") == 0
        # ... while the from-host re-tag it feeds did run.
        assert calls("_best_keys", "repro/protocol/contra_switch.py") > 0
