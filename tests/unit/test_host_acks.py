"""Receiver ACKs: one cumulative ACK per delivered data segment."""

import pytest

from repro.baselines.ecmp import EcmpSystem
from repro.simulator.network import Network
from repro.simulator.stats import StatsCollector
from repro.simulator.flow import Flow
from repro.topology.leafspine import leafspine


def test_one_ack_per_segment():
    topology = leafspine(2, 2, hosts_per_leaf=2, capacity=50.0)
    network = Network(topology, EcmpSystem(), stats=StatsCollector())
    hosts = topology.hosts
    for index, (offset, size) in enumerate(((0, 40), (1, 17))):
        network.schedule_flows([Flow(hosts[offset], hosts[-1 - offset], size,
                                     start_time=0.1 * (index + 1), flow_id=index)])
    stats = network.run(60.0)
    assert stats.completion_ratio() == 1.0
    assert stats.drops == 0
    # One ACK per delivered segment, retracing the same hop count: the
    # byte accounting is per link traversal, so ACK traversals must match
    # data traversals exactly (64 vs 1500 bytes each).
    data_traversals = stats.data_bytes / 1500.0
    assert stats.ack_bytes == pytest.approx(data_traversals * 64.0)


def test_slowstart_recovers_from_a_loss_blip():
    """Out-of-order deliveries produce immediate duplicate ACKs."""
    topology = leafspine(2, 2, hosts_per_leaf=2, capacity=50.0)
    network = Network(topology, EcmpSystem(), stats=StatsCollector(),
                      transport="slowstart")
    hosts = topology.hosts
    network.schedule_flows([Flow(hosts[0], hosts[-1], 60, start_time=0.1, flow_id=0)])
    # A short blip loses in-flight segments mid-transfer.
    leaf = topology.attachment_switch(hosts[-1])
    spine = [n for n in topology.switch_neighbors(leaf)][0]
    network.fail_link(leaf, spine, at_time=0.4)
    network.recover_link(leaf, spine, at_time=0.6)
    stats = network.run(80.0)
    assert stats.completion_ratio() == 1.0
