"""Byte identity of the probe plane, and the congestion-read contract.

The digests below were computed at the commit *before* the probe hop was
rewritten (flat batch-lane members, probes delivered straight to
``on_probe``, per-in-port probe state) and must never move: they cover every
switch's FwdT and BestT plus every link's utilization estimator and
transmission count after two probe periods with one mid-run link failure, so
a probe accepted, dropped, reordered — or a congestion read added or skipped
(reads *advance* the EWMA decay) — shows up as a different hash.

``test_data_hop_identity.py`` pins whole grid points with traffic the same
way, on this module's ``sha256_of``/``contra_tables``.
"""

import hashlib
import json

import pytest

from repro.core import policies
from repro.core.attributes import MetricVector
from repro.core.compiler import compile_policy
from repro.protocol.contra_switch import ContraRouting, ContraSystem
from repro.protocol.probe import ContraProbe, probe_wire_size
from repro.simulator.network import Network
from repro.simulator.link import SimLink
from repro.topology.abilene import abilene
from repro.topology.fattree import fattree
from repro.topology.leafspine import leafspine

#: name -> (topology factory, policy factory, failed link, pinned digest).
FABRICS = {
    "fattree4-MU": (
        lambda: fattree(4), policies.MU, ("a0_0", "c0"),
        "7538238bb38aa06ae9118431c7eba6d36e53b071d3c2c718f1c39bb6513064fa"),
    "fattree8-WP": (
        lambda: fattree(8), lambda: policies.WP(("c0", "c1")), ("a0_0", "c0"),
        "629aa42e723ca0fa46e6faf41ffb43435d682be2735ac790776b0143d21f84e4"),
    "abilene-MU": (
        abilene, policies.MU, ("CHI", "IPL"),
        "202d0dee9ddb91bf39cd7fe1810327d5c87f1f526704db2d7d2808e68d09e074"),
}


def sha256_of(state) -> str:
    blob = json.dumps(state, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def contra_tables(network) -> dict:
    """FwdT and BestT of every Contra switch (empty under other systems)."""
    logics = {name: node.routing for name, node in sorted(network.switches.items())
              if isinstance(node.routing, ContraRouting)}
    return {
        "fwdt": {
            switch: sorted(
                (list(key), hop, version, [value.hex() for value in metrics])
                for key, (hop, version, metrics)
                in logic.forwarding_snapshot().items())
            for switch, logic in logics.items()},
        "bestt": {
            switch: sorted((destination, [list(key) for key in keys])
                           for destination, keys in logic.bestt._best.items())
            for switch, logic in logics.items()},
    }


def probe_plane_digest(name: str, sanitize: bool = False) -> str:
    """Run two probe periods with one mid-run failure; hash the probe state."""
    build_topology, build_policy, failed, _ = FABRICS[name]
    topology = build_topology()
    compiled = compile_policy(build_policy(), topology)
    system = ContraSystem(compiled)
    network = Network(topology, system, sanitize=sanitize)
    period = system.probe_period
    network.fail_link(*failed, at_time=1.3 * period)
    network.run(2.0 * period + 0.5 * period)
    state = contra_tables(network)
    state["links"] = [
        (src, dst, link._util.hex(), link.packets_sent)
        for (src, dst), link in sorted(network.links.items())]
    return sha256_of(state)


class TestPinnedProbeState:
    @pytest.mark.parametrize("name", sorted(FABRICS))
    def test_probe_state_matches_the_parent_commit(self, name, engine_mode):
        digest = probe_plane_digest(name, sanitize=engine_mode)
        assert digest == FABRICS[name][3]


# ----------------------------------------------------------------------------
# The congestion-read contract


def _two_leaf_fabric():
    topology = leafspine(2, 2, hosts_per_leaf=1)
    compiled = compile_policy(policies.MU(), topology)
    system = ContraSystem(compiled)
    return system, Network(topology, system), compiled


def _probe(compiled, origin: str, tag: int, src: str):
    names = tuple(compiled.carried_attrs)
    return ContraProbe(origin, 0, 1, tag, MetricVector(names), probe_wire_size(96))


class TestCongestionReadContract:
    """``SimLink.congestion`` mutates EWMA state: how often ``on_probe`` reads
    it is part of the determinism contract, not an implementation detail."""

    @pytest.fixture
    def reads(self, monkeypatch):
        counts = {}
        inner = SimLink.congestion.fget

        def counting(link):
            counts[(link.src, link.dst)] = counts.get((link.src, link.dst), 0) + 1
            return inner(link)

        monkeypatch.setattr(SimLink, "congestion", property(counting))
        return counts

    def test_one_read_of_the_traffic_direction_link_per_processed_probe(self, reads):
        system, network, compiled = _two_leaf_fabric()
        logic = system.logic("spine0")
        origin_tag = compiled.device("leaf1").probe_origin_tag
        logic.on_probe(_probe(compiled, "leaf1", origin_tag, "leaf1"), "leaf1")
        # Processed (transition exists, not self-originated): exactly one
        # read, of the traffic-direction link spine0 -> leaf1, and none of
        # the links the accepted probe was re-multicast onto.
        assert reads == {("spine0", "leaf1"): 1}

    def test_rejected_and_tied_probes_read_once_too(self, reads):
        system, network, compiled = _two_leaf_fabric()
        logic = system.logic("spine0")
        origin_tag = compiled.device("leaf1").probe_origin_tag
        for _ in range(3):          # accept, then two same-round repeats
            logic.on_probe(_probe(compiled, "leaf1", origin_tag, "leaf1"), "leaf1")
        assert reads == {("spine0", "leaf1"): 3}

    def test_no_read_without_a_transition_or_for_a_self_originated_probe(self, reads):
        system, network, compiled = _two_leaf_fabric()
        logic = system.logic("spine0")
        origin_tag = compiled.device("leaf1").probe_origin_tag
        logic.on_probe(_probe(compiled, "leaf1", 9_999, "leaf1"), "leaf1")
        logic.on_probe(_probe(compiled, "spine0", origin_tag, "leaf1"), "leaf1")
        assert reads == {}
        assert logic.forwarding_snapshot() == {}


class TestMetricValuesOverride:
    def test_instance_override_wins_over_the_specialised_extender(self):
        system, network, compiled = _two_leaf_fabric()
        logic = system.logic("spine0")
        link = network.link("spine0", "leaf1")
        link.metric_values = lambda: {"util": 0.75, "lat": 9.0, "len": 1.0}  # type: ignore[method-assign]
        origin_tag = compiled.device("leaf1").probe_origin_tag
        logic.on_probe(_probe(compiled, "leaf1", origin_tag, "leaf1"), "leaf1")
        (entry,) = logic.forwarding_snapshot().values()
        assert entry[2] == (0.75,)
