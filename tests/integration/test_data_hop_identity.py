"""Byte identity of the data plane: whole grid points, pinned to the parent commit.

The digests below were computed at the commit *before* the data hop was
rewritten (the one ``SimLink._transmit`` frame, SWIFORWARDPKT reading its
tables in place, per-flow hashes, the counts-only queue histogram) and must
never move.  Each covers one grid point with traffic, run through
``RunContext``: every link's counters, utilization estimator and serializer
horizon, the queue-length histogram, every switch's flowlet, loop and
FwdT/BestT tables (Contra) or best-hop table (Hula), the event count and the
summary — so a transmission reordered, a queue sample dropped, a flowlet
expired or touched differently, or an event added or renumbered shows up as a
different hash.  Machinery shared with ``test_probe_hop_identity.py``.
"""

import dataclasses

import pytest
from test_probe_hop_identity import contra_tables, sha256_of

from repro.baselines.hula import HulaRouting
from repro.experiments.config import ExperimentConfig
from repro.experiments.fct import abilene_fct_specs, fattree_fct_specs
from repro.experiments.runner import LinkEvent, RunContext, ScenarioSpec, TopologySpec
from repro.protocol.contra_switch import ContraRouting

_DATA = ExperimentConfig(workload_duration=3.0, run_duration=24.0, loads=(0.8,),
                         websearch_scale=0.05, cache_scale=0.25,
                         buffer_packets=24)


def _asymmetric(system: str, transport: str) -> ScenarioSpec:
    """Fig. 12's k=4 point: an aggregation-core link is down from t=0."""
    (spec,) = fattree_fct_specs(_DATA, systems=(system,), workloads=("cache",),
                                asymmetric=True)
    return dataclasses.replace(spec, transport=transport)


def _abilene(system: str) -> ScenarioSpec:
    (spec,) = abilene_fct_specs(_DATA, systems=(system,), workloads=("cache",))
    return spec


def _fail_recover(system: str) -> ScenarioSpec:
    """A leaf-spine uplink fails mid-run and recovers: probe-silence detection."""
    return ScenarioSpec(
        name="fail-recover", system=system,
        topology=TopologySpec("leafspine", leaves=4, spines=2, capacity=100.0),
        config=_DATA, workload="cache", load=0.8, record_paths=True,
        events=(LinkEvent(2.5, "leaf0", "spine0", "fail"),
                LinkEvent(4.5, "leaf0", "spine0", "recover")),
        stop_after_completion=True)


#: name -> (spec factory, pinned digest).
POINTS = {
    "asym-contra-fixed": (
        lambda: _asymmetric("contra", "fixed"),
        "964d1b716388951fda591921217b87c259678833c3d73788a7bc2f0291f9a30b"),
    "asym-contra-slowstart": (
        lambda: _asymmetric("contra", "slowstart"),
        "ba22883d1ec7a3a361f52a760bc3ca1a73a0efe8877e4a6d5f0f9473b408e49d"),
    "asym-ecmp-fixed": (
        lambda: _asymmetric("ecmp", "fixed"),
        "3ff963cda1499f5aa6f480f1dd3aa7856cda5a4bc4263eac5dad38bc97c1b226"),
    "asym-ecmp-slowstart": (
        lambda: _asymmetric("ecmp", "slowstart"),
        "20fea5612cb1eecda21d9344cf0790881d0755d6a9b9fb8651bd7c0b32ef0edf"),
    "leafspine-fail-recover": (
        lambda: _fail_recover("contra"),
        "eb7103426c091212f96b2573232a907b0e95df84451c95fcc9694917d0482865"),
    "leafspine-fail-recover-hula": (
        lambda: _fail_recover("hula"),
        "9f2ad9f53e233f34c7d66e95273e77a8f32fa1758cb2fc602acbb881f3b3994d"),
    "abilene-MU-contra": (
        lambda: _abilene("contra"),
        "5a1ce15c0ca4795912cac5af928dd849ddbe016ad35a138a3849324db662bd15"),
    "abilene-MU-hula": (
        lambda: _abilene("hula"),
        "b79b30592554deaf209c87e8cdebe9f88a872f0b6291e30dcd2b4757352a7b09"),
}


def _hex(value: float) -> str:
    return float(value).hex()


def data_plane_digest(name: str, sanitize: bool = False) -> str:
    """Run one grid point; hash what its data plane left behind."""
    context = RunContext(sanitize=sanitize)
    networks = []
    context.network_hook = networks.append
    result = context.run(POINTS[name][0]())
    (network,) = networks
    routings = {switch: node.routing
                for switch, node in sorted(network.switches.items())}
    state = contra_tables(network)
    state.update({
        "links": [
            (src, dst, link.packets_sent, _hex(link.bytes_sent),
             link.packets_dropped, _hex(link._util),
             _hex(link._last_util_update), _hex(link._busy_until))
            for (src, dst), link in sorted(network.links.items())],
        "queue_histogram": network.stats.queue_histogram.items(),
        "flowlets": {
            switch: sorted(
                (list(key), entry.next_hop, entry.next_tag, _hex(entry.last_seen))
                for key, entry in routing.flowlets._entries.items())
            for switch, routing in routings.items() if hasattr(routing, "flowlets")},
        "loops": {
            switch: sorted(
                (slot, record.max_ttl, record.min_ttl, _hex(record.last_seen))
                for slot, record in routing.loop_detector._records.items())
            for switch, routing in routings.items()
            if isinstance(routing, ContraRouting)},
        "hula": {
            switch: sorted(
                (destination, best.next_hop, _hex(best.utilization), best.version,
                 _hex(best.updated_at))
                for destination, best in routing.best.items())
            for switch, routing in routings.items()
            if isinstance(routing, HulaRouting)},
        "events": network.sim.events_processed,
        "summary": sorted((key, _hex(value)) for key, value in result.summary.items()),
    })
    return sha256_of(state)


class TestPinnedDataPlaneState:
    @pytest.mark.parametrize("name", sorted(POINTS))
    def test_data_plane_state_matches_the_parent_commit(self, name, engine_mode):
        digest = data_plane_digest(name, sanitize=engine_mode)
        assert digest == POINTS[name][1]

    @pytest.mark.parametrize("name, nonzero", [
        ("asym-contra-fixed", ("drops", "retransmissions")),
        ("asym-ecmp-slowstart", ("drops", "fast_retransmits")),
        ("leafspine-fail-recover", ("flowlet_expirations", "failure_detections")),
        ("leafspine-fail-recover-hula", ("failure_detections", "flowlet_expirations")),
        ("abilene-MU-contra", ("loop_detections", "flowlet_expirations")),
    ])
    def test_the_points_exercise_what_they_pin(self, name, nonzero):
        """Loss, recovery, flowlet churn and loop breaking are in the hash
        only if the points produce them (24-packet buffers see to the loss)."""
        context = RunContext()
        networks = []
        context.network_hook = networks.append
        summary = context.run(POINTS[name][0]()).summary
        assert all(summary[key] > 0 for key in nonzero)
        assert networks[0].stats.queue_histogram.max == _DATA.buffer_packets
