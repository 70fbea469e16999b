"""Array probe plane, table-level: vectorized judging == the scalar oracle.

The integration suite pins whole-grid summaries; this file pins the judge
itself.  A hypothesis property drives randomized probe waves — mixed
origins, duplicate keys, version ties, out-of-range tags, malformed interned
ids, believed-failed inports — through twin fabrics, one judging waves with
the array prefilter and one running the scalar path, and asserts the *full*
protocol state (FwdT rows including ECMP alternates, BestT, liveness
bookkeeping) is identical after every wave.  Deterministic tests cover the
lowered-table helpers the judge is built from.
"""

import pytest

from hypothesis import given, settings, strategies as st

from repro.core.attributes import MetricVector
from repro.core.compiler import compile_policy
from repro.experiments.runner import datacenter_policy
from repro.nputil import np
from repro.protocol import ContraSystem
from repro.protocol import contra_switch as contra_switch_module
from repro.protocol.probe import ProbePayload, make_probe_packet
from repro.protocol.tables import (
    ForwardingShadow,
    lexicographic_gt,
    lexicographic_gt_eq,
)
from repro.simulator import Network, StatsCollector
from repro.simulator.probe_wave import ProbeWave
from repro.topology import fattree

pytestmark = pytest.mark.skipif(np is None,
                                reason="array probe plane requires numpy")

TOPOLOGY = fattree(4, capacity=100.0, oversubscription=4.0)
COMPILED = compile_policy(datacenter_policy(), TOPOLOGY)
SWITCH_NAMES = sorted(COMPILED.switch_ids())
CARRIED = tuple(COMPILED.carried_attrs)
MAX_TAG = max(COMPILED.device(SWITCH_NAMES[0]).tags, default=0)

#: Metric values drawn from a tiny set so exact propagation-key ties (the
#: add_alternate side-effect path) happen constantly, not once in a blue
#: moon of float draws.
METRIC_VALUES = (0.0, 0.25, 0.5, 1.0)


def _twin_fabrics():
    """Two identical fabrics: one judging waves, one pure scalar."""
    fabrics = []
    for vectorize in (True, False):
        system = ContraSystem(COMPILED, probe_period=0.256,
                              probe_vectorize=vectorize)
        network = Network(TOPOLOGY, system, stats=StatsCollector())
        fabrics.append((network, system))
    return fabrics


def _full_state(routing):
    fwdt = {key: (entry.next_hop, entry.next_tag, entry.version,
                  entry.metrics.values, entry.prop_key, entry.alternates)
            for key, entry in routing.fwdt.items()}
    return (fwdt, dict(routing.bestt._best),
            dict(routing._believed_failed), dict(routing._last_probe_from))


probe_spec = st.tuples(
    st.integers(0, len(SWITCH_NAMES) - 1),          # origin switch
    # Interned-id health.  One "none" makes the whole wave ineligible, so it
    # is drawn rarely: evenly weighted, no 8+-probe wave was ever judged.
    st.sampled_from(("ok",) * 10 + ("bogus", "none")),
    st.integers(1, 3),                              # version
    st.integers(0, MAX_TAG + 2),                    # tag (some invalid)
    st.tuples(*[st.sampled_from(METRIC_VALUES) for _ in CARRIED]),
)

wave_spec = st.tuples(
    st.integers(0, len(SWITCH_NAMES) - 1),          # receiving switch
    st.integers(0, 7),                              # inport selector
    st.booleans(),                                  # believed-failed inport
    st.lists(probe_spec, min_size=1, max_size=24),
)


def _payload(routing, spec):
    origin_index, id_health, version, tag, values = spec
    origin = SWITCH_NAMES[origin_index]
    if id_health == "ok":
        origin_id = routing._switch_ids.get(origin)
    elif id_health == "none":
        origin_id = None                 # uninterned: wave must go scalar
    else:
        origin_id = len(SWITCH_NAMES) + 1000   # out of range: bounds reject
    pids = sorted(sub.pid for sub in routing.subpolicies)
    pid = pids[version % len(pids)]
    metrics = MetricVector._make(CARRIED, values)
    return ProbePayload(origin=origin, pid=pid, version=version, tag=tag,
                        metrics=metrics, origin_id=origin_id)


@settings(max_examples=40, deadline=None)
@given(st.lists(wave_spec, min_size=1, max_size=3))
def test_judged_waves_leave_identical_state(waves):
    (vec_net, vec_sys), (sca_net, sca_sys) = _twin_fabrics()
    for receiver_index, inport_index, believed_failed, probes in waves:
        receiver = SWITCH_NAMES[receiver_index]
        vec_routing = vec_sys.logic(receiver)
        sca_routing = sca_sys.logic(receiver)
        assert vec_routing.wants_probe_waves is True
        neighbors = sorted(vec_net.switches[receiver].switch_neighbors())
        if not neighbors:
            continue
        inport = neighbors[inport_index % len(neighbors)]
        for routing in (vec_routing, sca_routing):
            routing._believed_failed[inport] = believed_failed
        # Both fabrics get the same run the way a neighbour would send it:
        # enqueued on the ingress link at one tick, so the vectorized side
        # collects one wave, judges it at the first probe and applies the
        # link-side masks, while the scalar side runs on_probe per probe.
        for net, routing in ((vec_net, vec_routing), (sca_net, sca_routing)):
            link = net.link(inport, receiver)
            for spec in probes:
                link.enqueue(make_probe_packet(_payload(routing, spec), inport, 64))
            net.sim.run(until=net.sim.now + 1.0)
        assert vec_net.sim.events_processed == sca_net.sim.events_processed
        assert _full_state(vec_routing) == _full_state(sca_routing), \
            f"state diverged after wave via {inport} -> {receiver}"


def test_lowered_transitions_match_dict_lookups():
    config = COMPILED.device(SWITCH_NAMES[0])
    rows = config.lowered_transitions()
    for (neighbor, neighbor_tag), local_tag in config.probe_transition.items():
        assert rows[neighbor][neighbor_tag] == local_tag
    for neighbor, row in rows.items():
        for tag in range(row.shape[0]):
            expected = config.probe_transition.get((neighbor, tag))
            assert row[tag] == (-1 if expected is None else expected)


class TestForwardingShadow:
    def _shadow(self):
        return ForwardingShadow(num_origins=4, num_tags=3, num_pids=2,
                                key_width=2)

    def test_record_and_reset_of_alternates(self):
        shadow = self._shadow()
        shadow.record(1, 2, 0, version=5, prop_key=(0.5, 1.0), nexthop_id=3)
        flat = shadow._flat(1, 2, 0)
        assert shadow.versions[flat] == 5
        assert shadow.nexthop_ids[flat] == 3
        shadow.record_alternate(1, 2, 0, version=5, hop_id=2, next_tag=1)
        assert shadow.alt_count[flat] == 1
        # Entry replacement resets the mirrored alternate group — slots too:
        # the judge matches (hop, tag) pairs against every slot, so a stale
        # pair would flag the new entry's first tie from hop 2 as a repeat.
        shadow.record(1, 2, 0, version=6, prop_key=(0.25, 1.0), nexthop_id=3)
        assert shadow.alt_count[flat] == 0
        assert all(hops[flat] == -1 for hops in shadow.alt_hops)

    def test_alternate_mirror_matches_entry_semantics(self):
        shadow = self._shadow()
        shadow.record(0, 0, 0, version=1, prop_key=(0.0, 0.0), nexthop_id=1)
        flat = shadow._flat(0, 0, 0)
        # Own next hop and duplicates are refused, the group caps at 3.
        shadow.record_alternate(0, 0, 0, version=1, hop_id=1, next_tag=0)
        assert shadow.alt_count[flat] == 0
        shadow.record_alternate(0, 0, 0, version=1, hop_id=2, next_tag=0)
        shadow.record_alternate(0, 0, 0, version=1, hop_id=2, next_tag=0)
        assert shadow.alt_count[flat] == 1
        for hop in (5, 6, 7, 8):
            shadow.record_alternate(0, 0, 0, version=1, hop_id=hop, next_tag=0)
        assert shadow.alt_count[flat] == 3
        # A stale-version alternate never lands.
        shadow.record_alternate(0, 0, 0, version=0, hop_id=9, next_tag=0)
        assert shadow.alt_count[flat] == 3

    def test_out_of_range_records_are_ignored(self):
        shadow = self._shadow()
        shadow.record(99, 0, 0, version=1, prop_key=(0.0, 0.0), nexthop_id=1)
        shadow.record(0, 99, 0, version=1, prop_key=(0.0, 0.0), nexthop_id=1)
        shadow.record(0, 0, 0, version=1, prop_key=(0.0, 0.0, 0.0, 0.0),
                      nexthop_id=1)   # key wider than the lowered columns
        assert (shadow.versions >= 0).sum() == 0


def test_lexicographic_helpers_match_tuple_compare():
    lefts = [(0.0, 1.0), (1.0, 0.0), (1.0, 1.0), (0.5, 2.0)]
    rights = [(0.0, 1.0), (0.5, 9.0), (1.0, 0.5), (0.5, 2.0)]
    a = [np.array([l[i] for l in lefts]) for i in range(2)]
    b = [np.array([r[i] for r in rights]) for i in range(2)]
    gt = lexicographic_gt(a, b)
    gt2, eq = lexicographic_gt_eq(a, b)
    for row, (left, right) in enumerate(zip(lefts, rights)):
        assert bool(gt[row]) == (left > right)
        assert bool(gt2[row]) == (left > right)
        assert bool(eq[row]) == (left == right)


class TestProbeWaveEligibility:
    def _packets(self, count=3, origin_id=0):
        payloads = [ProbePayload("s0", 0, 1, 0,
                                 MetricVector._make(CARRIED,
                                                    (0.0,) * len(CARRIED)),
                                 origin_id=origin_id)
                    for _ in range(count)]
        return [make_probe_packet(p, "s1", 64) for p in payloads]

    def test_columns_built_once_and_cached(self):
        wave = ProbeWave(self._packets())
        first = wave.columns(CARRIED)
        assert first is not None
        ints, metrics = first
        assert ints.shape == (3, 4) and metrics.shape == (3, len(CARRIED))
        assert wave.columns(CARRIED) == first
        # The per-payload row bytes were cached for multicast reuse.
        assert all(packet.probe.row is not None for packet in wave.packets)

    def test_uninterned_origin_makes_wave_ineligible(self):
        wave = ProbeWave(self._packets(origin_id=None))
        assert wave.columns(CARRIED) is None
        assert wave.columns(CARRIED) is None    # the verdict is cached too

    def test_foreign_metric_layout_makes_wave_ineligible(self):
        wave = ProbeWave(self._packets())
        assert wave.columns(("definitely", "not", "carried")) is None

    def test_mixed_metric_layouts_make_wave_ineligible(self):
        packets = self._packets()
        packets[1].probe.metrics = MetricVector._make(
            ("util",), (0.0,)) if CARRIED != ("util",) else \
            MetricVector._make(("util", "lat"), (0.0, 0.0))
        wave = ProbeWave(packets)
        assert wave.columns(CARRIED) is None

    def test_non_numeric_payload_field_makes_wave_ineligible(self):
        packets = self._packets()
        packets[0].probe.tag = "not-a-tag"
        wave = ProbeWave(packets)
        assert wave.columns(CARRIED) is None
