"""Violation-injection tests for the runtime sanitizer plane.

Each test deliberately breaks one invariant class the sanitizer guards —
stealing a delivery, delivering a stale-epoch probe, scheduling into the
past, desyncing a ForwardingShadow mirror, decreasing a FwdT version,
pointing BestT at a missing key, losing an RTO timer chain — and asserts
the sanitizer reports it under the right rule with the right provenance tag.
The plane itself must therefore run in its default raise mode here, so the
whole module opts out of the CONTRA_SANITIZE=1 sweep (which would be
redundant anyway: every network below is built with ``sanitize=True``).
"""

import dataclasses
import heapq

import pytest

from repro.core.attributes import MetricVector
from repro.core.compiler import compile_policy
from repro.core.policies import MU
from repro.baselines import ShortestPathSystem
from repro.nputil import HAVE_NUMPY, np
from repro.protocol import ContraSystem
from repro.protocol.probe import ProbePayload, make_probe_packet
from repro.simulator import Flow, Network, Simulator, StatsCollector
from repro.simulator.link import SimLink
from repro.simulator.sanitizer import (SanitizerError, SanitizingSimulator,
                                       Violation)
from repro.topology import leafspine

pytestmark = pytest.mark.no_sanitize


def _noop() -> None:
    pass


def build_contra_network(probe_vectorize=False, probe_period=0.25):
    topo = leafspine(2, 2, hosts_per_leaf=1, capacity=50.0)
    compiled = compile_policy(MU(), topo)
    system = ContraSystem(compiled, probe_period=probe_period,
                          probe_vectorize=probe_vectorize)
    network = Network(topo, system, sanitize=True)
    return system, network


class TestPlumbing:
    def test_default_simulator_is_the_plain_engine(self):
        sim = Simulator()
        assert type(sim) is Simulator
        assert not hasattr(sim, "sanitizer")

    def test_sanitize_flag_swaps_in_the_sanitizing_engine(self):
        sim = Simulator(sanitize=True)
        assert type(sim) is SanitizingSimulator
        assert sim.sanitizer.ok

    def test_default_network_carries_no_sanitizer(self):
        net = Network(leafspine(2, 2, hosts_per_leaf=1), ShortestPathSystem())
        assert net.sanitizer is None

    def test_clean_sanitized_run_matches_default_and_reports_ok(self):
        """Same topology/system/flows with and without the plane: identical
        stats, zero violations, and the checks actually ran."""
        summaries = []
        for sanitize in (False, True):
            net = Network(leafspine(2, 2, hosts_per_leaf=1),
                          ShortestPathSystem(), sanitize=sanitize)
            net.schedule_flows([Flow("h0_0", "h1_0", 20, 0.1)])
            stats = net.run(30.0)
            summaries.append(stats.summary())
        assert summaries[0] == summaries[1]
        net_s = Network(leafspine(2, 2, hosts_per_leaf=1),
                        ShortestPathSystem(), sanitize=True)
        net_s.schedule_flows([Flow("h0_0", "h1_0", 20, 0.1)])
        net_s.run(30.0)
        assert net_s.sanitizer.ok
        assert net_s.sanitizer.checks_run > 0

    def test_violation_render_carries_provenance(self):
        violation = Violation(1.5, "demo", "something broke",
                              tag=("Host._transmit", "Host.start_flow"))
        text = violation.render()
        assert "demo" in text and "Host._transmit" in text
        assert violation.to_json_dict()["tag"] == ["Host._transmit",
                                                   "Host.start_flow"]


class TestEngineInvariants:
    def test_schedule_into_the_past_is_time_monotonicity(self):
        sim = Simulator(sanitize=True)
        sim.call_at(1.0, _noop)
        sim.run(until=2.0)
        # Bypass the Simulator API: raw heap entry behind the clock.
        heapq.heappush(sim._queue, (0.5, sim._sequence, _noop, ()))
        sim._sequence += 1
        with pytest.raises(SanitizerError) as err:
            sim.run()
        assert err.value.violation.rule == "time-monotonicity"

    def test_raw_heap_entry_is_untagged_event(self):
        sim = Simulator(sanitize=True)
        heapq.heappush(sim._queue, (0.5, sim._sequence, _noop, ()))
        sim._sequence += 1
        with pytest.raises(SanitizerError) as err:
            sim.run()
        assert err.value.violation.rule == "untagged-event"

    def test_api_scheduled_events_carry_their_site(self):
        sim = Simulator(sanitize=True)
        sim.call_later(0.5, _noop)
        (entry,) = sim._queue
        tag = sim._tags[entry[1]]
        assert tag[0] == "_noop"
        assert "test_api_scheduled_events_carry_their_site" in tag[1]


class TestTransportInvariants:
    def test_stolen_delivery_breaks_conservation(self):
        # capacity=1 packet/ms so the host uplink builds a real backlog.
        net = Network(leafspine(2, 2, hosts_per_leaf=1, capacity=1.0),
                      ShortestPathSystem(), sanitize=True)
        net.schedule_flows([Flow("h0_0", "h1_0", 20, 0.0)])
        uplink = net.hosts["h0_0"].uplink

        def steal():
            assert uplink._queue and uplink._queue[-1].kind == "data"
            uplink._queue.pop()

        net.sim.call_at(0.2, steal)
        with pytest.raises(SanitizerError) as err:
            net.run(200.0)
        assert err.value.violation.rule == "conservation"
        assert "data" in err.value.violation.message

    def test_transmission_that_bypasses_the_seam_breaks_conservation(self):
        net = Network(leafspine(2, 2, hosts_per_leaf=1, capacity=1.0),
                      ShortestPathSystem(), sanitize=True)
        net.schedule_flows([Flow("h0_0", "h1_0", 20, 0.0)])
        uplink = net.hosts["h0_0"].uplink
        # The ledger counts a packet in flight where ``link._transmit`` is
        # looked up on the instance; put the bare method back underneath it.
        uplink._transmit = SimLink._transmit.__get__(uplink)
        with pytest.raises(SanitizerError) as err:
            net.run(200.0)
        assert err.value.violation.rule == "conservation"
        assert "in-flight -" in err.value.violation.message

    def test_buffer_and_switch_drops_reach_the_ledger(self):
        # A 2-packet buffer under a 12-segment window drops at the uplink
        # (SimLink.enqueue -> stats.record_drop); failing the only path at
        # t=5 drops at the switch (SwitchNode.receive ->
        # stats.record_switch_drop).  Both hold ``stats`` in a local: the
        # run only balances if they still call through the instance.
        net = Network(leafspine(2, 1, hosts_per_leaf=1, capacity=1.0),
                      ShortestPathSystem(), buffer_packets=2, sanitize=True)
        net.schedule_flows([Flow("h0_0", "h1_0", 30, 0.0)])
        net.fail_link("leaf0", "spine0", at_time=5.0)
        net.run(40.0)
        assert net.sanitizer.ok
        link_drops = sum(link.packets_dropped for link in net.links.values())
        switch_drops = net.stats.drops - link_drops
        assert link_drops > 0 and switch_drops > 0
        assert net.sanitizer._dropped["data"] + net.sanitizer._dropped["ack"] \
            == net.stats.drops

    def test_unledgered_drop_breaks_conservation(self):
        net = Network(leafspine(2, 1, hosts_per_leaf=1, capacity=1.0),
                      ShortestPathSystem(), buffer_packets=2, sanitize=True)
        net.schedule_flows([Flow("h0_0", "h1_0", 30, 0.0)])
        net.stats.record_drop = StatsCollector.record_drop.__get__(net.stats)
        with pytest.raises(SanitizerError) as err:
            net.run(40.0)
        assert err.value.violation.rule == "conservation"

    def test_lost_rto_timer_chain_is_reported(self):
        net = Network(leafspine(2, 2, hosts_per_leaf=1, capacity=1.0),
                      ShortestPathSystem(), sanitize=True)
        # Detach the timeout chain: every scheduled check is now an impostor
        # the liveness scan (matching Host._check_timeout) cannot see.
        net.hosts["h0_0"]._check_timeout = lambda flow_id: None
        # Far too large to complete in the run: the sender stays incomplete.
        net.schedule_flows([Flow("h0_0", "h1_0", 500, 0.0)])
        with pytest.raises(SanitizerError) as err:
            net.run(5.0)
        assert err.value.violation.rule == "rto-liveness"


class TestProbeInvariants:
    def test_stale_epoch_probe_delivery_is_caught(self):
        system, net = build_contra_network(probe_vectorize=False)
        link = net.links[("spine0", "leaf0")]

        # A buggy delivery layer that ignores the fail epoch entirely: every
        # registered probe reaches the probe sink (the receiving switch's
        # on_probe), dead epoch or not.  The sanitizer seam
        # (_sanitizer_probe_inner) substitutes it under the checks.
        def leaky(packet, epoch):
            link.probe_sink(packet, link.src)

        link._sanitizer_probe_inner = leaky
        net.run(0.6)                      # fresh probes through leaky: clean
        assert net.sanitizer.ok

        payload = ProbePayload("leaf1", 0, 0, 1,
                               MetricVector(("util",), (0.0,)))
        probe = make_probe_packet(payload, "spine0", payload_bits=96)

        def inject():
            # Enqueue under the live epoch, then kill the link before the
            # batched delivery fires: the registered epoch is now dead.
            assert link.enqueue(probe)
            link.fail()

        net.sim.call_at(0.7, inject)
        with pytest.raises(SanitizerError) as err:
            net.sim.run(until=1.5)
        violation = err.value.violation
        assert violation.rule == "stale-probe"
        assert violation.tag is not None
        assert violation.tag[1] == "batch-lane"


    @pytest.mark.parametrize("vectorize", [
        False,
        pytest.param(True, marks=pytest.mark.skipif(
            not HAVE_NUMPY, reason="the array probe plane needs numpy")),
    ])
    def test_reordered_lane_members_trip_the_link_fifo_check(self, vectorize):
        system, net = build_contra_network(probe_vectorize=vectorize)
        link = net.links[("spine0", "leaf0")]
        probes = []
        for version in (1, 2):
            payload = ProbePayload("leaf1", 0, version, 1,
                                   MetricVector(("util",), (0.0,)))
            probes.append(make_probe_packet(payload, "spine0", payload_bits=96))

        def inject():
            for probe in probes:
                assert link.enqueue(probe)
            # Swap the two registrations inside the open lane entry (flat
            # members, three slots each): delivery order != enqueue order.
            members = net.sim._batch
            assert [members[1], members[4]] == probes
            members[0:3], members[3:6] = members[3:6], members[0:3]

        net.sim.call_at(0.1, inject)
        with pytest.raises(SanitizerError) as err:
            net.sim.run(until=0.2)
        violation = err.value.violation
        assert violation.rule == "link-fifo"
        assert violation.tag == (
            "SimLink._deliver_wave_probe" if vectorize else "SimLink._deliver_probe",
            "batch-lane")


class TestProtocolTableInvariants:
    def test_fwdt_version_decrease_and_dangling_bestt_key(self):
        system, net = build_contra_network()
        net.run(0.8)
        logic = system.logic("leaf0")
        key, entry = next(iter(logic.fwdt.items()))
        stale = dataclasses.replace(entry, version=entry.version - 1)
        with pytest.raises(SanitizerError) as err:
            logic.fwdt.install(key, stale)
        assert err.value.violation.rule == "fwdt-version"

        with pytest.raises(SanitizerError) as err:
            logic.bestt.set("leaf1", (("no-such-switch", 99, 99),))
        assert err.value.violation.rule == "bestt-coherence"

    @pytest.mark.skipif(not HAVE_NUMPY,
                        reason="ForwardingShadow needs numpy")
    def test_shadow_mirror_desync_is_caught_at_quiesce(self):
        system, net = build_contra_network(probe_vectorize=True)
        net.run(1.0)
        assert net.sanitizer.ok
        logic = system.logic("leaf0")
        shadow = logic._shadow
        populated = np.nonzero(shadow.versions >= 0)[0]
        assert len(populated) > 0
        # Push one mirrored version ahead of the symbolic table.
        shadow.versions[int(populated[0])] += 1000
        with pytest.raises(SanitizerError) as err:
            net.sanitizer.finish(net)
        assert err.value.violation.rule == "shadow-coherence"
