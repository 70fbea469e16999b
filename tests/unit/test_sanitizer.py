"""Violation-injection tests for the runtime sanitizer plane.

Each test deliberately breaks one invariant class the sanitizer guards —
stealing a delivery, delivering a stale-epoch probe, scheduling into the
past, decreasing a FwdT version,
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
from repro.protocol import ContraSystem
from repro.protocol.probe import ProbePayload, make_probe_packet
from repro.simulator import Flow, Network, Simulator, StatsCollector
from repro.simulator.link import SimLink
from repro.simulator.sanitizer import Sanitizer, SanitizerError, Violation
from repro.topology import leafspine

pytestmark = pytest.mark.no_sanitize

#: The instance attributes a sanitizer shadows on the engine it instruments.
ENGINE_WRAPPERS = {"_push", "call_later", "call_at", "call_batched", "run"}


def _noop() -> None:
    pass


def _push_raw(sim, time) -> None:
    """Put an entry on the heap without going through the Simulator API."""
    heapq.heappush(sim._queue, (time, sim._sequence, _noop, ()))
    sim._sequence += 1


def build_contra_network(probe_period=0.25):
    topo = leafspine(2, 2, hosts_per_leaf=1, capacity=50.0)
    compiled = compile_policy(MU(), topo)
    system = ContraSystem(compiled, probe_period=probe_period)
    network = Network(topo, system, sanitize=True)
    return system, network


class TestPlumbing:
    def test_default_simulator_is_the_plain_engine(self):
        sim = Simulator()
        assert type(sim) is Simulator
        assert not hasattr(sim, "sanitizer")
        assert not ENGINE_WRAPPERS & vars(sim).keys()

    def test_sanitize_flag_instruments_the_same_engine(self):
        sim = Simulator(sanitize=True)
        assert type(sim) is Simulator
        assert isinstance(sim.sanitizer, Sanitizer)
        assert sim.sanitizer.sim is sim
        assert ENGINE_WRAPPERS <= vars(sim).keys()
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
        _push_raw(sim, 0.5)
        with pytest.raises(SanitizerError) as err:
            sim.run()
        assert err.value.violation.rule == "time-monotonicity"

    def test_raw_heap_entry_is_untagged_event(self):
        sim = Simulator(sanitize=True)
        _push_raw(sim, 0.5)
        with pytest.raises(SanitizerError) as err:
            sim.run()
        assert err.value.violation.rule == "untagged-event"

    @pytest.mark.parametrize("time, rule", [(0.5, "time-monotonicity"),
                                            (1.5, "untagged-event")])
    def test_raw_entry_pushed_by_a_running_callback_is_caught(self, time, rule):
        # The head check after the pushing callback returns sees the raw
        # entry before the loop pops it, whichever side of the clock it is on.
        sim = Simulator(sanitize=True)
        ran = []
        sim.call_at(1.0, lambda: _push_raw(sim, time))
        sim.call_at(2.0, ran.append, "after")
        with pytest.raises(SanitizerError) as err:
            sim.run()
        assert err.value.violation.rule == rule
        assert err.value.violation.tag[0] == "TestEngineInvariants." \
            "test_raw_entry_pushed_by_a_running_callback_is_caught.<locals>.<lambda>"
        assert ran == []

    def test_raw_entry_behind_a_cancelled_tombstone_is_caught(self):
        # The tombstone expires without running anything, so a check of the
        # heap head alone would let the raw entry behind it run unseen.
        sim = Simulator(sanitize=True)

        def inject():
            sim.schedule_at(2.0, _noop).cancel()
            _push_raw(sim, 3.0)

        sim.call_at(1.0, inject)
        with pytest.raises(SanitizerError) as err:
            sim.run()
        assert err.value.violation.rule == "untagged-event"
        assert err.value.violation.time == 1.0

    def test_a_collected_raw_entry_is_reported_once_and_still_runs(self):
        sim = Simulator(sanitize=True)
        sim.sanitizer.mode = "collect"
        sim.call_at(1.0, _noop)
        _push_raw(sim, 3.0)
        sim.run(until=2.0)
        sim.run()
        assert [v.rule for v in sim.sanitizer.violations] == ["untagged-event"]
        assert sim.now == 3.0 and sim.events_processed == 2

    def test_api_scheduled_events_carry_their_site(self):
        sim = Simulator(sanitize=True)
        sim.call_later(0.5, _noop)
        (entry,) = sim._queue
        tag = entry[2].tag
        assert tag[0] == "_noop"
        assert "test_api_scheduled_events_carry_their_site" in tag[1]


def _stop_in_lane(at):
    """Lane entries at t=1 (sealed by a plain event) whose member ``at`` stops the run."""
    def schedule(sim, log):
        def member(subject, guard):
            log.append((sim.now, subject))
            if subject == at:
                sim.stop()
        for subject in range(3):
            sim.call_batched(1.0, member, subject, None)
        sim.call_at(1.0, log.append, (1.0, "plain"))
        sim.call_batched(1.0, member, 3, None)
        sim.call_batched(2.0, member, 4, None)
        return [{}, {}, {}]
    return schedule


def _max_events_in_lane(sim, log):
    for subject in range(4):
        sim.call_batched(1.0, lambda s, g: log.append((sim.now, s)), subject, None)
    sim.call_at(2.0, log.append, (2.0, "plain"))
    return [dict(max_events=1), dict(max_events=1), {}]


def _until_boundary(sim, log):
    sim.call_at(2.0, log.append, (2.0, "call_at"))
    sim.schedule_at(2.0, log.append, (2.0, "handle"))
    sim.call_batched(2.0, lambda s, g: log.append((sim.now, s)), "lane", None)
    sim.call_at(2.5, log.append, (2.5, "beyond"))
    return [dict(until=1.0), dict(until=2.0), dict(until=3.0)]


def _cancelled_handles(sim, log):
    handles = [sim.schedule_at(time, log.append, (time, index))
               for index, time in enumerate((1.0, 1.0, 2.0, 3.0, 3.0))]
    handles[0].cancel()
    handles[4].cancel()
    sim.call_at(1.5, handles[3].cancel)
    sim.call_at(3.0, log.append, (3.0, "plain"))
    return [dict(max_events=1), {}]


def _periodic_self_cancel(sim, log):
    def tick():
        log.append((sim.now, "tick"))
        if len(log) >= 5:
            handle.cancel()
    handle = sim.schedule_periodic(0.5, tick, start_delay=0.5)
    sim.call_batched(1.0, lambda s, g: log.append((sim.now, s)), "lane", None)
    return [dict(until=2.0), dict(until=10.0)]


EDGE_SCHEDULES = {
    "stop-mid-lane-entry": _stop_in_lane(1),
    "stop-at-last-member": _stop_in_lane(2),
    "stop-at-last-event": _stop_in_lane(4),
    "max-events-in-lane": _max_events_in_lane,
    "until-boundary": _until_boundary,
    "cancelled-handles": _cancelled_handles,
    "periodic-self-cancel": _periodic_self_cancel,
}


class TestSanitizedEngineEquivalence:
    """The sanitized engine is the plain engine's loop, observed: it fires the
    same callbacks in the same order and leaves the same clock and counters."""

    @staticmethod
    def _drive(schedule, batching, sanitize):
        sim = Simulator(batching=batching, sanitize=sanitize)
        log = []
        states = []
        for kwargs in schedule(sim, log):
            returned = sim.run(**kwargs)
            states.append((list(log), returned, sim.now, sim.events_processed,
                           sim.pending_events))
        return sim, states

    @pytest.mark.parametrize("batching", [True, False])
    @pytest.mark.parametrize("name", sorted(EDGE_SCHEDULES))
    def test_edge_schedule_runs_identically(self, name, batching):
        schedule = EDGE_SCHEDULES[name]
        _, plain = self._drive(schedule, batching, sanitize=False)
        sanitized_sim, sanitized = self._drive(schedule, batching, sanitize=True)
        assert sanitized == plain
        assert sanitized_sim.sanitizer.violations == []


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
        system, net = build_contra_network()
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

    def test_reordered_lane_members_trip_the_link_fifo_check(self):
        system, net = build_contra_network()
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
        assert violation.tag == ("SimLink._deliver_probe", "batch-lane")


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
