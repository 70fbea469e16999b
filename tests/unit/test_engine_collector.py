"""The engine loop's collector contract.

``Simulator.run`` pauses the cyclic garbage collector for its own duration
and restores it on every way out.  That is safe only because the loop
creates no reference cycles — packets, payloads, FwdT rows, lane lists and
fluid groups are all freed by reference counting — so the second half of
this file checks that, on each routing system and on the fluid plane, a run
leaves no cyclic garbage that grows with its length.

These tests also run in the ``CONTRA_SANITIZE=1`` sweep: the sanitizer's
``run`` wrapper and its tagged callbacks go through the same loop.
"""

import gc
import weakref

import pytest

from repro.baselines.ecmp import EcmpSystem
from repro.baselines.hula import HulaSystem
from repro.baselines.spain import SpainSystem
from repro.core.builder import minimize, path, rank_tuple
from repro.core.compiler import compile_policy
from repro.protocol.contra_switch import ContraSystem
from repro.simulator.engine import Simulator
from repro.simulator.flow import Flow
from repro.simulator.network import Network
from repro.simulator.fluid import FluidSimulation, build_path_model
from repro.topology.fattree import fattree

PERIOD = 1.0


@pytest.fixture(autouse=True)
def collector_enabled():
    """Every test starts with the collector on and leaves it on."""
    assert gc.isenabled()
    yield
    enabled = gc.isenabled()
    gc.enable()
    assert enabled, "the test left the collector disabled"


class TestCollectorPause:
    def test_off_inside_a_callback_and_back_on_after_run(self):
        sim = Simulator()
        seen = []
        sim.call_at(1.0, lambda: seen.append(gc.isenabled()))
        sim.call_multicast(2.0, None,
                           (lambda subject, inport: seen.append(gc.isenabled()), None))
        sim.run()
        assert seen == [False, False]
        assert gc.isenabled()

    def test_back_on_after_a_callback_raises(self):
        sim = Simulator()

        def boom():
            raise RuntimeError("boom")

        sim.call_at(1.0, boom)
        with pytest.raises(RuntimeError):
            sim.run()
        assert gc.isenabled()

    def test_back_on_after_stop(self):
        sim = Simulator()
        sim.call_at(1.0, sim.stop)
        sim.call_at(2.0, lambda: None)
        sim.run()
        assert sim.pending_events == 1
        assert gc.isenabled()

    def test_back_on_after_the_until_bound_and_max_events(self):
        sim = Simulator()
        for time in (1.0, 2.0, 3.0):
            sim.call_at(time, lambda: None)
        sim.run(until=1.5)
        assert gc.isenabled()
        sim.run(max_events=1)
        assert gc.isenabled()

    def test_under_the_sanitizer_run_wrapper(self):
        sim = Simulator(sanitize=True)
        seen = []
        sim.call_at(1.0, lambda: seen.append(gc.isenabled()))
        sim.run()
        assert seen == [False]
        assert gc.isenabled()
        assert not sim.sanitizer.violations

    def test_a_caller_that_disabled_the_collector_keeps_it_disabled(self):
        sim = Simulator()
        seen = []
        sim.call_at(1.0, lambda: seen.append(gc.isenabled()))
        gc.disable()
        try:
            sim.run()
            assert not gc.isenabled()
        finally:
            gc.enable()
        assert seen == [False]


class Cyclic:
    """Garbage only the cyclic collector can free: it refers to itself."""

    def __init__(self):
        self.me = self


class TestGarbageBetweenRuns:
    """Cyclic garbage made between runs — a finished network — does not pile up."""

    @pytest.mark.parametrize("allocate, collect_between, freed", [
        (True, False, True),     # the paused run owes a full collection
        (True, True, False),     # a full collection since settled the debt
        (False, False, False),   # too little allocated under the pause
    ])
    def test_a_run_starts_with_a_full_collection_once_one_is_owed(
            self, allocate, collect_between, freed):
        young, middle, old = gc.get_threshold()
        window = young * middle * old
        kept = []
        sim = Simulator()
        sim.call_at(1.0, lambda: kept.extend(
            [] for _ in range(window if allocate else young // 2)))
        gc.collect()
        sim.run()
        if collect_between:
            gc.collect()
        garbage = Cyclic()
        ref = weakref.ref(garbage)
        del garbage
        seen = []
        sim.call_at(2.0, lambda: seen.append(ref() is None))
        sim.run()
        assert seen == [freed]


# ------------------------------------------------------------ acyclic loop


def flows(topology, count=48):
    """Every host sends to a host in another pod, arrivals over 4 periods."""
    hosts = topology.hosts
    return [Flow(hosts[index % len(hosts)],
                 hosts[(index + 4 * (1 + index % 3)) % len(hosts)],
                 (1, 3, 9, 20)[index % 4],
                 start_time=4 * PERIOD * index / count, flow_id=index)
            for index in range(count)]


def packet_point(make_system):
    """A k=4 fat-tree with traffic and a link that fails, recovers and fails."""
    topology = fattree(4)
    network = Network(topology, make_system(topology), host_rto=1.0)
    network.schedule_flows(flows(topology))
    a, b = "a0_0", "c0"
    network.fail_link(a, b, at_time=1.5 * PERIOD)
    network.recover_link(a, b, at_time=2.5 * PERIOD)
    network.fail_link(a, b, at_time=3.5 * PERIOD)
    return network


def contra(topology):
    policy = minimize(rank_tuple(path.len, path.util), name="dc")
    return ContraSystem(compile_policy(policy, topology), probe_period=PERIOD,
                        flowlet_timeout=0.5)


def fluid_point():
    """The fluid plane on the same fabric, with one link churning."""
    topology = fattree(4)
    simulation = FluidSimulation(topology, build_path_model("ecmp", topology))
    simulation.add_flows(flows(topology))
    a, b = "a0_0", "c0"
    for step in range(1, 4):
        simulation.fail_link(a, b, at_time=(step - 0.5) * PERIOD)
        simulation.recover_link(a, b, at_time=step * PERIOD)
    return simulation


POINTS = {
    "contra": lambda: packet_point(contra),
    "ecmp": lambda: packet_point(lambda topology: EcmpSystem()),
    "hula": lambda: packet_point(lambda topology: HulaSystem(probe_period=PERIOD)),
    "spain": lambda: packet_point(lambda topology: SpainSystem()),
    "fluid-ecmp": fluid_point,
}


def cyclic_garbage_after(make_point, periods):
    """Objects ``gc.collect()`` frees after a run, the run's owner kept alive."""
    point = make_point()
    gc.collect()
    point.run(periods * PERIOD)
    garbage = gc.collect()
    assert point.sim.now == periods * PERIOD
    return garbage


class TestAcyclicLoop:
    @pytest.mark.parametrize("name", sorted(POINTS))
    def test_no_cyclic_garbage_grows_with_the_run(self, name):
        # The failure, the recovery and most of the traffic happen only in
        # the longer run: a cycle made per packet, per probe, per flow or per
        # link event shows up as growth.
        short = cyclic_garbage_after(POINTS[name], 1)
        long = cyclic_garbage_after(POINTS[name], 4)
        assert long <= short
