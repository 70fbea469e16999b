"""A finished run frees itself: ``RunContext.run`` closes what it built.

A wired ``Network`` is one reference cycle until ``Network.close`` cuts its
back-edges (engine heap, link receivers, node -> network, logic -> switch /
system, the sanitizer's shadows), and a ``FluidSimulation``'s pending
events hold its bound methods.  Closed, both are freed by reference
counting the moment the last reader lets go, so a worker never builds the
next grid point on top of a dead one.  Checked here with the cyclic
collector off, in every engine mode, for points that finish and points that
raise; and a closed network still answers every post-run reader as it did
before the close.
"""

import dataclasses
import gc

import pytest

from repro.baselines.ecmp import ShortestPathSystem
from repro.experiments.config import ExperimentConfig
from repro.experiments.fct import fattree_fct_specs
from repro.experiments.runner import LinkEvent, RunContext, ScenarioSpec, TopologySpec
from repro.exceptions import ExperimentError, SimulationError
from repro.simulator.engine import Simulator
from repro.simulator.flow import Flow
from repro.simulator.fluid import FluidSimulation, build_path_model
from repro.simulator.host import Host
from repro.simulator.link import SimLink
from repro.simulator.network import Network
from repro.simulator.switchnode import SwitchNode
from repro.topology.leafspine import leafspine

_CONFIG = ExperimentConfig(workload_duration=1.0, run_duration=6.0,
                           websearch_scale=0.05)
_FATTREE = TopologySpec("fattree", k=4, capacity=_CONFIG.host_capacity,
                        oversubscription=_CONFIG.oversubscription)
_FAIL_RECOVER = (LinkEvent(2.0, "a0_0", "c0", "fail"),
                 LinkEvent(4.0, "a0_0", "c0", "recover"))

#: One packet point per routing system, and one fluid point.
POINTS = [ScenarioSpec(name=f"close:{system}", system=system, topology=_FATTREE,
                       config=_CONFIG, load=0.3, seed=1, events=_FAIL_RECOVER)
          for system in ("ecmp", "shortest-path", "spain", "hula", "contra")]
POINTS.append(ScenarioSpec(name="close:fluid", system="contra", topology=_FATTREE,
                           config=_CONFIG, load=0.3, seed=1, flow_model="fluid"))

#: What must not outlive a run.
RUN_TYPES = (Network, SwitchNode, Host, SimLink, Simulator, FluidSimulation)


def _alive(exclude):
    return [obj for obj in gc.get_objects()
            if isinstance(obj, RUN_TYPES) and id(obj) not in exclude]


def _left_by(context, spec, run):
    """The run types ``run()`` leaves alive with the collector off (the
    point's policy compiled first, so only the run itself is measured)."""
    context.compiled_policy(spec.policy, spec.topology)
    gc.collect()
    # Whatever an earlier test keeps alive stays so (its ids stay taken).
    before = _alive(())
    gc.disable()
    try:
        run()
        left = _alive({id(obj) for obj in before})
    finally:
        gc.enable()
    return [type(obj).__name__ for obj in left]


class TestNothingOutlivesARun:
    @pytest.mark.parametrize("spec", POINTS, ids=lambda spec: spec.name)
    def test_with_the_collector_off(self, spec, engine_mode):
        context = RunContext(sanitize=engine_mode)

        def run():
            assert context.run(spec).summary["completed_flows"] > 0

        assert _left_by(context, spec, run) == []


def _raise_in_hook(network):
    raise ExperimentError("the hook refuses this network")


def _raise_in_run(self, duration, stop_after_completion=False):
    raise RuntimeError("the run breaks down")


class TestNothingOutlivesARaise:
    """A point that raises after its plane is built closes that plane too,
    and the exception reaches the caller unchanged."""

    def _left_after_raise(self, context, spec, error):
        def run():
            with pytest.raises(error):
                context.run(spec)

        return _left_by(context, spec, run)

    def test_a_network_hook_that_raises(self, engine_mode):
        context = RunContext(sanitize=engine_mode)
        context.network_hook = _raise_in_hook
        assert self._left_after_raise(context, POINTS[4], ExperimentError) == []

    def test_a_packet_run_that_raises(self, engine_mode, monkeypatch):
        monkeypatch.setattr(Network, "run", _raise_in_run)
        assert self._left_after_raise(RunContext(sanitize=engine_mode), POINTS[4],
                                      RuntimeError) == []

    def test_a_fluid_run_that_raises(self, engine_mode, monkeypatch):
        monkeypatch.setattr(FluidSimulation, "run", _raise_in_run)
        # The scheduled link events are what hold the simulation's methods.
        spec = dataclasses.replace(POINTS[-1], events=_FAIL_RECOVER)
        assert self._left_after_raise(RunContext(sanitize=engine_mode), spec,
                                      RuntimeError) == []


def _fail_recover_contra() -> ScenarioSpec:
    (spec,) = fattree_fct_specs(_CONFIG, systems=("contra",), workloads=("cache",),
                                loads=(0.3,))
    return dataclasses.replace(spec, events=_FAIL_RECOVER)


def _readers(network) -> dict:
    """What a post-run reader looks at, as plain values."""
    edges = network.topology.switches_with_role("edge")
    return {
        "best_next_hop": {(name, edge): node.routing.best_next_hop(edge)
                          for name, node in sorted(network.switches.items())
                          for edge in edges if edge != name},
        "fwdt": {name: node.routing.forwarding_snapshot()
                 for name, node in sorted(network.switches.items())},
        "links": {key: (link.packets_sent, link.bytes_sent, link.packets_dropped,
                        link._util, link._last_util_update, link._busy_until,
                        link.failed)
                  for key, link in sorted(network.links.items())},
        "summary": network.stats.summary(),
        "events": network.sim.events_processed,
    }


class TestAClosedNetworkStillReads:
    def test_readers_answer_as_before_the_close(self, monkeypatch):
        seen = {}
        close = Network.close

        def reading_close(network):
            seen["before"] = _readers(network)
            close(network)

        monkeypatch.setattr(Network, "close", reading_close)
        context = RunContext()
        networks = []
        context.network_hook = networks.append
        context.run(_fail_recover_contra())
        (network,) = networks
        assert not hasattr(next(iter(network.switches.values())), "network")
        assert network.stats.failure_detections > 0
        assert any(hop is not None for hop in seen["before"]["best_next_hop"].values())
        assert _readers(network) == seen["before"]


def _small_network() -> Network:
    network = Network(leafspine(2, 2, hosts_per_leaf=1), ShortestPathSystem())
    network.schedule_flows([Flow("h0_0", "h1_0", 20, 0.1, 0)])
    network.run(30.0)
    return network


def _small_fluid() -> FluidSimulation:
    topology = leafspine(2, 2, hosts_per_leaf=1)
    simulation = FluidSimulation(topology, build_path_model("ecmp", topology))
    simulation.add_flows([Flow("h0_0", "h1_0", 20, 0.1, 0)])
    simulation.run(30.0)
    return simulation


class TestAClosedRunRefusesWork:
    @pytest.mark.parametrize("call", [
        lambda network: network.run(40.0),
        lambda network: network.schedule_flows([Flow("h0_0", "h1_0", 5, 31.0, 1)]),
        lambda network: network.fail_link("leaf0", "spine0", at_time=35.0),
        lambda network: network.recover_link("leaf0", "spine0", at_time=35.0),
    ], ids=["run", "schedule_flows", "fail_link", "recover_link"])
    def test_network(self, call):
        network = _small_network()
        network.close()
        network.close()                 # a second close does nothing
        with pytest.raises(SimulationError, match="closed network"):
            call(network)
        assert network.sim.pending_events == 0

    @pytest.mark.parametrize("call", [
        lambda simulation: simulation.run(40.0),
        lambda simulation: simulation.add_flows([Flow("h0_0", "h1_0", 5, 31.0, 1)]),
        lambda simulation: simulation.fail_link("leaf0", "spine0", at_time=35.0),
        lambda simulation: simulation.recover_link("leaf0", "spine0", at_time=35.0),
    ], ids=["run", "add_flows", "fail_link", "recover_link"])
    def test_fluid_simulation(self, call):
        simulation = _small_fluid()
        summary = simulation.stats.summary()
        simulation.close()
        simulation.close()
        with pytest.raises(SimulationError, match="closed fluid simulation"):
            call(simulation)
        assert simulation.stats.summary() == summary
        assert summary["completed_flows"] == 1
