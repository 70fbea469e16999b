"""A fluid flow's fixed cost, as exact counts, so it cannot creep back.

A fluid flow should cost its epochs — path resolution, the rate solve, the
completion heap — not its bookkeeping.  Counted from outside, in the manner of
``test_probe_hop_budget.py``, on one sketching ``fluid-million`` point cut to
2 000 flows (k=8 fat-tree; one agg-core link fails a third of the way through
the arrivals and recovers at two thirds, so flows in flight are re-placed):

* ``blake2b`` digests taken by the cardinality sketch: one per *placement*
  (a flow joining a path group, first arrival or reroute), not one per switch
  on the path — 4.8 per placement when every switch hashed the flow itself;
* ``numpy.array`` constructions while the eager generator runs: none that
  scale with the flow count (two per flow when a size was ``sample(rng, 1)``);
* Python-level calls into ``src/repro`` per flow (``cProfile``, the same count
  the perf ledger's ``*.calls`` rows report) from workload generation to the
  end of ``FluidSimulation.run``.  The path model's next-hop table is built
  outside the count (a per-point cost, not a per-flow one) and so is
  ``summary()`` (its sketch estimate is 1 024 frames a switch).

Counts, not timings: they repeat exactly, so the bounds are tight.
"""

import cProfile
import os
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import repro
from repro.experiments.config import quick_config
from repro.experiments.fluid_scale import fluid_million_specs
from repro.experiments.runner import LinkEvent, RunContext, default_failed_link
from repro.simulator import accumulators
from repro.simulator.fluid import FluidSimulation, FluidStats, build_path_model

# The sanitizer wraps the engine's dispatch (more frames); the budget is the
# default path's.
pytestmark = pytest.mark.no_sanitize

PACKAGE_ROOT = os.path.dirname(repro.__file__) + os.sep


def sketching_point(system: str, flow_target: int = 2_000):
    spec, = fluid_million_specs(replace(quick_config(), seed=1),
                                systems=(system,), flow_target=flow_target)
    assert spec.flow_sketch
    # The family's own churn period is longer than 2 000 flows' arrivals.
    config = spec.config
    a, b = default_failed_link(spec.topology.build())
    events = tuple(
        LinkEvent(config.warmup + config.workload_duration * share, a, b, action)
        for share, action in ((1 / 3, "fail"), (2 / 3, "recover")))
    return replace(spec, events=events)


class Counter:
    """Wraps a callable and counts its calls."""

    def __init__(self, wrapped):
        self.wrapped = wrapped
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.wrapped(*args, **kwargs)


class CountedRun:
    """One point, generation through ``FluidSimulation.run``, with the
    placements, sketch digests and ``src/repro`` calls it took."""

    def __init__(self, spec, monkeypatch):
        context = RunContext()
        topology = context.topology(spec.topology)
        model = build_path_model(spec.system, topology, policy=spec.policy)
        blake2b = Counter(accumulators.hashlib.blake2b)
        monkeypatch.setattr(accumulators, "hashlib",
                            SimpleNamespace(blake2b=blake2b))
        placements = Counter(FluidSimulation._join)
        # (Through a function: an instance set on the class would not bind.)
        monkeypatch.setattr(FluidSimulation, "_join",
                            lambda *args: placements(*args))

        profile = cProfile.Profile()
        profile.enable()
        flows = context._fluid_flows(spec, topology)
        simulation = FluidSimulation(
            topology, model,
            stats=FluidStats(fct_percentiles=spec.fct_percentiles,
                             flow_sketch=spec.flow_sketch),
            host_window=spec.config.host_window)
        simulation.add_flows(flows)
        for event in context._link_events(spec, topology):
            schedule = simulation.fail_link if event.action == "fail" \
                else simulation.recover_link
            schedule(event.a, event.b, at_time=event.time)
        self.stats = simulation.run(spec.config.run_duration,
                                    stop_after_completion=True)
        profile.disable()

        self.calls = sum(entry.callcount for entry in profile.getstats()
                         if not isinstance(entry.code, str)
                         and entry.code.co_filename.startswith(PACKAGE_ROOT))
        self.flows = self.stats.flow_count
        self.placements = placements.calls
        self.digests = blake2b.calls


class TestSketchDigests:
    @pytest.mark.parametrize("system", ["contra", "ecmp"])
    def test_one_digest_per_placement(self, system, monkeypatch):
        run = CountedRun(sketching_point(system), monkeypatch)
        assert run.flows > 1_900
        # The churned link reroutes flows in flight: placements outnumber flows.
        assert run.placements > run.flows
        assert run.digests == run.placements


class TestGenerationArrays:
    def test_array_constructions_do_not_follow_the_flow_count(self, monkeypatch):
        context = RunContext()
        array = Counter(np.array)
        monkeypatch.setattr(np, "array", array)
        built = []
        for flow_target in (500, 2_000):
            spec = sketching_point("contra", flow_target)
            before = array.calls
            flows = context._fluid_flows(spec, context.topology(spec.topology))
            built.append((len(flows), array.calls - before))
        (few, few_arrays), (many, many_arrays) = built
        assert many > 3 * few > 1_200
        assert many_arrays == few_arrays <= 4


class TestCallsPerFlow:
    # 30.4 and 36.5 here (the ECMP point re-solves more: 3.5 _apply_total and
    # 2.5 _push_candidate a flow against 2.1 and 1.2).  44.7 and 50.8 with a
    # record_switch_flow + HyperLogLog.add pair per switch on the path, the
    # generator's per-flow receiver list, sample() and its two knot lists,
    # the Flow id factory and _host_edges.
    @pytest.mark.parametrize("system, budget", [("contra", 32.0), ("ecmp", 38.0)])
    def test_a_flow_stays_under_its_call_budget(self, system, budget, monkeypatch):
        run = CountedRun(sketching_point(system), monkeypatch)
        assert run.flows == 2_009
        assert run.calls / run.flows <= budget
