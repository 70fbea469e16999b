"""Contra's forwarding state is hash-consed per system (ARCHITECTURE.md §2).

Every FwdT and BestT value an accepted probe installs — the metric vector,
its rank, the propagation key, the FwdT key, each BestT co-best tuple and
each ``alternates`` group — is one object per distinct value across all the
switches of a run, drawn from the ``ContraSystem``'s own ``StatePool``.
Checked on grid points with traffic, a fail -> recover schedule and loop
breaking, so rows are replaced, refreshed and dropped while they share.
"""

import dataclasses
import math

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.fct import abilene_fct_specs, fattree_fct_specs
from repro.experiments.runner import LinkEvent, RunContext
from repro.protocol.contra_switch import ContraSystem

_DATA = ExperimentConfig(workload_duration=3.0, run_duration=24.0, loads=(0.8,),
                         websearch_scale=0.05, cache_scale=0.25,
                         buffer_packets=24)


def _fattree_fail_recover():
    (spec,) = fattree_fct_specs(_DATA, systems=("contra",), workloads=("cache",))
    return dataclasses.replace(spec, events=(
        LinkEvent(2.5, "a0_0", "c0", "fail"),
        LinkEvent(4.5, "a0_0", "c0", "recover")))


def _abilene_mu():
    (spec,) = [spec for spec in abilene_fct_specs(_DATA, workloads=("cache",))
               if spec.system == "contra"]
    return spec


POINTS = {"fattree4-fail-recover": _fattree_fail_recover, "abilene-MU": _abilene_mu}


@pytest.fixture(scope="module", params=sorted(POINTS))
def finished_network(request):
    context = RunContext()
    networks = []
    context.network_hook = networks.append
    context.run(POINTS[request.param]())
    (network,) = networks
    return network


def _logics(network):
    return [node.routing for _, node in sorted(network.switches.items())]


def _assert_one_object_per_value(objects, value_of):
    by_value = {}
    for obj in objects:
        by_value.setdefault(value_of(obj), set()).add(id(obj))
    shared = {value: ids for value, ids in by_value.items() if len(ids) > 1}
    assert not shared, f"{len(shared)} values held by several objects"


#: What rows share -> (the objects of one switch, the value they stand for).
SHARED = {
    "metrics": (lambda logic: [e.metrics for _, e in logic.fwdt.items()],
                lambda mv: (mv.names, mv.values)),
    "rank": (lambda logic: [e.rank for _, e in logic.fwdt.items()],
             lambda rank: rank.values),
    "prop_key": (lambda logic: [e.prop_key for _, e in logic.fwdt.items()],
                 lambda key: key),
    "fwdt-key": (lambda logic: [key for key, _ in logic.fwdt.items()],
                 lambda key: key),
    "bestt": (lambda logic: list(logic.bestt._best.values()),
              lambda keys: keys),
    "alternates": (lambda logic: [e.alternates for _, e in logic.fwdt.items()],
                   lambda group: group),
}


class TestOneObjectPerValue:
    def test_the_point_installs_and_shares_rows(self, finished_network):
        rows = sum(len(logic.fwdt) for logic in _logics(finished_network))
        vectors = {(entry.metrics.names, entry.metrics.values)
                   for logic in _logics(finished_network)
                   for _, entry in logic.fwdt.items()}
        assert rows > 4 * len(vectors) > 0
        assert finished_network.stats.failure_detections + \
            finished_network.stats.loop_detections > 0

    @pytest.mark.parametrize("name", sorted(SHARED))
    def test_across_all_switches(self, finished_network, name):
        objects_of, value_of = SHARED[name]
        objects = [obj for logic in _logics(finished_network)
                   for obj in objects_of(logic)]
        assert objects
        _assert_one_object_per_value(objects, value_of)


class TestPool:
    def test_pooled_values_are_neither_negative_zero_nor_nan(self, finished_network):
        # A dict treats -0.0 and 0.0 as one key, and NaN as a new key each
        # time: either would let the pool change a result or grow unbounded.
        pool = finished_network.routing_system.pool
        floats = [value for vectors in pool.vectors.values() for values in vectors
                  for value in values]
        floats += [value for key in pool.prop_keys for value in key]
        assert floats
        assert not [value for value in floats
                    if math.isnan(value) or math.copysign(1.0, value) < 0]

    def test_the_pool_is_the_systems_own(self, finished_network):
        system = finished_network.routing_system
        assert system.pool.vectors and system.pool.keys and system.pool.groups
        fresh = ContraSystem(system.compiled)
        assert fresh.pool is not system.pool
        assert not (fresh.pool.vectors or fresh.pool.prop_keys
                    or fresh.pool.keys or fresh.pool.groups)
