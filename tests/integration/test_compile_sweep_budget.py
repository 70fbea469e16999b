"""A compile sweep builds each fabric once, and sharing it changes no point.

``run_scalability_sweep`` builds every ``(family, size, seed)`` fabric once
and compiles the requested policies on it in order.  That is only a saving,
not a change to Fig. 9, if a compile leaves the fabric as it found it — the
switch-graph index the generator's ``validate()`` built, and every table
derived on it — so the next policy's timed compile does the same work it
would have done on a fabric of its own.

Counts come from the ``call_budget`` fixture (``cProfile`` on the calling
thread, the same counts the perf ledger's ``*.calls`` rows report).
"""

import hashlib
from dataclasses import replace

import pytest

from repro.core.compiler import compile_policy
from repro.core.product_graph import PGNode
from repro.experiments.scalability import run_scalability_sweep, scalability_policies
from repro.topology import fattree_for_switch_count, random_network
from repro.topology.graph import Link, LinkParams

#: SHA-256 over the points of ``SMALL_SWEEP`` minus ``compile_time_s``,
#: computed at the last commit that built a fabric per policy (5e19b16).
PARENT_POINTS_SHA256 = "478c1a6492ce15f2c173cf80376b1cfd4b1569b5ccf855449e7641efee17b079"
SMALL_SWEEP = dict(fattree_sizes=(20, 45), random_sizes=(50, 100), seed=1)


def without_times(points):
    return [replace(point, compile_time_s=0.0) for point in points]


def points_digest(points):
    rows = [(p.family, p.size, p.actual_switches, p.policy, p.max_state_kb, p.pg_nodes,
             p.pg_edges, p.num_probe_ids) for p in points]
    return hashlib.sha256(repr(rows).encode()).hexdigest()


@pytest.mark.parametrize("build", (lambda: fattree_for_switch_count(45),
                                   lambda: random_network(100, seed=1, degree=4)),
                         ids=("fattree45", "random100"))
def test_a_compile_leaves_the_shared_fabric_as_it_found_it(build):
    topology = build()
    index = topology._switch_index
    assert index is not None                # built by the generator's validate()
    table = topology.next_hop_table(True)
    derived = dict(index.derived)
    for policy in scalability_policies(topology).values():
        compile_policy(policy, topology)
        assert topology._switch_index is index
        assert index.derived == derived
        assert topology.next_hop_table(True) is table


def test_the_compile_scale_grid_builds_seven_fabrics(call_budget):
    """The ledger's ``compile-scale`` iteration: 19 compiles on 7 fabrics."""

    def grid():
        points = run_scalability_sweep(fattree_sizes=(20, 125, 245),
                                       random_sizes=(100, 200, 300), seed=1, processes=1)
        points += run_scalability_sweep(families=("fattree",), fattree_sizes=(500,),
                                        policies=("WP",), processes=1)
        assert len(points) == 19

    counts = call_budget(grid)
    generators = counts("fattree_for_switch_count", "topology/fattree.py") \
        + counts("random_network", "topology/random_graphs.py")
    assert generators == 7
    assert counts("compile_policy", "core/compiler.py") == 19
    # A pair of directed links is one parameter row, checked once; no
    # ``Link`` is made (7 090 pairs made 14 180 before).  Compile reads the
    # product graph's integer rows, so no ``PGNode`` is made either (7 912).
    assert counts.calls_to(LinkParams.__new__) == counts("_check_link") \
        == counts("add_link", "topology/graph.py") == 7_090
    assert counts.calls_to(Link.__init__) == counts.calls_to(Link.reversed) == 0
    assert counts.calls_to(PGNode.__new__) == 0


def test_points_equal_serial_and_pooled_in_the_order_they_always_had():
    serial = run_scalability_sweep(processes=1, **SMALL_SWEEP)
    pooled = run_scalability_sweep(processes=2, **SMALL_SWEEP)
    assert without_times(serial) == without_times(pooled)
    assert [(p.family, p.size, p.policy) for p in serial] == [
        (family, size, policy)
        for family, sizes in (("fattree", (20, 45)), ("random", (50, 100)))
        for size in sizes for policy in ("MU", "WP", "CA")]
    assert points_digest(serial) == PARENT_POINTS_SHA256


def test_a_policy_subset_compiles_in_the_order_asked():
    points = run_scalability_sweep(families=("fattree",), fattree_sizes=(20,),
                                   policies=("CA", "MU", "CA"))
    assert [p.policy for p in points] == ["CA", "MU", "CA"]
    assert without_times(points[:1]) == without_times(points[2:])
    assert run_scalability_sweep(policies=()) == []
