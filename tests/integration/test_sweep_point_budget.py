"""What a grid point may pay for, as exact counts, so it cannot creep back.

A point of a sweep owes its simulation.  What it shares with the rest of the
grid — the fabric's next-hop table, its own spec hash, the drain's
bookkeeping — is derived once and handed to it:

* the next-hop table's computation runs once per (topology, ``all_hops``)
  however many points of a :class:`RunContext` route over it;
* ``canonical_spec`` runs once per spec across drain -> resume -> collect ->
  gc (``spec_hash`` keeps its digest on the frozen instance);
* a 60-point drain renames at most 3 files into place (a lease renewal
  would be the heartbeat thread's, and the drain is far shorter than one
  interval) and starts exactly 1 thread;
* an ECMP point never enters ``packet_flow_hash``: hosts stamp the hash and
  the baselines read it in place.

Counts come from the ``call_budget`` fixture (``cProfile`` on the calling
thread, the same counts the perf ledger's ``*.calls`` rows report).
"""

import hashlib
import json
from dataclasses import replace

import pytest

from repro.experiments.config import default_config
from repro.experiments.coordinator import CoordinatedBackend
from repro.experiments.fct import fattree_fct_specs
from repro.experiments.results import (
    ResultsStore,
    collect_results,
    encode_result,
    gc_results,
)
from repro.experiments.runner import (
    RunContext,
    SerialBackend,
    run_grid,
    spec_hash,
)

# The sanitizer wraps every delivery (more frames); the budget is the default
# path's.
pytestmark = pytest.mark.no_sanitize

#: SHA-256 over the newline-joined spec hashes of ``near_free_specs(4)``,
#: computed on fresh spec instances under spec-hash version 4: the memo must not
#: re-key a single point.
PARENT_KEYS_SHA256 = "b690b394ae78422b1d9a6a08ffdf42ba4e9196371c43b0fc9dfb636bfde9f40b"


def near_free_specs(seeds, systems=("ecmp",)):
    """``3 * seeds`` k=4 points of about 5 ms each: the ledger's ``sweep-drain`` grid."""
    base = replace(default_config(), workload_duration=0.5)
    return [spec for seed in range(1, seeds + 1)
            for spec in fattree_fct_specs(replace(base, seed=seed), systems=systems,
                                          workloads=("web_search",),
                                          loads=(0.2, 0.4, 0.6))]


def resume_collect_gc(specs, directory):
    """What follows a drain in the ledger: a second owner's resume, a merge, a gc."""
    resumer = CoordinatedBackend(directory, owner="w1")
    resumed = run_grid(specs, backend=resumer)
    collected = collect_results(specs, ResultsStore(directory))
    kept = gc_results(specs, directory)
    return resumer, resumed, collected, kept


def test_a_sweep_of_60_points_pays_for_60_simulations(tmp_path, call_budget):
    specs = near_free_specs(20)
    context = RunContext()
    context.topology(specs[0].topology)         # built outside the count
    drainer = CoordinatedBackend(tmp_path, inner=SerialBackend(context), owner="w0")
    drain = call_budget(drainer.drain, specs)
    assert drainer.executed == 60
    assert drain("run", "simulator/network.py") == 60
    assert drain("_next_hop_table", "topology/graph.py") == 1
    assert drain("shortest_path_lengths", "topology/graph.py") == 0
    assert drain("canonical_spec", "experiments/runner.py") == 60
    assert drain("posix.replace") <= 3
    assert drain("start", "threading.py") == 1
    assert drain("packet_flow_hash", "simulator/packet.py") == 0
    # What is left of the topology layer per point is a handful of reads of
    # the index (hosts, switches, links, the table lookup).
    assert drain.under("repro/topology/") <= 15 * 60

    out = []
    rest = call_budget(lambda: out.extend(resume_collect_gc(specs, tmp_path)))
    resumer, resumed, collected, kept = out
    assert (resumer.executed, kept["kept"], kept["missing"]) == (0, 60, 0)
    assert resumed == collected
    assert rest("spec_hash", "experiments/runner.py") == 3 * 60
    assert rest("canonical_spec", "experiments/runner.py") == 0
    assert rest("start", "threading.py") == 0


def test_one_table_per_topology_and_hop_rule(call_budget):
    """ECMP and single-shortest-path points on two fabrics: the search runs
    once per fabric, the single-hop table is a slice of the all-hops one."""
    base = replace(default_config(), workload_duration=0.5)
    specs = [spec for k in (4, 6) for seed in (1, 2)
             for spec in fattree_fct_specs(replace(base, seed=seed, fattree_k=k),
                                           systems=("ecmp", "shortest-path"),
                                           workloads=("web_search",), loads=(0.2,))]
    assert len({spec.topology for spec in specs}) == 2
    context = RunContext()
    counts = call_budget(run_grid, specs, backend=SerialBackend(context))
    assert counts("run", "simulator/network.py") == len(specs) == 8
    assert counts("_next_hop_table", "topology/graph.py") == 2
    assert counts("next_hop_table", "topology/graph.py") == 8 + 2
    # A second pass over the same context builds nothing at all.
    again = call_budget(run_grid, specs, backend=SerialBackend(context))
    assert again("_next_hop_table", "topology/graph.py") == 0
    assert again("next_hop_table", "topology/graph.py") == 8


def test_a_coordinated_mini_grid_equals_serial_and_keeps_the_parents_keys(tmp_path):
    specs = near_free_specs(4)
    keys = [spec_hash(spec) for spec in specs]
    assert hashlib.sha256("\n".join(keys).encode()).hexdigest() == PARENT_KEYS_SHA256
    CoordinatedBackend(tmp_path, inner=SerialBackend(RunContext()),
                       owner="w0").drain(specs)
    _, resumed, collected, _ = resume_collect_gc(specs, tmp_path)
    serial = run_grid(specs, backend=SerialBackend(RunContext()))
    as_bytes = lambda results: [json.dumps(encode_result(result), sort_keys=True)
                                for result in results]
    assert as_bytes(collected) == as_bytes(resumed) == as_bytes(serial)
    stored = [json.loads(line) for line in
              ResultsStore(tmp_path).path.read_text().splitlines()]
    assert [record["spec_hash"] for record in stored] == keys
    assert [json.dumps(record["result"], sort_keys=True) for record in stored] == \
        as_bytes(serial)
