#!/usr/bin/env python3
"""Policy zoo: compile every Figure 3 policy and inspect what the compiler does.

For each of the paper's nine example policies (P1–P9) this script prints the
static analysis verdicts (monotonicity, isotonicity), the decomposition into
probe ids, the size of the product graph on two different topologies, and the
estimated switch state — i.e. the compiler-facing half of the system, with no
simulation involved.

Run with::

    python examples/policy_zoo.py
"""

from __future__ import annotations

from repro.core.compiler import compile_policy
from repro.core.analysis.decomposition import decompose
from repro.core.analysis.isotonicity import check_isotonicity
from repro.core.analysis.monotonicity import check_monotonicity
from repro.core.policies import ALL_POLICIES, link_preference, waypointing, weighted_link
from repro.topology.abilene import abilene
from repro.topology.fattree import fattree


def instantiate(key, topology):
    """Bind policies that reference concrete switches to switches that exist."""
    switches = topology.switches
    mid = switches[len(switches) // 2]
    nbr = topology.switch_neighbors(mid)[0]
    if key == "P5":
        return waypointing((mid,))
    if key == "P6":
        return link_preference(mid, nbr)
    if key == "P7":
        return weighted_link(mid, nbr)
    if key == "P8":
        from repro.core.policies import source_local_preference
        return source_local_preference(switches[0])
    return ALL_POLICIES[key]()


def describe(key, topology):
    policy = instantiate(key, topology)
    monotone = check_monotonicity(policy)
    isotone = check_isotonicity(policy)
    decomposition = decompose(policy)
    compiled = compile_policy(policy, topology)
    return {
        "policy": policy.name,
        "monotone": "yes" if monotone.is_monotone else "NO",
        "isotonic": ("yes" if isotone.is_isotonic
                     else "regex-decomposed" if isotone.needs_regex_decomposition
                     and not isotone.needs_metric_decomposition
                     else "metric-decomposed"),
        "probes": decomposition.num_probes,
        "metrics": ",".join(decomposition.carried_attrs) or "-",
        "pg_nodes": compiled.product_graph.num_nodes,
        "tags": compiled.product_graph.max_tags_per_switch(),
        "state_kb": round(compiled.max_state_kb(), 1),
        "compile_ms": round(compiled.compile_time * 1000, 1),
    }


def print_table(rows):
    headers = ["policy", "monotone", "isotonic", "probes", "metrics",
               "pg_nodes", "tags", "state_kb", "compile_ms"]
    widths = {h: max(len(h), *(len(str(r[h])) for r in rows)) for h in headers}
    print("  ".join(h.ljust(widths[h]) for h in headers))
    print("  ".join("-" * widths[h] for h in headers))
    for row in rows:
        print("  ".join(str(row[h]).ljust(widths[h]) for h in headers))


def main() -> None:
    for name, topology in (("fat-tree k=4", fattree(4, hosts_per_edge=0)),
                           ("Abilene", abilene(hosts_per_switch=0))):
        print(f"\n=== {name} ({len(topology.switches)} switches) ===")
        rows = [describe(key, topology) for key in sorted(ALL_POLICIES)]
        print_table(rows)

    print("\nReading the table: policies with regular expressions (P5-P7) blow up the "
          "product graph and need more tags/state; the non-isotonic policies (P3, P9) "
          "are decomposed into multiple probe ids; everything compiles in milliseconds "
          "at this scale (Figure 9/10 sweeps the same quantities up to 500 switches).")


if __name__ == "__main__":
    main()
