"""Compile output pinned against the pre-index compiler, and a scaling guard.

The switch-graph index under :class:`Topology` and the per-switch node index
under :class:`ProductGraph` are host-time changes only: every compiled
artefact must be the one the name-keyed, scan-per-call code produced.  The
digests below were captured from that code (commit 00c691b) with
:func:`compile_digest`; they cover the probe period, every
:class:`DeviceConfig` field in iteration order (``probe_transition`` item
order included — P4 codegen and ``crosscheck`` iterate it), the product-graph
tags and the generated P4 source.  The fat-tree 125 and random 200 pins are
from the last compiler that searched from every switch for ``max_rtt`` and
hashed virtual nodes in Python (commit 7a25094).
"""

import hashlib

import pytest

from repro.core import policies
from repro.core.compiler import compile_policy
from repro.core.device_config import FLOWLET_SLOTS, LOOP_TABLE_SLOTS
from repro.core.p4gen.codegen import generate_all_p4
from repro.experiments.scalability import scalability_policies
from repro.topology.abilene import abilene
from repro.topology.fattree import fattree, fattree_for_switch_count
from repro.topology.random_graphs import random_network
from repro.topology.graph import Topology


def compile_digest(compiled) -> str:
    """SHA-256 over everything the compiler hands the runtime and P4 backend."""
    parts = [repr(compiled.probe_period)]
    for switch, config in compiled.device_configs.items():
        parts.append(repr((
            switch,
            config.switch,
            tuple(str(regex) for regex in config.regexes),
            [(tag, info.tag, info.states, info.acceptance, info.multicast_neighbors)
             for tag, info in config.tags.items()],
            list(config.probe_transition.items()),
            config.probe_origin_tag,
            config.carried_attrs,
            config.num_probe_ids,
            config.network_size,
            FLOWLET_SLOTS,
            LOOP_TABLE_SLOTS,
        )))
    graph = compiled.product_graph
    parts.append(repr([(str(node), tag) for node, tag in graph.tags.items()]))
    parts.append(repr([(switch, str(node))
                       for switch, node in graph.probe_sending_nodes.items()]))
    for switch, program in generate_all_p4(compiled).items():
        parts.append(repr((switch, program.table_entries, program.source)))
    return hashlib.sha256("\x00".join(parts).encode()).hexdigest()


SCALABILITY_TOPOLOGIES = {
    "fattree20": lambda: fattree_for_switch_count(20),
    "random100": lambda: random_network(100, seed=1, degree=4),
    "fattree125": lambda: fattree_for_switch_count(125),
    "random200": lambda: random_network(200, seed=1, degree=4),
}

PINNED_SCALABILITY = {
    ("fattree20", "MU"):
        "ad9fd140518751fb51bc953568c77a334b6d13e4edffd028b81cbc791e1f8a00",
    ("fattree20", "WP"):
        "dd150acb2470f6017a7cf6dd24cc3178260b364202dfe6d7f73ebfb7d382f5ff",
    ("fattree20", "CA"):
        "0e6f80d8da24cef07a7017fd6c1ffc4f7cc65ee3da0921d9ca0be2b2abd22c3f",
    ("random100", "MU"):
        "0a36b4084fac5aee5859d3a45ec672bd2d869ae721607bee8351e12980e4eabb",
    ("random100", "WP"):
        "cc4e0827e8007c0d37aa1109b1d95678d1678932b919182159c92ea2f84e534e",
    ("random100", "CA"):
        "4354bc828f84fdba6a3cc3c989842f561c762baedfdcc52dbcd122358ef28280",
    ("fattree125", "WP"):
        "a63c0644fba6af81917fdd626e4f6af6e0a4cd06d7105525a1e6c45a50e4e34e",
    ("random200", "WP"):
        "f2e61b24b4ac3a2f705d75a63810e9a1f486b0c1712d73584198e59fcbdcec27",
}

#: The larger WP jobs of the ``compile-scale`` ledger workload, fat-tree 500
#: being Fig. 9's headline: pinned from the last compiler that built a fabric
#: per policy, refined tags when every block was a singleton and ran the
#: subset construction per symbol (commit 5e19b16).
SWEEP_FABRICS = {
    "fattree245": lambda: fattree_for_switch_count(245),
    "random300": lambda: random_network(300, seed=1, degree=4),
    "fattree500": lambda: fattree_for_switch_count(500),
}

PINNED_SWEEP_WP = {
    "fattree245": "f827cd341cde38ca86230c590f7f62db7be8769e19dc4d4c832b6a5a13ff416e",
    "random300": "17a73442d2f680e963e6f771378a585558436e4a678fca356f2b6f6decf72878",
    "fattree500": "37813e5d89a801344a671bbed0c90287b0c62a2e324186fa845af8483a663b78",
}

PINNED_ABILENE = {
    "P1": "87534de9ad3c24558ded546c2fe7a9f6f6fde4566853b26bf704a1c952f16158",
    "P2": "a8a746362e00845493101fd8954c3a659e256c9e8c662d04e050e53f686bc541",
    "P3": "e1693e928d6257e9182949a2f19cf053e19123a6fce42bf5f3d19782b546bf46",
    "P4": "7a510624aba61f24341f0a7b46b2c46df1c719ab8122527eaeb2514b19f00288",
    "P5": "fb53f575a1fd700e12ca0682c61523c9b53d5a540c192305b6d29c3fd6da789c",
    "P6": "94b0294c35094775a1e28ef7b2b273b850c5c27a34a2ce71223400e8c7486380",
    "P7": "71ce720281e79103c4f8e53ace28f437d2d0197385a1d016e6a977192cdfd8c4",
    "P8": "4b654626c9cca9a0a034233c053ad918747648f544aafc059488546bb480d667",
    "P9": "288e398f4988f66936b13b05ba7cdaddb1883d6cec6388e41d87df4742ea5d18",
}


class TestCompileOutputPinned:
    @pytest.mark.parametrize("family,policy_name", sorted(PINNED_SCALABILITY))
    def test_scalability_policies(self, family, policy_name):
        topology = SCALABILITY_TOPOLOGIES[family]()
        policy = scalability_policies(topology)[policy_name]
        assert compile_digest(compile_policy(policy, topology)) == \
            PINNED_SCALABILITY[(family, policy_name)]

    @pytest.mark.parametrize("family", sorted(PINNED_SWEEP_WP))
    def test_sweep_wp_jobs(self, family):
        topology = SWEEP_FABRICS[family]()
        policy = scalability_policies(topology)["WP"]
        assert compile_digest(compile_policy(policy, topology)) == PINNED_SWEEP_WP[family]

    @pytest.mark.parametrize("key", sorted(PINNED_ABILENE))
    def test_figure3_policies_on_abilene(self, key):
        compiled = compile_policy(policies.ALL_POLICIES[key](), abilene())
        assert compile_digest(compiled) == PINNED_ABILENE[key]


class TestCompileScalesLinearly:
    def test_adjacency_lookups_are_linear_in_switches(self, monkeypatch):
        """A count, not a wall-clock bound: it cannot flake.

        The name-keyed ``max_rtt`` asked ``switch_neighbors`` — and through
        it ``neighbors`` — once per Dijkstra heap pop: 6 640 of the 6 796
        ``switch_neighbors`` calls a compile for these 80 switches used to
        make.  The compile path may now ask for an adjacency row a constant
        number of times per switch.
        """
        topology = fattree(8, hosts_per_edge=0)
        switches = len(topology.switches)
        assert switches == 80
        calls = 0

        def counted(method):
            def wrapper(self, node):
                nonlocal calls
                calls += 1
                return method(self, node)
            return wrapper

        monkeypatch.setattr(Topology, "neighbors", counted(Topology.neighbors))
        monkeypatch.setattr(Topology, "switch_neighbors", counted(Topology.switch_neighbors))
        compile_policy(scalability_policies(topology)["WP"], topology)
        assert calls <= 4 * switches

    @pytest.mark.parametrize("build,searches_per_switch", (
        (lambda: fattree(8, hosts_per_edge=0), 0),
        (lambda: random_network(100, seed=1, degree=4), 0),
        (abilene, 1),
    ), ids=("fattree", "random", "abilene"))
    def test_searches_per_compile(self, monkeypatch, build, searches_per_switch):
        """One latency throughout: no shortest-path search at all.  Mixed: one a switch."""
        from repro.topology import graph

        topology = build()
        searches = 0
        dijkstra = graph._dijkstra

        def counted(adjacency, source):
            nonlocal searches
            searches += 1
            return dijkstra(adjacency, source)

        monkeypatch.setattr(graph, "_dijkstra", counted)
        compile_policy(scalability_policies(topology)["WP"], topology)
        assert searches == searches_per_switch * len(topology.switches)
