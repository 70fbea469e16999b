"""Topology substrate: the graph model and generators used by the evaluation.

The one package that imports its modules eagerly: three of its exports
(``fattree``, ``leafspine``, ``abilene``) share their module's name, which a
lazy export map cannot keep bound to the export once the module is imported
directly; and every process, a compile-only one included, loads these
modules anyway.
"""

from repro.topology.abilene import ABILENE_LINKS, ABILENE_NODES, abilene
from repro.topology.fattree import FATTREE_SWITCH_COUNTS, fattree, fattree_for_switch_count
from repro.topology.graph import Link, NodeKind, Topology
from repro.topology.leafspine import leafspine
from repro.topology.random_graphs import random_network, random_regular
from repro.topology.zoo import (
    builtin_topologies,
    builtin_topology,
    from_adjacency,
    from_edge_list,
    from_edge_list_file,
)

__all__ = [
    "Topology",
    "Link",
    "NodeKind",
    "fattree",
    "fattree_for_switch_count",
    "FATTREE_SWITCH_COUNTS",
    "leafspine",
    "abilene",
    "ABILENE_NODES",
    "ABILENE_LINKS",
    "random_regular",
    "random_network",
    "from_edge_list",
    "from_edge_list_file",
    "from_adjacency",
    "builtin_topologies",
    "builtin_topology",
]
