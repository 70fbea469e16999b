"""Contra: a programmable system for performance-aware routing (NSDI 2020).

A Python reproduction of the full system: the policy language and compiler
(:mod:`repro.core`), the topology and discrete-event simulation substrates
(:mod:`repro.topology`, :mod:`repro.simulator`), the Contra data-plane runtime
(:mod:`repro.protocol`), the baseline systems (:mod:`repro.baselines`), the
workload generators (:mod:`repro.workloads`) and the evaluation experiments
(:mod:`repro.experiments`).

Quickstart::

    from repro.core.compiler import compile_policy
    from repro.core.parser import parse_policy
    from repro.protocol.contra_switch import ContraSystem
    from repro.topology.leafspine import leafspine

    policy = parse_policy("minimize( if leaf0 .* then path.util else path.lat )")
    topo = leafspine(leaves=2, spines=2, hosts_per_leaf=2)
    compiled = compile_policy(policy, topo)
    system = ContraSystem(compiled)

Every name is imported from the module that defines it.  A package holds
its docstring and nothing else, so importing one loads none of its modules
and a process loads only the planes it runs (ARCHITECTURE.md §3, "Import
contract").
"""

__version__ = "0.1.0"
