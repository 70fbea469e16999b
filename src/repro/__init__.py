"""Contra: a programmable system for performance-aware routing (NSDI 2020).

A Python reproduction of the full system: the policy language and compiler
(:mod:`repro.core`), the topology and discrete-event simulation substrates
(:mod:`repro.topology`, :mod:`repro.simulator`), the Contra data-plane runtime
(:mod:`repro.protocol`), the baseline systems (:mod:`repro.baselines`), the
workload generators (:mod:`repro.workloads`) and the evaluation experiments
(:mod:`repro.experiments`).

Quickstart::

    from repro import compile_policy, parse_policy
    from repro.topology import leafspine
    from repro.protocol import ContraSystem

    policy = parse_policy("minimize( if leaf0 .* then path.util else path.lat )")
    topo = leafspine(leaves=2, spines=2, hosts_per_leaf=2)
    compiled = compile_policy(policy, topo)
    system = ContraSystem(compiled)

Every package of ``repro`` but :mod:`repro.topology` exports its names
lazily (:func:`lazy_exports`): importing a package loads none of its
modules, so a process loads only the planes it runs (ARCHITECTURE.md §3,
"Import contract").
"""

import sys
from importlib import import_module
from typing import Any, Callable, Dict

__version__ = "0.1.0"


def lazy_exports(package: str, exports: Dict[str, str]) -> Callable[[str], Any]:
    """The PEP 562 ``__getattr__`` of ``package``, whose names load on first use.

    ``exports`` maps each public name to the module that defines it, relative
    to ``package``.  The first access imports that module and keeps the value
    in the package, so ``from repro.simulator import Network`` works and
    ``import repro.simulator`` alone loads nothing.  Modules under
    ``src/repro`` import names from their defining modules instead.
    """
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> Any:
        try:
            source = exports[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = getattr(import_module(f"{package}.{source}"), name)
        namespace[name] = value
        return value

    return __getattr__


_EXPORTS = {
    "Policy": "core.ast",
    "Rank": "core.rank",
    "CompiledPolicy": "core.compiler",
    "CompileOptions": "core.compiler",
    "compile_policy": "core.compiler",
    "parse_policy": "core.parser",
    "minimize": "core.builder",
    "ContraError": "exceptions",
    "PolicyError": "exceptions",
    "TopologyError": "exceptions",
    "CompilationError": "exceptions",
    "SimulationError": "exceptions",
    "WorkloadError": "exceptions",
}

__all__ = ["__version__", *_EXPORTS]

__getattr__ = lazy_exports(__name__, _EXPORTS)
