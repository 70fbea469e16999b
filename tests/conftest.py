"""Shared fixtures for the test suite."""

from __future__ import annotations

import cProfile
import hashlib
import os
import re

import pytest

from repro.core.builder import minimize, path, rank_tuple
from repro.core.compiler import compile_policy
from repro.core.policies import MU
from repro.topology import abilene, fattree, leafspine
from repro.topology.graph import Topology

try:
    import numpy  # noqa: F401
except ImportError:
    # Workload generation draws from numpy's PCG64 (`np.random.default_rng`),
    # which has no pure-Python equivalent producing the same streams, so the
    # suites that generate traffic (directly or through the experiment
    # runner) are inherently numpy-bound.  The no-numpy CI job still runs
    # everything else — engine, links, protocol, compiler, topology — which
    # is exactly the surface that must keep working without numpy.
    # ``run_scalability_sweep`` maps its fabrics through the runner's
    # ``grid_map``, so the sweep's own tests are numpy-bound too; the compile
    # pins (unit/test_compile_equivalence.py) are not.
    collect_ignore = [
        "integration/test_compile_sweep_budget.py",
        "integration/test_coordinator.py",
        "integration/test_data_hop_identity.py",
        "integration/test_end_to_end.py",
        "integration/test_experiments.py",
        "integration/test_fluid_flow_budget.py",
        "integration/test_fluid_model.py",
        "integration/test_verified_compile.py",
        "integration/test_gc_results.py",
        "integration/test_grid_runner.py",
        "integration/test_probe_batching.py",
        "integration/test_scenario_diversity.py",
        "integration/test_sharded_sweeps.py",
        "integration/test_sweep_point_budget.py",
        "integration/test_transport_scenarios.py",
        "unit/test_baselines.py",
        "unit/test_policies_and_cli.py",
        "unit/test_race.py",
        "unit/test_topology_spec.py",
        "unit/test_workloads.py",
    ]


@pytest.fixture(autouse=True)
def sanitized_sim(request, monkeypatch):
    """Flip every Simulator in the test to sanitized mode under CONTRA_SANITIZE=1.

    The sanitized-tier CI job re-runs the whole unit suite with the runtime
    sanitizer plane armed, so any invariant the production code trips shows up
    as a test failure.  Tests that assert on exact ``Simulator`` internals
    (heap layout, subclass identity) opt out with ``@pytest.mark.no_sanitize``.
    Without the env var this fixture is a no-op, keeping the default tier-1
    profile byte-for-byte on the unsanitized path.
    """
    if os.environ.get("CONTRA_SANITIZE", "0") in ("", "0") \
            or request.node.get_closest_marker("no_sanitize"):
        yield
        return
    from repro.simulator import sanitizer

    monkeypatch.setattr(sanitizer, "SANITIZE_DEFAULT", True)
    yield


@pytest.fixture(scope="session")
def flow_identity():
    """SHA-256 over every field of every flow *and its Python type*: the
    form the eager generator's draw-order constants were computed in."""

    def identity(flows) -> str:
        digest = hashlib.sha256()
        for flow in flows:
            values = (flow.src_host, flow.dst_host, flow.size_packets,
                      flow.start_time, flow.flow_id)
            fields = values[:3] + (flow.start_time.hex(), flow.flow_id)
            types = tuple(type(value).__name__ for value in values)
            digest.update(repr((fields, types)).encode())
        return digest.hexdigest()

    return identity


class CallCounts:
    """Calls per function of one profiled run: ``counts("name", "file suffix")``.

    A Python function is named by its ``co_name`` and, optionally, the tail
    of its file's path; a C function by its qualified name as ``cProfile``
    prints it (``posix.replace`` for ``os.replace``).  The count of a name no
    call reached is 0, and :meth:`under` sums every function of a directory.
    :meth:`calls_to` counts one function object, for generated methods
    (a dataclass ``__init__``, a named tuple's ``__new__``) whose name and
    file many functions share.
    """

    _BUILTIN = re.compile(r"<(?:built-in )?method '?([\w.]+)'?(?: of .*)?>$")

    def __init__(self, stats) -> None:
        self.rows = []                  # (file, function, calls)
        self.by_code = {}               # code object -> calls
        for entry in stats:
            code = entry.code
            if isinstance(code, str):
                match = self._BUILTIN.match(code)
                self.rows.append(("", match.group(1) if match else code,
                                  entry.callcount))
            else:
                self.rows.append((code.co_filename, code.co_name, entry.callcount))
                self.by_code[code] = self.by_code.get(code, 0) + entry.callcount

    def __call__(self, function: str, file: str = "") -> int:
        return sum(calls for path, name, calls in self.rows
                   if name == function and path.endswith(file))

    def calls_to(self, function) -> int:
        return self.by_code.get(function.__code__, 0)

    def under(self, directory: str) -> int:
        return sum(calls for path, _, calls in self.rows if directory in path)


@pytest.fixture(scope="session")
def call_budget():
    """``call_budget(fn, *args, **kwargs)`` runs ``fn`` under ``cProfile`` and
    returns the :class:`CallCounts` of the calling thread — exact counts, so a
    budget stated through them is a tight bound, not a timing.  Stateless, so
    session-scoped: module-scoped fixtures can measure through it too."""

    def measure(fn, *args, **kwargs) -> CallCounts:
        profile = cProfile.Profile()
        profile.enable()
        try:
            fn(*args, **kwargs)
        finally:
            profile.disable()
        return CallCounts(profile.getstats())

    return measure


@pytest.fixture
def square_topology() -> Topology:
    """The 4-switch square used by the paper's Figure 4(b)-(e) scenario.

    S and D are opposite corners, A and B the other two, with an S-D direct
    link as in Figure 4(f): S-A, A-D, S-B, B-D, S-D, A-B.
    """
    topo = Topology("square")
    for switch in ("S", "A", "B", "D"):
        topo.add_switch(switch)
    topo.add_link("S", "A")
    topo.add_link("A", "D")
    topo.add_link("S", "B")
    topo.add_link("B", "D")
    topo.add_link("S", "D")
    topo.add_link("A", "B")
    for switch in ("S", "D"):
        host = f"h{switch}"
        topo.add_host(host, switch)
        topo.add_link(host, switch)
    return topo


@pytest.fixture
def figure6_topology() -> Topology:
    """The diamond topology of the paper's running compilation example (Figure 6a).

    Links: A-B, A-C, B-C, B-D, C-D.
    """
    topo = Topology("figure6")
    for switch in ("A", "B", "C", "D"):
        topo.add_switch(switch)
    topo.add_link("A", "B")
    topo.add_link("A", "C")
    topo.add_link("B", "C")
    topo.add_link("B", "D")
    topo.add_link("C", "D")
    for switch in ("A", "B", "D"):
        host = f"h{switch}"
        topo.add_host(host, switch)
        topo.add_link(host, switch)
    return topo


@pytest.fixture
def small_leafspine() -> Topology:
    return leafspine(2, 2, hosts_per_leaf=2, capacity=50.0)


@pytest.fixture
def small_fattree() -> Topology:
    return fattree(4, capacity=100.0, oversubscription=4.0)


@pytest.fixture
def abilene_topology() -> Topology:
    return abilene(capacity=50.0, hosts_per_switch=1)


@pytest.fixture
def mu_compiled(small_leafspine):
    return compile_policy(MU(), small_leafspine)


@pytest.fixture
def dc_policy():
    """Least-utilized shortest path: the datacenter FCT policy."""
    return minimize(rank_tuple(path.len, path.util), name="dc")
