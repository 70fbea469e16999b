"""The import contract (ARCHITECTURE.md §3): each plane loads its heavy
dependencies when it first runs, not when a module that mentions them is
imported.

A process that only compiles never loads numpy, the process pool or the
socket stack, and neither does one that simulates: the workloads draw from a
pure-Python generator, so nothing under ``src/repro`` imports numpy at all.
Nor does a process that only compiles, hashes specs or reads a store load
the runtime planes: a package holds its docstring alone, and the runner
loads the planes when a ``RunContext`` is built.  Each case runs in a fresh
interpreter, because this one has long since imported everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parents[1]

#: What a serial process never loads, whether it compiles or simulates.
HEAVY = ("numpy", "concurrent.futures", "multiprocessing", "socket", "uuid")

#: The runtime planes: what only a process that simulates loads.
PLANES = ("repro.simulator.network", "repro.simulator.stats", "repro.simulator.fluid",
          "repro.protocol", "repro.baselines", "repro.workloads")

#: Loaded only where a run is sanitized.
SANITIZER = "repro.simulator.sanitizer"


def loaded_after(program: str, watched=HEAVY):
    """The ``watched`` modules in ``sys.modules`` once ``program`` ran."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [p for p in (str(SRC), env.get("PYTHONPATH", "")) if p])
    # The parent's sanitized tier must not arm the child's runs.
    env.pop("CONTRA_SANITIZE", None)
    probe = (f"{program}\nimport json, sys\n"
             f"print(json.dumps([m for m in {tuple(watched)!r} if m in sys.modules]))")
    completed = subprocess.run([sys.executable, "-c", probe], env=env,
                               capture_output=True, text=True, timeout=120)
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("module", [
    "repro",
    "repro.cli",
    "repro.experiments.runner",
    "repro.experiments.scalability",
    "repro.experiments.coordinator",
    "repro.experiments.results",
])
def test_importing_an_entry_point_loads_nothing_heavy_and_no_plane(module):
    assert loaded_after(f"import {module}", HEAVY + PLANES) == []


def test_a_compile_loads_no_numpy_and_no_plane():
    program = ("from repro.cli import main\n"
               "assert main(['compile', 'P1', '--topology', 'fattree', "
               "'--k', '4']) == 0")
    assert loaded_after(program, ("numpy",) + PLANES) == []


#: Every package under ``src/repro``, dotted.
PACKAGES = sorted(".".join(path.relative_to(SRC).parent.parts)
                  for path in (SRC / "repro").rglob("__init__.py"))


@pytest.mark.parametrize("package", PACKAGES)
def test_importing_a_package_loads_only_the_package_and_its_parents(package):
    """A package holds its docstring alone: importing it loads no module of
    its own, and each name is imported from the module that defines it."""
    parts = package.split(".")
    parents = {".".join(parts[:end]) for end in range(1, len(parts) + 1)}
    watched = [m for m in PACKAGES if m not in parents] + [
        ".".join(path.relative_to(SRC).with_suffix("").parts)
        for path in (SRC / "repro").rglob("*.py") if path.name != "__init__.py"]
    assert loaded_after(f"import {package}", watched) == []


def test_a_run_context_binds_every_plane_and_not_the_sanitizer():
    program = ("from repro.experiments.runner import RunContext\n"
               "RunContext()")
    assert loaded_after(program, PLANES + (SANITIZER,)) == list(PLANES)


def test_a_run_context_that_simulates_loads_nothing_heavy():
    """A packet fat-tree point, a fluid point, an incast point and a
    permutation point — every kind of draw the workloads make — load none
    of :data:`HEAVY`."""
    program = """
from dataclasses import replace
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import RunContext, ScenarioSpec, TopologySpec
config = ExperimentConfig(workload_duration=2.0, run_duration=12.0,
                          loads=(0.6,), websearch_scale=0.05)
base = ScenarioSpec(name="p", system="contra", config=config, load=0.6,
                    topology=TopologySpec("fattree", k=4, capacity=100.0),
                    workload="cache", stop_after_completion=True)
context = RunContext()
for spec in (base, replace(base, system="ecmp", flow_model="fluid"),
             replace(base, system="ecmp", traffic="incast", incast_fanin=4),
             replace(base, traffic="permutation")):
    assert context.run(spec).summary["flows"] > 0, spec
"""
    assert loaded_after(program, HEAVY + (SANITIZER,)) == []
