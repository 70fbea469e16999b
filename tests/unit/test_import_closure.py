"""The import contract (ARCHITECTURE.md §3): each plane loads its heavy
dependencies when it first runs, not when a module that mentions them is
imported.

A process that only compiles never loads numpy, the process pool or the
socket stack, and neither does one that simulates: the workloads draw from a
pure-Python generator, so nothing under ``src/repro`` imports numpy at all.
Each case runs in a fresh interpreter, because this one has long since
imported everything.
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


def loaded_after(program: str):
    """The :data:`HEAVY` modules in ``sys.modules`` once ``program`` ran."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [p for p in (str(SRC), env.get("PYTHONPATH", "")) if p])
    probe = (f"{program}\nimport json, sys\n"
             f"print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))")
    completed = subprocess.run([sys.executable, "-c", probe], env=env,
                               capture_output=True, text=True, timeout=120)
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("module", [
    "repro.cli",
    "repro.experiments.runner",
    "repro.experiments.scalability",
    "repro.experiments.coordinator",
])
def test_importing_an_entry_point_loads_nothing_heavy(module):
    assert loaded_after(f"import {module}") == []


def test_a_compile_loads_no_numpy():
    program = ("from repro.cli import main\n"
               "assert main(['compile', 'P1', '--topology', 'fattree', "
               "'--k', '4']) == 0")
    assert "numpy" not in loaded_after(program)


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
    assert loaded_after(program) == []
