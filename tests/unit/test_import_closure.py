"""The import contract (ARCHITECTURE.md §3): each plane loads its heavy
dependencies when it first runs, not when a module that mentions them is
imported.

A process that only compiles never loads numpy, the process pool or the
socket stack; a :class:`~repro.experiments.runner.RunContext` loads numpy
at set-up, so no timed point carries the import.  Each case runs in a fresh
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

#: What a compile-only process never loads.
HEAVY = ("numpy", "concurrent.futures", "multiprocessing", "socket", "uuid")

try:
    import numpy  # noqa: F401
    HAVE_NUMPY = True
except ImportError:
    HAVE_NUMPY = False


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


@pytest.mark.skipif(not HAVE_NUMPY, reason="numpy is not installed")
def test_a_run_context_loads_numpy_at_set_up():
    program = ("from repro.experiments.runner import RunContext\n"
               "RunContext()")
    assert loaded_after(program) == ["numpy"]
