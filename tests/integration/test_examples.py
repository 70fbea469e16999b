"""Smoke test: every script under ``examples/`` runs to completion.

The examples import the library the way a reader would copy it, so a moved
or deleted public name breaks them first.  Each runs in a fresh interpreter
with ``src`` on ``PYTHONPATH``; the datacenter example is cut to a 2 ms
workload on the asymmetric fabric, the path that uses the experiment layer.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"
SRC = Path(repro.__file__).resolve().parents[1]


@pytest.mark.parametrize("script, arguments", [
    ("quickstart.py", []),
    ("policy_zoo.py", []),
    ("wan_waypoint_routing.py", []),
    ("datacenter_load_balancing.py", ["--duration", "2", "--asymmetric"]),
])
def test_example_runs(script, arguments, tmp_path):
    path = EXAMPLES / script
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [p for p in (str(SRC), env.get("PYTHONPATH", "")) if p])
    completed = subprocess.run([sys.executable, str(path), *arguments], env=env,
                               cwd=tmp_path, capture_output=True, text=True,
                               timeout=120)
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip()
