"""File -> layer map of ``src/repro`` and the profiler bucketing built on it.

Layers are this repo's modules (ARCHITECTURE.md's seams).  Every file under
``src/repro/`` is listed exactly once, so a new module fails the harness
self-test until someone decides which layer pays for it.  Code outside
``src/repro`` (stdlib, numpy, this harness) lands in ``external``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterable, Tuple

#: layer -> files, relative to ``src/repro``.
LAYER_FILES: Dict[str, Tuple[str, ...]] = {
    "core": (
        "core/__init__.py", "core/ast.py", "core/attributes.py",
        "core/automata.py", "core/builder.py", "core/compiler.py",
        "core/device_config.py", "core/p4gen/__init__.py",
        "core/p4gen/codegen.py", "core/parser.py", "core/policies.py",
        "core/product_graph.py", "core/rank.py", "core/regex.py",
    ),
    "core.analysis": (
        "core/analysis/__init__.py", "core/analysis/crosscheck.py",
        "core/analysis/decomposition.py", "core/analysis/isotonicity.py",
        "core/analysis/monotonicity.py", "core/analysis/reachability.py",
        "core/analysis/semantic.py", "core/analysis/verification.py",
    ),
    "topology": (
        "topology/__init__.py", "topology/abilene.py", "topology/fattree.py",
        "topology/graph.py", "topology/leafspine.py",
        "topology/random_graphs.py", "topology/zoo.py",
    ),
    "workloads": (
        "workloads/__init__.py", "workloads/distributions.py",
        "workloads/generator.py",
    ),
    "simulator.engine": ("simulator/engine.py", "simulator/sanitizer.py"),
    "simulator.link": ("simulator/link.py",),
    "simulator.switchnode": ("simulator/switchnode.py", "simulator/network.py"),
    "simulator.host": ("simulator/host.py", "simulator/flow.py",
                       "simulator/packet.py"),
    "simulator.stats": ("simulator/stats.py", "simulator/accumulators.py",
                        "nputil.py"),
    "simulator.fluid": ("simulator/fluid.py",),
    "protocol": (
        "protocol/__init__.py", "protocol/contra_switch.py",
        "protocol/probe.py", "protocol/tables.py", "simulator/probe_wave.py",
    ),
    "baselines": ("baselines/__init__.py", "baselines/ecmp.py",
                  "baselines/hula.py", "baselines/spain.py"),
    "experiments.runner": (
        "experiments/__init__.py", "experiments/ablations.py",
        "experiments/config.py", "experiments/failure_recovery.py",
        "experiments/fct.py", "experiments/fluid_scale.py",
        "experiments/overhead.py", "experiments/race.py",
        "experiments/registry.py", "experiments/report.py",
        "experiments/runner.py", "experiments/scalability.py",
    ),
    "experiments.results": ("experiments/results.py",),
    "experiments.coordinator": ("experiments/coordinator.py",),
    "other": ("__init__.py", "cli.py", "exceptions.py",
              "simulator/__init__.py"),
}

#: Where profiled code that is not under ``src/repro`` is charged.
EXTERNAL = "external"

LAYERS: Tuple[str, ...] = tuple(LAYER_FILES) + (EXTERNAL,)


def file_layers() -> Dict[str, str]:
    """Relative file -> layer; raises if a file is listed under two layers."""
    mapping: Dict[str, str] = {}
    for layer, files in LAYER_FILES.items():
        for file in files:
            if file in mapping:
                raise ValueError(f"{file} is mapped to both {mapping[file]} and {layer}")
            mapping[file] = layer
    return mapping


def bucket_profile(entries: Iterable, package_root: Path) -> Dict[str, Dict[str, float]]:
    """Fold ``cProfile.Profile.getstats()`` entries into per-layer self time and calls.

    Every profiled call is a span at a function boundary, bucketed by the file
    that defines the callee.  A C builtin has no file, so its self time is
    charged to the layer of the Python function that called it — which makes a
    layer's ``self_s`` its spans minus their Python children, exactly as
    ``tottime`` defines it.  ``calls`` counts Python-level calls only.
    """
    mapping = file_layers()
    prefix = str(package_root) + "/"
    layer_of_file: Dict[str, str] = {}
    totals = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    for entry in entries:
        code = entry.code
        if isinstance(code, str):
            continue                      # builtin: charged through its callers
        filename = code.co_filename
        layer = layer_of_file.get(filename)
        if layer is None:
            relative = filename[len(prefix):] if filename.startswith(prefix) else None
            layer = layer_of_file[filename] = mapping.get(relative, EXTERNAL)
        bucket = totals[layer]
        bucket["self_s"] += entry.inlinetime
        bucket["calls"] += entry.callcount
        for callee in entry.calls or ():
            if isinstance(callee.code, str):
                bucket["self_s"] += callee.inlinetime
    return totals
