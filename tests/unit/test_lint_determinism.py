"""Unit tests for tools/lint_determinism.py (the determinism hazard linter)."""

import importlib.util
import textwrap
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "lint_determinism",
    Path(__file__).resolve().parents[2] / "tools" / "lint_determinism.py")
lint_determinism = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(lint_determinism)


def run_lint(tmp_path, source, name="sample.py"):
    target = tmp_path / name
    target.write_text(textwrap.dedent(source))
    return lint_determinism.lint([target])


def of_rule(violations, rule):
    """The findings of one rule: a sample written for one rule may import
    names it never reads, which is the unused-import rule's concern."""
    return [v for v in violations if v.rule == rule]


class TestRules:
    def test_hash_builtin_flagged(self, tmp_path):
        violations, _ = run_lint(tmp_path, """\
            def bucket(name):
                return hash(name) % 16
            """)
        assert [v.rule for v in violations] == ["hash-builtin"]
        assert violations[0].line == 2

    def test_hash_inside_dunder_hash_exempt(self, tmp_path):
        violations, _ = run_lint(tmp_path, """\
            class Rank:
                def __hash__(self):
                    return hash(self._values)
            """)
        assert violations == []

    def test_unseeded_random_flagged(self, tmp_path):
        violations, _ = run_lint(tmp_path, """\
            import random
            def jitter():
                return random.random() + random.uniform(0, 1)
            """)
        assert [v.rule for v in violations] == ["unseeded-random"] * 2

    def test_seeded_rng_instance_allowed(self, tmp_path):
        violations, _ = run_lint(tmp_path, """\
            import random
            def jitter(rng: "random.Random"):
                return rng.random()
            """)
        assert violations == []

    def test_wall_clock_flagged_but_perf_counter_allowed(self, tmp_path):
        violations, _ = run_lint(tmp_path, """\
            import time
            from datetime import datetime
            def stamp():
                return time.time(), datetime.now(), time.perf_counter()
            """)
        assert sorted(v.rule for v in violations) == ["wall-clock", "wall-clock"]

    def test_set_iteration_flagged(self, tmp_path):
        violations, _ = run_lint(tmp_path, """\
            def visit(edges):
                for node in {a for a, _ in edges}:
                    print(node)
                for node in set(edges) | {None}:
                    print(node)
            """)
        assert [v.rule for v in violations] == ["set-iteration"] * 2

    def test_sorted_set_iteration_allowed(self, tmp_path):
        violations, _ = run_lint(tmp_path, """\
            def visit(edges):
                for node in sorted(set(edges)):
                    print(node)
            """)
        assert violations == []


class TestCollectorControl:
    """gc policy calls are findings under src/repro/ outside simulator/engine.py."""

    SOURCE = """\
        import gc
        def run():
            gc.disable()
            gc.freeze()
            gc.set_threshold(10_000)
            gc.collect()
            gc.unfreeze()
            gc.enable()
            return gc.isenabled(), gc.get_count()
        """

    def lint_at(self, tmp_path, monkeypatch, rel):
        monkeypatch.setattr(lint_determinism, "REPO_ROOT", tmp_path)
        target = tmp_path / rel
        target.parent.mkdir(parents=True)
        return run_lint(target.parent, self.SOURCE, name=target.name)

    def test_flagged_in_the_package(self, tmp_path, monkeypatch):
        violations, _ = self.lint_at(tmp_path, monkeypatch,
                                     "src/repro/experiments/runner.py")
        # Reads (isenabled, get_count) are not policy.
        assert [v.rule for v in violations] == ["collector-control"] * 6
        assert [v.line for v in violations] == [3, 4, 5, 6, 7, 8]

    def test_engine_is_the_home(self, tmp_path, monkeypatch):
        violations, _ = self.lint_at(tmp_path, monkeypatch,
                                     "src/repro/simulator/engine.py")
        assert violations == []

    def test_outside_the_package_allowed(self, tmp_path, monkeypatch):
        # Tests and the benchmark harness collect and count freely.
        violations, _ = self.lint_at(tmp_path, monkeypatch,
                                     "benchmarks/perf/run.py")
        assert violations == []

    def test_a_local_named_gc_with_other_methods_is_not_flagged(self, tmp_path,
                                                                monkeypatch):
        # cli.py names an argparse sub-parser ``gc``.
        monkeypatch.setattr(lint_determinism, "REPO_ROOT", tmp_path)
        target = tmp_path / "src" / "repro" / "cli.py"
        target.parent.mkdir(parents=True)
        violations, _ = run_lint(target.parent, """\
            def build(sub):
                gc = sub.add_parser("gc-results")
                gc.add_argument("name")
                gc.set_defaults(func=None)
            """, name="cli.py")
        assert violations == []


class TestPoolOpen:
    """Process pools are findings under src/repro/ outside runner.grid_map."""

    SOURCE = """\
        def grid_map(fn, items, workers):
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(max_workers=workers) as pool:
                return list(pool.map(fn, items))
        def fan_out(fn, items):
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
            with ProcessPoolExecutor(max_workers=2) as pool:
                list(pool.map(fn, items))
            with multiprocessing.get_context("spawn").Pool(2) as pool:
                pool.map(fn, items)
            with ThreadPoolExecutor(2) as pool:
                return list(pool.map(fn, items))
        """

    def lint_at(self, tmp_path, monkeypatch, rel):
        monkeypatch.setattr(lint_determinism, "REPO_ROOT", tmp_path)
        target = tmp_path / rel
        target.parent.mkdir(parents=True)
        return run_lint(target.parent, self.SOURCE, name=target.name)

    def test_flagged_outside_grid_map(self, tmp_path, monkeypatch):
        violations, _ = self.lint_at(tmp_path, monkeypatch,
                                     "src/repro/experiments/runner.py")
        # grid_map's own pool is the home; a thread pool is not a process pool.
        assert [v.rule for v in violations] == ["pool-open"] * 2
        assert [v.line for v in violations] == [8, 10]

    def test_every_pool_is_flagged_in_another_module(self, tmp_path, monkeypatch):
        violations, _ = self.lint_at(tmp_path, monkeypatch,
                                     "src/repro/experiments/scalability.py")
        assert [v.rule for v in violations] == ["pool-open"] * 3
        assert [v.line for v in violations] == [3, 8, 10]

    def test_outside_the_package_allowed(self, tmp_path, monkeypatch):
        violations, _ = self.lint_at(tmp_path, monkeypatch, "benchmarks/perf/run.py")
        assert violations == []


class TestLaneRegistrant:
    """Batch-lane registrations are findings under src/repro/ outside simulator/link.py."""

    SOURCE = """\
        def send(sim, sink, probe, receivers):
            sim.call_multicast(1.0, probe, receivers)
            sim.call_at(1.0, sink, probe, "a")
        """

    def lint_at(self, tmp_path, monkeypatch, rel):
        monkeypatch.setattr(lint_determinism, "REPO_ROOT", tmp_path)
        target = tmp_path / rel
        target.parent.mkdir(parents=True)
        return run_lint(target.parent, self.SOURCE, name=target.name)

    def test_flagged_in_the_package(self, tmp_path, monkeypatch):
        violations, _ = self.lint_at(tmp_path, monkeypatch,
                                     "src/repro/protocol/contra_switch.py")
        # The non-lane tier (call_at) is anyone's to use.
        assert [v.rule for v in violations] == ["lane-registrant"]
        assert [v.line for v in violations] == [2]

    def test_the_link_module_is_the_home(self, tmp_path, monkeypatch):
        violations, _ = self.lint_at(tmp_path, monkeypatch,
                                     "src/repro/simulator/link.py")
        assert violations == []


class TestPeriodicRound:
    """Recurring rounds are findings under src/repro/ outside the engine and
    the probe-driven skeleton's home, simulator/network.py."""

    SOURCE = """\
        def start(sim, rounds, logics):
            sim.schedule_periodic(1.0, rounds, logics)
            sim.call_later(1.0, rounds, logics)
        """

    def lint_at(self, tmp_path, monkeypatch, rel):
        monkeypatch.setattr(lint_determinism, "REPO_ROOT", tmp_path)
        target = tmp_path / rel
        target.parent.mkdir(parents=True)
        return run_lint(target.parent, self.SOURCE, name=target.name)

    def test_flagged_in_the_package(self, tmp_path, monkeypatch):
        violations, _ = self.lint_at(tmp_path, monkeypatch,
                                     "src/repro/baselines/hula.py")
        # One-shot timers (call_later) are anyone's to use.
        assert [v.rule for v in violations] == ["periodic-round"]
        assert [v.line for v in violations] == [2]

    @pytest.mark.parametrize("rel", ["src/repro/simulator/network.py",
                                     "src/repro/simulator/engine.py",
                                     "tests/unit/test_engine.py"])
    def test_allowed_in_its_homes_and_outside_the_package(self, tmp_path,
                                                          monkeypatch, rel):
        violations, _ = self.lint_at(tmp_path, monkeypatch, rel)
        assert violations == []


class TestStoreIo:
    """Filesystem calls in the store's three modules are findings outside the
    ``StoreFiles`` seam; calls on the seam are the door itself."""

    SOURCE = """\
        import os
        from pathlib import Path

        class StoreFiles:
            def append(self, name, text):
                with (self.directory / name).open("a") as handle:
                    handle.write(text)
                os.truncate(self.directory / name, 0)

        def release(directory, key, files):
            Path(directory, key).unlink()
            for path in Path(directory).glob("lease-*.json"):
                os.replace(path, path.with_suffix(".gone"))
            open(directory / "x").read()
            Path(directory).stat(), os.fstat(3)
            Path(directory, "out.json").write_text("{}")
            files.unlink(key)
            files.replace(key, "{}")
            StoreFiles.of(directory).unlink(key)
            return "a-b".replace("-", "_")
        """

    def lint_at(self, tmp_path, monkeypatch, rel):
        monkeypatch.setattr(lint_determinism, "REPO_ROOT", tmp_path)
        target = tmp_path / rel
        target.parent.mkdir(parents=True)
        violations, _ = run_lint(target.parent, self.SOURCE, name=target.name)
        return of_rule(violations, "store-io")

    @pytest.mark.parametrize("rel", ["src/repro/experiments/coordinator.py",
                                     "src/repro/experiments/results.py"])
    def test_flagged_in_the_store_modules(self, tmp_path, monkeypatch, rel):
        violations = self.lint_at(tmp_path, monkeypatch, rel)
        # A string's .replace is flagged too: the rule reads the call's
        # shape, and these modules have no string replace to confuse it.
        assert [v.line for v in violations] == [11, 12, 13, 14, 15, 15, 16, 20]

    def test_cli_output_writes_are_not_store_steps(self, tmp_path, monkeypatch):
        violations = self.lint_at(tmp_path, monkeypatch, "src/repro/cli.py")
        assert [v.line for v in violations] == [11, 12, 13, 14, 15, 15, 20]

    @pytest.mark.parametrize("rel", ["src/repro/experiments/runner.py",
                                     "benchmarks/perf/perf_workloads.py"])
    def test_allowed_outside_the_store_modules(self, tmp_path, monkeypatch, rel):
        assert self.lint_at(tmp_path, monkeypatch, rel) == []

    def test_a_hard_link_is_a_seam_step(self, tmp_path, monkeypatch):
        """``os.link`` is how the seam creates a file whole; anywhere else in
        the store modules it is a finding."""
        monkeypatch.setattr(lint_determinism, "REPO_ROOT", tmp_path)
        target = tmp_path / "src/repro/experiments/coordinator.py"
        target.parent.mkdir(parents=True)
        violations, _ = run_lint(target.parent, """\
            import os

            class StoreFiles:
                def create(self, staging, name):
                    os.link(staging, name)

            def claim(staging, name):
                os.link(staging, name)
            """, name=target.name)
        assert [(v.line, v.message.split("(")[0])
                for v in of_rule(violations, "store-io")] == [(8, "os.link")]


class TestHandDomain:
    """``math.isfinite`` is a finding under src/repro/ outside exceptions.py."""

    SOURCE = """\
        import math
        def check(value):
            if not math.isfinite(value):
                raise ValueError(value)
            return math.isnan(value), math.isinf(value)
        """

    def lint_at(self, tmp_path, monkeypatch, rel):
        monkeypatch.setattr(lint_determinism, "REPO_ROOT", tmp_path)
        target = tmp_path / rel
        target.parent.mkdir(parents=True)
        return run_lint(target.parent, self.SOURCE, name=target.name)

    def test_flagged_in_the_package(self, tmp_path, monkeypatch):
        violations, _ = self.lint_at(tmp_path, monkeypatch,
                                     "src/repro/experiments/runner.py")
        # Other math predicates are not domain checks.
        assert [v.rule for v in violations] == ["hand-domain"]
        assert [v.line for v in violations] == [3]

    def test_the_exceptions_module_is_the_home(self, tmp_path, monkeypatch):
        violations, _ = self.lint_at(tmp_path, monkeypatch, "src/repro/exceptions.py")
        assert violations == []

    def test_outside_the_package_allowed(self, tmp_path, monkeypatch):
        violations, _ = self.lint_at(tmp_path, monkeypatch,
                                     "tests/unit/test_sample.py")
        assert violations == []


class TestEnginePrivate:
    """The engine's heap and lane internals are findings under src/repro/
    outside simulator/engine.py and simulator/sanitizer.py."""

    SOURCE = """\
        from repro.simulator.engine import Simulator, _fire_batch
        from repro.simulator.engine import _fire_handle as trampoline
        def peek(sim):
            sim._batch.append(None)
            head = sim._queue[0]
            return sim._sequence, sim._firing_replicas, sim._batch_pending, head
        def steer(sim):
            sim._requeue_batch_tail([])
            return sim.pending_events, sim._now, sim._batching
        """

    def lint_at(self, tmp_path, monkeypatch, rel):
        monkeypatch.setattr(lint_determinism, "REPO_ROOT", tmp_path)
        target = tmp_path / rel
        target.parent.mkdir(parents=True)
        return run_lint(target.parent, self.SOURCE, name=target.name)

    def test_flagged_in_the_package(self, tmp_path, monkeypatch):
        violations, _ = self.lint_at(tmp_path, monkeypatch,
                                     "src/repro/experiments/race.py")
        violations = of_rule(violations, "engine-private")
        # The heap itself, the clock, the lane switch and the public
        # properties are not the member layout.
        assert [v.rule for v in violations] == ["engine-private"] * 7
        assert [v.line for v in violations] == [1, 2, 4, 6, 6, 6, 8]

    @pytest.mark.parametrize("name", [
        "_batch", "_batch_time", "_batch_pending", "_batch_entries",
        "_firing_batch", "_firing_replicas", "_unfired_replicas", "_sequence",
        "_requeue_batch_tail"])
    def test_every_lane_attribute_is_flagged(self, tmp_path, monkeypatch, name):
        monkeypatch.setattr(lint_determinism, "REPO_ROOT", tmp_path)
        target = tmp_path / "src/repro/protocol"
        target.mkdir(parents=True)
        violations, _ = run_lint(target, f"""\
            def touch(sim):
                return sim.{name}
            """, name="hula.py")
        assert [(v.rule, v.line) for v in violations] == [("engine-private", 2)]

    @pytest.mark.parametrize("name", ["_fire_batch", "_fire_handle"])
    def test_every_trampoline_import_is_flagged(self, tmp_path, monkeypatch, name):
        monkeypatch.setattr(lint_determinism, "REPO_ROOT", tmp_path)
        target = tmp_path / "src/repro/protocol"
        target.mkdir(parents=True)
        violations, _ = run_lint(target, f"""\
            import repro.simulator.engine as engine
            from repro.simulator.engine import {name}
            """, name="hula.py")
        assert [(v.rule, v.line) for v in of_rule(violations, "engine-private")] \
            == [("engine-private", 2)]

    def test_lookalike_names_are_not_flagged(self, tmp_path, monkeypatch):
        monkeypatch.setattr(lint_determinism, "REPO_ROOT", tmp_path)
        target = tmp_path / "src/repro/protocol"
        target.mkdir(parents=True)
        violations, _ = run_lint(target, """\
            def touch(sim, batch):
                return (sim._batching, sim._batch_size, batch._sequence_no,
                        sim.fire_batch, sim.sequence)
            """, name="hula.py")
        assert violations == []

    @pytest.mark.parametrize("rel", ["src/repro/simulator/engine.py",
                                     "src/repro/simulator/sanitizer.py",
                                     "benchmarks/perf/run.py"])
    def test_allowed_in_the_engine_its_sanitizer_and_outside_the_package(
            self, tmp_path, monkeypatch, rel):
        violations, _ = self.lint_at(tmp_path, monkeypatch, rel)
        assert of_rule(violations, "engine-private") == []


class TestAllowlist:
    def test_allowlisted_finding_suppressed(self, tmp_path, monkeypatch):
        target = tmp_path / "audited.py"
        target.write_text("def f():\n    return hash('x')\n")
        rel = target.resolve().as_posix()
        monkeypatch.setitem(lint_determinism.ALLOWLIST, rel,
                            frozenset({"hash-builtin"}))
        violations, allowed = lint_determinism.lint([target])
        assert violations == []
        assert [f.rule for f in allowed] == ["hash-builtin"]

    def test_allowlist_only_covers_named_rules(self, tmp_path, monkeypatch):
        target = tmp_path / "audited.py"
        target.write_text("import random\n\ndef f():\n"
                          "    return hash('x') + random.random()\n")
        monkeypatch.setitem(lint_determinism.ALLOWLIST,
                            target.resolve().as_posix(),
                            frozenset({"hash-builtin"}))
        violations, allowed = lint_determinism.lint([target])
        assert [f.rule for f in violations] == ["unseeded-random"]
        assert [f.rule for f in allowed] == ["hash-builtin"]


class TestTreeAndCli:
    def test_repository_source_tree_is_clean(self):
        violations, _ = lint_determinism.lint([lint_determinism.DEFAULT_TARGET])
        assert violations == [], "\n".join(
            v.render(lint_determinism.REPO_ROOT) for v in violations)

    def test_main_exit_codes(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        assert lint_determinism.main([str(clean)]) == 0
        assert "clean" in capsys.readouterr().out

        dirty = tmp_path / "dirty.py"
        dirty.write_text("def f():\n    return hash('x')\n")
        assert lint_determinism.main([str(dirty)]) == 1
        out = capsys.readouterr().out
        assert "hash-builtin" in out and "1 determinism hazard" in out

        assert lint_determinism.main([str(tmp_path / "missing.py")]) == 2


class TestModuleState:
    """Module-level empty containers are findings under simulator/ and protocol/."""

    SOURCE = """\
        from typing import Dict
        _POOL = {}
        _SEEN: Dict[str, int] = dict()
        _QUEUE = []
        _KEYS = set()
        _TABLE = {"util": max}
        _NAMES = ("len",)
        _COPY = dict(_TABLE)

        class Holder:
            shared = {}

        def run():
            local = {}
            return local
        """

    def lint_at(self, tmp_path, monkeypatch, rel):
        monkeypatch.setattr(lint_determinism, "REPO_ROOT", tmp_path)
        target = tmp_path / rel
        target.parent.mkdir(parents=True)
        return run_lint(target.parent, self.SOURCE, name=target.name)

    @pytest.mark.parametrize("rel", ["src/repro/protocol/contra_switch.py",
                                     "src/repro/simulator/link.py"])
    def test_flagged_in_the_run_packages(self, tmp_path, monkeypatch, rel):
        violations, _ = self.lint_at(tmp_path, monkeypatch, rel)
        # Filled, copied, class-level and function-local containers are not.
        assert [v.rule for v in violations] == ["module-state"] * 4
        assert [v.line for v in violations] == [2, 3, 4, 5]

    @pytest.mark.parametrize("rel", ["src/repro/experiments/runner.py",
                                     "src/repro/core/compiler.py",
                                     "benchmarks/perf/run.py"])
    def test_allowed_elsewhere(self, tmp_path, monkeypatch, rel):
        violations, _ = self.lint_at(tmp_path, monkeypatch, rel)
        assert violations == []


class TestEagerImport:
    """Under src/repro/ any import of numpy is a finding, and a module-level
    import of the process pool; a process-pool import inside a function, or
    under ``if TYPE_CHECKING:``, is not."""

    SOURCE = """\
        import numpy as np
        from numpy.random import default_rng
        import concurrent.futures
        from concurrent.futures import ProcessPoolExecutor
        from concurrent import futures
        import multiprocessing.pool
        try:
            import numpy
        except ImportError:
            numpy = None
        from typing import TYPE_CHECKING
        import concurrent
        import numpyish
        from . import numpy_helpers

        if TYPE_CHECKING:
            import numpy as np

        class Sampler:
            def draw(self):
                import numpy as np
                return np.random.default_rng(0)

        def fan_out(items):
            from concurrent.futures import ProcessPoolExecutor
            import multiprocessing
            return ProcessPoolExecutor, multiprocessing
        """

    def lint_at(self, tmp_path, monkeypatch, rel):
        monkeypatch.setattr(lint_determinism, "REPO_ROOT", tmp_path)
        target = tmp_path / rel
        target.parent.mkdir(parents=True)
        return run_lint(target.parent, self.SOURCE, name=target.name)

    def test_flagged_in_the_package(self, tmp_path, monkeypatch):
        violations, _ = self.lint_at(tmp_path, monkeypatch,
                                     "src/repro/workloads/generator.py")
        violations = of_rule(violations, "eager-import")
        # A bare `import concurrent`, a look-alike name, a relative import
        # and the pool's imports inside fan_out load nothing heavy.
        assert [v.rule for v in violations] == ["eager-import"] * 9
        assert [v.line for v in violations] == [1, 2, 3, 4, 5, 6, 8, 17, 21]

    def test_numpy_is_flagged_in_a_function_and_for_type_checking(
            self, tmp_path, monkeypatch):
        violations, _ = self.lint_at(tmp_path, monkeypatch,
                                     "src/repro/workloads/distributions.py")
        late = [v for v in violations if v.line in (17, 21)]
        assert len(late) == 2
        assert all("import of numpy" in v.message
                   and "repro.workloads.Generator" in v.message for v in late)

    def test_the_process_pool_may_load_where_it_runs(self, tmp_path, monkeypatch):
        monkeypatch.setattr(lint_determinism, "REPO_ROOT", tmp_path)
        package = tmp_path / "src" / "repro" / "experiments"
        package.mkdir(parents=True)
        violations, _ = run_lint(package, """\
            from typing import TYPE_CHECKING
            if TYPE_CHECKING:
                from concurrent.futures import Executor

            def fan_out():
                from concurrent.futures import ProcessPoolExecutor
                import multiprocessing
                return ProcessPoolExecutor, multiprocessing
            """, name="runner.py")
        assert of_rule(violations, "eager-import") == []

    def test_message_names_the_module(self, tmp_path, monkeypatch):
        violations, _ = self.lint_at(tmp_path, monkeypatch,
                                     "src/repro/experiments/runner.py")
        violations = of_rule(violations, "eager-import")
        assert "numpy" in violations[0].message
        assert "concurrent.futures" in violations[2].message
        assert "multiprocessing" in violations[5].message

    @pytest.mark.parametrize("rel", ["tests/unit/test_sample.py",
                                     "benchmarks/perf/run.py"])
    def test_allowed_outside_the_package(self, tmp_path, monkeypatch, rel):
        violations, _ = self.lint_at(tmp_path, monkeypatch, rel)
        assert violations == []


class TestPackageInit:
    """A package ``__init__.py`` under src/repro holds its docstring and no
    statement besides, but ``__version__`` in ``repro/__init__.py``."""

    SOURCE = """\
        \"\"\"The package.\"\"\"
        __version__ = "0.1.0"
        from repro.simulator.network import Network
        import json
        _EXPORTS = {"Network": "network"}
        def __getattr__(name):
            return _EXPORTS[name]
        if TYPE_CHECKING:
            from repro.simulator.engine import Simulator
        """

    def lint_at(self, tmp_path, monkeypatch, rel):
        monkeypatch.setattr(lint_determinism, "REPO_ROOT", tmp_path)
        target = tmp_path / rel
        target.parent.mkdir(parents=True)
        violations, _ = run_lint(target.parent, self.SOURCE, name=target.name)
        return of_rule(violations, "eager-import")

    @pytest.mark.parametrize("rel", ["src/repro/simulator/__init__.py",
                                     "src/repro/topology/__init__.py",
                                     "src/repro/core/analysis/__init__.py"])
    def test_a_package_init_holds_only_its_docstring(self, tmp_path, monkeypatch, rel):
        violations = self.lint_at(tmp_path, monkeypatch, rel)
        assert [v.line for v in violations] == [2, 3, 4, 5, 6, 8]
        assert "a package holds its docstring alone" in violations[0].message

    def test_the_top_package_also_keeps_its_version(self, tmp_path, monkeypatch):
        violations = self.lint_at(tmp_path, monkeypatch, "src/repro/__init__.py")
        assert [v.line for v in violations] == [3, 4, 5, 6, 8]

    @pytest.mark.parametrize("source", ["", '"""The package."""\n'])
    def test_an_empty_or_docstring_only_init_is_clean(self, tmp_path, monkeypatch, source):
        monkeypatch.setattr(lint_determinism, "REPO_ROOT", tmp_path)
        package = tmp_path / "src" / "repro" / "simulator"
        package.mkdir(parents=True)
        violations, _ = run_lint(package, source, name="__init__.py")
        assert violations == []

    @pytest.mark.parametrize("rel", ["src/repro/simulator/network.py",
                                     "tests/unit/__init__.py"])
    def test_allowed_elsewhere(self, tmp_path, monkeypatch, rel):
        assert self.lint_at(tmp_path, monkeypatch, rel) == []


class TestEagerPlaneImport:
    """The experiment modules a compile-only process imports load no runtime
    plane at module level."""

    SOURCE = """\
        from typing import TYPE_CHECKING
        from repro.core.compiler import compile_policy
        from repro.simulator.network import Network
        import repro.protocol.contra_switch
        from repro.workloads import distribution_by_name
        from repro.simulator.flow import TRANSPORT_DOMAIN
        from repro.simulator import packet

        if TYPE_CHECKING:
            from repro.baselines.ecmp import EcmpSystem

        def bind():
            from repro.baselines.hula import HulaSystem
            return HulaSystem
        """

    def lint_at(self, tmp_path, monkeypatch, rel):
        monkeypatch.setattr(lint_determinism, "REPO_ROOT", tmp_path)
        target = tmp_path / rel
        target.parent.mkdir(parents=True)
        violations, _ = run_lint(target.parent, self.SOURCE, name=target.name)
        return of_rule(violations, "eager-import")

    @pytest.mark.parametrize("name", ["runner", "config", "results", "coordinator",
                                      "scalability", "fct", "failure_recovery",
                                      "fluid_scale"])
    def test_a_plane_free_experiment_module_imports_no_plane(
            self, tmp_path, monkeypatch, name):
        violations = self.lint_at(tmp_path, monkeypatch, f"src/repro/experiments/{name}.py")
        # The simulator's flow and packet modules are data, not a plane; a
        # plane imported in a function or for type checking only never loads
        # with the module.
        assert [v.line for v in violations] == [3, 4, 5, 7]
        assert "runtime plane repro.simulator.network" in violations[0].message

    @pytest.mark.parametrize("rel", ["src/repro/experiments/registry.py",
                                     "src/repro/experiments/race.py",
                                     "src/repro/protocol/contra_switch.py",
                                     "tests/unit/test_sample.py"])
    def test_allowed_elsewhere(self, tmp_path, monkeypatch, rel):
        assert self.lint_at(tmp_path, monkeypatch, rel) == []


class TestUnusedImport:
    """A module-level import under src/repro/ whose name the module never reads."""

    SOURCE = """\
        from __future__ import annotations
        import math
        import os.path
        from typing import TYPE_CHECKING, Dict, Iterable, List
        from repro.simulator.packet import Packet as P, stable_flow_hash
        from repro.core.rank import *
        if TYPE_CHECKING:
            from repro.simulator.link import SimLink
            from repro.simulator.engine import Simulator
        try:
            import json
        except ImportError:
            json = None
        __all__ = ["stable_flow_hash"]

        def sizes(links: "List[SimLink]") -> Dict[str, int]:
            import itertools
            return {os.path.basename(str(link)): len(link) for link in links}
        """

    def lint_at(self, tmp_path, monkeypatch, rel):
        monkeypatch.setattr(lint_determinism, "REPO_ROOT", tmp_path)
        target = tmp_path / rel
        target.parent.mkdir(parents=True)
        return run_lint(target.parent, self.SOURCE, name=target.name)

    def test_flagged_in_the_package(self, tmp_path, monkeypatch):
        violations, _ = self.lint_at(tmp_path, monkeypatch, "src/repro/core/sample.py")
        # Read as a name, in a quoted annotation, through __all__ or by a
        # rebinding, an import is used; a star import binds nothing it can
        # name, and an import inside a function is that function's own.
        assert [(v.rule, v.line, v.message.split()[0]) for v in violations] == [
            ("unused-import", 2, "math"),
            ("unused-import", 4, "Iterable"),
            ("unused-import", 5, "P"),
            ("unused-import", 9, "Simulator"),
        ]

    @pytest.mark.parametrize("rel", ["tests/unit/test_sample.py", "tools/sample.py"])
    def test_allowed_outside_the_package(self, tmp_path, monkeypatch, rel):
        violations, _ = self.lint_at(tmp_path, monkeypatch, rel)
        assert violations == []

