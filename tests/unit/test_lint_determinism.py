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


class TestLaneRegistrant:
    """Batch-lane registrations are findings under src/repro/ outside simulator/link.py."""

    SOURCE = """\
        def send(sim, sink, probe, receivers):
            sim.call_batched(1.0, sink, probe, "a")
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
        assert [v.rule for v in violations] == ["lane-registrant"] * 2
        assert [v.line for v in violations] == [2, 3]

    def test_the_link_module_is_the_home(self, tmp_path, monkeypatch):
        violations, _ = self.lint_at(tmp_path, monkeypatch,
                                     "src/repro/simulator/link.py")
        assert violations == []


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
