#!/usr/bin/env python3
"""Determinism lint: scan ``src/repro`` for known nondeterminism hazards.

The simulator's contract (ROADMAP.md "byte-identity invariant") is that a
(scenario, seed) pair reproduces byte-identical summaries across runs and
machines.  The hazards this AST-based checker hunts are exactly the ways that
invariant has historically broken in Python codebases:

* ``hash-builtin`` — calls to the builtin ``hash()``: salted per process by
  PYTHONHASHSEED, so anything derived from it (bucket choice, iteration
  order) varies across runs.
* ``unseeded-random`` — module-level ``random.*`` calls (``random.random()``,
  ``random.choice(...)``, ...): they share one process-global RNG whose
  stream depends on import order; simulator code must thread an explicit
  ``random.Random(seed)``.
* ``wall-clock`` — ``time.time()`` / ``time.time_ns()`` /
  ``datetime.now()``-style calls: real time leaking into simulated time or
  summaries.  (``time.perf_counter`` is allowed: it only feeds *reported*
  wall-clock measurements such as compile times, never scheduling.)
* ``set-iteration`` — ``for`` loops directly over a set literal, set
  comprehension, or ``set(...)`` call without an ordering wrapper: iteration
  order depends on insertion history and hash salting.

Three scoped rules (PR 8) tighten the net where a hazard is only a hazard in
certain layers:

* ``sim-wall-clock`` — ``time.perf_counter``/``process_time`` (and ``_ns``
  variants) inside ``src/repro/simulator/``: the general wall-clock rule
  allows ``perf_counter`` for *reported* timings, but nothing under the
  simulator may read any host clock at all — the sanitizer plane asserts
  event-time monotonicity against the simulated clock only.
* ``id-ordering`` — ``id()`` calls inside ``src/repro/simulator/`` or
  ``src/repro/protocol/`` (outside ``__repr__``): CPython addresses vary per
  run, so ordering or keying on them is hidden nondeterminism.  Identity
  *comparison* (``is``) stays fine; materializing the address is the hazard.
* ``env-read`` — ``os.environ``/``os.getenv`` outside the two sanctioned
  entry points (``src/repro/cli.py``, ``src/repro/experiments/config.py``):
  environment reads scattered through library code make runs depend on
  ambient state in ways spec hashes cannot see.

One more scoped rule keeps a policy in one home:

* ``collector-control`` — ``gc.disable/enable/freeze/unfreeze/set_threshold/
  collect`` calls under ``src/repro/`` outside ``simulator/engine.py``:
  ``Simulator.run`` pauses the cyclic collector under the acyclic-loop
  contract (ARCHITECTURE.md §1), and a second caller switching it would
  silently undo or extend that pause.

And one keeps the process pool in one home:

* ``pool-open`` — a ``ProcessPoolExecutor(...)`` or ``multiprocessing``
  ``Pool(...)`` constructed under ``src/repro/`` anywhere but
  ``runner.grid_map``: every fan-out (a grid, the coordinated drain
  workers, the compile sweep) maps through that one function, so worker
  count, chunking and the serial fallback are decided in one place
  (ARCHITECTURE.md §3).

One keeps the probe-driven round contract in one home:

* ``periodic-round`` — ``.schedule_periodic(...)`` calls under ``src/repro/``
  outside ``simulator/engine.py`` and ``simulator/network.py``:
  ``ProbeDrivenSystem.start`` arms the coalesced probe and failure-check
  rounds that ``commutable_rounds`` and the race detector's shuffle are
  written against (ARCHITECTURE.md §1, §6), so a probe-driven system that
  armed its own rounds would fork that contract.

And two keep the batch lane's member layout with one producer and one
reader:

* ``lane-registrant`` — ``.call_multicast(...)`` calls under ``src/repro/``
  outside ``simulator/link.py``: the probe plane is the engine's only
  batch-lane registrant, and :func:`send_probes` the only code that builds
  a member's receivers tuple (ARCHITECTURE.md §1), so a second registrant
  could not keep the lane's drop and accounting contract without copying
  that layout.
* ``engine-private`` — an access to the engine's heap and lane state
  (``_sequence``, ``_batch*``, ``_firing_*``, ``_unfired_replicas``,
  ``_requeue_batch_tail``) or to its trampolines (``_fire_batch``,
  ``_fire_handle``), by attribute or import, under ``src/repro/`` outside
  ``simulator/engine.py`` and ``simulator/sanitizer.py``: the heap and
  member layout stay known only to those two files (ARCHITECTURE.md §1).

And one keeps every field refusal in its declaration:

* ``hand-domain`` — a ``math.isfinite(...)`` call under ``src/repro/``
  outside ``exceptions.py``: a malformed value is refused by the domain
  declared on its field or argument (``repro.exceptions``), not by a
  hand-written check beside the code that reads it (ARCHITECTURE.md §3).

And one keeps run state per run:

* ``module-state`` — a module-level name bound to an empty ``{}``, ``[]``,
  ``set()`` or ``dict()`` inside ``src/repro/simulator/`` or
  ``src/repro/protocol/``: such a container is filled at run time and
  shared by every run in the process, so one sweep point could carry state
  (an interning pool, a cache) into the next.  Pools live on the object
  that owns the run, e.g. ``ContraSystem.pool`` (ARCHITECTURE.md §2).

And one keeps each plane's heavy dependencies out of processes that never
run it:

* ``eager-import`` — any import of ``numpy`` under ``src/repro/``, in a
  function body or under ``if TYPE_CHECKING:`` too: nothing in the package
  uses numpy, and the workloads draw from the pure-Python
  ``repro.workloads.Generator``; and a module-level import of
  ``concurrent.futures`` or ``multiprocessing`` under ``src/repro/``:
  importing any module that mentions them would load them into every
  process, a compile-only one included.  Import those in the function that
  first uses them (ARCHITECTURE.md §3, "Import contract"); an import of
  them under ``if TYPE_CHECKING:`` never runs and is not a finding.  The
  same holds for ``repro``'s own planes: a package's ``__init__.py`` under
  ``src/repro/`` holds its docstring and no statement besides (but
  ``__version__`` in ``repro/__init__.py``), so importing a package loads
  nothing and each name has one import path, its defining module; and a
  module-level import of a runtime plane (the simulator but for ``flow``
  and ``packet``, the protocol, the baselines, the workload generator) in
  the experiment modules a compile-only or store-only process imports
  (``experiments/{runner,config,results,coordinator,scalability,fct,
  failure_recovery,fluid_scale}.py``) loads the planes into that process;
  the runner imports them where a run uses them and loads them all when a
  ``RunContext`` is built.

And one keeps the results directory behind one door:

* ``store-io`` — a filesystem call (``open``, ``.open``, ``.glob``,
  ``.unlink``, ``.replace``, ``.read_text``, ``.write_text``, ``.stat``,
  ``os.truncate``, ``os.fstat``, ``os.link``) in
  ``experiments/coordinator.py``, ``experiments/results.py`` or ``cli.py``
  outside the ``StoreFiles`` class: every lease and record step goes
  through that seam (ARCHITECTURE.md §3, §8), where the directory's layout
  is spelled and an in-memory stand-in can replace the disk.  A call on the seam itself (a
  receiver named ``files``, or ``StoreFiles.of(...)``) is the door, not a
  finding; so is ``.write_text`` in ``cli.py``, which writes only the
  user's ``--json``, ``--emit-p4`` and ``--bench-artifact`` outputs.

And one keeps imports honest:

* ``unused-import`` — a module-level import under ``src/repro/`` whose
  bound name the module never reads: not as a name, not inside a quoted
  annotation, and not through ``__all__``.
  A dead import hides what a module really depends on, and a heavy one
  costs every process that imports the module.

Audited exceptions live in :data:`ALLOWLIST`, keyed by path relative to the
repository root; each entry names the rules it may violate and must carry a
justification comment.  Run from the repo root::

    python tools/lint_determinism.py [paths...]

Exit status is the number of unallowlisted findings (0 = clean).
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Dict, FrozenSet, Iterator, List, NamedTuple, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_TARGET = REPO_ROOT / "src" / "repro"

#: Module-level functions of ``random`` that use the shared process RNG.
_GLOBAL_RANDOM_FUNCS = frozenset({
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "normalvariate", "expovariate",
    "betavariate", "triangular", "seed", "getrandbits",
})

#: Wall-clock reads that must not drive simulation or summaries.
_WALL_CLOCK = {
    ("time", "time"),
    ("time", "time_ns"),
    ("time", "monotonic"),
    ("time", "monotonic_ns"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("datetime", "today"),
    ("date", "today"),
}

#: Additional clocks banned *inside the simulator package* (sim-wall-clock):
#: perf_counter is fine for reported compile/benchmark timings elsewhere, but
#: simulator code must be a pure function of the event heap.
_SIM_WALL_CLOCK = {
    ("time", "perf_counter"),
    ("time", "perf_counter_ns"),
    ("time", "process_time"),
    ("time", "process_time_ns"),
}

#: Package prefixes where the scoped rules apply (POSIX-relative paths).
_SIM_PREFIX = "src/repro/simulator/"
_ID_PREFIXES = ("src/repro/simulator/", "src/repro/protocol/")
_MODULE_STATE_PREFIXES = _ID_PREFIXES

#: Collector calls that set the garbage-collection policy (collector-control),
#: and the one file under ``src/repro/`` that may make them.
_GC_CONTROL = frozenset({"disable", "enable", "freeze", "unfreeze",
                         "set_threshold", "collect"})
_GC_PREFIX = "src/repro/"
_GC_HOME = "src/repro/simulator/engine.py"

#: Process-pool constructors (pool-open) and the one function that may call
#: them.
_POOL_CALLS = frozenset({"ProcessPoolExecutor", "Pool"})
_POOL_PREFIX = "src/repro/"
_POOL_FILE = "src/repro/experiments/runner.py"
_POOL_FUNCTION = "grid_map"

#: Batch-lane registrations (lane-registrant) and their one home.
_LANE_CALLS = frozenset({"call_multicast"})
_LANE_PREFIX = "src/repro/"
_LANE_HOME = "src/repro/simulator/link.py"

#: Recurring engine events (periodic-round) and the files that may arm them.
_PERIODIC_CALLS = frozenset({"schedule_periodic"})
_PERIODIC_PREFIX = "src/repro/"
_PERIODIC_HOMES = frozenset({"src/repro/simulator/engine.py",
                             "src/repro/simulator/network.py"})

#: The engine's heap/lane state and trampolines (engine-private), and the
#: files that may name them.
_ENGINE_PRIVATE = frozenset({
    "_batch", "_batch_time", "_batch_pending", "_batch_entries",
    "_firing_batch", "_firing_replicas", "_unfired_replicas", "_sequence",
    "_requeue_batch_tail", "_fire_batch", "_fire_handle",
})
_ENGINE_PREFIX = "src/repro/"
_ENGINE_HOMES = frozenset({"src/repro/simulator/engine.py",
                           "src/repro/simulator/sanitizer.py"})

#: Finiteness checks (hand-domain) and the one file that may make them.
_DOMAIN_PREFIX = "src/repro/"
_DOMAIN_HOME = "src/repro/exceptions.py"

#: Modules loaded where their plane first runs (eager-import), never at a
#: module's import, under ``src/repro/``; and the one never imported there.
_EAGER_MODULES = ("concurrent.futures", "multiprocessing")
_UNUSED_MODULE = "numpy"
#: The runtime planes (eager-import), the simulator's data modules the spec
#: layer reads, and the experiment modules that must not load the planes at
#: their import.
_PLANES = ("repro.simulator", "repro.protocol", "repro.baselines", "repro.workloads")
_PLANE_DATA = frozenset({"repro.simulator.flow", "repro.simulator.packet"})
_PLANE_FREE_FILES = frozenset(
    f"src/repro/experiments/{name}.py"
    for name in ("runner", "config", "results", "coordinator", "scalability", "fct",
                 "failure_recovery", "fluid_scale"))
_EAGER_PREFIX = "src/repro/"
#: The one package ``__init__.py`` that binds a name: ``__version__``.
_VERSION_INIT = "src/repro/__init__.py"

#: Filesystem calls (store-io), the files they are refused in outside the
#: seam class, and the per-file output writes that are not store steps.
_STORE_IO_ATTRS = frozenset({"open", "glob", "unlink", "replace", "read_text",
                             "write_text", "stat"})
_STORE_IO_OS = frozenset({"truncate", "fstat", "link"})
_STORE_IO_FILES = frozenset({"src/repro/experiments/coordinator.py",
                             "src/repro/experiments/results.py",
                             "src/repro/cli.py"})
_STORE_IO_SEAM = "StoreFiles"
_STORE_IO_OUTPUTS = {"src/repro/cli.py": frozenset({"write_text"})}

#: Where imports must be read (unused-import).
_UNUSED_IMPORT_PREFIX = "src/repro/"

#: The only files allowed to read the process environment (env-read).
_ENV_ALLOWED_FILES = frozenset({
    "src/repro/cli.py",
    "src/repro/experiments/config.py",
})

#: path (relative to repo root, POSIX separators) -> rules audited as safe.
#: Every entry must carry a comment justifying the audit.  (Flow hashing
#: already goes through the deterministic ``stable_flow_hash`` in
#: protocol/tables.py, and ``hash()`` inside ``__hash__`` is exempted by the
#: checker itself.)
ALLOWLIST: Dict[str, FrozenSet[str]] = {
    # Lease heartbeats are cross-host liveness infrastructure: staleness of
    # a lease held by a worker on *another machine* can only be judged
    # against the shared wall clock (perf_counter is process-relative).
    # The timestamps live in lease files only — they never feed
    # simulated time, results records' payloads, or summaries, so the
    # byte-identity invariant is untouched (test-enforced: coordinated
    # merge == unsharded serial run).
    "src/repro/experiments/coordinator.py": frozenset({"wall-clock"}),
}


class Finding(NamedTuple):
    path: Path
    line: int
    rule: str
    message: str

    def render(self, root: Path) -> str:
        try:
            rel = self.path.relative_to(root)
        except ValueError:
            rel = self.path
        return f"{rel}:{self.line}: [{self.rule}] {self.message}"


def _dotted(node: ast.AST) -> Tuple[str, ...]:
    """``a.b.c`` -> ("a", "b", "c"); empty when not a plain dotted name."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return ()


def _module_imports(body: List[ast.stmt]) -> Iterator[Tuple[ast.AST, str]]:
    """Each module-level import statement with a name it binds, descending
    into ``if`` and ``try`` blocks but not into functions or classes."""
    for statement in body:
        if isinstance(statement, ast.Import):
            for alias in statement.names:
                yield statement, alias.asname or alias.name.split(".")[0]
        elif isinstance(statement, ast.ImportFrom):
            if statement.module != "__future__":
                for alias in statement.names:
                    if alias.name != "*":
                        yield statement, alias.asname or alias.name
        elif isinstance(statement, ast.If):
            yield from _module_imports(statement.body + statement.orelse)
        elif isinstance(statement, ast.Try):
            yield from _module_imports(
                statement.body + statement.orelse + statement.finalbody
                + [line for handler in statement.handlers for line in handler.body])


def _read_names(tree: ast.Module) -> FrozenSet[str]:
    """Every name the module reads: as a name, inside a string that parses
    as an expression (a quoted annotation), or listed in ``__all__``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value.strip(), mode="eval")
            except SyntaxError:
                continue
            names.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return frozenset(names)


def _is_empty_container(node: ast.AST) -> bool:
    """``{}``, ``[]``, ``set()`` or ``dict()``."""
    if isinstance(node, ast.Dict):
        return not node.keys
    if isinstance(node, ast.List):
        return not node.elts
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
        and node.func.id in ("set", "dict") and not node.args and not node.keywords


class _Checker(ast.NodeVisitor):
    def __init__(self, path: Path):
        self.path = path
        try:
            self.rel = path.resolve().relative_to(REPO_ROOT).as_posix()
        except ValueError:
            self.rel = path.as_posix()
        self.findings: List[Finding] = []
        self._func_stack: List[str] = []
        self._class_stack: List[str] = []
        self._type_only = False

    def _flag(self, node: ast.AST, rule: str, message: str) -> None:
        self.findings.append(Finding(self.path, node.lineno, rule, message))

    def visit_Module(self, node: ast.Module) -> None:
        if self.rel.startswith(_EAGER_PREFIX) and self.rel.endswith("/__init__.py"):
            self._package_init(node.body)
        if self.rel.startswith(_UNUSED_IMPORT_PREFIX):
            read = _read_names(node)
            for statement, name in _module_imports(node.body):
                if name not in read:
                    self._flag(statement, "unused-import",
                               f"{name} is imported but never read; drop the "
                               "import (or list the name in __all__ to "
                               "re-export it)")
        if self.rel.startswith(_MODULE_STATE_PREFIXES):
            for statement in node.body:
                value = statement.value \
                    if isinstance(statement, (ast.Assign, ast.AnnAssign)) else None
                if value is not None and _is_empty_container(value):
                    self._flag(statement, "module-state",
                               "module-level empty container: it is filled at "
                               "run time and shared by every run in the "
                               "process; keep it on the object that owns the run")
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._func_stack.append(node.name)
        self.generic_visit(node)
        self._func_stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_stack.append(node.name)
        self.generic_visit(node)
        self._class_stack.pop()

    def _store_io(self, node: ast.Call) -> None:
        if self.rel not in _STORE_IO_FILES or _STORE_IO_SEAM in self._class_stack:
            return
        func = node.func
        if isinstance(func, ast.Name):
            name = func.id if func.id == "open" else None
        elif _dotted(func.value) == ("os",):
            name = f"os.{func.attr}" \
                if func.attr in _STORE_IO_OS | {"replace"} else None
        else:
            receiver = func.value
            on_seam = _dotted(receiver)[-1:] == ("files",) or (
                isinstance(receiver, ast.Call)
                and _dotted(receiver.func) == (_STORE_IO_SEAM, "of"))
            name = f".{func.attr}" if func.attr in _STORE_IO_ATTRS and not on_seam \
                and func.attr not in _STORE_IO_OUTPUTS.get(self.rel, ()) else None
        if name is not None:
            self._flag(node, "store-io",
                       f"{name}() outside StoreFiles: every step on a results "
                       "directory goes through the store seam")

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, (ast.Name, ast.Attribute)):
            self._store_io(node)
        if isinstance(func, ast.Name) and func.id == "hash":
            # hash() inside __hash__ is the idiom for container membership;
            # the salt only affects in-process placement, and leaking *order*
            # out of a container is the set-iteration rule's job.
            if "__hash__" not in self._func_stack:
                self._flag(node, "hash-builtin",
                           "builtin hash() is salted per process "
                           "(PYTHONHASHSEED); derive keys explicitly")
        if isinstance(func, ast.Name) and func.id == "id" \
                and self.rel.startswith(_ID_PREFIXES) \
                and "__repr__" not in self._func_stack:
            self._flag(node, "id-ordering",
                       "id() materializes a per-run CPython address; ordering "
                       "or keying on it is hidden nondeterminism (use `is` "
                       "for identity tests)")
        pool = func.id if isinstance(func, ast.Name) \
            else func.attr if isinstance(func, ast.Attribute) else None
        if pool in _POOL_CALLS and self.rel.startswith(_POOL_PREFIX) \
                and not (self.rel == _POOL_FILE and _POOL_FUNCTION in self._func_stack):
            self._flag(node, "pool-open",
                       f"{pool}() outside runner.grid_map: every fan-out maps "
                       "through that one function, where the worker count "
                       "and the serial fallback are decided")
        if isinstance(func, ast.Attribute) and func.attr in _LANE_CALLS \
                and self.rel.startswith(_LANE_PREFIX) and self.rel != _LANE_HOME:
            self._flag(node, "lane-registrant",
                       f".{func.attr}() outside simulator/link.py: the batch "
                       "lane has one registrant, send_probes, so the "
                       "member layout has one producer")
        if isinstance(func, ast.Attribute) and func.attr in _PERIODIC_CALLS \
                and self.rel.startswith(_PERIODIC_PREFIX) \
                and self.rel not in _PERIODIC_HOMES:
            self._flag(node, "periodic-round",
                       f".{func.attr}() outside simulator/network.py: "
                       "ProbeDrivenSystem.start arms the probe-driven rounds "
                       "the race detector's contract is written against")
        dotted = _dotted(func)
        if len(dotted) >= 2:
            head, tail = dotted[-2], dotted[-1]
            if head == "random" and tail in _GLOBAL_RANDOM_FUNCS:
                self._flag(node, "unseeded-random",
                           f"module-level random.{tail}() uses the shared "
                           "process RNG; thread a random.Random(seed)")
            if (head, tail) in _WALL_CLOCK:
                self._flag(node, "wall-clock",
                           f"{head}.{tail}() reads the wall clock; simulated "
                           "time and summaries must not depend on it")
            if (head, tail) in _SIM_WALL_CLOCK \
                    and self.rel.startswith(_SIM_PREFIX):
                self._flag(node, "sim-wall-clock",
                           f"{head}.{tail}() inside the simulator package: "
                           "sim code must be a pure function of the event "
                           "heap, never a host clock")
            if head == "gc" and tail in _GC_CONTROL \
                    and self.rel.startswith(_GC_PREFIX) and self.rel != _GC_HOME:
                self._flag(node, "collector-control",
                           f"gc.{tail}() outside simulator/engine.py: the "
                           "collector policy has one home, Simulator.run's "
                           "pause")
            if (head, tail) == ("math", "isfinite") \
                    and self.rel.startswith(_DOMAIN_PREFIX) and self.rel != _DOMAIN_HOME:
                self._flag(node, "hand-domain",
                           "math.isfinite() outside repro/exceptions.py: declare "
                           "the field's domain (within / require) instead")
            if dotted[-2:] == ("os", "getenv") \
                    and self.rel not in _ENV_ALLOWED_FILES:
                self._flag(node, "env-read",
                           "os.getenv() outside the CLI/config entry points; "
                           "route ambient configuration through "
                           "repro.experiments.config")
        self.generic_visit(node)

    def _engine_private(self, node: ast.AST, name: str) -> None:
        if name in _ENGINE_PRIVATE and self.rel.startswith(_ENGINE_PREFIX) \
                and self.rel not in _ENGINE_HOMES:
            self._flag(node, "engine-private",
                       f"{name} outside simulator/engine.py and sanitizer.py: "
                       "the heap and lane member layout are the engine's own")

    def _eager_import(self, node: ast.AST, names: List[str]) -> None:
        if not self.rel.startswith(_EAGER_PREFIX):
            return
        for name in names:
            if name == _UNUSED_MODULE or name.startswith(_UNUSED_MODULE + "."):
                self._flag(node, "eager-import",
                           f"import of {_UNUSED_MODULE}: nothing under "
                           "src/repro uses it; draw with "
                           "repro.workloads.Generator")
                return
        if self._func_stack or self._type_only:
            return
        for name in names:
            for heavy in _EAGER_MODULES:
                if name == heavy or name.startswith(heavy + "."):
                    self._flag(node, "eager-import",
                               f"module-level import of {heavy}: every "
                               "process that imports this module loads it; "
                               "import it in the function that uses it")
                    return

    def _package_init(self, body: List[ast.stmt]) -> None:
        """Every statement of a package ``__init__.py`` but its docstring
        (and ``__version__`` in ``repro/__init__.py``)."""
        for index, statement in enumerate(body):
            docstring = index == 0 and isinstance(statement, ast.Expr) \
                and isinstance(statement.value, ast.Constant) \
                and isinstance(statement.value.value, str)
            version = self.rel == _VERSION_INIT and isinstance(statement, ast.Assign) \
                and [_dotted(target) for target in statement.targets] == [("__version__",)]
            if not (docstring or version):
                self._flag(statement, "eager-import",
                           "statement in a package __init__: a package holds its "
                           "docstring alone; import each name from the module "
                           "that defines it")

    def _plane_import(self, node: ast.AST, module: str) -> None:
        """A module-level import of a runtime plane in an experiment module
        that must stay plane-free."""
        if self._func_stack or self._type_only:
            return
        if self.rel in _PLANE_FREE_FILES and module not in _PLANE_DATA and any(
                module == plane or module.startswith(plane + ".") for plane in _PLANES):
            self._flag(node, "eager-import",
                       f"module-level import of the runtime plane {module}: every "
                       "process that imports this module loads it; import it where "
                       "a run needs it (a RunContext loads the planes)")

    def visit_Import(self, node: ast.Import) -> None:
        self._eager_import(node, [alias.name for alias in node.names])
        for alias in node.names:
            self._plane_import(node, alias.name)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        for alias in node.names:
            self._engine_private(node, alias.name)
        if node.module is not None and not node.level:
            self._eager_import(node, [node.module] + [
                f"{node.module}.{alias.name}" for alias in node.names])
            self._plane_import(node, node.module)
        self.generic_visit(node)

    def visit_If(self, node: ast.If) -> None:
        if _dotted(node.test)[-1:] != ("TYPE_CHECKING",):
            self.generic_visit(node)
            return
        outer, self._type_only = self._type_only, True
        for statement in node.body:
            self.visit(statement)
        self._type_only = outer
        for statement in node.orelse:
            self.visit(statement)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self._engine_private(node, node.attr)
        if node.attr == "environ" and isinstance(node.value, ast.Name) \
                and node.value.id == "os" \
                and self.rel not in _ENV_ALLOWED_FILES:
            self._flag(node, "env-read",
                       "os.environ access outside the CLI/config entry "
                       "points; route ambient configuration through "
                       "repro.experiments.config")
        self.generic_visit(node)

    def _is_unordered_set(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in ("set", "frozenset"):
            return True
        if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.BitOr, ast.BitAnd, ast.Sub)):
            # set algebra (a | b, a & b, a - b) over sets stays a set; only
            # flag when a side is syntactically a set, else too noisy.
            return (self._is_unordered_set(node.left)
                    or self._is_unordered_set(node.right))
        return False

    def visit_For(self, node: ast.For) -> None:
        if self._is_unordered_set(node.iter):
            self._flag(node, "set-iteration",
                       "iterating a set directly: order depends on hashing; "
                       "wrap in sorted(...)")
        self.generic_visit(node)


def iter_python_files(targets: List[Path]) -> Iterator[Path]:
    for target in targets:
        if target.is_file():
            yield target
        else:
            yield from sorted(target.rglob("*.py"))


def lint(targets: List[Path]) -> Tuple[List[Finding], List[Finding]]:
    """Returns (violations, allowlisted)."""
    violations: List[Finding] = []
    allowed: List[Finding] = []
    for path in iter_python_files(targets):
        tree = ast.parse(path.read_text(), filename=str(path))
        checker = _Checker(path)
        checker.visit(tree)
        try:
            rel = path.resolve().relative_to(REPO_ROOT).as_posix()
        except ValueError:
            rel = path.as_posix()
        permitted = ALLOWLIST.get(rel, frozenset())
        for finding in checker.findings:
            (allowed if finding.rule in permitted else violations).append(finding)
    return violations, allowed


def main(argv: List[str]) -> int:
    targets = [Path(p) for p in argv] if argv else [DEFAULT_TARGET]
    missing = [t for t in targets if not t.exists()]
    if missing:
        print(f"no such path(s): {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    violations, allowed = lint(targets)
    for finding in violations:
        print(finding.render(REPO_ROOT))
    if allowed:
        print(f"({len(allowed)} allowlisted finding(s) suppressed)")
    if violations:
        print(f"{len(violations)} determinism hazard(s) found")
    else:
        print("determinism lint: clean")
    return min(len(violations), 125)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
