"""Command-line interface.

``contra`` exposes the main library workflows without writing Python:

* ``contra compile`` — compile a policy for a topology and print compiler
  statistics (optionally dumping the generated P4-style programs);
* ``contra run-grid`` — run a named experiment scenario through the parallel
  grid runner and print the same table the corresponding benchmark
  regenerates (``--processes`` fans the (system × load × seed) points across
  cores), optionally dumping the results as JSON; ``--results-dir D`` drains
  the grid into a results store through the lease-based work-stealing
  coordinator — resumable (completed points are skipped on restart), and any
  number of invocations on any hosts sharing ``D`` converge to the same
  byte-identical report — and ``--shard i/n`` limits such a run to a
  deterministic 1/n slice for scale-out across machines or CI jobs;
* ``contra sweep-status`` — progress view of a coordinated results
  directory: pending/leased/complete per locality group plus per-worker
  executed, stolen and reclaimed counts, read from the grid's records;
* ``contra race-check`` — re-run a grid scenario's points under seeded
  permutations of the non-contractual same-tick event orders (see
  ARCHITECTURE.md §6) and diff the summaries: any divergence is a hidden
  order dependence, reported with the provenance tags of the first schedule
  divergence;
* ``contra merge-results`` — union shard artifacts from a results directory
  into the exact report an unsharded run would have printed;
* ``contra gc-results`` — garbage-collect a long-lived results directory:
  drop records the scenario's current grid no longer defines and compact
  torn/duplicate shard files into one;
* ``contra check-policy`` — run the verification plane over a policy:
  semantic monotonicity/isotonicity with concrete counterexamples, and (with
  ``--topo``) product-graph dead-state analysis plus the lowered-table
  cross-check, rendered as text or dumped with ``--json``;
* ``contra policies`` — list the built-in Figure 3 policies.

The grid commands (``run-grid``, ``race-check``, ``merge-results``,
``gc-results``, ``sweep-status``) take a scenario name and a ``--preset``;
the two name one grid, so a command reading a results store names the
scenario and preset its points ran with and nothing else.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, List, Optional

from repro.core.compiler import compile_policy
from repro.core.parser import parse_policy
from repro.core.policies import ALL_POLICIES, POLICY_ALIASES, policy_by_name
from repro.exceptions import ExperimentError, PolicyError
from repro.experiments.config import PRESETS
from repro.experiments.registry import (
    gc_scenario,
    merge_scenario,
    run_scenario,
    run_scenario_coordinated,
    scenario_names,
    sweep_status_scenario,
)
from repro.experiments.results import ResultsStore, parse_shard
from repro.topology.abilene import abilene
from repro.topology.fattree import fattree
from repro.topology.leafspine import leafspine
from repro.topology.random_graphs import random_network
from repro.topology.zoo import builtin_topologies, builtin_topology, from_edge_list_file

__all__ = ["main"]


def _build_topology(args: argparse.Namespace):
    name = args.topology
    if name == "fattree":
        return fattree(args.k)
    if name == "leafspine":
        return leafspine(args.leaves or args.k, args.spines or args.k,
                         hosts_per_leaf=args.hosts_per_leaf)
    if name == "abilene":
        return abilene()
    if name == "random":
        return random_network(args.size, seed=args.seed)
    if name in builtin_topologies():
        return builtin_topology(name, hosts_per_switch=1)
    path = Path(name)
    if path.exists():
        return from_edge_list_file(path)
    raise SystemExit(f"unknown topology {name!r}; builtin: fattree, leafspine, abilene, "
                     f"random, {builtin_topologies()}, or an edge-list file path")


def _cmd_policies(_args: argparse.Namespace) -> int:
    for key, factory in sorted(ALL_POLICIES.items()):
        policy = factory()
        print(f"{key:4s} {policy.name:28s} {policy}")
    return 0


def _cmd_compile(args: argparse.Namespace) -> int:
    topology = _build_topology(args)
    policy = _resolve_policy(args.policy)
    with _policy_errors(args.policy):
        compiled = compile_policy(policy, topology)
    print(f"policy        : {compiled.policy}")
    print(f"topology      : {topology.name} ({len(topology.switches)} switches)")
    print(f"compile time  : {compiled.compile_time * 1000:.1f} ms")
    for phase, seconds in compiled.phase_times.items():
        print(f"  {phase:<16s}: {seconds * 1000:.1f} ms")
    print(f"probe ids     : {compiled.num_probe_ids}")
    print(f"metrics       : {list(compiled.carried_attrs)}")
    print(f"product graph : {compiled.product_graph.num_nodes} nodes, "
          f"{compiled.product_graph.num_edges} edges, "
          f"max {compiled.product_graph.max_tags_per_switch()} tags/switch")
    print(f"probe period  : {compiled.probe_period:.3f} ms")
    print(f"switch state  : max {compiled.max_state_kb():.1f} kB")
    if args.emit_p4:
        from repro.core.p4gen.codegen import generate_all_p4
        out_dir = Path(args.emit_p4)
        out_dir.mkdir(parents=True, exist_ok=True)
        programs = generate_all_p4(compiled)
        for switch, program in programs.items():
            (out_dir / f"{switch}.p4").write_text(program.source)
        print(f"wrote {len(programs)} P4 programs to {out_dir}")
    return 0


@contextmanager
def _policy_errors(text: str) -> Iterator[None]:
    """A :class:`PolicyError` about the policy ``text`` as a one-line error."""
    try:
        yield
    except PolicyError as error:
        raise SystemExit(f"policy {text!r}: {error}") from None


def _resolve_policy(text: str):
    """A policy key (P1..P9), paper alias (MU/WP/CA), or minimize(...) text."""
    with _policy_errors(text):
        if text in ALL_POLICIES or text in POLICY_ALIASES:
            return policy_by_name(text)
        return parse_policy(text)


def _cmd_check_policy(args: argparse.Namespace) -> int:
    from repro.core.analysis.verification import verify_policy

    if args.all:
        policies = sorted(ALL_POLICIES)
    elif args.policy is not None:
        policies = [args.policy]
    else:
        raise SystemExit("check-policy needs a policy (P1..P9, an alias, or a "
                         "minimize(...) expression) or --all")
    topology = _build_topology(args) if args.topology else None
    reports = []
    for name in policies:
        policy = _resolve_policy(name)
        with _policy_errors(name):
            report = verify_policy(policy, topology)
        reports.append(report)
        print(report.render())
    if args.json is not None:
        path = Path(args.json)
        payload = [r.to_json_dict() for r in reports]
        path.write_text(json.dumps(payload[0] if len(payload) == 1 else payload,
                                   indent=2, sort_keys=True, default=str) + "\n")
        print(f"wrote {path}")
    return 0 if all(r.ok for r in reports) else 1


def _write_outcome_json(path_text: str, outcome, preset: str) -> None:
    path = Path(path_text)
    path.write_text(json.dumps({
        "scenario": outcome.name,
        "preset": preset,
        "results": outcome.payload,
    }, indent=2, sort_keys=True, default=str) + "\n")
    print(f"wrote {path}")


def _cmd_run_grid(args: argparse.Namespace) -> int:
    config = PRESETS[args.preset]()
    if args.sanitize:
        # Through the environment rather than a parameter: worker processes
        # inherit it, and spec hashes stay untouched (sanitizing never
        # re-keys a results store).
        os.environ["CONTRA_SANITIZE"] = "1"
    shard = None
    if args.shard is not None:
        try:
            shard = parse_shard(args.shard)
        except ExperimentError as error:
            raise SystemExit(str(error))
        if args.results_dir is None:
            raise SystemExit("--shard requires --results-dir (the shards "
                             "rendezvous through the results store)")
        if args.json is not None and shard[1] > 1:
            raise SystemExit(
                "--json needs the full grid; run `contra merge-results` once "
                "every shard has completed")
    # Non-grid scenarios with --results-dir are rejected by the registry
    # itself (one authoritative check + message), surfaced below as
    # SystemExit before any simulation runs.
    if args.json is not None and not Path(args.json).parent.is_dir():
        # Fail before the experiment runs, not after minutes of simulation.
        raise SystemExit(f"--json: directory {Path(args.json).parent} does not exist")

    try:
        if args.results_dir is not None:
            drained = run_scenario_coordinated(
                args.name, config, args.results_dir, processes=args.processes,
                shard=shard)
            print(drained.text)
            outcome = drained.outcome
        else:
            outcome = run_scenario(args.name, config, processes=args.processes)
    except (KeyError, ExperimentError) as error:
        raise SystemExit(str(error))
    if outcome is None:                     # a partial slice: no report
        return 0
    print(outcome.text)
    if args.json is not None:
        _write_outcome_json(args.json, outcome, args.preset)
    return 0


def _cmd_race_check(args: argparse.Namespace) -> int:
    from repro.experiments.race import race_check

    if args.json is not None and not Path(args.json).parent.is_dir():
        raise SystemExit(f"--json: directory {Path(args.json).parent} does not exist")
    try:
        report = race_check(args.name, PRESETS[args.preset](),
                            seeds=args.seeds, points=args.points)
    except ExperimentError as error:
        raise SystemExit(str(error))
    print(report.render())
    if args.json is not None:
        path = Path(args.json)
        path.write_text(json.dumps(report.to_json_dict(), indent=2,
                                   sort_keys=True, default=str) + "\n")
        print(f"wrote {path}")
    return 0 if report.ok else 1


def _cmd_merge_results(args: argparse.Namespace) -> int:
    config = PRESETS[args.preset]()
    if not Path(args.results_dir).is_dir():
        raise SystemExit(f"--results-dir: {args.results_dir} does not exist")
    if args.json is not None and not Path(args.json).parent.is_dir():
        raise SystemExit(f"--json: directory {Path(args.json).parent} does not exist")
    try:
        outcome = merge_scenario(args.name, config, args.results_dir)
    except (KeyError, ExperimentError) as error:
        raise SystemExit(str(error))
    # A merge *can* succeed while a coordinated drain still holds leases
    # (every point complete, releases pending) — warn so a mid-drain merge
    # is an explicit choice, but don't fail: the merged grid is complete.
    from repro.experiments.coordinator import live_leases

    leases = [lease for lease in live_leases(args.results_dir)
              if not lease.stale]
    if leases:
        print(f"warning: {len(leases)} live lease(s) remain in "
              f"{args.results_dir} (a coordinated drain may still be "
              f"running); the merged report covers the full grid",
              file=sys.stderr)
    print(outcome.text)
    if args.json is not None:
        _write_outcome_json(args.json, outcome, args.preset)
    if args.bench_artifact is not None:
        # wall_s sums the per-point wall-clock carried by every store record:
        # each record is one actual execution, so interrupted runs, resumes
        # and re-executed points are all accounted exactly.
        store = ResultsStore(args.results_dir)
        wall_s = store.total_wall_s()
        if wall_s <= 0:
            raise SystemExit(
                f"--bench-artifact: no per-point wall-clock records under "
                f"{args.results_dir}; the store was not produced by a "
                f"--results-dir run of this tree")
        shard_files = len(store.files.names(store.files.RESULTS))
        path = Path(args.bench_artifact)
        # Named after the artifact file, so two stores merged side by side
        # (BENCH_fig11_sharded.json, BENCH_fig11_coordinated.json) keep two
        # bench_diff trajectories.
        path.write_text(json.dumps({
            "benchmark": path.stem.removeprefix("BENCH_"),
            "wall_s": round(wall_s, 4),
            "preset": args.preset,
            "shards": shard_files,
        }, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path} (total compute {wall_s:.1f} s "
              f"across {shard_files} results file(s))")
    return 0


def _cmd_gc_results(args: argparse.Namespace) -> int:
    config = PRESETS[args.preset]()
    if not Path(args.results_dir).is_dir():
        raise SystemExit(f"--results-dir: {args.results_dir} does not exist")
    try:
        summary = gc_scenario(args.name, config, args.results_dir)
    except (KeyError, ExperimentError) as error:
        raise SystemExit(str(error))
    print(f"{args.name}: kept {summary['kept']} of {summary['total_records']} "
          f"records ({summary['dropped_stale']} stale, "
          f"{summary['dropped_duplicates']} duplicate(s) dropped); "
          f"{summary['missing']} grid point(s) still missing")
    if summary["leases_removed"] or summary["leases_live"]:
        print(f"leases: {summary['leases_removed']} orphaned/stale removed, "
              f"{summary['leases_live']} live lease(s) left in place")
    return 0


def _cmd_sweep_status(args: argparse.Namespace) -> int:
    config = PRESETS[args.preset]()
    if not Path(args.results_dir).is_dir():
        raise SystemExit(f"--results-dir: {args.results_dir} does not exist")
    try:
        status = sweep_status_scenario(args.name, config, args.results_dir)
    except (KeyError, ExperimentError) as error:
        raise SystemExit(str(error))
    print(f"{args.name}: {status.render()}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contra",
        description="Contra (NSDI 2020) reproduction: compiler, simulator and experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    policies = sub.add_parser("policies", help="list the built-in Figure 3 policies")
    policies.set_defaults(func=_cmd_policies)

    # Topology shape flags shared by compile and check-policy.
    shape = argparse.ArgumentParser(add_help=False)
    shape.add_argument("--k", type=int, default=4, help="fat-tree arity / leaf-spine size")
    shape.add_argument("--leaves", type=int, default=0,
                       help="leaf-spine leaf count (default: --k)")
    shape.add_argument("--spines", type=int, default=0,
                       help="leaf-spine spine count (default: --k)")
    shape.add_argument("--hosts-per-leaf", type=int, default=2,
                       help="hosts attached to each leaf switch")
    shape.add_argument("--size", type=int, default=50, help="random topology size")
    shape.add_argument("--seed", type=int, default=0)

    compile_cmd = sub.add_parser("compile", parents=[shape],
                                 help="compile a policy for a topology")
    compile_cmd.add_argument("policy", help="a policy key (P1..P9), a paper alias (MU/WP/CA), "
                                            "or a minimize(...) expression")
    compile_cmd.add_argument("--topology", default="fattree",
                             help="fattree | leafspine | abilene | random | builtin name | edge-list file")
    compile_cmd.add_argument("--emit-p4", metavar="DIR", default=None,
                             help="write the generated per-switch P4 programs to DIR")
    compile_cmd.set_defaults(func=_cmd_compile)

    check = sub.add_parser(
        "check-policy", parents=[shape],
        help="verify a policy: semantic monotonicity/isotonicity with concrete "
             "counterexamples, plus (with --topo) product-graph dead-state "
             "analysis and the lowered-table cross-check")
    check.add_argument("policy", nargs="?", default=None,
                       help="a policy key (P1..P9), a paper alias (MU/WP/CA), "
                            "or a minimize(...) expression")
    check.add_argument("--all", action="store_true",
                       help="check every bundled policy (P1..P9)")
    check.add_argument("--topo", dest="topology", default=None, metavar="NAME",
                       help="also analyze against a topology: fattree | "
                            "leafspine | abilene | random | builtin name | "
                            "edge-list file")
    check.add_argument("--json", metavar="PATH", default=None,
                       help="also dump the verification report(s) as JSON to PATH")
    check.set_defaults(func=_cmd_check_policy)

    # The scenario and its preset name the grid every grid command works on.
    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("name", choices=tuple(scenario_names()))
    grid.add_argument("--preset", choices=tuple(PRESETS), default="quick",
                      help="experiment configuration preset; a command reading "
                           "a results store must name the one its points ran with")

    run_grid = sub.add_parser(
        "run-grid", parents=[grid],
        help="run a named scenario through the parallel grid runner")
    run_grid.add_argument("--processes", type=int, default=None,
                          help="worker processes (default: $CONTRA_PROCS or serial; "
                               "0 = one per core)")
    run_grid.add_argument("--json", metavar="PATH", default=None,
                          help="also dump the scenario results as JSON to PATH")
    run_grid.add_argument("--results-dir", metavar="DIR", default=None,
                          help="persistent results store, drained through the "
                               "lease-based sweep coordinator (--processes "
                               "local drain processes): completed grid points "
                               "are recorded as JSONL keyed by spec hash, reruns "
                               "skip points already in the store, and any number "
                               "of invocations on any hosts pointed at the same "
                               "DIR converge to the full grid")
    run_grid.add_argument("--shard", metavar="I/N", default=None,
                          help="run only a deterministic 1/N slice of the grid "
                               "(round-robin by spec index) into --results-dir; "
                               "union the shards with `contra merge-results`")
    run_grid.add_argument("--sanitize", action="store_true",
                          help="run every point under the runtime sanitizer "
                               "plane (invariant checks + event provenance; "
                               "summaries are identical, violations abort)")
    run_grid.set_defaults(func=_cmd_run_grid)

    race = sub.add_parser(
        "race-check", parents=[grid],
        help="re-run grid points under seeded permutations of "
             "non-contractual same-tick event orders and diff the summaries "
             "(a divergence is a hidden order dependence)")
    race.add_argument("--seeds", type=int, default=2,
                      help="permutation seeds per grid point (default 2)")
    race.add_argument("--points", type=int, default=None,
                      help="check only the first N grid points (default: all)")
    race.add_argument("--json", metavar="PATH", default=None,
                      help="also dump the race report as JSON to PATH")
    race.set_defaults(func=_cmd_race_check)

    merge = sub.add_parser(
        "merge-results", parents=[grid],
        help="union shard artifacts into the exact unsharded scenario report")
    merge.add_argument("--results-dir", metavar="DIR", required=True,
                       help="the results store directory every shard ran against")
    merge.add_argument("--json", metavar="PATH", default=None,
                       help="also dump the merged results as JSON to PATH")
    merge.add_argument("--bench-artifact", metavar="PATH", default=None,
                       help="write a BENCH-style wall-clock artifact summing "
                            "the per-point compute records in the store "
                            "(for bench_diff tracking)")
    merge.set_defaults(func=_cmd_merge_results)

    gc = sub.add_parser(
        "gc-results", parents=[grid],
        help="drop stale records and compact shard files in a results store "
             "(records keyed outside the preset's current grid are dropped)")
    gc.add_argument("--results-dir", metavar="DIR", required=True,
                    help="the results store directory to garbage-collect")
    gc.set_defaults(func=_cmd_gc_results)

    status = sub.add_parser(
        "sweep-status", parents=[grid],
        help="progress view of a coordinated results directory: "
             "pending/leased/complete per locality group, plus per-worker "
             "executed, stolen and reclaimed counts read from this grid's "
             "records")
    status.add_argument("--results-dir", metavar="DIR", required=True,
                        help="the results store directory the drain runs against")
    status.set_defaults(func=_cmd_sweep_status)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
