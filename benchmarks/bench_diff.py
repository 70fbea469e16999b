"""Compare BENCH_*.json wall-clock artifacts across commits.

The per-figure benchmark harness (see ``benchmarks/conftest.py``) drops one
``BENCH_<name>.json`` file per benchmark with the measured wall-clock.  CI
archives them; this tool diffs two sets of artifacts — a baseline and a
current run — and exits nonzero when any benchmark regressed by more than
the threshold (default 10% wall-clock, the ROADMAP "Perf trajectory" gate).

Usage::

    python benchmarks/bench_diff.py BASELINE CURRENT [--threshold 0.10]

``BASELINE`` and ``CURRENT`` are each either a single ``BENCH_*.json`` file
or a directory of them (matched by file name).  Benchmarks present on only
one side are reported but never fail the comparison — a renamed or new
benchmark must not mask a regression signal with a hard error.  Two files
on one side that claim the same benchmark name are an error (exit 2).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

__all__ = ["load_artifacts", "diff_artifacts", "format_diff", "main", "BenchDelta"]

DEFAULT_THRESHOLD = 0.10


@dataclass
class BenchDelta:
    """One benchmark's wall-clock comparison between two artifact sets."""

    name: str
    baseline_s: Optional[float]         # None: benchmark only in the current set
    current_s: Optional[float]          # None: benchmark only in the baseline set
    threshold: float

    @property
    def ratio(self) -> Optional[float]:
        if self.baseline_s is None or self.current_s is None or self.baseline_s <= 0:
            return None
        return self.current_s / self.baseline_s

    @property
    def regressed(self) -> bool:
        ratio = self.ratio
        return ratio is not None and ratio > 1.0 + self.threshold

    @property
    def status(self) -> str:
        if self.baseline_s is None:
            return "new"
        if self.current_s is None:
            return "removed"
        if self.regressed:
            return "REGRESSED"
        if self.ratio is not None and self.ratio < 1.0 - self.threshold:
            return "improved"
        return "ok"


def load_artifacts(path: Path) -> Dict[str, dict]:
    """Load ``BENCH_*.json`` payloads keyed by benchmark name.

    ``path`` may be one artifact file or a directory containing them; files
    that are not valid JSON objects with a numeric ``wall_s`` are skipped
    (artifact directories also hold pytest-benchmark output and logs).  Two
    files that claim one benchmark name raise :class:`ValueError` naming
    both: keeping either would silently drop the other's trajectory.
    """
    path = Path(path)
    files = sorted(path.glob("BENCH_*.json")) if path.is_dir() else [path]
    artifacts: Dict[str, dict] = {}
    sources: Dict[str, Path] = {}
    for file in files:
        try:
            payload = json.loads(file.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        if not isinstance(payload, dict):
            continue
        wall = payload.get("wall_s")
        if not isinstance(wall, (int, float)):
            continue
        name = str(payload.get("benchmark", file.stem))
        if name in sources:
            raise ValueError(f"{sources[name]} and {file} both claim "
                             f"benchmark {name!r}")
        artifacts[name] = payload
        sources[name] = file
    return artifacts


def diff_artifacts(baseline: Dict[str, dict], current: Dict[str, dict],
                   threshold: float = DEFAULT_THRESHOLD) -> List[BenchDelta]:
    """Pair up both artifact sets by benchmark name, sorted for stable output."""
    deltas = []
    for name in sorted(set(baseline) | set(current)):
        deltas.append(BenchDelta(
            name=name,
            baseline_s=baseline[name]["wall_s"] if name in baseline else None,
            current_s=current[name]["wall_s"] if name in current else None,
            threshold=threshold,
        ))
    return deltas


def format_diff(deltas: List[BenchDelta]) -> str:
    lines = [f"{'benchmark':40s} {'baseline_s':>10s} {'current_s':>10s} "
             f"{'ratio':>7s} status"]
    for delta in deltas:
        baseline = f"{delta.baseline_s:.3f}" if delta.baseline_s is not None else "-"
        current = f"{delta.current_s:.3f}" if delta.current_s is not None else "-"
        ratio = f"{delta.ratio:.2f}x" if delta.ratio is not None else "-"
        lines.append(f"{delta.name:40s} {baseline:>10s} {current:>10s} "
                     f"{ratio:>7s} {delta.status}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Diff BENCH_*.json wall-clock artifacts; exit 1 on regression.")
    parser.add_argument("baseline", type=Path,
                        help="baseline BENCH_*.json file or directory")
    parser.add_argument("current", type=Path,
                        help="current BENCH_*.json file or directory")
    parser.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                        help="relative wall-clock regression that fails the diff "
                             "(default: 0.10 = 10%%)")
    args = parser.parse_args(argv)

    try:
        baseline = load_artifacts(args.baseline)
        current = load_artifacts(args.current)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if not baseline:
        print(f"no baseline artifacts under {args.baseline}; nothing to compare")
        return 0
    if not current:
        print(f"no current artifacts under {args.current}; nothing to compare", file=sys.stderr)
        return 2

    deltas = diff_artifacts(baseline, current, threshold=args.threshold)
    print(format_diff(deltas))
    regressions = [d for d in deltas if d.regressed]
    if regressions:
        names = ", ".join(d.name for d in regressions)
        print(f"\nFAIL: {len(regressions)} benchmark(s) regressed "
              f">{args.threshold:.0%} wall-clock: {names}", file=sys.stderr)
        return 1
    print(f"\nOK: no benchmark regressed more than {args.threshold:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
