#!/usr/bin/env python3
"""Compare two result files of ``run.py --out``: ``compare.py BASE CANDIDATE``.

One row per (workload, metric): both medians, the ratio candidate / base, the
bound and a verdict.

* A bounded metric is ``REGRESSED`` when the candidate's median is worse than
  the base's by more than the bound, and ``unresolved`` when either side's own
  samples spread wider than the bound — unless every sample of one side beats
  every sample of the other, which resolves it whatever the spread.
* An exact metric (simulated results, deterministic counts, digests) is
  compared with zero tolerance; any difference reads ``behaviour changed``.
* Everything else is information: the per-layer ledger says where a change in
  an end-to-end metric came from, it does not gate.

Exit status: 1 on a regressed bounded metric or a higher share of failed
operations, 2 when the files cannot be compared, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import List, Optional, Sequence

sys.path.insert(0, str(Path(__file__).resolve().parent))

from perf_metrics import END_TO_END, PER_LAYER, Metric   # noqa: E402


def spread(samples: Sequence[float]) -> float:
    """Run-to-run spread as a share of the median: IQR from four samples up, else range."""
    median = statistics.median(samples)
    if len(samples) < 2 or not median:
        return 0.0
    if len(samples) >= 4:
        quartiles = statistics.quantiles(samples, n=4)
        return (quartiles[2] - quartiles[0]) / abs(median)
    return (max(samples) - min(samples)) / abs(median)


def worse_by(metric: Metric, base: float, candidate: float) -> float:
    """How much worse the candidate is, as a share of the base (negative: better)."""
    delta = candidate - base if metric.better == "lower" else base - candidate
    if not base:
        return 0.0 if not delta else float("inf") if delta > 0 else float("-inf")
    return delta / abs(base)


def separated(base: Sequence[float], candidate: Sequence[float]) -> bool:
    """Every sample of one side beats every sample of the other."""
    return max(base) < min(candidate) or max(candidate) < min(base)


def verdict(metric: Metric, base: dict, candidate: dict) -> str:
    change = worse_by(metric, base["value"], candidate["value"])
    regressed = metric.bound is not None and change > metric.bound
    if metric.exact:
        if base["value"] == candidate["value"]:
            return "same"
        return "REGRESSED, behaviour changed" if regressed else "behaviour changed"
    if metric.bound is None:
        return "info"
    resolved = (max(spread(base["samples"]), spread(candidate["samples"])) <= metric.bound
                or separated(base["samples"], candidate["samples"]))
    if not resolved:
        return "unresolved"
    if regressed:
        return "REGRESSED"
    return "improved" if change < -metric.bound else "ok"


def _failed_share(record: dict) -> float:
    return len(record["failures"]) / record["attempted"] if record["attempted"] else 1.0


def compare(base: dict, candidate: dict) -> int:
    status = 0
    for side, document in (("base", base), ("candidate", candidate)):
        if not document.get("comparable"):
            print(f"{side} is a --smoke result: not comparable", file=sys.stderr)
            return 2
        if document["provenance"].get("noisy"):
            print(f"warning: {side} was measured on a busy machine "
                  f"(load {document['provenance']['load_1m']:.2f})", file=sys.stderr)
    print(f"base {base['provenance']['commit'][:12]} seed {base['provenance']['seed']}  "
          f"candidate {candidate['provenance']['commit'][:12]} "
          f"seed {candidate['provenance']['seed']}")
    print(f"{'workload':14s} {'metric':48s} {'base':>12s} {'candidate':>12s} "
          f"{'cand/base':>9s} {'bound':>6s}  verdict")
    for workload, base_record in base["workloads"].items():
        candidate_record = candidate["workloads"].get(workload)
        if candidate_record is None:
            print(f"{workload:14s} missing from the candidate", file=sys.stderr)
            return 2
        for kind, metrics in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
            for metric in metrics:
                a = base_record.get(kind, {}).get(metric.name)
                b = candidate_record.get(kind, {}).get(metric.name)
                if a is None or b is None or not (a["value"] or b["value"]):
                    continue            # not measured, or idle on this workload
                outcome = verdict(metric, a, b)
                if outcome.startswith("REGRESSED"):
                    status = 1
                ratio = f"{b['value'] / a['value']:9.3f}" if a["value"] else f"{'-':>9s}"
                bound = f"{metric.bound:6.2f}" if metric.bound is not None else f"{'':6s}"
                print(f"{workload:14s} {metric.name:48s} {a['value']:12.6g} "
                      f"{b['value']:12.6g} {ratio} {bound}  {outcome}")
        same = base_record["digest"] == candidate_record["digest"]
        print(f"{workload:14s} {'digest':48s} {base_record['digest'][:12]:>12s} "
              f"{candidate_record['digest'][:12]:>12s} {'':9s} {'':6s}  "
              f"{'same' if same else 'behaviour changed'}")
        a_failed, b_failed = _failed_share(base_record), _failed_share(candidate_record)
        failed_outcome = "REGRESSED" if b_failed > a_failed else "ok"
        if b_failed > a_failed:
            status = 1
        print(f"{workload:14s} {'ops_failed_share':48s} {a_failed:12.6g} {b_failed:12.6g} "
              f"{'':9s} {0.0:6.2f}  {failed_outcome}")
    return status


def main(argv: Optional[List[str]] = None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    base, candidate = (json.loads(Path(path).read_text()) for path in paths)
    return compare(base, candidate)


if __name__ == "__main__":
    sys.exit(main())
