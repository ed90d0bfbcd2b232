#!/usr/bin/env python3
"""Compare two result files of the system benchmark.

    python3 benchmarks/system/compare.py base.json candidate.json

One row per (workload, end-to-end metric the workload measures),
judged against the regression bound ``sysbench/catalogue.py`` fixes for the
metric (the issue's 8-10 %; ``BENCHMARK.json`` carries the wider bounds at
which the driver rejects outright):

- *worse*      the candidate's median is worse than the base's by more than
               the bound;
- *better*     it is better by more than the bound;
- *same*       neither, and the runs are steady enough to say so;
- *unresolved* the run-to-run spread of either side exceeds the bound, so a
               difference of that size cannot be told from noise (unless
               every candidate run beats, or loses to, every base run).

Exits 1 on any *worse* or on a higher ``failed_ops_share``, 2 when the
files cannot be compared (smoke runs, no common workload), else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

from sysbench.catalogue import END_TO_END, FAILED_OPS_SHARE, EndToEnd  # noqa: E402

#: workload -> metric -> one value per run
Values = Dict[str, Dict[str, List[float]]]


def load(path: str) -> Values:
    """End-to-end values of the comparable runs in a result file."""
    runs = json.loads(Path(path).read_text())["runs"]
    values: Values = defaultdict(lambda: defaultdict(list))
    for run in runs:
        if run["smoke"]:
            raise ValueError(f"{path}: smoke runs are never compared")
        if run["traced"]:
            continue  # end-to-end metrics come from untraced runs only
        metrics = values[run["workload"]]
        for name, entry in run["end_to_end"].items():
            metrics[name].append(entry["value"])
        metrics[FAILED_OPS_SHARE].append(run[FAILED_OPS_SHARE]["value"])
    return values


def spread(values: Sequence[float]) -> float:
    """Run-to-run spread as a share of the median: the quartile distance
    from four runs up, the range below that, 0 for a single run."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return 0.0
    if len(values) >= 4:
        q1, _, q3 = statistics.quantiles(values, n=4)
        return (q3 - q1) / abs(med)
    return (max(values) - min(values)) / abs(med)


def verdict(
    metric: EndToEnd, base: Sequence[float], cand: Sequence[float]
) -> Tuple[str, float, float]:
    """``(verdict, worse_by, spread)``; ``worse_by`` is the share of the
    base median by which the candidate is worse (negative: better)."""
    sign = 1.0 if metric.better == "lower" else -1.0
    base_med = statistics.median(base)
    worse_by = sign * (statistics.median(cand) - base_med) / abs(base_med)
    noise = max(spread(base), spread(cand))
    all_better = all(sign * c < sign * b for c in cand for b in base)
    all_worse = all(sign * c > sign * b for c in cand for b in base)
    if noise > metric.bound:
        if all_better:
            return "better", worse_by, noise
        if all_worse and worse_by > metric.bound:
            return "worse", worse_by, noise
        return "unresolved", worse_by, noise
    if worse_by > metric.bound:
        return "worse", worse_by, noise
    if worse_by < -metric.bound:
        return "better", worse_by, noise
    return "same", worse_by, noise


def compare(base: Values, cand: Values) -> Tuple[List[str], bool]:
    """The report lines and whether anything got worse."""
    lines = [
        f"{'workload':18s} {'metric':26s} {'base':>12s} {'candidate':>12s} "
        f"{'worse by':>9s} {'spread':>7s} {'bound':>6s}  verdict"
    ]
    failed = False
    for workload in sorted(set(base) & set(cand)):
        for metric in END_TO_END:
            b = base[workload].get(metric.name)
            c = cand[workload].get(metric.name)
            if not b or not c:
                continue
            word, worse_by, noise = verdict(metric, b, c)
            failed |= word == "worse"
            lines.append(
                f"{workload:18s} {metric.name:26s} "
                f"{statistics.median(b):12.5g} {statistics.median(c):12.5g} "
                f"{worse_by:+9.1%} {noise:7.1%} {metric.bound:6.0%}  {word}"
                f"  [{metric.unit}, n={len(b)}/{len(c)}]"
            )
        b_fail = max(base[workload][FAILED_OPS_SHARE])
        c_fail = max(cand[workload][FAILED_OPS_SHARE])
        word = "worse" if c_fail > b_fail else "same"
        failed |= word == "worse"
        lines.append(
            f"{workload:18s} {FAILED_OPS_SHARE:26s} {b_fail:12.5g} "
            f"{c_fail:12.5g} {'':9s} {'':7s} {'any':>6s}  {word}  [ratio]"
        )
    return lines, failed


def main(argv: Optional[List[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        base, cand = load(args[0]), load(args[1])
    except (OSError, ValueError, KeyError) as exc:
        print(f"compare.py: {exc}", file=sys.stderr)
        return 2
    if not set(base) & set(cand):
        print("compare.py: the files share no workload", file=sys.stderr)
        return 2
    lines, failed = compare(base, cand)
    print("\n".join(lines))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
