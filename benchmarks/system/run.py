#!/usr/bin/env python3
"""Run one workload of the system benchmark (see README.md beside this file).

    python3 benchmarks/system/run.py --workload hot-analytics --seed 1
    python3 benchmarks/system/run.py --workload all --out base.json
    python3 benchmarks/system/run.py --workload live-ingest --traced

Prints every metric by name with its unit; the last line of standard
output is the one JSON object the benchmark driver reads.
"""

from __future__ import annotations

import argparse
import gc
import json
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from sysbench import env  # noqa: E402  (stdlib only; safe before NumPy)
from sysbench.catalogue import (  # noqa: E402
    END_TO_END,
    FAILED_OPS_SHARE,
    RUN_SECONDS,
    WORKLOADS,
)

SCHEMA = "chronos-sysbench/1"


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=[w.name for w in WORKLOADS] + ["all"]
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=RUN_SECONDS,
        help="length of one run, which the repetition counts scale with",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1: the traced run (per-layer metrics); 0: end-to-end metrics",
    )
    parser.add_argument(
        "--traced", dest="trace", action="store_const", const=1,
        help="same as --trace 1",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny inputs: checks the wiring in seconds, never compared",
    )
    parser.add_argument(
        "--out", help="append this run's full result to a JSON result file"
    )
    parser.add_argument(
        "--spans", help="traced run: where to write the span JSONL "
        "(default .bench_out/<workload>-seed<N>.spans.jsonl)",
    )
    return parser.parse_args(argv)


def run_all(args: argparse.Namespace) -> int:
    """One child process per workload, so peak RSS is each workload's own."""
    status = 0
    for workload in WORKLOADS:
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", workload.name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        if args.smoke:
            command.append("--smoke")
        if args.out:
            command += ["--out", args.out]
        if args.spans:
            command += ["--spans", f"{args.spans}.{workload.name}"]
        status = max(status, subprocess.run(command).returncode)
    return status


def run_workload(args: argparse.Namespace) -> Dict[str, Any]:
    from sysbench.core import Context, Section
    from sysbench.spans import Recorder
    from sysbench.workloads import WORKLOADS as RUNNERS

    traced = bool(args.trace)
    tmp = env.make_tmp_root(args.workload)
    try:
        ctx = Context(
            workload=args.workload, seed=args.seed, seconds=args.seconds,
            traced=traced, smoke=args.smoke, tmp=tmp,
        )
        workload = RUNNERS[args.workload](ctx)
        # Where the run's own wall time went, phase by phase.
        phases = Recorder(keep=True)
        setup = Recorder(keep=traced)
        with phases.span("setup") as whole:
            workload.set_up(setup)
        with phases.span("checks"):
            workload.prepare_checks(setup)
            gc.collect()

        untraced = Section(traced=False)
        with phases.span("measure"):
            workload.measure(untraced)
        end_to_end = workload.end_to_end(untraced, whole.dur)
        per_layer = None
        spans_path = None
        if traced:
            section = Section(traced=True)
            with phases.span("measure_traced"):
                workload.measure(section)
            probes = Section(traced=True)
            with phases.span("probes"):
                workload.probes(probes)
        with phases.span("tear_down"):
            workload.tear_down()
        if traced:
            per_layer = workload.per_layer(untraced, section, probes)
            spans_path = write_spans(args, [setup, section.rec, probes.rec])
    finally:
        env.remove_tmp_root(tmp)

    checks = workload.checks
    return {
        "schema": SCHEMA,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "traced": traced,
        "host": env.host_block(),
        "sizes": workload.sizes,
        # Every wall time behind the end-to-end metrics, in seconds.
        "samples": {
            k: [round(x, 6) for x in v]
            for k, v in sorted(untraced.samples.items())
        },
        "phases_s": {
            p["name"]: round(p["end"] - p["start"], 3) for p in phases.spans
        },
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "failures": checks.failures,
        FAILED_OPS_SHARE: {
            "value": checks.failed / checks.attempted, "unit": "ratio",
        },
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "spans": spans_path,
    }


def write_spans(args: argparse.Namespace, recorders: List[Any]) -> str:
    """All spans of the traced run as JSONL; ids are unique per phase."""
    if args.spans:
        path = Path(args.spans)
    else:
        path = env.OUT_DIR / f"{args.workload}-seed{args.seed}.spans.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    phases = ("setup", "traced", "probes")
    with open(path, "w") as fh:
        for phase, recorder in zip(phases, recorders):
            for record in recorder.spans:
                fh.write(json.dumps({"phase": phase, **record}, sort_keys=True) + "\n")
    return str(path)


def append_result(path: str, result: Dict[str, Any]) -> None:
    """Result files hold a list of runs, so repeats and all four workloads
    accumulate in one file that ``compare.py`` reads."""
    target = Path(path)
    runs: List[Dict[str, Any]] = []
    if target.exists():
        runs = json.loads(target.read_text())["runs"]
    runs.append(result)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps({"schema": SCHEMA, "runs": runs}, indent=1) + "\n")


def print_report(result: Dict[str, Any]) -> None:
    print(
        f"# {result['workload']}  seed={result['seed']}  "
        f"seconds={result['seconds']:g}"
        + ("  SMOKE (not comparable)" if result["smoke"] else "")
    )
    print(f"# sizes: {json.dumps(result['sizes'])}")
    counts = {k: len(v) for k, v in result["samples"].items()}
    print(f"# samples: {json.dumps(counts)}")
    print(f"# phases_s: {json.dumps(result['phases_s'])}")
    rows = dict(result["end_to_end"])
    rows[FAILED_OPS_SHARE] = result[FAILED_OPS_SHARE]
    if result["per_layer"]:
        rows.update(result["per_layer"])
    for name, entry in rows.items():
        note = ""
        if "n" in entry:
            note += f"  n={entry['n']}"
        print(f"{name:40s} {entry['value']:>18.6g} {entry['unit']:<6s}{note}")
    for failure in result["failures"]:
        print(f"FAILED: {failure}")


def driver_line(result: Dict[str, Any]) -> str:
    """The driver's contract: per-layer metrics on a traced run, otherwise
    every end-to-end metric ``BENCHMARK.json`` lists, none of them 0.

    A metric the workload does not measure (no compaction on
    ``hot-analytics``) is padded here and only here: a time repeats the
    workload's ``query_p50_s`` and a rate its ``queries_per_s``, whose
    bounds are no wider, so the extra gate never fires on its own; an exact
    quantity reads 1.
    """
    if result["traced"]:
        source = result["per_layer"]
    else:
        source = dict(result["end_to_end"])
        pads = {"s": source["query_p50_s"], "1/s": source["queries_per_s"]}
        for metric in END_TO_END:
            if metric.name not in source:
                source[metric.name] = pads.get(
                    metric.unit, {"value": 1.0, "unit": metric.unit}
                )
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": entry["value"], "unit": entry["unit"]}
            for name, entry in source.items()
        },
    })


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (env.SRC_DIR / "repro" / "__init__.py").is_file():
        print(
            f"run.py: no program to measure: {env.SRC_DIR}/repro is missing",
            file=sys.stderr,
        )
        return 2
    env.pin_math_threads()
    sys.path.insert(0, str(env.SRC_DIR))
    try:
        result = run_workload(args)
    finally:
        # Also on an op that raised: the pool, the shared-memory resource
        # tracker and any other child have ended before this process does.
        env.stop_children()
    if args.out:
        append_result(args.out, result)
    print_report(result)
    print(driver_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
