"""Command-line interface: run temporal graph computations from a shell.

Examples::

    python -m repro.cli stats
    python -m repro.cli run --graph wiki --app pagerank --mode push \\
        --snapshots 16 --batch 8
    python -m repro.cli run --graph weibo --app sssp --simulate
    python -m repro.cli run --trace trace.json --metrics metrics.json
    python -m repro.cli trace --app wcc --out trace.json

Wall-clock time is never read here (chronolint CHR007): every run
installs an observability scope (:mod:`repro.obs`) and reports the
traced duration of its root ``run`` span instead.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import tempfile
from typing import List, Optional

from repro import obs
from repro.algorithms import make_program
from repro.datasets import (
    graph_statistics,
    symmetrized,
    twitter_like,
    web_like,
    weibo_like,
    wiki_like,
)
from repro.engine import EngineConfig, Simulation, run, simulate
from repro.layout import LayoutKind
from repro.memsim import HierarchyConfig

GENERATORS = {
    "wiki": wiki_like,
    "web": web_like,
    "twitter": twitter_like,
    "weibo": weibo_like,
}
UNDIRECTED_APPS = {"wcc", "mis"}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Chronos temporal graph engine (reproduction)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    stats = sub.add_parser("stats", help="print Table-1 style graph statistics")
    stats.add_argument("--seed", type=int, default=0)

    runp = sub.add_parser("run", help="run an algorithm over a snapshot series")
    _add_run_args(runp)

    tracep = sub.add_parser(
        "trace",
        help="traced run: record hierarchical spans and metrics, then "
        "export a Chrome trace (Perfetto-loadable) plus optional "
        "JSONL events and a metrics/report JSON",
    )
    _add_run_args(tracep)
    tracep.add_argument(
        "--out",
        default="trace.json",
        metavar="CHROME_JSON",
        help="Chrome trace-event output path (default trace.json)",
    )

    lint = sub.add_parser(
        "lint",
        help="run chronolint, the static analyzer: per-file invariant "
        "rules and call-graph proofs",
        add_help=False,
    )
    lint.add_argument(
        "args",
        nargs=argparse.REMAINDER,
        help="arguments forwarded to chronolint (see `repro lint --help`)",
    )

    cachep = sub.add_parser(
        "cache",
        help="inspect or maintain a result-cache directory (--cache-dir)",
    )
    cachep.add_argument(
        "action",
        choices=["stats", "clear", "verify"],
        help="stats: tier sizes and per-program entry counts; clear: drop "
        "every entry; verify: CRC-check every disk entry, dropping "
        "invalid ones",
    )
    cachep.add_argument(
        "--cache-dir",
        required=True,
        metavar="DIR",
        help="the result-cache directory to operate on",
    )
    cachep.add_argument(
        "--json",
        action="store_true",
        help="emit the result as JSON instead of prose",
    )

    ingest = sub.add_parser(
        "ingest",
        help="stream a generated activity log into a crash-safe store "
        "(WAL + head; see `repro recover` / `repro fsck`)",
    )
    ingest.add_argument(
        "--store", required=True, metavar="DIR",
        help="the streaming-store directory (created if missing)",
    )
    ingest.add_argument("--graph", choices=sorted(GENERATORS), default="wiki")
    ingest.add_argument("--seed", type=int, default=0)
    ingest.add_argument(
        "--batch-records", type=int, default=256, metavar="N",
        help="activities per WAL append batch (default 256)",
    )
    ingest.add_argument(
        "--fsync", choices=["always", "batch", "os"], default="batch",
        help="WAL durability policy: fsync per append, per batch "
        "(default), or leave flushing to the OS",
    )
    ingest.add_argument(
        "--compact", action="store_true",
        help="fold the ingested head into immutable v2 edge files and "
        "truncate the WAL once the stream is absorbed",
    )
    ingest.add_argument(
        "--json", action="store_true",
        help="emit the ingest summary as JSON instead of prose",
    )

    recover = sub.add_parser(
        "recover",
        help="open a streaming store, truncating any torn WAL tail and "
        "replaying unabsorbed frames; prints the recovery report",
    )
    recover.add_argument(
        "--store", required=True, metavar="DIR",
        help="the streaming-store directory to recover",
    )
    recover.add_argument(
        "--json", action="store_true",
        help="emit the recovery report as JSON instead of prose",
    )

    fsck = sub.add_parser(
        "fsck",
        help="audit a store directory read-only: manifest, per-section "
        "edge-file CRCs, WAL frames, debris; exit 1 on corruption",
    )
    fsck.add_argument(
        "--store", required=True, metavar="DIR",
        help="the store directory to audit",
    )
    fsck.add_argument(
        "--json", action="store_true",
        help="emit the full fsck report as JSON instead of prose",
    )
    return parser


def _add_run_args(runp: argparse.ArgumentParser) -> None:
    runp.add_argument("--graph", choices=sorted(GENERATORS), default="wiki")
    runp.add_argument(
        "--app",
        choices=["pagerank", "wcc", "sssp", "mis", "spmv"],
        default="pagerank",
    )
    runp.add_argument("--mode", choices=["push", "pull", "stream"], default="push")
    runp.add_argument("--snapshots", type=int, default=16)
    runp.add_argument("--batch", type=int, default=None, help="LABS batch size")
    runp.add_argument(
        "--layout", choices=["time", "structure"], default="time"
    )
    # A simulated run charges every group, so it cannot reuse results.
    charged = runp.add_mutually_exclusive_group()
    charged.add_argument(
        "--simulate",
        action="store_true",
        help="charge the run to the simulated memory hierarchy and report "
        "its miss counts and simulated time",
    )
    runp.add_argument(
        "--trace",
        default=None,
        metavar="CHROME_JSON",
        help="write the run's observability trace here as Chrome "
        "trace-event JSON (Perfetto-loadable)",
    )
    runp.add_argument(
        "--trace-jsonl",
        default=None,
        metavar="PATH",
        help="also write the raw trace events, one JSON object per line",
    )
    runp.add_argument(
        "--metrics",
        default=None,
        metavar="PATH",
        help="write the run report (counters, metrics registry snapshot, "
        "derived hit rates, phase timings) as JSON",
    )
    runp.add_argument(
        "--executor",
        choices=["serial", "process"],
        default="serial",
        help="run in the calling thread, or (process: a thread pool) walk "
        "each group's destination-vertex ranges on --workers threads "
        "(wall-clock parallelism)",
    )
    runp.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker-thread count for --executor process",
    )
    runp.add_argument(
        "--mmap",
        action="store_true",
        help="out-of-core mode: persist the generated graph as an on-disk "
        "snapshot-group store in a temporary directory and open it "
        "memory-mapped (StoreConfig(mmap=True))",
    )
    charged.add_argument(
        "--reuse",
        choices=["cache", "incremental"],
        default=None,
        help="serve unchanged LABS groups from the fingerprint-keyed "
        "result cache (cache), and additionally seed changed groups "
        "from their predecessor's result (incremental)",
    )
    runp.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="on-disk tier for --reuse (default: in-memory only); each "
        "computed group lands here as it completes, so rerunning the same "
        "arguments after a crash resumes where the last run stopped; "
        "inspect it with `repro cache stats --cache-dir DIR`",
    )
    runp.add_argument("--seed", type=int, default=0)
    runp.add_argument("--top", type=int, default=5, help="values to print")


def _cmd_stats(args: argparse.Namespace) -> int:
    print(f"{'graph':>8} {'vertices':>9} {'activities':>11} "
          f"{'distinct edges':>14} {'span':>7}")
    for name, gen in GENERATORS.items():
        graph = gen(seed=args.seed)
        s = graph_statistics(graph)
        print(
            f"{name:>8} {s['num_vertices']:9d} {s['num_edge_activities']:11d} "
            f"{s['num_distinct_edges']:14d} {s['time_span']:6d}d"
        )
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    chrome_out = args.trace
    if args.command == "trace":
        chrome_out = chrome_out or args.out
    observation = obs.observe()
    try:
        return _run_and_report(args, observation, chrome_out)
    finally:
        obs.disable()


def _run_and_report(
    args: argparse.Namespace,
    observation: "obs.Observation",
    chrome_out: Optional[str],
) -> int:
    # Built first so a rejected combination fails before any graph work.
    config = EngineConfig(
        mode=args.mode,
        batch_size=args.batch,
        layout=(
            LayoutKind.TIME_LOCALITY
            if args.layout == "time"
            else LayoutKind.STRUCTURE_LOCALITY
        ),
        executor=args.executor,
        workers=args.workers,
        reuse=args.reuse,
        cache_dir=args.cache_dir,
    )
    graph = GENERATORS[args.graph](seed=args.seed)
    if args.app in UNDIRECTED_APPS:
        graph = symmetrized(graph)
    times = graph.evenly_spaced_times(args.snapshots)
    program = make_program(args.app)
    with contextlib.ExitStack() as scratch:
        if args.mmap:
            # Out-of-core path: round-trip the graph through an on-disk
            # snapshot-group store and open it memory-mapped, exactly like
            # a store that exceeds a memory budget would be. The store
            # lives only as long as the run.
            from repro.storage.loader import load_series
            from repro.storage.store import StoreConfig, TemporalGraphStore

            store_dir = scratch.enter_context(
                tempfile.TemporaryDirectory(prefix="repro-store-")
            )
            TemporalGraphStore.create(store_dir, graph)
            store = TemporalGraphStore(store_dir, StoreConfig(mmap=True))
            series = load_series(store, times)
        else:
            series = graph.series(times)
        executor_note = (
            f", {args.executor} executor ({args.workers} workers)"
            if args.executor == "process"
            else ""
        )
        print(
            f"{args.app} on {args.graph}: {series.num_vertices} vertices, "
            f"{series.num_edges} distinct edges, "
            f"{series.num_snapshots} snapshots, {args.mode} mode, batch "
            f"{config.effective_batch_size(series.num_snapshots)}"
            f"{executor_note}"
        )
        if args.simulate:
            sim = Simulation(hierarchy=HierarchyConfig.experiment_scale())
            result = simulate(series, program, config, sim)
        else:
            result = run(series, program, config)
    wall = observation.tracer.duration("run") if observation.tracer else None
    c = result.counters
    reuse_note = ""
    if args.reuse:
        reuse_note = (
            f", {result.cached_groups} group(s) from cache, "
            f"{result.seeded_groups} seeded"
        )
    print(
        f"done in {wall if wall is not None else 0.0:.2f}s wall; "
        f"{c.iterations} iterations, "
        f"{c.edge_array_accesses} edge-array accesses"
        f"{reuse_note}"
    )
    if args.simulate:
        m = result.memory
        print(
            f"simulated: {result.sim_seconds:.5f}s, L1d misses {m.l1d_misses}, "
            f"LLC misses {m.llc_misses}, dTLB misses {m.dtlb_misses}"
        )
    decoded = result.decoded()
    import numpy as np

    final = decoded[:, -1]
    live = ~np.isnan(final)
    order = np.argsort(np.nan_to_num(final, nan=-np.inf))[::-1][: args.top]
    print(f"top {args.top} values at the last snapshot "
          f"({int(live.sum())} live vertices):")
    for v in order:
        print(f"  vertex {int(v):6d}: {final[v]:.6g}")

    tracer = observation.tracer
    if chrome_out and tracer is not None:
        obs.write_chrome(tracer.events, chrome_out, tracer.threads)
        print(f"wrote Chrome trace ({len(tracer.events)} events) "
              f"to {chrome_out}")
    if args.trace_jsonl and tracer is not None:
        obs.write_jsonl(tracer.events, args.trace_jsonl)
        print(f"wrote trace events to {args.trace_jsonl}")
    if args.metrics:
        # User-addressed run report at a path the operator chose; a torn
        # write on crash costs a re-run of `repro run`, never store/cache
        # integrity.
        # chronolint: allow-atomic-write
        with open(args.metrics, "w") as fh:
            json.dump(result.report(), fh, indent=1, sort_keys=True)
        print(f"wrote run report to {args.metrics}")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.cache import result_cache

    cache = result_cache(args.cache_dir)
    if args.action == "stats":
        stats = cache.stats()
        if args.json:
            print(json.dumps(stats, indent=1, sort_keys=True))
            return 0
        disk = stats["disk"]
        print(f"result cache at {stats['directory']}:")
        print(f"  disk entries : {disk['entries']} ({disk['bytes']} bytes)")
        for program, count in sorted(disk["programs"].items()):
            print(f"    {program:>12}: {count} entr{'y' if count == 1 else 'ies'}")
        mem = stats["memory"]
        print(
            f"  memory tier  : {mem['entries']} entries "
            f"({mem['bytes']} bytes) of "
            f"{mem['max_entries']} / {mem['max_bytes']}"
        )
        life = stats["lifetime"]
        print(
            f"  this process : {life['hits']} hits, {life['misses']} misses, "
            f"{life['stores']} stores, {life['invalid_entries']} invalid"
        )
        return 0
    if args.action == "clear":
        removed = cache.clear()
        if args.json:
            print(json.dumps({"removed": removed}))
        else:
            print(f"removed {removed} cache entr{'y' if removed == 1 else 'ies'}")
        return 0
    outcome = cache.verify()
    if args.json:
        print(json.dumps(outcome, sort_keys=True))
    else:
        print(
            f"checked {outcome['checked']} entries: {outcome['valid']} valid, "
            f"{outcome['invalid']} invalid (dropped)"
        )
    return 0 if outcome["invalid"] == 0 else 1


def _cmd_ingest(args: argparse.Namespace) -> int:
    from repro.streaming import StreamingStore

    graph = GENERATORS[args.graph](seed=args.seed)
    activities = graph.activities
    observation = obs.observe(trace=False)
    try:
        with StreamingStore(
            args.store,
            fsync=args.fsync,
            batch_records=args.batch_records,
        ) as store:
            step = max(1, args.batch_records)
            for i in range(0, graph.num_activities, step):
                store.append(activities[i : i + step])
            if args.compact:
                store.compact()
            summary = {
                "store": str(store.path),
                "graph": args.graph,
                "records_ingested": graph.num_activities,
                "num_activities": store.num_activities,
                "last_seq": store.last_seq,
                "generation": store.generation,
                "fsync": args.fsync,
                "fingerprint": store.fingerprint(),
                "recovery": store.recovery.as_dict(),
            }
        snapshot = (
            observation.registry.snapshot()
            if observation.registry is not None
            else {}
        )
        counters = snapshot.get("counters", {})
        for name in (
            "wal.appends", "wal.records", "wal.bytes_written", "wal.fsyncs",
            "compact.runs", "compact.groups", "compact.bytes_written",
        ):
            summary[name] = counters.get(name, 0)
    finally:
        obs.disable()
    if args.json:
        print(json.dumps(summary, indent=1, sort_keys=True))
        return 0
    print(
        f"ingested {summary['records_ingested']} activities from "
        f"{args.graph} into {summary['store']} "
        f"({summary['wal.appends']} WAL appends, "
        f"{summary['wal.bytes_written']} bytes, fsync={args.fsync})"
    )
    if args.compact:
        print(
            f"compacted to generation {summary['generation']}: "
            f"{summary['compact.groups']} snapshot groups, "
            f"{summary['compact.bytes_written']} bytes of edge files"
        )
    print(f"store fingerprint {summary['fingerprint']}")
    return 0


def _cmd_recover(args: argparse.Namespace) -> int:
    from repro.streaming import StreamingStore

    with StreamingStore(args.store) as store:
        report = store.recovery.as_dict()
        report["store"] = str(store.path)
        report["fingerprint"] = store.fingerprint()
        report["last_seq"] = store.last_seq
        report["generation"] = store.generation
    if args.json:
        print(json.dumps(report, indent=1, sort_keys=True))
        return 0
    print(f"recovered {report['store']}:")
    base_note = (
        f"base generation with {report['base_groups']} group(s), "
        f"{report['base_records']} activities"
        if report["had_base"]
        else "no compacted base (WAL-only store)"
    )
    print(f"  base     : {base_note}")
    print(
        f"  WAL      : {report['replayed_frames']} frame(s) replayed "
        f"({report['replayed_records']} records), "
        f"{report['skipped_frames']} already absorbed"
    )
    if report["truncated_bytes"]:
        print(
            f"  torn tail: truncated {report['truncated_bytes']} bytes "
            f"({report['torn_reason']})"
        )
    if report["removed_files"]:
        print(f"  cleanup  : removed {', '.join(report['removed_files'])}")
    print(f"  fingerprint {report['fingerprint']}")
    return 0


def _cmd_fsck(args: argparse.Namespace) -> int:
    from repro.streaming import fsck_store

    report = fsck_store(args.store)
    if args.json:
        print(json.dumps(report, indent=1, sort_keys=True))
        return 0 if report["clean"] else 1
    print(f"fsck {report['path']}:")
    manifest = report["manifest"]
    if manifest is not None:
        state = "ok" if manifest["ok"] else "DAMAGED"
        print(f"  manifest   : {state}")
    for entry in report["edge_files"]:
        if entry["ok"]:
            ref = "" if entry["referenced"] else " (unreferenced)"
            print(
                f"  {entry['file']}: ok, "
                f"{entry['segments_verified']} segment(s) verified{ref}"
            )
        else:
            print(f"  {entry['file']}: DAMAGED ({entry['message']})")
    wal = report["wal"]
    if wal is not None:
        if wal["ok"]:
            print(
                f"  {wal['file']}: ok, {wal['frames']} frame(s), "
                f"{wal['replayable_frames']} not yet absorbed"
            )
        else:
            print(f"  {wal['file']}: DAMAGED ({wal.get('torn_reason')})")
    if report["debris"]:
        print(f"  debris     : {', '.join(report['debris'])}")
    for message in report["errors"]:
        print(f"  error      : {message}")
    print("clean" if report["clean"] else "CORRUPTION FOUND")
    return 0 if report["clean"] else 1


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] == "lint":
        # Forwarded verbatim before argparse sees it: REMAINDER does not
        # capture leading options (e.g. `repro lint --list-rules`).
        from repro.lint.cli import main as lint_main

        return lint_main(argv[1:])
    args = _build_parser().parse_args(argv)
    if args.command == "stats":
        return _cmd_stats(args)
    if args.command == "cache":
        return _cmd_cache(args)
    if args.command == "ingest":
        return _cmd_ingest(args)
    if args.command == "recover":
        return _cmd_recover(args)
    if args.command == "fsck":
        return _cmd_fsck(args)
    return _cmd_run(args)


if __name__ == "__main__":
    sys.exit(main())
