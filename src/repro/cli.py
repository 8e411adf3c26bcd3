"""Command-line interface: ``python -m repro`` / ``repro``.

Examples::

    repro list                     # show all experiments
    repro run table1               # print a table/figure
    repro run fig7a --refs 50000   # quicker, shorter run
    repro run all --jobs 8         # regenerate everything in parallel
    repro bench mcf --design das   # one ad-hoc workload run
    repro stats mcf --design das   # full nested statistics report
    repro stats mcf --timeline     # phase-resolved timeline sparklines
    repro compare mcf:das mcf:standard   # ranked cross-run stat deltas
    repro events mcf --out t.json  # capture a Perfetto-loadable trace
    repro validate --scale ci      # machine-check paper-fidelity claims
    repro validate --scale full --from-snapshot validation/results_full.json
    repro docs experiments --check # verify EXPERIMENTS.md regenerates
    repro serve --jobs 4           # run the simulation job server
    repro submit bench mcf         # run one workload through the server
    repro submit experiment fig7a  # server-side experiment + tabulation
    repro status                   # a running server's counters and queue
    repro top                      # live dashboard (queue, workers, p99s)
    repro top --once --json        # one machine-readable snapshot
    repro cache stats              # the content-addressed result store
    repro cache gc --max-mb 100    # evict LRU entries past a size cap
    repro ledger ls                # recent runs from the run ledger
    repro ledger query --origin service --json   # filtered run history
    repro report --out report.html # self-contained HTML run report
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from typing import Iterator, List, Optional

from .core.variants import DESIGNS
from .engine import DEFAULT_ENGINE, ENGINES
from .exec.batch import DEFAULT_RETRIES, DEFAULT_TIMEOUT_S
from .experiments.registry import EXPERIMENTS, experiment_ids, run_experiment
from .service import protocol as service_protocol
from .sim.runner import run_workload
from .trace.multiprog import mix_names
from .trace.spec2006 import benchmark_names


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DAS-DRAM (MICRO 2015) reproduction harness")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    run = sub.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument("experiment",
                     help="experiment id (see 'repro list') or 'all'")
    run.add_argument("--refs", type=int, default=None,
                     help="memory references per core (default: full scale)")
    run.add_argument("--no-cache", action="store_true",
                     help="ignore and do not write the result cache")
    run.add_argument("--jobs", "-j", type=int, default=1, metavar="N",
                     help="pre-execute the experiments' simulations on N "
                          "worker processes (planner deduplicates shared "
                          "runs; tables are identical to a serial run)")
    run.add_argument("--timeout", type=float, default=DEFAULT_TIMEOUT_S,
                     metavar="SEC",
                     help="per-simulation timeout for parallel execution "
                          "(default: none)")
    run.add_argument("--retries", type=int, default=DEFAULT_RETRIES,
                     help="retry budget per simulation on worker "
                          f"failure (default: {DEFAULT_RETRIES})")
    run.add_argument("--chart", action="store_true",
                     help="also render the result as ASCII bars")
    run.add_argument("--save", metavar="DIR", default=None,
                     help="also write each result as JSON into DIR")
    run.add_argument("--log-json", metavar="PATH", default=None,
                     help="write executor telemetry (cache hits, per-job "
                          "wall time and worker, failures, summary) as "
                          "JSON lines to PATH")

    trace = sub.add_parser(
        "trace", help="import, inspect, dump or replay trace files")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    dump = trace_sub.add_parser("dump",
                                help="write a benchmark trace to a file")
    dump.add_argument("workload")
    dump.add_argument("--out", required=True, help="output trace file")
    dump.add_argument("--refs", type=int, default=50_000)
    dump.add_argument("--seed", type=int, default=1)
    replay = trace_sub.add_parser(
        "run", help="simulate a trace file (plain-text or .rtrc)")
    replay.add_argument("path")
    replay.add_argument("--design", default="das", choices=DESIGNS)
    replay.add_argument("--refs", type=int, default=None,
                        help="references to replay (default: whole file)")
    replay.add_argument("--seed", type=int, default=1,
                        help="seed for the simulated system")
    timport = trace_sub.add_parser(
        "import",
        help="ingest a DRAMSim2 k6/mase trace (gzip ok) into the trace "
             "library as .rtrc; run it with 'bench trace:<name>'")
    timport.add_argument("path", help="source trace file")
    timport.add_argument("--name", default=None,
                         help="library name (default: source basename "
                              "without extensions)")
    timport.add_argument("--format", default=None, choices=["k6", "mase"],
                         help="source format (default: detect from the "
                              "filename prefix, then the content)")
    tinfo = trace_sub.add_parser(
        "info", help="print an imported or on-disk .rtrc trace's header")
    tinfo.add_argument("name",
                       help="library trace name, or a path to an .rtrc "
                            "file")
    tconvert = trace_sub.add_parser(
        "convert",
        help="convert a k6/mase trace to .rtrc at an explicit path "
             "(no library involvement)")
    tconvert.add_argument("path", help="source trace file")
    tconvert.add_argument("--out", required=True, help="output .rtrc file")
    tconvert.add_argument("--format", default=None, choices=["k6", "mase"],
                          help="source format (default: auto-detect)")
    trace_sub.add_parser("ls", help="list the trace library's contents")

    bench = sub.add_parser("bench", help="run one workload/design pair")
    bench.add_argument("workload",
                       help=f"one of {', '.join(benchmark_names())}, "
                            f"{', '.join(mix_names())}, an extra profile "
                            f"(see docs), or an imported trace "
                            f"(trace:<name> / tracemix:<a>+<b>+...)")
    bench.add_argument("--design", default="das", choices=DESIGNS)
    bench.add_argument("--refs", type=int, default=None)
    bench.add_argument("--engine", default=DEFAULT_ENGINE, choices=ENGINES,
                       help="simulation engine: 'compiled' (generated "
                            "specialized kernel, the default) or 'interp' "
                            "(reference interpreter; bit-identical "
                            "counters)")
    bench.add_argument("--no-cache", action="store_true")
    bench.add_argument("--profile", metavar="PATH", default=None,
                       help="profile the run under cProfile and write "
                            "pstats output to PATH (combine with "
                            "--no-cache to profile real simulation work)")
    bench.add_argument("--profile-top", type=int, default=10, metavar="N",
                       help="hot functions to report from --profile "
                            "(default: 10)")
    bench.add_argument("--log-json", metavar="PATH", default=None,
                       help="append bench telemetry (and --profile hot "
                            "functions) as JSON lines to PATH")

    stats = sub.add_parser(
        "stats", help="print a run's full nested statistics tree")
    stats.add_argument("workload",
                       help="benchmark or mix name (as for 'bench')")
    stats.add_argument("--design", default="das", choices=DESIGNS)
    stats.add_argument("--refs", type=int, default=None)
    stats.add_argument("--seed", type=int, default=1)
    stats.add_argument("--engine", default=DEFAULT_ENGINE, choices=ENGINES,
                       help="simulation engine (see 'bench --engine')")
    stats.add_argument("--no-cache", action="store_true")
    stats.add_argument("--timeline", action="store_true",
                       help="also render the phase-resolved timeline "
                            "(per-window IPC, hit rates, promotions) as "
                            "sparklines")
    stats.add_argument("--timeline-csv", metavar="PATH", default=None,
                       help="export the timeline windows as CSV")
    stats.add_argument("--timeline-json", metavar="PATH", default=None,
                       help="export the timeline series as JSON")

    compare = sub.add_parser(
        "compare",
        help="diff two cached runs' stats trees and timelines")
    compare.add_argument("run_a", metavar="A",
                         help="first run as workload[:design], "
                              "e.g. mcf:das (design defaults to das)")
    compare.add_argument("run_b", metavar="B",
                         help="second run as workload[:design]")
    compare.add_argument("--refs", type=int, default=None)
    compare.add_argument("--seed", type=int, default=1)
    compare.add_argument("--threshold", type=float, default=1.0,
                         metavar="PCT",
                         help="minimum |relative delta| percent to "
                              "report (default: 1.0)")
    compare.add_argument("--limit", type=int, default=30,
                         help="maximum ranked deltas to print "
                              "(default: 30)")
    compare.add_argument("--no-cache", action="store_true")

    events = sub.add_parser(
        "events", help="re-simulate with event tracing; export the trace")
    events.add_argument("workload",
                        help="benchmark or mix name (as for 'bench')")
    events.add_argument("--design", default="das", choices=DESIGNS)
    events.add_argument("--refs", type=int, default=None)
    events.add_argument("--seed", type=int, default=1)
    events.add_argument("--out", required=True, metavar="PATH",
                        help="Chrome-trace JSON output (open in "
                             "https://ui.perfetto.dev or chrome://tracing)")
    events.add_argument("--capacity", type=int, default=65536,
                        help="event ring size; older events beyond this "
                             "are dropped (default: 65536)")
    events.add_argument("--timeline", type=int, default=0, metavar="N",
                        help="also print the first N events as text")

    validate = sub.add_parser(
        "validate",
        help="machine-check the paper-fidelity expectations ledger")
    validate.add_argument("--scale", default="ci", choices=["ci", "full"],
                          help="reference-count scale to simulate at "
                               "(default: ci; 'full' is the EXPERIMENTS.md "
                               "regeneration scale)")
    validate.add_argument("--only", default=None, metavar="IDS",
                          help="comma-separated expectation and/or "
                               "experiment ids to check")
    validate.add_argument("--json", action="store_true", dest="as_json",
                          help="emit the structured report as JSON")
    validate.add_argument("--jobs", "-j", type=int, default=1, metavar="N",
                          help="pre-execute the needed simulations on N "
                               "worker processes")
    validate.add_argument("--no-cache", action="store_true",
                          help="ignore and do not write the result cache")
    validate.add_argument("--ledger", default=None, metavar="PATH",
                          help="expectations file (default: "
                               "validation/expectations.json)")
    validate.add_argument("--from-snapshot", default=None, metavar="PATH",
                          dest="from_snapshot",
                          help="evaluate against a saved results snapshot "
                               "instead of simulating")
    validate.add_argument("--save-snapshot", default=None, metavar="PATH",
                          dest="save_snapshot",
                          help="run every experiment at --scale and save "
                               "the results as a snapshot for "
                               "--from-snapshot / 'repro docs'")
    validate.add_argument("--list", action="store_true", dest="list_only",
                          help="list the ledger's expectations and exit")

    docs = sub.add_parser(
        "docs",
        help="regenerate generated docs from the results snapshot")
    docs.add_argument("target", choices=["experiments", "output"],
                      help="experiments = EXPERIMENTS.md, "
                           "output = experiments_output.txt")
    docs.add_argument("--snapshot", default=None, metavar="PATH",
                      help="results snapshot (default: "
                           "validation/results_full.json)")
    docs.add_argument("--ledger", default=None, metavar="PATH",
                      help="expectations file (default: "
                           "validation/expectations.json)")
    docs.add_argument("--write", action="store_true",
                      help="write the rendered file in place")
    docs.add_argument("--check", action="store_true",
                      help="fail (exit 1) when the committed file differs "
                           "from regeneration")
    docs.add_argument("--out", default=None, metavar="PATH",
                      help="target file (default: EXPERIMENTS.md / "
                           "experiments_output.txt)")

    serve = sub.add_parser(
        "serve", help="run the simulation job server (asyncio, TCP)")
    serve.add_argument("--host", default=service_protocol.DEFAULT_HOST,
                       help=f"bind address (default: "
                            f"{service_protocol.DEFAULT_HOST})")
    serve.add_argument("--port", type=int,
                       default=service_protocol.DEFAULT_PORT,
                       help=f"TCP port (default: "
                            f"{service_protocol.DEFAULT_PORT}; 0 picks a "
                            f"free port and prints it)")
    serve.add_argument("--jobs", "-j", type=int, default=2, metavar="N",
                       help="concurrent worker subprocesses (default: 2)")
    serve.add_argument("--no-store", action="store_true",
                       help="neither read nor write the result store "
                            "(every submission simulates)")
    serve.add_argument("--store-max-mb", type=float, default=None,
                       metavar="MB",
                       help="evict least-recently-used store entries "
                            "past this size after each completed job")
    serve.add_argument("--log-json", metavar="PATH", default=None,
                       help="write server telemetry (requests, job "
                            "lifecycle, failures) as JSON lines to PATH")
    serve.add_argument("--metrics-port", type=int, default=None,
                       metavar="N",
                       help="serve Prometheus /metrics and /healthz over "
                            "HTTP on this port (0 picks a free port and "
                            "prints it)")
    serve.add_argument("--trace-out", metavar="PATH", default=None,
                       help="write per-job queue/run spans as a Chrome "
                            "trace (Perfetto-loadable) to PATH at "
                            "shutdown")

    submit = sub.add_parser(
        "submit", help="submit work to a running 'repro serve'")
    submit_sub = submit.add_subparsers(dest="submit_kind", required=True)

    def _client_flags(p, timeline_default: bool) -> None:
        p.add_argument("--host", default=service_protocol.DEFAULT_HOST)
        p.add_argument("--port", type=int,
                       default=service_protocol.DEFAULT_PORT)
        p.add_argument("--priority", type=int, default=0,
                       help="scheduling priority; lower runs earlier "
                            "(default: 0)")
        p.add_argument("--retries", type=int, default=None,
                       help="per-job retry budget (default: the "
                            f"executor's {DEFAULT_RETRIES})")
        p.add_argument("--timeout", type=float, default=None, metavar="SEC",
                       help="per-attempt timeout (default: none)")
        p.add_argument("--json", action="store_true", dest="as_json",
                       help="emit the full outcome as JSON (suppresses "
                            "live progress)")
        if timeline_default:
            p.add_argument("--no-timeline", action="store_true",
                           help="skip per-window timeline frames")

    s_bench = submit_sub.add_parser(
        "bench", help="one workload/design simulation")
    s_bench.add_argument("workload",
                         help=f"one of {', '.join(benchmark_names())} "
                              f"or {', '.join(mix_names())}")
    s_bench.add_argument("--design", default="das", choices=DESIGNS)
    s_bench.add_argument("--refs", type=int, default=None)
    s_bench.add_argument("--seed", type=int, default=1)
    s_bench.add_argument("--engine", default=DEFAULT_ENGINE, choices=ENGINES,
                         help="simulation engine the worker should use "
                              "(see 'bench --engine')")
    _client_flags(s_bench, timeline_default=True)

    s_exp = submit_sub.add_parser(
        "experiment", help="a registry experiment, tabulated server-side")
    s_exp.add_argument("experiment", help="experiment id (see 'repro list')")
    s_exp.add_argument("--refs", type=int, default=None)
    _client_flags(s_exp, timeline_default=False)

    s_sweep = submit_sub.add_parser(
        "sweep", help="a workloads x designs grid")
    s_sweep.add_argument("--workloads", required=True,
                         help="comma-separated workload names")
    s_sweep.add_argument("--designs", required=True,
                         help="comma-separated design names")
    s_sweep.add_argument("--refs", type=int, default=None)
    s_sweep.add_argument("--seed", type=int, default=1)
    _client_flags(s_sweep, timeline_default=False)

    s_val = submit_sub.add_parser(
        "validate", help="the expectations ledger at a scale")
    s_val.add_argument("--scale", default="ci", choices=["ci", "full"])
    s_val.add_argument("--only", default=None, metavar="IDS",
                       help="comma-separated expectation/experiment ids")
    _client_flags(s_val, timeline_default=False)

    watch = sub.add_parser(
        "watch", help="attach to an in-flight (or stored) job by key")
    watch.add_argument("key", help="runner cache key (shown in ack frames "
                                   "and 'repro cache ls')")
    watch.add_argument("--host", default=service_protocol.DEFAULT_HOST)
    watch.add_argument("--port", type=int,
                       default=service_protocol.DEFAULT_PORT)
    watch.add_argument("--json", action="store_true", dest="as_json")

    status = sub.add_parser(
        "status", help="a running server's queue, counters and store")
    status.add_argument("--host", default=service_protocol.DEFAULT_HOST)
    status.add_argument("--port", type=int,
                        default=service_protocol.DEFAULT_PORT)
    status.add_argument("--json", action="store_true", dest="as_json")

    top = sub.add_parser(
        "top", help="live dashboard for a running server (queue, "
                    "workers, store hit rate, latency percentiles)")
    top.add_argument("--host", default=service_protocol.DEFAULT_HOST)
    top.add_argument("--port", type=int,
                     default=service_protocol.DEFAULT_PORT)
    top.add_argument("--interval", type=float, default=2.0, metavar="SEC",
                     help="seconds between polls (default: 2)")
    top.add_argument("--once", action="store_true",
                     help="render one frame and exit (no screen clearing; "
                          "good for scripts and screenshots)")
    top.add_argument("--json", action="store_true", dest="as_json",
                     help="emit one machine-readable snapshot (queue, "
                          "workers, store, latency percentiles) and exit; "
                          "implies --once")

    cache = sub.add_parser(
        "cache", help="inspect / garbage-collect the result store")
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    c_stats = cache_sub.add_parser("stats", help="entry count and size")
    c_ls = cache_sub.add_parser("ls", help="list entries, LRU first")
    c_ls.add_argument("--limit", type=int, default=None, metavar="N",
                      help="show at most N entries")
    c_gc = cache_sub.add_parser(
        "gc", help="evict by age and/or LRU size cap")
    c_gc.add_argument("--max-mb", type=float, default=None, metavar="MB",
                      help="evict LRU entries until the store fits MB")
    c_gc.add_argument("--max-age-days", type=float, default=None,
                      metavar="D", help="evict entries older than D days")
    c_gc.add_argument("--dry-run", action="store_true",
                      help="print what the same bounds would evict "
                           "without touching anything")
    for c_cmd in (c_stats, c_ls, c_gc):
        c_cmd.add_argument("--dir", default=None, metavar="PATH",
                           help="store directory (default: "
                                "$REPRO_CACHE_DIR or .repro_cache)")
        c_cmd.add_argument("--json", action="store_true", dest="as_json")

    ledger = sub.add_parser(
        "ledger", help="query the durable run ledger (SQLite history of "
                       "every completed simulation)")
    ledger_sub = ledger.add_subparsers(dest="ledger_command", required=True)
    l_ls = ledger_sub.add_parser("ls", help="recent runs, newest first")
    l_ls.add_argument("--limit", type=int, default=20, metavar="N",
                      help="rows to show (default: 20)")
    l_show = ledger_sub.add_parser("show", help="one run row, all fields")
    l_show.add_argument("id", type=int, help="row id (see 'ledger ls')")
    l_query = ledger_sub.add_parser(
        "query", help="filter runs by workload/design/origin/age")
    l_query.add_argument("--workload", default=None)
    l_query.add_argument("--design", default=None)
    l_query.add_argument("--origin", default=None,
                         help="run | service | validate")
    l_query.add_argument("--engine", default=None, choices=ENGINES,
                         help="only rows recorded by this engine")
    l_query.add_argument("--since", type=float, default=None, metavar="DAYS",
                         help="only rows recorded in the last DAYS days")
    l_query.add_argument("--limit", type=int, default=None, metavar="N")
    l_prune = ledger_sub.add_parser(
        "prune", help="delete old run rows (validate history stays)")
    l_prune.add_argument("--older-than-days", type=float, default=None,
                         metavar="D", dest="older_than_days",
                         help="drop run rows older than D days")
    l_prune.add_argument("--keep-last", type=int, default=None, metavar="N",
                         dest="keep_last",
                         help="then keep only the newest N run rows")
    l_prune.add_argument("--dry-run", action="store_true",
                         help="report what would be pruned, delete nothing")
    for l_cmd in (l_ls, l_show, l_query, l_prune):
        l_cmd.add_argument("--dir", default=None, metavar="PATH",
                           help="store directory holding ledger.db "
                                "(default: $REPRO_CACHE_DIR or "
                                ".repro_cache)")
        l_cmd.add_argument("--json", action="store_true", dest="as_json")

    engine = sub.add_parser(
        "engine", help="inspect / verify the pluggable simulation engines")
    engine_sub = engine.add_subparsers(dest="engine_command", required=True)
    e_verify = engine_sub.add_parser(
        "verify", help="run every verify scenario on both engines and "
                       "require bit-identical metrics (the compiled "
                       "kernel's oracle contract)")
    e_verify.add_argument("names", nargs="*",
                          help="verify scenario names (default: all; see "
                               "--list)")
    e_verify.add_argument("--refs", type=int, default=None,
                          help="override every scenario's reference "
                               "budget (defaults: see --list; smaller = "
                               "faster)")
    e_verify.add_argument("--list", action="store_true", dest="list_only",
                          help="list verify scenarios and exit")
    e_verify.add_argument("--json", action="store_true", dest="as_json",
                          help="emit the machine-readable summary")

    report = sub.add_parser(
        "report", help="write a self-contained HTML report over the run "
                       "ledger (inline CSS/SVG, no external requests)")
    report.add_argument("--out", default="report.html", metavar="PATH",
                        help="output file (default: report.html)")
    report.add_argument("--limit", type=int, default=50, metavar="N",
                        help="rows in the recent-runs table (default: 50)")
    report.add_argument("--dir", default=None, metavar="PATH",
                        help="store directory holding ledger.db (default: "
                             "$REPRO_CACHE_DIR or .repro_cache)")
    return parser


@contextlib.contextmanager
def _env_override(name: str, value: str) -> Iterator[None]:
    previous = os.environ.get(name)
    os.environ[name] = value
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = previous


def _run_parallel(args, ids: List[str], use_cache: bool) -> None:
    """``repro run --jobs N`` (or ``--log-json``): plan / execute /
    tabulate.

    Without ``--no-cache`` workers warm the shared disk cache and the
    tabulation phase is pure recall.  With ``--no-cache`` the same flow
    runs against a private throwaway cache directory, so results are
    freshly simulated yet still shared between the parallel phase and
    the tables.
    """
    with contextlib.ExitStack() as stack:
        if not use_cache:
            import tempfile

            scratch = stack.enter_context(
                tempfile.TemporaryDirectory(prefix="repro-exec-"))
            stack.enter_context(_env_override("REPRO_CACHE_DIR", scratch))
            stack.enter_context(_env_override("REPRO_NO_CACHE", "0"))
        from .exec import JsonlLog, plan_and_execute

        log = (stack.enter_context(JsonlLog(args.log_json))
               if args.log_json is not None else None)
        plan_and_execute(dict.fromkeys(ids, args.refs), args.jobs,
                         args.timeout, args.retries, log=log)
        _run_experiments(ids, args.refs, True, args.chart, args.save)


def _run_experiments(ids: List[str], refs: Optional[int],
                     use_cache: bool, chart: bool = False,
                     save_dir: Optional[str] = None) -> None:
    for experiment_id in ids:
        result = run_experiment(experiment_id, references=refs,
                                use_cache=use_cache)
        print(result.render())
        if save_dir is not None:
            import json
            from pathlib import Path

            directory = Path(save_dir)
            directory.mkdir(parents=True, exist_ok=True)
            path = directory / f"{experiment_id}.json"
            with path.open("w") as stream:
                json.dump(result.to_dict(), stream, indent=2)
        if chart:
            from .experiments.plotting import bar_chart

            try:
                print()
                print(bar_chart(result))
            except ValueError:
                pass  # non-numeric table (e.g. table1/table2)
        print()


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        width = max(len(i) for i in experiment_ids())
        for experiment_id in experiment_ids():
            description = EXPERIMENTS[experiment_id].description
            print(f"{experiment_id.ljust(width)}  {description}")
        return 0
    if args.command == "run":
        ids = (experiment_ids() if args.experiment == "all"
               else [args.experiment])
        unknown = [i for i in ids if i not in EXPERIMENTS]
        if unknown:
            print(f"unknown experiment(s): {', '.join(unknown)}",
                  file=sys.stderr)
            return 2
        if args.jobs > 1 or args.log_json is not None:
            from .exec import ExecutionError

            try:
                _run_parallel(args, ids, not args.no_cache)
            except ExecutionError as error:
                print(f"execution failed: {error}", file=sys.stderr)
                return 1
        else:
            _run_experiments(ids, args.refs, not args.no_cache,
                             args.chart, args.save)
        return 0
    if args.command == "trace":
        return _trace_command(args)
    if args.command == "stats":
        return _stats_command(args)
    if args.command == "compare":
        return _compare_command(args)
    if args.command == "events":
        return _events_command(args)
    if args.command == "bench":
        return _bench_command(args)
    if args.command == "validate":
        return _validate_command(args)
    if args.command == "docs":
        return _docs_command(args)
    if args.command == "serve":
        return _serve_command(args)
    if args.command == "submit":
        return _submit_command(args)
    if args.command == "watch":
        return _watch_command(args)
    if args.command == "status":
        return _status_command(args)
    if args.command == "top":
        return _top_command(args)
    if args.command == "cache":
        return _cache_command(args)
    if args.command == "ledger":
        return _ledger_command(args)
    if args.command == "engine":
        return _engine_command(args)
    if args.command == "report":
        return _report_command(args)
    raise AssertionError("unreachable")


def _serve_command(args) -> int:
    """Handle ``repro serve``: run the job server until drained."""
    import asyncio
    import signal

    from .service.server import ReproServer

    with contextlib.ExitStack() as stack:
        log = None
        if args.log_json is not None:
            from .exec import JsonlLog

            log = stack.enter_context(JsonlLog(args.log_json))
        store_max = (int(args.store_max_mb * 1_000_000)
                     if args.store_max_mb is not None else None)

        async def amain() -> None:
            server = ReproServer(args.host, args.port, jobs=args.jobs,
                                 use_store=not args.no_store, log=log,
                                 store_max_bytes=store_max,
                                 metrics_port=args.metrics_port,
                                 trace_out=args.trace_out)
            await server.start()
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGINT, signal.SIGTERM):
                with contextlib.suppress(NotImplementedError):
                    loop.add_signal_handler(signum, server.request_shutdown)
            scrape = (f", metrics on http://{server.host}:"
                      f"{server.metrics_port}/metrics"
                      if server.metrics_port is not None else "")
            print(f"repro server on {server.host}:{server.port} "
                  f"(jobs={server.jobs}, "
                  f"store={server.store.directory}{scrape}) -- "
                  f"Ctrl-C drains in-flight jobs and exits",
                  file=sys.stderr, flush=True)
            await server.wait_closed()

        asyncio.run(amain())
    return 0


def _event_printer():
    """Live progress renderer for human-mode ``repro submit``/``watch``.

    Progress frames redraw one stderr line per job (carriage return);
    lifecycle frames get their own lines.  Result payloads are left to
    the outcome printer.
    """
    live = {"dirty": False}

    def clear() -> None:
        if live["dirty"]:
            print("", file=sys.stderr)
            live["dirty"] = False

    def on_event(frame) -> None:
        kind = frame.get("event")
        if kind == "ack":
            jobs = frame.get("jobs") or []
            by_source: dict = {}
            for job in jobs:
                by_source[job["source"]] = by_source.get(job["source"], 0) + 1
            routing = ", ".join(f"{n} {source}"
                                for source, n in sorted(by_source.items()))
            print(f"ack: {len(jobs)} job(s) ({routing})", file=sys.stderr)
        elif kind == "started":
            clear()
            print(f"started {frame.get('key')} "
                  f"(attempt {frame.get('attempt')})", file=sys.stderr)
        elif kind == "progress":
            done = frame.get("refs_done") or 0
            total = frame.get("refs_total") or 0
            percent = 100.0 * done / total if total else 0.0
            print(f"\r  {frame.get('key')}: {percent:5.1f}% "
                  f"({done}/{total} refs)", end="", file=sys.stderr,
                  flush=True)
            live["dirty"] = True
        elif kind == "retry":
            clear()
            print(f"retry {frame.get('key')}: {frame.get('reason')}",
                  file=sys.stderr)
        elif kind == "error":
            clear()
            print(f"error: {frame.get('message')}", file=sys.stderr)
        elif kind == "job_done":
            clear()
            print(f"job {frame.get('done')}/{frame.get('total')} complete "
                  f"({frame.get('key')}, {frame.get('source')})",
                  file=sys.stderr)
        elif kind in ("result", "final", "done"):
            clear()

    return on_event


def _print_metrics_summary(metrics, source: str) -> None:
    """The bench-style one-result summary from a wire metrics dict."""
    ipc = [round(float(x), 3) for x in metrics.get("ipc") or []]
    print(f"workload={metrics.get('workload')} "
          f"design={metrics.get('design')} (source: {source})")
    print(f"  references={metrics.get('references')} "
          f"time_ns={metrics.get('time_ns')}")
    print(f"  ipc={ipc}")
    print(f"  mean_read_latency="
          f"{float(metrics.get('mean_read_latency_ns') or 0.0):.1f} ns")


def _print_outcome(outcome, kind: str) -> int:
    """Render one finished submit/watch outcome; returns an exit code."""
    import json

    if not outcome.ok:
        for message in outcome.errors:
            print(f"submit failed: {message}", file=sys.stderr)
        return 1
    if kind in ("bench", "watch"):
        for key, payload in outcome.results.items():
            _print_metrics_summary(payload.get("metrics") or {},
                                   str(payload.get("source")))
            print(f"  key={key}")
    elif outcome.final is not None:
        rendered = outcome.final.get("rendered")
        if rendered:
            print(rendered)
        else:  # sweeps carry structured cells, not a rendered table
            body = {k: v for k, v in outcome.final.items()
                    if k not in ("event", "id", "kind", "elapsed_s")}
            print(json.dumps(body, indent=2))
    return 0


def _outcome_json(outcome) -> str:
    import json

    return json.dumps({
        "ok": outcome.ok,
        "ack": outcome.ack,
        "results": outcome.results,
        "final": outcome.final,
        "errors": outcome.errors,
    }, indent=2)


def _submit_command(args) -> int:
    """Handle ``repro submit``: drive one request through the server."""
    from .exec.plan import RunSpec
    from .service.client import ServiceClient, ServiceError

    job_config = {"priority": args.priority}
    if args.retries is not None:
        job_config["retries"] = args.retries
    if args.timeout is not None:
        job_config["timeout_s"] = args.timeout
    on_event = None if args.as_json else _event_printer()
    try:
        with ServiceClient(args.host, args.port) as client:
            if args.submit_kind == "bench":
                job_config["timeline"] = not args.no_timeline
                outcome = client.submit_bench(
                    RunSpec(args.workload, args.design, args.refs,
                            args.seed, engine=args.engine),
                    on_event=on_event, **job_config)
            elif args.submit_kind == "experiment":
                outcome = client.submit_experiment(
                    args.experiment, references=args.refs,
                    on_event=on_event, **job_config)
            elif args.submit_kind == "sweep":
                outcome = client.submit_sweep(
                    args.workloads.split(","), args.designs.split(","),
                    references=args.refs, seed=args.seed,
                    on_event=on_event, **job_config)
            else:
                outcome = client.submit_validate(
                    scale=args.scale,
                    only=args.only.split(",") if args.only else None,
                    on_event=on_event, **job_config)
    except ServiceError as error:
        print(f"submit: {error}", file=sys.stderr)
        return 1
    if args.as_json:
        print(_outcome_json(outcome))
        return 0 if outcome.ok else 1
    return _print_outcome(outcome, args.submit_kind)


def _watch_command(args) -> int:
    """Handle ``repro watch``: attach to a job by cache key."""
    from .service.client import ServiceClient, ServiceError

    on_event = None if args.as_json else _event_printer()
    try:
        with ServiceClient(args.host, args.port) as client:
            outcome = client.watch(args.key, on_event=on_event)
    except ServiceError as error:
        print(f"watch: {error}", file=sys.stderr)
        return 1
    if args.as_json:
        print(_outcome_json(outcome))
        return 0 if outcome.ok else 1
    return _print_outcome(outcome, "watch")


def _status_command(args) -> int:
    """Handle ``repro status``: one status frame from the server."""
    import json

    from .service.client import ServiceClient, ServiceError

    try:
        with ServiceClient(args.host, args.port) as client:
            status = client.status()
    except ServiceError as error:
        print(f"status: {error}", file=sys.stderr)
        return 1
    if args.as_json:
        print(json.dumps(status, indent=2))
        return 0
    store = status.get("store") or {}
    print(f"server {args.host}:{args.port}: "
          f"{status.get('queued')} queued, {status.get('running')} "
          f"running, {status.get('clients')} client(s)"
          + (" [draining]" if status.get("draining") else ""))
    print(f"store {store.get('directory')}: {store.get('entries')} "
          f"entries, {int(store.get('total_bytes') or 0) / 1e6:.1f} MB "
          f"({store.get('hits')} hits / {store.get('misses')} misses "
          f"this session)")
    counters = status.get("counters") or {}
    if counters:
        print("counters: " + ", ".join(f"{k}={v}"
                                       for k, v in sorted(counters.items())))
    return 0


def _top_command(args) -> int:
    """Handle ``repro top``: live dashboard over the job socket."""
    from .service.top import run_top

    once = args.once or args.as_json  # --json implies a single snapshot
    return run_top(args.host, args.port, interval_s=args.interval,
                   iterations=1 if once else None,
                   clear=not once, as_json=args.as_json)


def _cache_command(args) -> int:
    """Handle ``repro cache stats|ls|gc`` (offline, no server needed)."""
    import json
    import time

    from .service.store import get_store

    store = get_store(args.dir)
    if args.cache_command == "stats":
        store.scan()
        stats = store.stats()
        if args.as_json:
            print(json.dumps(stats, indent=2))
        else:
            print(f"store {stats['directory']}: {stats['entries']} "
                  f"entries, {int(stats['total_bytes']) / 1e6:.2f} MB")
        return 0
    if args.cache_command == "ls":
        entries = store.entries()
        if args.limit is not None:
            entries = entries[:args.limit]
        if args.as_json:
            print(json.dumps([e.to_dict() for e in entries], indent=2))
            return 0
        if not entries:
            print(f"store {store.directory}: empty")
            return 0
        now = time.time()
        for entry in entries:
            age_h = (now - entry.mtime) / 3600.0
            print(f"{entry.key}  {entry.size_bytes:>9} B  "
                  f"{age_h:8.2f} h old")
        return 0
    # gc
    if args.max_mb is None and args.max_age_days is None:
        print("cache gc: pass --max-mb and/or --max-age-days",
              file=sys.stderr)
        return 2
    evicted = store.gc(
        max_bytes=(int(args.max_mb * 1_000_000)
                   if args.max_mb is not None else None),
        max_age_s=(args.max_age_days * 86400.0
                   if args.max_age_days is not None else None),
        dry_run=args.dry_run)
    stats = store.stats()
    if args.as_json:
        print(json.dumps({"evicted": [e.to_dict() for e in evicted],
                          "dry_run": args.dry_run,
                          "stats": stats}, indent=2))
    elif args.dry_run:
        for eviction in evicted:
            print(f"would evict {eviction}")
        print(f"dry run: would evict {len(evicted)} of "
              f"{stats['entries']} entries (nothing touched)")
    else:
        for eviction in evicted:
            print(f"evicted {eviction}")
        print(f"evicted {len(evicted)} entries; {stats['entries']} "
              f"remain ({int(stats['total_bytes']) / 1e6:.2f} MB)")
    return 0


def _validate_command(args) -> int:
    """Handle ``repro validate``: check the expectations ledger."""
    import json
    from pathlib import Path

    from .validate import LedgerError, load_ledger, validate

    try:
        ledger = load_ledger(args.ledger)
    except LedgerError as error:
        print(f"ledger error: {error}", file=sys.stderr)
        return 2
    if args.list_only:
        width = max(len(e.id) for e in ledger.expectations)
        for expectation in ledger.expectations:
            scales = "/".join(expectation.scales)
            print(f"{expectation.id.ljust(width)}  "
                  f"[{expectation.experiment}, {expectation.kind}, "
                  f"{scales}]  {expectation.title}")
        return 0
    only = args.only.split(",") if args.only else None
    try:
        report = validate(
            ledger, scale=args.scale, only=only,
            use_cache=not args.no_cache, jobs=args.jobs,
            snapshot=(Path(args.from_snapshot)
                      if args.from_snapshot else None),
            snapshot_out=(Path(args.save_snapshot)
                          if args.save_snapshot else None))
    except (KeyError, ValueError, OSError) as error:
        message = error.args[0] if error.args else error
        print(f"validate: {message}", file=sys.stderr)
        return 2
    if args.save_snapshot:
        print(f"snapshot -> {args.save_snapshot}", file=sys.stderr)
    if args.as_json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render())
    return 0 if report.ok else 1


def _docs_command(args) -> int:
    """Handle ``repro docs``: render / verify the generated docs."""
    from pathlib import Path

    from .validate import LedgerError, load_ledger
    from .validate.docs import (
        check_rendered,
        render_experiments_md,
        render_output_txt,
    )
    from .validate.engine import DEFAULT_SNAPSHOT_PATH

    snapshot = Path(args.snapshot) if args.snapshot else DEFAULT_SNAPSHOT_PATH
    try:
        if args.target == "experiments":
            rendered = render_experiments_md(snapshot, load_ledger(args.ledger))
            default_out = "EXPERIMENTS.md"
        else:
            rendered = render_output_txt(snapshot)
            default_out = "experiments_output.txt"
    except (LedgerError, ValueError, OSError) as error:
        print(f"docs: {error}", file=sys.stderr)
        return 2
    out_path = Path(args.out) if args.out else Path(default_out)
    if args.check:
        message = check_rendered(rendered, out_path)
        if message is not None:
            print(f"docs drift: {message}", file=sys.stderr)
            return 1
        print(f"{out_path} matches regeneration")
        return 0
    if args.write:
        out_path.write_text(rendered)
        print(f"wrote {out_path}", file=sys.stderr)
        return 0
    print(rendered, end="")
    return 0


def _bench_command(args) -> int:
    """Handle ``repro bench``: one ad-hoc run, optionally profiled."""
    profile = None
    if args.profile is not None:
        import cProfile

        profile = cProfile.Profile()
        profile.enable()
    metrics = run_workload(args.workload, args.design,
                           references=args.refs,
                           use_cache=not args.no_cache,
                           engine=args.engine)
    if profile is not None:
        profile.disable()
    print(f"workload={metrics.workload} design={metrics.design}")
    print(f"  time_ns={metrics.time_ns}")
    print(f"  ipc={[round(x, 3) for x in metrics.ipc]}")
    print(f"  mpki={metrics.mpki:.2f} ppkm={metrics.ppkm:.1f}")
    print(f"  footprint={metrics.footprint_bytes / 1e6:.1f} MB")
    locations = {k: round(v, 4)
                 for k, v in metrics.access_locations.items()}
    print(f"  access_locations={locations}")
    print(f"  mean_read_latency={metrics.mean_read_latency_ns:.1f} ns")
    top = []
    if profile is not None:
        profile.dump_stats(args.profile)
        top = _hot_functions(profile, args.profile_top)
        print(f"profile -> {args.profile} "
              f"(top {len(top)} by cumulative time)")
        for entry in top:
            print(f"  {entry['cum_s']:8.4f}s cum  {entry['tot_s']:8.4f}s "
                  f"self  {entry['calls']:>9} calls  {entry['func']}")
    if args.log_json is not None:
        from .exec import JsonlLog

        with JsonlLog(args.log_json) as log:
            log.event("bench", workload=metrics.workload,
                      design=metrics.design,
                      references=metrics.references,
                      mpki=round(metrics.mpki, 4),
                      mean_read_latency_ns=round(
                          metrics.mean_read_latency_ns, 3))
            if profile is not None:
                log.profile(f"bench:{metrics.workload}:{metrics.design}",
                            args.profile, top)
    return 0


def _hot_functions(profile, top_n: int):
    """Top-N hot functions of a cProfile run, by cumulative time."""
    import pstats

    stats = pstats.Stats(profile)
    entries = []
    for (filename, line, name), (_cc, ncalls, tottime, cumtime, _callers) \
            in stats.stats.items():  # type: ignore[attr-defined]
        entries.append({
            "func": f"{filename}:{line}:{name}",
            "calls": ncalls,
            "tot_s": round(tottime, 4),
            "cum_s": round(cumtime, 4),
        })
    entries.sort(key=lambda e: e["cum_s"], reverse=True)
    return entries[:top_n]


def _stats_command(args) -> int:
    """Handle ``repro stats``: run (or recall) and print the full tree."""
    from .obs import render_stats, render_timeline, timeline_to_csv

    metrics = run_workload(args.workload, args.design,
                           references=args.refs, seed=args.seed,
                           use_cache=not args.no_cache,
                           engine=args.engine)
    print(f"workload={metrics.workload} design={metrics.design} "
          f"references={metrics.references}")
    if not metrics.stats:
        print("no statistics in this cached result -- it was stored "
              "without a stats tree; re-run with --no-cache (or clear the "
              "cache entry) to populate it.")
        return 1
    print(render_stats(metrics.stats))
    wants_timeline = (args.timeline or args.timeline_csv
                      or args.timeline_json)
    if not wants_timeline:
        return 0
    if not metrics.timeline:
        print("no timeline in this cached result -- it predates "
              "CODE_VERSION 10 (or sampling was disabled); re-run with "
              "--no-cache to sample one.")
        return 1
    if args.timeline:
        print()
        print(render_timeline(metrics.timeline))
    if args.timeline_csv is not None:
        with open(args.timeline_csv, "w") as stream:
            stream.write(timeline_to_csv(metrics.timeline))
        print(f"timeline windows -> {args.timeline_csv}")
    if args.timeline_json is not None:
        import json

        with open(args.timeline_json, "w") as stream:
            json.dump(metrics.timeline, stream, indent=2)
        print(f"timeline series -> {args.timeline_json}")
    return 0


def _parse_run_spec(spec: str):
    """Split ``workload[:design]`` (design defaults to das)."""
    workload, _, design = spec.partition(":")
    return workload, (design or "das")


def _compare_command(args) -> int:
    """Handle ``repro compare``: ranked cross-run stat/timeline deltas."""
    from .obs import compare_runs

    workload_a, design_a = _parse_run_spec(args.run_a)
    workload_b, design_b = _parse_run_spec(args.run_b)
    for design in (design_a, design_b):
        if design not in DESIGNS:
            print(f"unknown design {design!r} (choose from "
                  f"{', '.join(DESIGNS)})", file=sys.stderr)
            return 2
    try:
        metrics_a = run_workload(workload_a, design_a,
                                 references=args.refs, seed=args.seed,
                                 use_cache=not args.no_cache)
        metrics_b = run_workload(workload_b, design_b,
                                 references=args.refs, seed=args.seed,
                                 use_cache=not args.no_cache)
    except KeyError as error:
        print(str(error.args[0]), file=sys.stderr)
        return 2
    print(compare_runs(metrics_a, metrics_b,
                       label_a=f"{workload_a}:{design_a}",
                       label_b=f"{workload_b}:{design_b}",
                       threshold_percent=args.threshold,
                       limit=args.limit))
    return 0


def _ledger_command(args) -> int:
    """Handle ``repro ledger ls|show|query|prune`` (offline)."""
    import json
    import time

    from .obs.ledger import get_ledger
    from .obs.render import aligned_table

    path = None
    if args.dir is not None:
        from pathlib import Path

        path = Path(args.dir) / "ledger.db"
    ledger = get_ledger(path)

    def print_rows(rows) -> None:
        if args.as_json:
            print(json.dumps(rows, indent=2))
            return
        if not rows:
            print(f"ledger {ledger.path}: no matching runs")
            return
        table = []
        for r in rows:
            stamp = time.strftime("%m-%d %H:%M:%S",
                                  time.localtime(r["ts"]))
            table.append([
                str(r["id"]), stamp, r["workload"], r["design"],
                str(r["refs"]), r.get("engine") or "interp", r["origin"],
                "cache" if r["cache_hit"] else "fresh",
                "-" if r["ipc"] is None else f"{r['ipc']:.3f}",
                f"{r['wall_s']:.3f}s", r["trace_id"]])
        for line in aligned_table(
                ["id", "when", "workload", "design", "refs", "engine",
                 "origin", "source", "ipc", "wall", "trace"], table):
            print(line)

    if args.ledger_command == "ls":
        print_rows(ledger.runs(limit=args.limit))
        return 0
    if args.ledger_command == "query":
        since_ts = (time.time() - args.since * 86400.0
                    if args.since is not None else None)
        print_rows(ledger.runs(workload=args.workload, design=args.design,
                               origin=args.origin, engine=args.engine,
                               since_ts=since_ts, limit=args.limit))
        return 0
    if args.ledger_command == "show":
        row = ledger.run_by_id(args.id)
        if row is None:
            print(f"ledger {ledger.path}: no run with id {args.id}",
                  file=sys.stderr)
            return 1
        if args.as_json:
            print(json.dumps(row, indent=2))
            return 0
        width = max(len(k) for k in row)
        for key, value in row.items():
            if key == "ts":
                value = time.strftime("%Y-%m-%d %H:%M:%S",
                                      time.localtime(value))
            print(f"{key.ljust(width)}  {value}")
        return 0
    # prune
    if args.older_than_days is None and args.keep_last is None:
        print("ledger prune: pass --older-than-days and/or --keep-last",
              file=sys.stderr)
        return 2
    before_ts = (time.time() - args.older_than_days * 86400.0
                 if args.older_than_days is not None else None)
    result = ledger.prune(before_ts=before_ts, keep_last=args.keep_last,
                          dry_run=args.dry_run)
    if args.as_json:
        print(json.dumps({**result, "dry_run": args.dry_run,
                          "stats": ledger.stats()}, indent=2))
        return 0
    verb = "would prune" if args.dry_run else "pruned"
    print(f"{verb} {result['pruned']} run row(s) "
          f"({result['aged']} by age, {result['overflow']} over "
          f"--keep-last); {ledger.stats()['runs']} remain")
    return 0


def _engine_command(args) -> int:
    """Handle ``repro engine verify``: the bit-identity equivalence gate."""
    import json

    from .engine.verify import (
        VERIFY_SCENARIOS,
        summarize,
        verify_engines,
    )

    if args.list_only:
        for scenario in VERIFY_SCENARIOS:
            refs = (args.refs if args.refs is not None
                    else scenario.references())
            print(f"{scenario.name:20s} {scenario.workload}/"
                  f"{scenario.design}  refs={refs}")
        return 0
    try:
        results = verify_engines(names=args.names or None,
                                 references=args.refs)
    except KeyError as error:
        print(f"engine verify: {error.args[0]}", file=sys.stderr)
        return 2
    if args.as_json:
        print(json.dumps(summarize(results), indent=2))
    else:
        for result in results:
            print(result)
        passed = sum(1 for r in results if r.ok)
        print(f"engine verify: {passed}/{len(results)} scenario(s) "
              f"bit-identical")
    return 0 if all(result.ok for result in results) else 1


def _report_command(args) -> int:
    """Handle ``repro report``: write the self-contained HTML page."""
    from pathlib import Path

    from .obs.ledger import get_ledger
    from .obs.report import write_report

    ledger = get_ledger(Path(args.dir) / "ledger.db"
                        if args.dir is not None else None)
    out = write_report(Path(args.out), ledger, limit=args.limit)
    stats = ledger.stats()
    print(f"report -> {out} ({stats['runs']} runs, "
          f"{stats['validate_runs']} validate runs)")
    return 0


def _events_command(args) -> int:
    """Handle ``repro events``: traced re-simulation + trace export."""
    from .obs import trace_workload

    print("note: event tracing bypasses the result cache -- this run is "
          "re-simulated (its metrics match the cached run).")
    metrics, tracer = trace_workload(
        args.workload, design=args.design, references=args.refs,
        seed=args.seed, capacity=args.capacity)
    tracer.write_chrome_trace(args.out)
    if args.timeline:
        print(tracer.timeline(limit=args.timeline))
    print(f"workload={metrics.workload} design={metrics.design}: "
          f"{len(tracer)} events retained ({tracer.emitted} emitted, "
          f"{tracer.dropped} dropped) -> {args.out}")
    print("open in https://ui.perfetto.dev or chrome://tracing")
    return 0


def _print_trace_info(info) -> None:
    """Render one trace info dict as aligned key/value lines."""
    for field in ("name", "path", "source_format", "records", "blocks",
                  "block_records", "file_bytes", "content_hash"):
        if field in info:
            print(f"  {field:13} {info[field]}")


def _trace_command(args) -> int:
    """Handle ``repro trace dump|run|import|info|convert|ls``."""
    import itertools

    from .sim.runner import run_trace_file
    from .trace.ingest import TraceFormatError
    from .trace.record import write_trace
    from .trace.spec2006 import PROFILES, build_trace

    if args.trace_command == "import":
        from .trace.library import import_trace

        try:
            info = import_trace(args.path, name=args.name, fmt=args.format)
        except (TraceFormatError, ValueError, OSError) as error:
            print(f"import failed: {error}", file=sys.stderr)
            return 2
        print(f"imported {args.path} as trace:{info['name']}")
        _print_trace_info(info)
        print(f"run it: repro bench trace:{info['name']} --refs 5000")
        return 0
    if args.trace_command == "info":
        from .trace.library import list_traces, open_trace
        from .trace.rtrc import RtrcReader

        try:
            if args.name in list_traces():
                reader = open_trace(args.name)
            else:
                reader = RtrcReader(args.name)
        except (TraceFormatError, KeyError, OSError) as error:
            print(f"info failed: {error}", file=sys.stderr)
            return 2
        _print_trace_info(reader.info())
        return 0
    if args.trace_command == "convert":
        from .trace.ingest import detect_format, parse_trace
        from .trace.rtrc import write_rtrc

        try:
            fmt = args.format or detect_format(args.path)
            info = write_rtrc(parse_trace(args.path, fmt), args.out,
                              source_format=fmt)
        except (TraceFormatError, OSError) as error:
            print(f"convert failed: {error}", file=sys.stderr)
            return 2
        print(f"converted {args.path} ({fmt}) -> {args.out}")
        _print_trace_info(info)
        return 0
    if args.trace_command == "ls":
        from .trace.library import list_traces, open_trace, trace_dir

        names = list_traces()
        if not names:
            print(f"trace library {trace_dir()} is empty "
                  f"(use 'repro trace import')")
            return 0
        for name in names:
            info = open_trace(name).info()
            print(f"trace:{name}  {info['records']} records  "
                  f"{info['source_format']}  "
                  f"{info['content_hash'][:12]}")
        return 0
    if args.trace_command == "dump":
        if args.workload not in PROFILES:
            print(f"unknown workload {args.workload!r}", file=sys.stderr)
            return 2
        trace = itertools.islice(
            build_trace(args.workload, args.seed), args.refs)
        with open(args.out, "w") as stream:
            count = write_trace(trace, stream)
        print(f"wrote {count} references to {args.out}")
        return 0
    if args.trace_command == "run":
        metrics = run_trace_file(args.path, args.design,
                                 references=args.refs, seed=args.seed)
        print(f"workload={metrics.workload} design={metrics.design}")
        print(f"  ipc={[round(x, 3) for x in metrics.ipc]} "
              f"mpki={metrics.mpki:.2f}")
        print(f"  mean_read_latency={metrics.mean_read_latency_ns:.1f} ns")
        return 0
    raise AssertionError("unreachable")


if __name__ == "__main__":
    raise SystemExit(main())
