"""``sleds-run`` — drive the SLEDs applications from the command line.

Builds a simulated machine from a scenario file (or the built-in demo
scenario) and runs one of the ported utilities against it, printing the
result plus the run's virtual-time/fault accounting — the closest thing
to sitting at the paper's test machine.

Examples::

    sleds-run wc /mnt/ext2/demo/big.txt --sleds
    sleds-run grep XNEEDLEX /mnt/ext2/demo/big.txt -q --sleds
    sleds-run find /mnt/ext2 -latency -m50
    sleds-run gmc /mnt/ext2/demo/big.txt
    sleds-run sleds /mnt/ext2/demo/big.txt          # raw FSLEDS_GET dump
    sleds-run timeline /mnt/ext2/demo/big.txt       # traced wc + timeline
    sleds-run stats /mnt/ext2/demo/big.txt --warm   # metrics + accuracy
    sleds-run trace /mnt/ext2/demo/big.txt -o t.json  # Chrome trace JSON
    sleds-run report --json report.json   # lifecycle + critical path
    sleds-run slo --json slo.json         # per-class latency objectives
    sleds-run slo --tenants 3 --by-tenant # per-tenant compliance rollup
    sleds-run profile --json prof.json    # wall-clock hot-path profile
    sleds-run explain --top 5             # slowest requests, blame attached
    sleds-run explain --tenants 3 --by-tenant --json forensics.json
    sleds-run --scenario my_setup.json wc /mnt/nfs/pub/dataset.txt
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.apps.findutil import find
from repro.apps.gmc import file_properties, format_panel, should_wait_prompt
from repro.apps.grep import grep
from repro.apps.wc import wc
from repro.bench.scenario import DEFAULT_SCENARIO, build_scenario, load_scenario
from repro.core.delivery import SLEDS_BEST, SLEDS_LINEAR
from repro.sim.trace import Tracer, render_timeline
from repro.sim.units import MB, human_time


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sleds-run",
        description="Run the SLEDs-adapted utilities on a simulated "
                    "storage stack.")
    parser.add_argument("--scenario", metavar="FILE", default=None,
                        help="scenario JSON (default: built-in demo)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_wc = sub.add_parser("wc", help="count lines/words/bytes")
    p_wc.add_argument("path")
    p_wc.add_argument("--sleds", action="store_true")
    p_wc.add_argument("--mmap", action="store_true",
                      help="mmap-friendly library (implies --sleds)")

    p_grep = sub.add_parser("grep", help="search for a literal pattern")
    p_grep.add_argument("pattern")
    p_grep.add_argument("path")
    p_grep.add_argument("--sleds", action="store_true")
    p_grep.add_argument("-q", action="store_true", dest="quiet",
                        help="stop at the first match")
    p_grep.add_argument("-n", action="store_true", dest="line_numbers",
                        help="print line numbers")
    p_grep.add_argument("--mmap", action="store_true")
    p_grep.add_argument("-E", action="store_true", dest="regex",
                        help="interpret PATTERN as a regular expression")

    p_find = sub.add_parser("find", help="walk a tree with predicates")
    p_find.add_argument("root")
    p_find.add_argument("-name", default=None)
    p_find.add_argument("-latency", default=None,
                        help="[+|-][m|u]N total delivery time predicate "
                             "(use -latency=-m50 for 'less than' values "
                             "so the shell parser keeps the minus)")
    p_find.add_argument("--best", action="store_true",
                        help="use the SLEDS_BEST attack plan")
    p_find.add_argument("-xdev", action="store_true",
                        help="do not cross mount points")

    p_gmc = sub.add_parser("gmc", help="file-manager properties panel")
    p_gmc.add_argument("path")

    p_sleds = sub.add_parser("sleds", help="dump the raw SLED vector")
    p_sleds.add_argument("path")

    p_tl = sub.add_parser("timeline",
                          help="trace a wc run and render a timeline")
    p_tl.add_argument("path")
    p_tl.add_argument("--sleds", action="store_true")

    p_prog = sub.add_parser("progress",
                            help="retrieve a file, comparing progress "
                                 "estimators (paper §3.3)")
    p_prog.add_argument("path")
    p_prog.add_argument("--samples", type=int, default=10)

    p_stats = sub.add_parser(
        "stats", help="run an app under telemetry and report metrics "
                      "plus SLED prediction accuracy")
    p_stats.add_argument("path")
    p_stats.add_argument("--app", choices=("wc", "grep"), default="wc")
    p_stats.add_argument("--pattern", default="XNEEDLEX",
                         help="pattern for --app grep")
    p_stats.add_argument("--no-sleds", action="store_true",
                         help="run without SLED-directed delivery")
    p_stats.add_argument("--warm", action="store_true",
                         help="run twice and report the warm-cache pass")
    p_stats.add_argument("--format", choices=("text", "prom", "json"),
                         default="text", dest="fmt",
                         help="text report, Prometheus exposition, or "
                              "JSON dump")
    p_stats.add_argument("-o", "--out", default=None, metavar="FILE",
                         help="also write the metrics to FILE")

    p_report = sub.add_parser(
        "report", help="concurrent readers under lifecycle tracing: "
                       "latency breakdown, critical path, prediction "
                       "accuracy")
    p_report.add_argument("paths", nargs="*",
                          help="files to read concurrently (default: "
                               "the demo three-reader mix)")
    p_report.add_argument("--json", default=None, metavar="FILE",
                          dest="json_out",
                          help="also write the full report as JSON")

    p_slo = sub.add_parser(
        "slo", help="concurrent readers graded against per-class latency "
                    "objectives: rolling p50/p99, compliance, error-budget "
                    "burn rate, plus a sampled metric time series")
    p_slo.add_argument("paths", nargs="*",
                       help="files to read concurrently (default: the "
                            "demo three-reader mix)")
    p_slo.add_argument("--objective", action="append", default=None,
                       metavar="CLS=SECONDS",
                       help="latency objective for one device class "
                            "(repeatable; default: built-in per-class "
                            "objectives)")
    p_slo.add_argument("--compliance", type=float, default=0.99,
                       help="fraction of requests that must meet the "
                            "objective (default 0.99)")
    p_slo.add_argument("--window", type=int, default=512,
                       help="rolling window (requests) for quantiles and "
                            "burn rate")
    p_slo.add_argument("--interval", type=float, default=0.005,
                       help="time-series sampling cadence in virtual "
                            "seconds (default 5 ms)")
    p_slo.add_argument("--tenants", type=int, default=0, metavar="N",
                       help="assign readers round-robin to N tenants "
                            "(0 = untenanted; implies --by-tenant)")
    p_slo.add_argument("--by-tenant", action="store_true",
                       dest="by_tenant",
                       help="roll compliance / burn rate up per tenant "
                            "as well as per device class")
    p_slo.add_argument("--json", default=None, metavar="FILE",
                       dest="json_out",
                       help="also write the SLO report as JSON")
    p_slo.add_argument("--series-out", default=None, metavar="FILE",
                       help="write the sampled time series as JSON")
    p_slo.add_argument("--openmetrics-out", default=None, metavar="FILE",
                       help="write the sampled series as OpenMetrics text")

    p_prof = sub.add_parser(
        "profile", help="run the concurrent-reader workload with the "
                        "wall-clock hot-path profiler attached")
    p_prof.add_argument("paths", nargs="*",
                        help="files to read concurrently (default: the "
                             "demo three-reader mix)")
    p_prof.add_argument("--repeat", type=int, default=1,
                        help="run the workload N times (default 1)")
    p_prof.add_argument("--json", default=None, metavar="FILE",
                        dest="json_out",
                        help="also write the profile as JSON")
    p_prof.add_argument("--budget", type=float, default=None,
                        metavar="FAULTS_PER_S",
                        help="minimum simulated hard-faults per wall "
                             "second; exit non-zero when the measured "
                             "throughput falls below it (the "
                             "docs/performance.md core-throughput gate)")
    p_prof.add_argument("--storm", action="store_true",
                        help="profile the blocking fault storm instead "
                             "of the concurrent readers: sequential "
                             "re-reads of a file 4x the cache on a "
                             "dedicated machine — the run path "
                             "(Device.read_run, advance_run, insert_run) "
                             "BENCH_core_throughput gates, so "
                             "--budget measures what the benchmark "
                             "measures; --repeat reps are scored on the "
                             "best wall time")

    p_explain = sub.add_parser(
        "explain", help="latency forensics over concurrent readers: "
                        "top-K slowest requests with waterfall + blame "
                        "attribution, the cross-tenant interference "
                        "matrix, folded stacks for flamegraphs")
    p_explain.add_argument("paths", nargs="*",
                           help="files to read concurrently (default: "
                                "the demo three-reader mix)")
    p_explain.add_argument("--top", type=int, default=5,
                           help="waterfall the K slowest requests "
                                "(default 5)")
    p_explain.add_argument("--tenants", type=int, default=0, metavar="N",
                           help="assign readers round-robin to N tenants "
                                "(0 = untenanted; implies --by-tenant)")
    p_explain.add_argument("--by-tenant", action="store_true",
                           dest="by_tenant",
                           help="print the per-device interference "
                                "matrix and per-tenant queue-delay "
                                "totals")
    p_explain.add_argument("--json", default=None, metavar="FILE",
                           dest="json_out",
                           help="write the full forensic report "
                                "(waterfalls, blame vectors, matrix, "
                                "exemplars) as JSON")
    p_explain.add_argument("--folded-out", default=None, metavar="FILE",
                           help="write blame folded stacks "
                                "(flamegraph.pl input) to FILE")

    p_trace = sub.add_parser(
        "trace", help="run an app under span tracing and export "
                      "Chrome trace-event JSON")
    p_trace.add_argument("path")
    p_trace.add_argument("--app", choices=("wc", "grep"), default="wc")
    p_trace.add_argument("--pattern", default="XNEEDLEX")
    p_trace.add_argument("--no-sleds", action="store_true")
    p_trace.add_argument("-o", "--out", default=None, metavar="FILE",
                         help="write the trace JSON to FILE "
                              "(default: stdout)")
    return parser


#: files the report/slo/profile commands read when none are given
DEMO_READ_MIX = ["/mnt/ext2/demo/big.txt",
                 "/mnt/ext2/demo/small.txt",
                 "/mnt/nfs/pub/dataset.txt"]

#: default per-device-class latency objectives for ``sleds-run slo``
DEFAULT_SLO_OBJECTIVES = {
    "memory": 0.001,
    "disk": 0.02,
    "nfs": 0.06,
    "cdrom": 1.0,
    "tape": 300.0,
}


def _parse_objectives(specs: list[str] | None) -> dict[str, float]:
    if not specs:
        return dict(DEFAULT_SLO_OBJECTIVES)
    out: dict[str, float] = {}
    for spec in specs:
        cls, sep, value = spec.partition("=")
        if not sep or not cls:
            raise SystemExit(
                f"--objective needs CLS=SECONDS, got {spec!r}")
        try:
            out[cls] = float(value)
        except ValueError:
            raise SystemExit(
                f"--objective {spec!r}: {value!r} is not a number") from None
    return out


def _prefetch_sleds(kernel, paths: list[str]) -> None:
    """Fetch each file's SLED vector so the accuracy join has
    predictions to grade the delivered latencies against."""
    for path in paths:
        fd = kernel.open(path)
        kernel.get_sleds(fd)
        kernel.close(fd)


def _run_readers(kernel, paths: list[str], prefix: str = "reader",
                 tenants: int = 0):
    """Run one concurrent reader per path; returns (tasks, stats).

    ``tenants`` > 0 assigns readers round-robin to that many tenants
    (``tenant0`` .. ``tenantN-1``), so faults carry tenant attribution.
    """
    from repro.sim.tasks import EventScheduler, Task, reader_task_async
    tasks = [Task(f"{prefix}{i}", reader_task_async(kernel, path),
                  tenant=f"tenant{i % tenants}" if tenants else None)
             for i, path in enumerate(paths)]
    return tasks, EventScheduler(kernel, tasks).run()


#: the blocking fault-storm profiled by ``sleds-run profile --storm`` —
#: mirrors benchmarks/test_perf_core_throughput.py so a --budget gate
#: here measures the same path BENCH_core_throughput records
STORM_SEED = 7077
STORM_FILE_PAGES = 8192
STORM_CACHE_PAGES = 2048
STORM_PASSES = 6
STORM_CHUNK_PAGES = 64


def _profile_storm(args) -> int:
    """``sleds-run profile --storm``: the run-path throughput gate."""
    from repro.machine import Machine
    from repro.obs import HotPathProfiler
    from repro.sim.units import PAGE_SIZE

    profiler = HotPathProfiler()
    best_wall = None
    faults = 0
    virtual = 0.0
    for _ in range(args.repeat):
        machine = Machine.unix_utilities(cache_pages=STORM_CACHE_PAGES,
                                         seed=STORM_SEED)
        machine.boot()
        machine.ext2.create_text_file(
            "storm.dat", STORM_FILE_PAGES * PAGE_SIZE, seed=1)
        kernel = machine.kernel
        profiler.attach()
        try:
            fd = kernel.open("/mnt/ext2/storm.dat")
            size = STORM_FILE_PAGES * PAGE_SIZE
            chunk = STORM_CHUNK_PAGES * PAGE_SIZE
            start = kernel.clock.now
            faults_before = kernel.counters.hard_faults
            wall_start = time.perf_counter()
            for _ in range(STORM_PASSES):
                offset = 0
                while offset < size:
                    kernel.pread(fd, offset, chunk)
                    offset += chunk
            wall = time.perf_counter() - wall_start
            kernel.close(fd)
        finally:
            profiler.detach()
        faults = kernel.counters.hard_faults - faults_before
        virtual = kernel.clock.now - start
        if best_wall is None or wall < best_wall:
            best_wall = wall

    print(f"fault storm: {STORM_PASSES} passes over "
          f"{STORM_FILE_PAGES} pages through a "
          f"{STORM_CACHE_PAGES}-page cache, best of {args.repeat}, "
          f"{human_time(virtual)} virtual")
    print()
    print(profiler.render(virtual_seconds=virtual))
    if args.json_out:
        payload = profiler.to_dict(virtual_seconds=virtual)
        payload["storm"] = {
            "file_pages": STORM_FILE_PAGES,
            "cache_pages": STORM_CACHE_PAGES,
            "passes": STORM_PASSES,
            "chunk_pages": STORM_CHUNK_PAGES,
            "repeat": args.repeat,
            "hard_faults": faults,
            "best_wall_s": best_wall,
            "faults_per_s": faults / best_wall if best_wall else None,
        }
        with open(args.json_out, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"\nwrote profile JSON to {args.json_out}")
    if args.budget is not None:
        faults_per_s = faults / best_wall if best_wall > 0 else float("inf")
        verdict = "PASS" if faults_per_s >= args.budget else "FAIL"
        print(f"\nthroughput: {faults:,} hard faults in {best_wall:.3f}s "
              f"wall = {faults_per_s:,.0f} faults/s "
              f"(budget {args.budget:,.0f}): {verdict}")
        if faults_per_s < args.budget:
            return 1
    return 0


def _run_instrumented(kernel, args):
    """Run the app named by ``args.app`` once; returns the finished run."""
    use_sleds = not args.no_sleds
    with kernel.process() as run:
        if args.app == "wc":
            wc(kernel, args.path, use_sleds=use_sleds)
        else:
            grep(kernel, args.path, args.pattern.encode(),
                 use_sleds=use_sleds)
    return run


def _report_run(run) -> None:
    print(f"---\nvirtual time {human_time(run.elapsed)}  "
          f"faults {run.hard_faults}  "
          f"device pages {run.counters.pages_read}")
    parts = ", ".join(f"{cat} {human_time(seconds)}"
                      for cat, seconds in sorted(run.by_category.items()))
    if parts:
        print(f"breakdown: {parts}")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    machine = (load_scenario(args.scenario) if args.scenario
               else build_scenario(DEFAULT_SCENARIO))
    kernel = machine.kernel

    if args.command == "wc":
        use_sleds = args.sleds or args.mmap
        with kernel.process() as run:
            result = wc(kernel, args.path, use_sleds=use_sleds,
                        via_mmap=args.mmap)
        print(f"{result.lines:8d} {result.words:8d} {result.chars:8d} "
              f"{args.path}")
        _report_run(run)
        return 0

    if args.command == "grep":
        use_sleds = args.sleds or args.mmap
        with kernel.process() as run:
            result = grep(kernel, args.path, args.pattern.encode(),
                          use_sleds=use_sleds,
                          first_match_only=args.quiet,
                          via_mmap=args.mmap, regex=args.regex)
        for match in result.matches:
            prefix = (f"{match.line_number}:" if args.line_numbers else "")
            print(f"{prefix}{match.line.decode(errors='replace')}")
        _report_run(run)
        return 0 if result.count else 1

    if args.command == "find":
        plan = SLEDS_BEST if args.best else SLEDS_LINEAR
        with kernel.process() as run:
            hits = find(kernel, args.root, name=args.name,
                        latency=args.latency, attack_plan=plan,
                        cross_mounts=not args.xdev)
        for hit in hits:
            extra = ("" if hit.delivery_time is None
                     else f"  ({human_time(hit.delivery_time)})")
            print(f"{hit.path}{extra}")
        _report_run(run)
        return 0

    if args.command == "gmc":
        if kernel.stat(args.path).is_dir:
            from repro.apps.gmc import format_directory
            print(format_directory(kernel, args.path))
            return 0
        panel = file_properties(kernel, args.path)
        print(format_panel(panel))
        print(f"\n{should_wait_prompt(panel)}")
        return 0

    if args.command == "sleds":
        fd = kernel.open(args.path)
        vector = kernel.get_sleds(fd)
        kernel.close(fd)
        print(f"{len(vector)} SLED(s) over {vector.file_size} bytes:")
        for sled in vector:
            print(f"  offset={sled.offset:<10} length={sled.length:<10} "
                  f"latency={human_time(sled.latency):>10} "
                  f"bandwidth={sled.bandwidth / MB:6.1f} MB/s")
        return 0

    if args.command == "timeline":
        tracer = Tracer()
        kernel.attach_tracer(tracer)
        with kernel.process() as run:
            wc(kernel, args.path, use_sleds=args.sleds)
        kernel.detach_tracer()
        print(render_timeline(tracer.events()))
        _report_run(run)
        return 0

    if args.command == "stats":
        from repro.obs import Telemetry
        telemetry = Telemetry()
        kernel.attach_telemetry(telemetry)
        run = _run_instrumented(kernel, args)
        if args.warm:
            run = _run_instrumented(kernel, args)
        kernel.detach_telemetry()
        if args.fmt == "prom":
            body = telemetry.render_prometheus()
        elif args.fmt == "json":
            body = json.dumps(telemetry.to_dict(), indent=2, sort_keys=True)
        else:
            label = "warm" if args.warm else "cold"
            body = (f"{label} {args.app} run: "
                    f"virtual time {human_time(run.elapsed)}, "
                    f"faults {run.hard_faults}, "
                    f"hit ratio {run.hit_ratio:.1%}\n\n"
                    + telemetry.accuracy.report().render())
        print(body)
        if args.out:
            with open(args.out, "w") as handle:
                handle.write(body + "\n")
        return 0

    if args.command == "report":
        from repro.obs import Telemetry, critical_path
        paths = args.paths or list(DEMO_READ_MIX)
        telemetry = Telemetry()
        kernel.attach_telemetry(telemetry)
        engine = kernel.attach_engine()
        _prefetch_sleds(kernel, paths)
        start = kernel.clock.now
        tasks, stats = _run_readers(kernel, paths)
        end = kernel.clock.now
        queue_report = engine.queue_report()
        kernel.detach_engine()
        kernel.detach_telemetry()

        records = list(telemetry.lifecycle.records)
        chain = critical_path(records, start, end)
        print(f"{len(paths)} concurrent reader(s), makespan "
              f"{human_time(end - start)}")
        for task in tasks:
            s = stats[task.name]
            print(f"  {task.name}: virtual {human_time(s.virtual_time)}  "
                  f"waited {human_time(s.wait_time)}  "
                  f"faults {s.hard_faults}")
        print()
        print(telemetry.lifecycle.render_breakdown())
        print()
        print(chain.render())
        print()
        print(telemetry.accuracy.report().render())
        if args.json_out:
            payload = {
                "paths": paths,
                "makespan_s": end - start,
                "per_task": {
                    name: {
                        "virtual_time_s": s.virtual_time,
                        "wait_time_s": s.wait_time,
                        "hard_faults": s.hard_faults,
                        "io_waits": s.io_waits,
                    } for name, s in stats.items()
                },
                "lifecycle": telemetry.lifecycle.to_dict(),
                "critical_path": chain.to_dict(),
                # the report snapshot, by_component included — the
                # machine-readable twin of the rendered accuracy table
                "accuracy": telemetry.accuracy.report().to_dict(),
                "queues": queue_report,
            }
            with open(args.json_out, "w") as handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
                handle.write("\n")
            print(f"\nwrote report JSON to {args.json_out}")
        return 0

    if args.command == "slo":
        from repro.obs import SloTracker, Telemetry
        paths = args.paths or list(DEMO_READ_MIX)
        if args.tenants < 0:
            raise SystemExit(f"--tenants must be >= 0: {args.tenants}")
        by_tenant = args.by_tenant or args.tenants > 0
        objectives = _parse_objectives(args.objective)
        telemetry = Telemetry()
        kernel.attach_telemetry(telemetry)
        series = telemetry.enable_timeseries(interval=args.interval)
        slo = SloTracker.for_classes(
            objectives, compliance_target=args.compliance,
            window=args.window, registry=telemetry.registry,
            track_tenants=by_tenant
        ).attach(telemetry)
        kernel.attach_engine()
        _prefetch_sleds(kernel, paths)
        start = kernel.clock.now
        tasks, stats = _run_readers(kernel, paths, tenants=args.tenants)
        end = kernel.clock.now
        series.sample(end)  # final state always lands on the series
        kernel.detach_engine()
        kernel.detach_telemetry()
        slo.detach()

        print(f"{len(paths)} concurrent reader(s), makespan "
              f"{human_time(end - start)}, "
              f"{sum(s.hard_faults for s in stats.values())} fault(s)")
        print()
        print(slo.render())
        if by_tenant:
            print()
            print(slo.render_tenants())
        print(f"\ntime series: {len(series)} sample(s) across "
              f"{len(series.family_names_sampled())} metric families "
              f"(cadence {args.interval} virtual s)")
        if args.json_out:
            payload = {
                "paths": paths,
                "makespan_s": end - start,
                "objectives": objectives,
                "tenants": args.tenants,
                "compliance_target": args.compliance,
                "window": args.window,
                "slo": slo.to_dict(),
            }
            with open(args.json_out, "w") as handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
                handle.write("\n")
            print(f"wrote SLO report JSON to {args.json_out}")
        if args.series_out:
            with open(args.series_out, "w") as handle:
                json.dump(series.to_dict(), handle, indent=2,
                          sort_keys=True)
                handle.write("\n")
            print(f"wrote time-series JSON to {args.series_out}")
        if args.openmetrics_out:
            with open(args.openmetrics_out, "w") as handle:
                handle.write(series.render_openmetrics())
            print(f"wrote OpenMetrics series to {args.openmetrics_out}")
        return 0

    if args.command == "profile":
        from repro.block.merge import BlockConfig
        from repro.obs import HotPathProfiler
        if args.repeat < 1:
            raise SystemExit(f"--repeat must be >= 1: {args.repeat}")
        if args.budget is not None and args.budget <= 0:
            raise SystemExit(f"--budget must be > 0: {args.budget}")
        if args.storm:
            return _profile_storm(args)
        paths = args.paths or list(DEMO_READ_MIX)
        profiler = HotPathProfiler().attach()
        try:
            # merge+plug on so the block-layer flush site is exercised too
            kernel.attach_engine(block=BlockConfig(merge=True, plug=True))
            start = kernel.clock.now
            faults_before = kernel.counters.hard_faults
            wall_start = time.perf_counter()
            for rep in range(args.repeat):
                _prefetch_sleds(kernel, paths)
                _run_readers(kernel, paths, prefix=f"r{rep}.")
            wall = time.perf_counter() - wall_start
            faults = kernel.counters.hard_faults - faults_before
            end = kernel.clock.now
            kernel.detach_engine()
        finally:
            profiler.detach()
        virtual = end - start

        print(f"{args.repeat} x {len(paths)} concurrent reader(s), "
              f"{human_time(virtual)} virtual")
        print()
        print(profiler.render(virtual_seconds=virtual))
        if args.json_out:
            with open(args.json_out, "w") as handle:
                json.dump(profiler.to_dict(virtual_seconds=virtual),
                          handle, indent=2, sort_keys=True)
                handle.write("\n")
            print(f"\nwrote profile JSON to {args.json_out}")
        if args.budget is not None:
            faults_per_s = faults / wall if wall > 0 else float("inf")
            verdict = "PASS" if faults_per_s >= args.budget else "FAIL"
            print(f"\nthroughput: {faults:,} hard faults in {wall:.3f}s "
                  f"wall = {faults_per_s:,.0f} faults/s "
                  f"(budget {args.budget:,.0f}): {verdict}")
            if faults_per_s < args.budget:
                return 1
        return 0

    if args.command == "explain":
        import math

        from repro.block.merge import BlockConfig
        from repro.obs import LatencyForensics, SloTracker, Telemetry
        if args.top < 1:
            raise SystemExit(f"--top must be >= 1: {args.top}")
        if args.tenants < 0:
            raise SystemExit(f"--tenants must be >= 0: {args.tenants}")
        by_tenant = args.by_tenant or args.tenants > 0
        paths = args.paths or list(DEMO_READ_MIX)
        telemetry = Telemetry()
        kernel.attach_telemetry(telemetry)
        slo = SloTracker.for_classes(
            DEFAULT_SLO_OBJECTIVES, registry=telemetry.registry,
            track_tenants=by_tenant).attach(telemetry)
        # merge+plug on so plug-hold blame has something to attribute
        engine = kernel.attach_engine(
            block=BlockConfig(merge=True, plug=True))
        forensics = LatencyForensics(kernel, engine,
                                     top_k=max(32, args.top))
        forensics.attach(telemetry, slo=slo)
        _prefetch_sleds(kernel, paths)
        start = kernel.clock.now
        tasks, stats = _run_readers(kernel, paths, tenants=args.tenants)
        end = kernel.clock.now
        report = forensics.analyze(top=args.top)
        folded_cp = forensics.critical_path_folded(start, end)
        kernel.detach_engine()
        kernel.detach_telemetry()
        slo.detach()
        forensics.detach()

        print(f"{len(paths)} concurrent reader(s), makespan "
              f"{human_time(end - start)}, "
              f"{report.analyzed} traced request(s), "
              f"{forensics.reservoir.violations} SLO violation(s)")
        print()
        print(report.render())
        if by_tenant:
            rows = report.matrix.row_totals()
            pools = slo.tenant_queue_waits()
            print()
            print("per-tenant queue delay (matrix row vs SLO pool):")
            for victim in sorted(rows):
                pool = pools.get(victim, math.nan)
                print(f"  {victim:>12}: attributed "
                      f"{human_time(rows[victim]):>10}   SLO pool "
                      f"{'-' if victim == '-' else human_time(pool):>10}")
        if args.json_out:
            payload = {
                "paths": paths,
                "makespan_s": end - start,
                "tenants": args.tenants,
                "forensics": report.to_dict(),
                "slo_tenant_queue_waits": slo.tenant_queue_waits(),
            }
            with open(args.json_out, "w") as handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
                handle.write("\n")
            print(f"\nwrote forensic report JSON to {args.json_out}")
        if args.folded_out:
            with open(args.folded_out, "w") as handle:
                for line in report.folded:
                    handle.write(line + "\n")
                for line in folded_cp:
                    handle.write(line + "\n")
            print(f"wrote {len(report.folded) + len(folded_cp)} folded "
                  f"stack(s) to {args.folded_out}")
        return 0

    if args.command == "trace":
        from repro.obs import Telemetry
        telemetry = Telemetry()
        kernel.attach_telemetry(telemetry)
        _run_instrumented(kernel, args)
        kernel.detach_telemetry()
        body = json.dumps(telemetry.chrome_trace(), indent=2)
        if args.out:
            with open(args.out, "w") as handle:
                handle.write(body + "\n")
            print(f"wrote {len(telemetry.spans)} spans to {args.out}")
        else:
            print(body)
        return 0

    if args.command == "progress":
        from repro.apps.progress import retrieve_with_progress
        report = retrieve_with_progress(kernel, args.path,
                                        samples=args.samples)
        print(f"initial SLEDs estimate {human_time(report.initial_estimate)}"
              f"; actual {human_time(report.total_time)}")
        print(f"{'done':>6} {'elapsed':>10} {'dynamic ETA':>12} "
              f"{'sleds ETA':>12}")
        for sample in report.samples:
            dynamic = ("-" if sample.eta_dynamic is None
                       else human_time(sample.eta_dynamic))
            print(f"{sample.fraction_done:6.0%} "
                  f"{human_time(sample.elapsed):>10} {dynamic:>12} "
                  f"{human_time(sample.eta_sleds):>12}")
        return 0

    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
