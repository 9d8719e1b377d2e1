"""Run one benchmark workload and print its metrics.

From the repository root::

    python3 perfbench/run.py --workload scan --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` runs the workload twice on identically seeded machines —
untraced, then with every layer's entry points wrapped for the same
number of rounds — and reports the per-layer split.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import statistics
import sys
import time
from pathlib import Path
from time import perf_counter_ns

from harness import (KINDS, PAGE, REFERENCE_NS, TAIL, block_size,
                     peak_rss_mb, percentile, reference_ns, scale)
from tracing import LABEL_LOOKUP, LAYERS, BatchedPages, LayerTracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: (name, unit) of every end-to-end metric, in report order
END_TO_END = (
    ("setup_s", "s"), ("pages_per_s", "pages/s"), ("ops_per_s", "ops/s"),
    ("read_p50_us", "us"), ("pread_p50_us", "us"),
    ("sleds_get_p50_us", "us"),
    ("write_p50_us", "us"), ("write_p99_us", "us"),
    ("peak_rss_mb", "MiB"),
)

#: computed and printed but not gated, as too unsteady to gate:
#: * on ``scan`` one FSLEDS_GET in 65 is the CD-ROM wc's, 1.5-3.4 ms
#:   against ~40 us, so its p99 falls among those ~100 calls and its
#:   ten-run spread reached 0.42;
#: * on ``observed`` about 1% of reads and preads take a full (oldest
#:   generation) cyclic-GC pause of 10-55 ms, against 2-7 ms for the rest
#:   of their tail, so their p99s sit on the edge of the pauses and
#:   spread 0.15-0.33 over ten runs even at the reference speed
UNGATED = ("sleds_get_p99_us", "read_p99_us", "pread_p99_us")

#: set-ups per run, timed before the rounds: set-up takes milliseconds,
#: so its median needs many
SETUPS = 31
#: rounds whose virtual outcome every run hashes (the printed digest)
DIGEST_ROUNDS = 2
#: share of ``--seconds`` the traced run spends on its untraced pass
UNTRACED_SHARE = 0.25


def per_layer_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    names = []
    for layer in LAYERS:
        names += [(f"{layer}.calls", "count"), (f"{layer}.self_s", "s"),
                  (f"{layer}.self_share", "ratio")]
    return names + [
        ("trace.unattributed_s", "s"), ("trace.overhead", "ratio"),
        ("kernel.syscalls", "count"), ("kernel.hard_faults", "count"),
        ("cache.hit_ratio", "ratio"), ("cache.evictions", "count"),
        ("cache.readahead_pages", "pages"), ("devices.requests", "count"),
        ("devices.pages_per_request", "pages"),
        ("devices.batched_page_share", "ratio"),
        ("core.sled_builds", "count"), ("core.sled_cache_hit_ratio", "ratio"),
        ("block.runs_per_request", "ratio"),
        ("block.queue_wait_virtual_s", "s"), ("sim.events_fired", "count"),
        ("sim.task_steps", "count"), ("obs.records", "count"),
        ("obs.metric_lookups_per_fault", "lookups/fault"),
    ]


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def drive(workload, world, seconds: float, rounds: int | None = None):
    """Run rounds until ``seconds`` pass (at least ``DIGEST_ROUNDS``), or
    exactly ``rounds``.  Returns (rounds run, digest after
    ``DIGEST_ROUNDS`` rounds)."""
    deadline = time.perf_counter() + seconds
    index = 0
    prefix = None
    while True:
        workload.run_round(world, index)
        world.check_accounting()
        index += 1
        if index == DIGEST_ROUNDS:
            prefix = world.digest.hexdigest(world.kernel)
        if rounds is not None:
            if index >= rounds:
                break
        elif index >= DIGEST_ROUNDS and time.perf_counter() >= deadline:
            break
    return index, prefix


def _ready(workload, seed: int):
    """Set up, compute the output oracles (untimed), settle the heap."""
    world = workload.setup(seed)
    workload.prepare(world)
    world.check_accounting()
    gc.collect()
    return world


def time_setup(workload, seed: int) -> tuple[int, float]:
    """One throwaway set-up: (host ns, ns at the reference speed)."""
    from workloads import numbering_kept

    gc.collect()
    with numbering_kept():
        before = reference_ns()
        start = perf_counter_ns()
        workload.setup(seed)
        took = perf_counter_ns() - start
        after = reference_ns()
    return took, scale(took, before, after)


def run_untraced(workload, seed: int, seconds: float) -> dict:
    world = _ready(workload, seed)
    setups = [time_setup(workload, seed) for _ in range(SETUPS)]
    speed = world.speed
    speed.probe()
    rounds, digest = drive(workload, world, seconds)
    speed.stop()
    workload.finish(world)
    rec = world.rec
    # Gated: the median set-up, the whole timed phase's rates, and the
    # p50 and p99 over all samples, so slow rounds (GC pauses, ring
    # recycling, state that grows over a run) count.  Each at the
    # reference speed; the same figure in plain host time is printed
    # beside it.
    host_ns, phase_ns = speed.phase()
    pages = rec.bytes / PAGE
    scaled = speed.samples()
    values = {
        "setup_s": statistics.median(s for _, s in setups) / 1e9,
        "pages_per_s": pages / phase_ns * 1e9,
        "ops_per_s": rec.ops / phase_ns * 1e9,
        "peak_rss_mb": peak_rss_mb(),
    }
    host = {
        "setup_s": statistics.median(h for h, _ in setups) / 1e9,
        "pages_per_s": pages / host_ns * 1e9,
        "ops_per_s": rec.ops / host_ns * 1e9,
    }
    counts = {"setup_s": len(setups), "pages_per_s": rounds,
              "ops_per_s": rounds}
    for kind in KINDS:
        ordered = sorted(scaled[kind])
        plain = sorted(rec.ns[kind])
        for pct in (50, TAIL):
            name = f"{kind}_p{pct}_us"
            values[name] = percentile(ordered, pct) / 1000.0
            host[name] = percentile(plain, pct) / 1000.0
            counts[name] = len(ordered)
    return {"world": world, "rounds": rounds, "timed_s": host_ns / 1e9,
            "digest": digest, "counts": counts, "host": host,
            "reference_ns": speed.reference_median_ns(),
            "correct": True,
            "values": {name: values[name] for name, _ in END_TO_END},
            "ungated": {name: values[name] for name in UNGATED}}


def run_traced(workload, seed: int, seconds: float) -> dict:
    # untraced pass: counts batched pages only, sets the round count
    world = _ready(workload, seed)
    counter = BatchedPages()
    counter.install()
    try:
        start = perf_counter_ns()
        rounds, digest = drive(workload, world, seconds * UNTRACED_SHARE)
        plain_ns = perf_counter_ns() - start
    finally:
        counter.uninstall()
    plain_digest = world.digest.hexdigest(world.kernel)
    plain_pages = counter.pages
    plain_rec = world.rec
    del world

    # traced pass: same seed, same rounds, every layer wrapped
    world = _ready(workload, seed)
    tracer = LayerTracer()
    world.wrap_task = tracer.bench
    before = world.counters()
    counter = BatchedPages()
    counter.install()
    tracer.install()
    try:
        drive(workload, world, 0.0, rounds=rounds)
    finally:
        tracer.uninstall()
        counter.uninstall()
    after = world.counters()
    workload.finish(world)
    traced_digest = world.digest.hexdigest(world.kernel)

    delta = {key: after[key] - before[key] for key in after}
    wall = tracer.wall_ns
    values = {}
    for index, layer in enumerate(LAYERS):
        values[f"{layer}.calls"] = tracer.calls(index)
        values[f"{layer}.self_s"] = tracer.self_ns[index] / 1e9
        values[f"{layer}.self_share"] = _ratio(tracer.self_ns[index], wall)
    values.update({
        "trace.unattributed_s": tracer.unattributed_ns / 1e9,
        "trace.overhead": _ratio(wall, plain_ns),
        "kernel.syscalls": delta["syscalls"],
        "kernel.hard_faults": delta["hard_faults"],
        "cache.hit_ratio": _ratio(delta["hits"],
                                  delta["hits"] + delta["misses"]),
        "cache.evictions": delta["evictions"],
        "cache.readahead_pages": delta["readahead_pages"],
        "devices.requests": delta["dev_requests"],
        "devices.pages_per_request": _ratio(delta["dev_bytes"] / 4096,
                                            delta["dev_requests"]),
        "devices.batched_page_share": _ratio(counter.pages,
                                             delta["pages_read"]),
        "core.sled_builds": delta["sleds_builds"],
        "core.sled_cache_hit_ratio": _ratio(
            delta["sleds_cache_hits"],
            delta["sleds_builds"] + delta["sleds_cache_hits"]),
        "block.runs_per_request": _ratio(
            delta["plug_runs"], delta["plug_runs"] - delta["plug_merged"]),
        "block.queue_wait_virtual_s": delta["queue_wait"],
        "sim.events_fired": delta["events_fired"],
        "sim.task_steps": delta["task_steps"],
        "obs.records": delta["obs_records"],
        "obs.metric_lookups_per_fault": _ratio(
            tracer.spec_calls(LABEL_LOOKUP), delta["hard_faults"]),
    })

    problems = tracer.closure_errors()
    closed = math.fsum(tracer.self_ns[:len(LAYERS)]) / 1e9 \
        + values["trace.unattributed_s"]
    if not math.isclose(closed, wall / 1e9, rel_tol=1e-9):
        problems.append(f"self + unattributed = {closed} != wall {wall / 1e9}")
    if traced_digest != plain_digest:
        problems.append(f"traced digest {traced_digest} != untraced "
                        f"{plain_digest}")
    if counter.pages != plain_pages:
        problems.append(f"batched pages {counter.pages} traced vs "
                        f"{plain_pages} untraced")
    tracer.write_spans(ROOT / ".perfbench_out" /
                       f"spans-{workload.name}-{seed}.json")
    # both passes' ops count; both passes' failures fail the run
    world.rec.failed += plain_rec.failed
    world.rec.errors += plain_rec.errors
    world.rec.ns = {kind: plain_rec.ns[kind] + world.rec.ns[kind]
                    for kind in world.rec.ns}
    return {"world": world, "rounds": rounds, "timed_s": wall / 1e9,
            "digest": digest, "values": values, "counts": {},
            "correct": not problems, "problems": problems,
            "trace_digest": (plain_digest, traced_digest),
            "tracer": tracer}


def report(name: str, seed: int, trace: bool, result: dict,
           units: dict[str, str]) -> dict:
    """Print the human-readable lines; return the final JSON object."""
    world = result["world"]
    rec = world.rec
    print(f"workload {name}  seed {seed}  trace {int(trace)}  "
          f"rounds {result['rounds']}  measured {result['timed_s']:.2f} s  "
          f"digest {result['digest']}")
    if "reference_ns" in result:
        print(f"  reference loop: median {result['reference_ns'] / 1e3:.1f} "
              f"us per probe over the run, {REFERENCE_NS / 1e3:.1f} us at "
              f"the reference speed; timings below are at that speed, "
              f"'host' is the same figure in plain host time")
    if "analyze_s" in world.extra:
        print(f"  analyze_s {world.extra['analyze_s']:.4f} s over "
              f"{world.extra['records']} lifecycle records (not gated); "
              f"{world.extra['blame_ulp_misses']} blame vectors miss their "
              f"latency by one ulp")
    for metric, value in result["values"].items():
        note = ""
        if metric in result["counts"]:
            n = result["counts"][metric]
            note = f"  n={n}"
            if metric.endswith(f"_p{TAIL}_us") and n < block_size(TAIL):
                note += f" (under {block_size(TAIL)} samples: tail too thin)"
        if metric in result.get("host", {}):
            note += f"; host {result['host'][metric]:.6g}"
        print(f"  {metric:<30} {value:>14.6g} {units[metric]}{note}")
    for metric, value in result.get("ungated", {}).items():
        print(f"  {metric:<30} {value:>14.6g} us  "
              f"n={result['counts'][metric]} (not gated)")
    if trace:
        plain, traced = result["trace_digest"]
        tracer = result["tracer"]
        print(f"  trace digest untraced {plain} traced {traced}; spans kept "
              f"{len(tracer.spans)}, dropped {tracer.dropped}")
    for problem in result.get("problems", []):
        print(f"  PROBLEM: {problem}", file=sys.stderr)
    for error in rec.errors:
        print(f"  FAILED: {error}", file=sys.stderr)
    attempted = max(1, rec.ops)
    failed = min(rec.failed, attempted)
    return {
        "correct": result["correct"] and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric: {"value": value, "unit": units[metric]}
                    for metric, value in result["values"].items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("scan", "tenants", "observed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"perfbench: the simulator sources are missing ({src})",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    from workloads import make

    workload = make(args.workload)
    if args.trace:
        result = run_traced(workload, args.seed, args.seconds)
        units = dict(per_layer_names())
    else:
        result = run_untraced(workload, args.seed, args.seconds)
        units = dict(END_TO_END)
    print(json.dumps(report(args.workload, args.seed, bool(args.trace),
                            result, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
