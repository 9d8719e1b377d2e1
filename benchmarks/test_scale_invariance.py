"""Verify the harness's scaling claim (DESIGN.md §2): shapes are
invariant under the linear scale factor.

The whole benchmark methodology rests on this — cache and file sizes
shrink together, every modelled cost is linear in file size, so speedup
ratios and paper-equivalent times must agree across scales. This
benchmark runs the same wc point at 1:16 and 1:64 and asserts they do.
"""

from repro.apps.wc import wc
from repro.bench.measure import measure_runs
from repro.bench.workloads import BenchConfig, text_workload


def _point(scale: int, paper_mb: float, runs: int = 5):
    config = BenchConfig(scale=scale, runs=runs, noise=0.0, seed=777)
    times = {}
    pages = {}
    for use_sleds in (False, True):
        workload = text_workload(config, paper_mb, "/mnt/ext2",
                                 seed_salt=1)
        kernel = workload.kernel

        def run(k=kernel, p=workload.path, s=use_sleds):
            wc(k, p, use_sleds=s)

        stats = measure_runs(kernel, run, runs=runs)
        times[use_sleds] = config.to_paper_seconds(stats.time.mean)
        pages[use_sleds] = stats.pages.mean * scale
    return times, pages


def test_speedup_ratio_scale_invariant(benchmark):
    def both_scales():
        return _point(16, 64), _point(64, 64)

    (t16, p16), (t64, p64) = benchmark.pedantic(both_scales,
                                                rounds=1, iterations=1)
    ratio16 = t16[False] / t16[True]
    ratio64 = t64[False] / t64[True]
    benchmark.extra_info["ratio_scale16"] = round(ratio16, 3)
    benchmark.extra_info["ratio_scale64"] = round(ratio64, 3)
    assert abs(ratio16 - ratio64) < 0.15 * ratio16, \
        f"speedup ratio drifted across scales: {ratio16} vs {ratio64}"


def test_paper_equivalent_times_scale_invariant(benchmark):
    (t16, p16), (t64, p64) = benchmark.pedantic(
        lambda: (_point(16, 96), _point(64, 96)), rounds=1, iterations=1)
    for mode in (False, True):
        a, b = t16[mode], t64[mode]
        assert abs(a - b) < 0.15 * max(a, b), \
            f"paper-equivalent seconds drifted: {a} vs {b} (sleds={mode})"


def test_device_page_counts_scale_linearly(benchmark):
    (t16, p16), (t64, p64) = benchmark.pedantic(
        lambda: (_point(16, 96), _point(64, 96)), rounds=1, iterations=1)
    for mode in (False, True):
        a, b = p16[mode], p64[mode]
        assert abs(a - b) < 0.15 * max(a, b, 1), \
            f"scaled page counts drifted: {a} vs {b} (sleds={mode})"
