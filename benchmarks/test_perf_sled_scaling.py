"""FSLEDS_GET scaling: amortized O(changed-state) vs the O(file-pages) walk.

Two claims, checked separately:

* **Counters** (robust, asserted): on an unchanged file a refetch makes
  *zero* filesystem estimate calls — the generation-stamped kernel cache
  answers it — and even a rebuild after a small residency change makes
  O(runs) batched calls, not O(npages) per-page calls.
* **Wall-clock** (recorded, host-dependent): repeated FSLEDS_GET via the
  stamped cache vs the paper's literal full-page walk (the reference in
  ``tests/oracles/builder.py``), 16 refetches per file size up to 64 Ki
  pages.  Published as ``BENCH_sled_scaling.json``
  at the repo root (the ``sleds-bench check`` baseline) and under
  ``results/`` (the CI artifact); wall times live under each row's
  ``wall_clock`` key so the regression gate skips them.  The ≥5× floor
  at the largest size is asserted loosely (the observed ratio is orders
  of magnitude larger).
"""

from __future__ import annotations

import time

import numpy as np

from repro.bench.results import publish_bench
from repro.devices.disk import DiskDevice
from repro.fs.filesystem import Ext2Like
from repro.kernel.ioctl import FSLEDS_FILL
from repro.kernel.kernel import Kernel
from repro.sim.rng import RngStreams
from repro.sim.units import MB, PAGE_SIZE

from tests.oracles.builder import build_sled_vector_full_walk

SIZES_PAGES = [1024, 4096, 16384, 65536]
REFETCHES = 16
RESIDENT_PAGES = 32  # scattered pages faulted in before measuring

class EstimateCallCounter:
    """Count the filesystem estimate traffic the SLED builder generates."""

    def __init__(self, fs):
        self.page_calls = 0
        self.span_calls = 0
        self.runs_returned = 0
        orig_page = fs.page_estimate
        orig_span = fs.span_estimates

        def page_estimate(inode, page_index):
            self.page_calls += 1
            return orig_page(inode, page_index)

        def span_estimates(inode, start_page, npages):
            self.span_calls += 1
            runs = orig_span(inode, start_page, npages)
            self.runs_returned += len(runs)
            return runs

        fs.page_estimate = page_estimate
        fs.span_estimates = span_estimates

    def total(self) -> int:
        return self.page_calls + self.runs_returned

    def reset(self) -> None:
        self.page_calls = self.span_calls = self.runs_returned = 0


def _world(npages: int):
    kernel = Kernel(cache_pages=max(256, 2 * RESIDENT_PAGES),
                    rng=RngStreams(3))
    fs = Ext2Like(DiskDevice(name="d", capacity=8 * (1 << 30),
                             rng=np.random.default_rng(3)), name="ext2")
    kernel.mount("/", fs)
    fs.create_file("f", npages * PAGE_SIZE)
    kernel.ioctl(-1, FSLEDS_FILL,
                 {"memory": (1e-7, 48 * MB), "ext2": (0.018, 9 * MB)})
    fd = kernel.open("/f")
    inode = kernel._fd(fd).inode
    # scatter some residency so vectors are multi-SLED
    stride = max(1, npages // RESIDENT_PAGES)
    for page in range(0, npages, stride):
        kernel.page_cache.insert((inode.id, page))
    return kernel, fs, fd, inode


def test_refetch_estimate_calls_drop_to_zero():
    """Counter assertion: per-refetch estimate-call count on an unchanged
    file is O(runs) for the first build and exactly 0 afterwards."""
    for npages in SIZES_PAGES[:2]:
        kernel, fs, fd, inode = _world(npages)
        counter = EstimateCallCounter(fs)
        kernel.get_sleds(fd)
        resident = len(kernel.page_cache.resident_set(inode.id))
        # the rebuild asks per gap between resident intervals, never per page
        assert counter.page_calls == 0
        assert counter.span_calls <= resident + 1
        assert counter.runs_returned <= 2 * resident + 1 < npages
        counter.reset()
        hits_before = kernel.counters.sleds_cache_hits
        for _ in range(REFETCHES):
            kernel.get_sleds(fd)
        assert counter.total() == 0
        assert kernel.counters.sleds_cache_hits == hits_before + REFETCHES


def test_rebuild_after_change_is_o_runs():
    """A one-page residency change triggers exactly one rebuild, still
    with O(runs) estimate traffic."""
    kernel, fs, fd, inode = _world(4096)
    kernel.get_sleds(fd)
    counter = EstimateCallCounter(fs)
    kernel.page_cache.insert((inode.id, 1))  # perturb the stamp
    builds_before = kernel.counters.sleds_builds
    kernel.get_sleds(fd)
    kernel.get_sleds(fd)
    assert kernel.counters.sleds_builds == builds_before + 1
    resident = len(kernel.page_cache.resident_set(inode.id))
    assert 0 < counter.total() <= 2 * resident + 1


def test_wallclock_scaling_and_record():
    """Time 16 refetches per size both ways and archive the curve."""
    rows = []
    for npages in SIZES_PAGES:
        kernel, fs, fd, inode = _world(npages)
        counter = EstimateCallCounter(fs)
        kernel.get_sleds(fd)  # prime the stamp cache
        build_calls = counter.total()
        t0 = time.perf_counter()
        for _ in range(REFETCHES):
            vector = kernel.get_sleds(fd)
        t_incremental = time.perf_counter() - t0
        refetch_calls = counter.total() - build_calls
        t0 = time.perf_counter()
        for _ in range(REFETCHES):
            reference = build_sled_vector_full_walk(
                kernel.page_cache, fs, inode, kernel.sleds_table)
        t_full = time.perf_counter() - t0
        assert vector == reference  # amortization never changes the answer
        assert refetch_calls == 0
        rows.append({
            "npages": npages,
            "refetches": REFETCHES,
            "resident_pages": len(kernel.page_cache.resident_set(inode.id)),
            "sleds": len(vector),
            "estimate_calls_first_build": build_calls,
            "estimate_calls_per_refetch": refetch_calls // REFETCHES,
            "full_walk_estimate_calls_per_refetch": npages,
            # host-dependent: excluded from the sleds-bench check gate
            "wall_clock": {
                "t_full_walk_s": t_full,
                "t_incremental_s": t_incremental,
                "speedup": t_full / t_incremental if t_incremental > 0
                           else float("inf"),
            },
        })
    publish_bench("sled_scaling", {
        "benchmark": "sled_scaling",
        "description": "FSLEDS_GET: stamped-cache refetch vs full-page walk",
        "rows": rows,
    })
    largest = rows[-1]
    assert largest["npages"] == 65536
    assert largest["wall_clock"]["speedup"] >= 5.0
