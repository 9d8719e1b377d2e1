"""Unit and property tests for kernel-side SLED vector construction."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dataclasses import replace

from repro.cache.page_cache import PageCache
from repro.core.builder import build_sled_vector
from repro.core.sled_table import SledTable
from repro.devices.cdrom import CdromDevice
from repro.devices.disk import DiskDevice
from repro.devices.network import NfsDevice
from repro.fs.filesystem import Ext2Like, Iso9660Like
from repro.fs.nfs import NfsLike
from repro.kernel.ioctl import FSLEDS_FILL
from repro.kernel.kernel import Kernel
from repro.sim.rng import RngStreams
from repro.sim.units import MB, PAGE_SIZE

import numpy as np

from tests.oracles.builder import build_sled_vector_full_walk, page_level


def _setup(file_pages=16, cache_pages=64):
    fs = Ext2Like(DiskDevice(rng=np.random.default_rng(1)))
    inode = fs.create_file("f", file_pages * PAGE_SIZE)
    cache = PageCache(cache_pages)
    table = SledTable()
    table.fill({"memory": (1e-7, 48 * MB), "ext2": (0.018, 9 * MB)})
    return fs, inode, cache, table


class TestPageLevel:
    def test_uncached_page_uses_table_row(self):
        fs, inode, cache, table = _setup()
        latency, bandwidth = page_level(cache, fs, inode, 0, table)
        assert latency == 0.018
        assert bandwidth == 9 * MB

    def test_cached_page_is_memory(self):
        fs, inode, cache, table = _setup()
        cache.insert((inode.id, 3))
        latency, _ = page_level(cache, fs, inode, 3, table)
        assert latency == 1e-7


class TestBuildVector:
    def test_cold_file_single_sled(self):
        fs, inode, cache, table = _setup()
        vector, _ = build_sled_vector(cache, fs, inode, table)
        assert len(vector) == 1
        assert vector[0].latency == 0.018

    def test_fully_cached_single_sled(self):
        fs, inode, cache, table = _setup()
        for page in range(inode.npages):
            cache.insert((inode.id, page))
        vector, _ = build_sled_vector(cache, fs, inode, table)
        assert len(vector) == 1
        assert vector[0].latency == 1e-7

    def test_interleaved_residency_alternates(self):
        fs, inode, cache, table = _setup(file_pages=8)
        for page in (0, 1, 4, 5):
            cache.insert((inode.id, page))
        vector, _ = build_sled_vector(cache, fs, inode, table)
        assert len(vector) == 4
        assert [s.latency for s in vector] == [1e-7, 0.018, 1e-7, 0.018]

    def test_last_sled_clamped_to_file_size(self):
        fs = Ext2Like(DiskDevice(rng=np.random.default_rng(1)))
        inode = fs.create_file("f", 3 * PAGE_SIZE + 100)
        cache = PageCache(16)
        table = SledTable()
        table.fill({"memory": (1e-7, 48 * MB), "ext2": (0.018, 9 * MB)})
        vector, _ = build_sled_vector(cache, fs, inode, table)
        assert vector.file_size == 3 * PAGE_SIZE + 100
        assert vector[len(vector) - 1].end == 3 * PAGE_SIZE + 100

    def test_empty_file(self):
        fs, _, cache, table = _setup()
        inode = fs.create_file("empty", 0)
        vector, _ = build_sled_vector(cache, fs, inode, table)
        assert len(vector) == 0

    @given(st.sets(st.integers(0, 31)), st.integers(1, 32 * PAGE_SIZE))
    @settings(max_examples=60, deadline=None)
    def test_vector_matches_residency_exactly(self, cached_pages, size):
        """For any cache state, the vector covers the file exactly and
        each byte's level matches its page's residency."""
        fs = Ext2Like(DiskDevice(rng=np.random.default_rng(1)))
        inode = fs.create_file("f", size)
        cache = PageCache(64)
        table = SledTable()
        table.fill({"memory": (1e-7, 48 * MB), "ext2": (0.018, 9 * MB)})
        for page in cached_pages:
            if page < inode.npages:
                cache.insert((inode.id, page))
        vector, _ = build_sled_vector(cache, fs, inode, table)
        assert sum(s.length for s in vector) == size
        for page in range(inode.npages):
            sled = vector.sled_at(page * PAGE_SIZE)
            expected = 1e-7 if cache.peek((inode.id, page)) else 0.018
            assert sled.latency == expected
        # SLED boundaries sit on page boundaries (except the file end)
        for sled in vector:
            assert sled.offset % PAGE_SIZE == 0

    @given(st.sets(st.integers(0, 31)), st.integers(1, 32 * PAGE_SIZE))
    @settings(max_examples=60, deadline=None)
    def test_incremental_equals_full_walk(self, cached_pages, size):
        """The O(runs) builder and the paper's O(npages) walk are
        bit-identical for every cache state."""
        fs = Ext2Like(DiskDevice(rng=np.random.default_rng(1)))
        inode = fs.create_file("f", size)
        cache = PageCache(64)
        table = SledTable()
        table.fill({"memory": (1e-7, 48 * MB), "ext2": (0.018, 9 * MB)})
        for page in cached_pages:
            if page < inode.npages:
                cache.insert((inode.id, page))
        vector, _ = build_sled_vector(cache, fs, inode, table)
        assert vector == build_sled_vector_full_walk(cache, fs, inode, table)

    def test_stale_residency_outside_file_ignored(self):
        """Index entries past EOF (e.g. after an external shrink) must not
        leak into the vector."""
        fs, inode, cache, table = _setup(file_pages=4)
        cache.insert((inode.id, 2))
        cache.insert((inode.id, 99))  # beyond the file
        vector, _ = build_sled_vector(cache, fs, inode, table)
        assert sum(s.length for s in vector) == inode.size
        assert vector == build_sled_vector_full_walk(cache, fs, inode, table)


class TestSpanEstimatesContract:
    def test_default_fallback_matches_page_estimate(self):
        """The FileSystem base-class fallback (used by third-party
        filesystems that only implement page_estimate) reports runs whose
        lengths sum to npages and whose estimates are per-page exact."""
        fs, inode, _, _ = _setup(file_pages=12)
        from repro.fs.filesystem import FileSystem
        runs = FileSystem.span_estimates(fs, inode, 2, 9)
        assert sum(n for n, _ in runs) == 9
        page = 2
        for run_len, estimate in runs:
            assert run_len > 0
            for idx in range(page, page + run_len):
                assert fs.page_estimate(inode, idx) == estimate
            page += run_len

    def test_empty_span(self):
        fs, inode, _, _ = _setup()
        assert fs.span_estimates(inode, 0, 0) == []

    def test_cdrom_rebuild_makes_no_page_estimate_calls(self):
        """A CD-ROM answers each gap in one run, not page by page."""
        fs = Iso9660Like(CdromDevice(rng=np.random.default_rng(1)))
        inode = fs.create_file("f", 1024 * PAGE_SIZE)
        cache = PageCache(64)
        for page in (0, 1, 2, 500, 1023):
            cache.insert((inode.id, page))
        table = SledTable()
        table.fill({"memory": (1e-7, 48 * MB), "iso9660": (0.1, 2.8 * MB)})
        calls = []

        def counted(inode, page_index):
            calls.append(page_index)
            return Iso9660Like.page_estimate(fs, inode, page_index)

        fs.page_estimate = counted
        vector, _ = build_sled_vector(cache, fs, inode, table)
        assert calls == []
        assert fs.span_estimates(inode, 3, 497) == [
            (497, Iso9660Like.page_estimate(fs, inode, 3))]
        assert vector == build_sled_vector_full_walk(cache, fs, inode, table)
        assert len(calls) == 1019

    @pytest.mark.parametrize("make_fs", [
        lambda: Ext2Like(DiskDevice(rng=np.random.default_rng(1))),
        lambda: Ext2Like(DiskDevice(rng=np.random.default_rng(1)),
                         zone_aware=True),
        lambda: NfsLike(NfsDevice(rng=np.random.default_rng(1))),
        lambda: NfsLike(NfsDevice(rng=np.random.default_rng(1)),
                        server_sleds=True),
        lambda: Iso9660Like(CdromDevice(rng=np.random.default_rng(1))),
    ], ids=["ext2", "ext2-zones", "nfs", "nfs-server-sleds", "cdrom"])
    def test_one_shared_estimate_per_level(self, make_fs):
        """Estimates are built once per storage level, not per call."""
        fs = make_fs()
        inode = fs.create_file("f", 16 * PAGE_SIZE)
        first = fs.span_estimates(inode, 0, 16)
        again = fs.span_estimates(inode, 3, 13)
        assert first[0][1] is again[0][1] is fs.page_estimate(inode, 3)


class _BadEstimates(Ext2Like):
    """An ext2 whose span estimates carry one malformed answer: a
    negative latency, a zero bandwidth, or an extra zero-length run at a
    level of its own, before the real runs of each span or after those
    of the span that ends the file."""

    def __init__(self, device, fault: str) -> None:
        super().__init__(device, name="ext2")
        self.fault = fault

    def span_estimates(self, inode, start_page, npages):
        runs = super().span_estimates(inode, start_page, npages)
        estimate = runs[0][1]
        if self.fault == "latency":
            return [(n, replace(e, latency=-0.5)) for n, e in runs]
        if self.fault == "bandwidth":
            return [(n, replace(e, bandwidth=0.0)) for n, e in runs]
        other = replace(estimate, latency=0.25)
        if self.fault == "leading empty run":
            return [(0, other), *runs]
        if start_page + npages == inode.npages:
            return [*runs, (0, other)]
        return runs


class TestMalformedEstimates:
    """``FSLEDS_GET`` checks what the fold builds: a filesystem's bad
    answer raises the ``ValueError`` a ``Sled`` with those fields raises,
    with the same text as the ``Sled``-per-SLED fold it replaced."""

    @pytest.mark.parametrize("fault, message", [
        ("latency", "negative SLED latency: -0.5"),
        ("bandwidth", "non-positive SLED bandwidth: 0.0"),
        ("leading empty run", "non-positive SLED length: 0"),
        # the last SLED is clamped to the file's 700-byte-short last page
        ("trailing empty run", "non-positive SLED length: -700"),
    ])
    def test_fsleds_get_raises(self, fault, message):
        kernel = Kernel(cache_pages=16, rng=RngStreams(7))
        fs = _BadEstimates(DiskDevice(rng=np.random.default_rng(1)), fault)
        kernel.mount("/", fs)
        fs.create_file("f", 8 * PAGE_SIZE - 700)
        kernel.ioctl(-1, FSLEDS_FILL, {"memory": (1e-7, 48 * MB),
                                       "ext2": (0.018, 9 * MB)})
        fd = kernel.open("/f")
        kernel.pread(fd, 2 * PAGE_SIZE, PAGE_SIZE)  # one resident page
        with pytest.raises(ValueError, match=f"^{message}$"):
            kernel.get_sleds(fd)
