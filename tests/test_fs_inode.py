"""Unit and property tests for inodes, extents, and the allocator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fs.content import ZeroContent
from repro.fs.inode import (
    Allocator,
    Extent,
    ExtentMap,
    InodeKind,
    make_directory,
    make_file,
)
from repro.sim.errors import InvalidArgumentError, NoSpaceError
from repro.sim.units import MB, PAGE_SIZE


class TestExtent:
    def test_addr_of(self):
        extent = Extent(file_page=2, npages=3, device_addr=8 * PAGE_SIZE)
        assert extent.addr_of(2) == 8 * PAGE_SIZE
        assert extent.addr_of(4) == 10 * PAGE_SIZE

    def test_addr_of_outside_rejected(self):
        extent = Extent(0, 2, 0)
        with pytest.raises(InvalidArgumentError):
            extent.addr_of(2)

    def test_invalid_extent_rejected(self):
        with pytest.raises(InvalidArgumentError):
            Extent(0, 0, 0)
        with pytest.raises(InvalidArgumentError):
            Extent(-1, 1, 0)


class TestExtentMap:
    def test_must_start_at_zero(self):
        emap = ExtentMap()
        with pytest.raises(InvalidArgumentError):
            emap.append(Extent(1, 2, 0))

    def test_must_be_contiguous_in_file_space(self):
        emap = ExtentMap([Extent(0, 2, 0)])
        with pytest.raises(InvalidArgumentError):
            emap.append(Extent(3, 1, 0))

    def test_addr_lookup_across_extents(self):
        emap = ExtentMap([
            Extent(0, 2, 100 * PAGE_SIZE),
            Extent(2, 3, 500 * PAGE_SIZE),
        ])
        assert emap.addr_of(1) == 101 * PAGE_SIZE
        assert emap.addr_of(2) == 500 * PAGE_SIZE
        assert emap.addr_of(4) == 502 * PAGE_SIZE

    def test_unmapped_page_rejected(self):
        emap = ExtentMap([Extent(0, 2, 0)])
        with pytest.raises(InvalidArgumentError):
            emap.addr_of(2)

    def test_contiguous_run_within_extent(self):
        emap = ExtentMap([Extent(0, 4, 0), Extent(4, 4, 100 * PAGE_SIZE)])
        assert emap.contiguous_run(0, 8) == 4
        assert emap.contiguous_run(4, 8) == 4
        assert emap.contiguous_run(2, 1) == 1

    def test_contiguous_run_spans_adjacent_device_extents(self):
        emap = ExtentMap([Extent(0, 2, 0), Extent(2, 2, 2 * PAGE_SIZE)])
        assert emap.contiguous_run(0, 4) == 4

    @given(st.lists(st.integers(1, 8), min_size=1, max_size=10))
    @settings(max_examples=40, deadline=None)
    def test_every_page_resolvable(self, extent_sizes):
        emap = ExtentMap()
        page = 0
        addr = 0
        for npages in extent_sizes:
            emap.append(Extent(page, npages, addr))
            page += npages
            addr += (npages + 3) * PAGE_SIZE  # gaps between extents
        for p in range(emap.npages):
            emap.addr_of(p)  # must not raise
        assert emap.npages == sum(extent_sizes)


    @given(st.lists(st.tuples(st.integers(1, 6), st.booleans()),
                    min_size=1, max_size=12),
           st.integers(0, 80), st.integers(1, 80))
    def test_device_runs_match_page_walk(self, layout, start, npages):
        """One search, then a walk by index: the same runs the per-page
        address comparison finds, adjacent extents joined."""
        emap = ExtentMap()
        page = addr = 0
        for size, adjacent in layout:
            if not adjacent:
                addr += 3 * PAGE_SIZE
            emap.append(Extent(page, size, addr))
            page += size
            addr += size * PAGE_SIZE
        start = min(start, emap.npages - 1)
        npages = min(npages, emap.npages - start)
        expected = []
        for p in range(start, start + npages):
            a = emap.addr_of(p)
            if expected and expected[-1][0] + expected[-1][1] * PAGE_SIZE == a:
                expected[-1][1] += 1
            else:
                expected.append([a, 1])
        assert [list(r) for r in emap.device_runs(start, npages)] == expected
        base = emap.addr_of(start)
        for cap in (1, 2, npages, 100):
            run = 1
            while (run < cap and start + run < emap.npages
                   and emap.addr_of(start + run) == base + run * PAGE_SIZE):
                run += 1
            assert emap.contiguous_run(start, cap) == run

    def test_device_runs_reject_unmapped_pages(self):
        emap = ExtentMap([Extent(0, 4, 0)])
        with pytest.raises(InvalidArgumentError):
            list(emap.device_runs(2, 3))


class TestAllocator:
    def test_freed_ranges_reused_lowest_first_and_coalesced(self):
        alloc = Allocator(capacity=100 * PAGE_SIZE)
        a, b, c = (alloc.allocate(2)[0][0] for _ in range(3))
        alloc.free(c, 2)
        alloc.free(a, 2)
        alloc.free(b, 2)
        assert alloc.free_ranges == [(0, 6 * PAGE_SIZE)]
        assert alloc.allocate(1) == [(0, 1)]
        assert alloc.allocate(7) == [(PAGE_SIZE, 5), (6 * PAGE_SIZE, 2)]
        assert alloc.free_ranges == []

    def test_reuse_honours_max_extent_pages(self):
        alloc = Allocator(capacity=MB, max_extent_pages=2)
        start = alloc.allocate(4)[0][0]
        alloc.free(start, 4)
        assert alloc.allocate(3) == [(start, 2), (start + 2 * PAGE_SIZE, 1)]

    def test_bump_allocation(self):
        alloc = Allocator(capacity=100 * PAGE_SIZE)
        pieces = alloc.allocate(5)
        assert pieces == [(0, 5)]
        assert alloc.allocate(2) == [(5 * PAGE_SIZE, 2)]

    def test_fragmented_allocation(self):
        alloc = Allocator(capacity=MB, max_extent_pages=2, gap_pages=1)
        pieces = alloc.allocate(5)
        assert [n for _, n in pieces] == [2, 2, 1]
        # gaps mean extents are not device-adjacent
        assert pieces[1][0] - pieces[0][0] > 2 * PAGE_SIZE

    def test_out_of_space(self):
        alloc = Allocator(capacity=2 * PAGE_SIZE)
        with pytest.raises(NoSpaceError):
            alloc.allocate(3)

    def test_negative_rejected(self):
        alloc = Allocator(capacity=MB)
        with pytest.raises(InvalidArgumentError):
            alloc.allocate(-1)

    def test_bad_range_rejected(self):
        with pytest.raises(InvalidArgumentError):
            Allocator(capacity=0)
        with pytest.raises(InvalidArgumentError):
            Allocator(capacity=100, start=100)


class TestInodeFactories:
    def test_make_file_lays_out_all_pages(self):
        alloc = Allocator(capacity=MB)
        inode = make_file(10 * PAGE_SIZE + 1, ZeroContent(), alloc)
        assert inode.kind is InodeKind.FILE
        assert inode.npages == 11
        assert inode.extent_map.npages == 11

    def test_make_file_empty(self):
        inode = make_file(0, ZeroContent(), Allocator(capacity=MB))
        assert inode.size == 0
        assert inode.npages == 0

    def test_make_directory(self):
        node = make_directory()
        assert node.is_dir
        assert node.entries == {}

    def test_inode_ids_unique(self):
        alloc = Allocator(capacity=MB)
        a = make_file(PAGE_SIZE, ZeroContent(), alloc)
        b = make_file(PAGE_SIZE, ZeroContent(), alloc)
        assert a.id != b.id
