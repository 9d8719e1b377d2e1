"""Unit and property tests for record-boundary SLED adjustment (Fig. 4)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.records import adjust_to_records
from repro.machine import Machine
from repro.sim.units import PAGE_SIZE


def _machine():
    machine = Machine.unix_utilities(cache_pages=64, seed=31)
    machine.boot()
    return machine


def _warm_pages(kernel, inode, pages):
    for page in pages:
        kernel.page_cache.insert((inode.id, page))


def _open_with_vector(machine, size, cached_pages, seed=1):
    machine.ext2.create_text_file("f", size, seed=seed)
    kernel = machine.kernel
    inode = machine.ext2.resolve(["f"])
    _warm_pages(kernel, inode, cached_pages)
    fd = kernel.open("/mnt/ext2/f")
    return kernel, fd, kernel.get_sleds(fd)


class TestAdjustment:
    def test_single_sled_untouched(self):
        machine = _machine()
        kernel, fd, vector = _open_with_vector(machine, 4 * PAGE_SIZE, [])
        adjusted = adjust_to_records(kernel, fd, vector)
        assert adjusted == vector

    def test_coverage_preserved(self):
        machine = _machine()
        size = 16 * PAGE_SIZE + 100
        kernel, fd, vector = _open_with_vector(
            machine, size, [4, 5, 6, 10, 11])
        adjusted = adjust_to_records(kernel, fd, vector)
        assert adjusted.file_size == size
        assert sum(s.length for s in adjusted) == size
        pos = 0
        for sled in adjusted:
            assert sled.offset == pos
            pos += sled.length

    def test_low_latency_edges_are_record_aligned(self):
        """After adjustment, every low-latency SLED starts at a record
        start and, when followed by high latency, ends at a record end."""
        machine = _machine()
        size = 16 * PAGE_SIZE
        kernel, fd, vector = _open_with_vector(machine, size, [4, 5, 6])
        adjusted = adjust_to_records(kernel, fd, vector)
        sleds = list(adjusted)
        for i, sled in enumerate(sleds):
            prev = sleds[i - 1] if i > 0 else None
            nxt = sleds[i + 1] if i + 1 < len(sleds) else None
            if prev is not None and sled.latency < prev.latency:
                # low sled begins a fresh record
                assert kernel.pread(fd, sled.offset - 1, 1) == b"\n"
            if nxt is not None and sled.latency < nxt.latency:
                # low sled ends exactly after a separator
                assert kernel.pread(fd, sled.end - 1, 1) == b"\n"

    def test_fragments_pushed_to_high_latency_side(self):
        """The low-latency SLED only ever shrinks."""
        machine = _machine()
        size = 16 * PAGE_SIZE
        kernel, fd, vector = _open_with_vector(machine, size, [4, 5, 6])
        adjusted = adjust_to_records(kernel, fd, vector)
        low_before = sum(s.length for s in vector if s.latency < 0.001)
        low_after = sum(s.length for s in adjusted if s.latency < 0.001)
        assert low_after <= low_before

    def test_multibyte_separator_rejected(self):
        machine = _machine()
        kernel, fd, vector = _open_with_vector(machine, 4 * PAGE_SIZE, [1])
        with pytest.raises(ValueError):
            adjust_to_records(kernel, fd, vector, separator=b"ab")

    def test_separator_free_low_sled_collapses(self):
        """A low-latency sled with no separator at all is one big record
        fragment and is absorbed into its high-latency neighbours."""
        machine = _machine()
        size = 8 * PAGE_SIZE
        machine.ext2.create_file("raw", size)  # ZeroContent: no newlines
        kernel = machine.kernel
        inode = machine.ext2.resolve(["raw"])
        _warm_pages(kernel, inode, [3, 4])
        fd = kernel.open("/mnt/ext2/raw")
        vector = kernel.get_sleds(fd)
        assert len(vector) == 3
        adjusted = adjust_to_records(kernel, fd, vector)
        assert sum(s.length for s in adjusted) == size
        memory_latency = kernel.sleds_table.memory.latency
        assert all(s.latency != memory_latency for s in adjusted)

    @given(st.sets(st.integers(0, 15)), st.integers(1, 16 * PAGE_SIZE))
    @settings(max_examples=25, deadline=None)
    def test_adjustment_always_valid(self, cached, size):
        machine = _machine()
        machine.ext2.create_text_file("f", size, seed=3)
        kernel = machine.kernel
        inode = machine.ext2.resolve(["f"])
        _warm_pages(kernel, inode,
                    [p for p in cached if p < inode.npages])
        fd = kernel.open("/mnt/ext2/f")
        vector = kernel.get_sleds(fd)
        adjusted = adjust_to_records(kernel, fd, vector)
        # still a valid vector (constructor re-validates) covering the file
        assert adjusted.file_size == size
        assert sum(s.length for s in adjusted) == size
        kernel.close(fd)


class TestCustomSeparator:
    def test_nul_separated_records(self):
        """Record mode with a separator other than newline (the library's
        separator argument, paper §4.2)."""
        machine = _machine()
        size = 8 * PAGE_SIZE
        # build a NUL-separated file: records of ~100 'A's
        payload = (b"A" * 100 + b"\0") * (size // 101 + 1)
        machine.ext2.create_file("recs", size)
        kernel = machine.kernel
        inode = machine.ext2.resolve(["recs"])
        from repro.fs.content import ByteStoreContent
        inode.content = ByteStoreContent(payload[:size])
        _warm_pages(kernel, inode, [2, 3])
        fd = kernel.open("/mnt/ext2/recs")
        vector = kernel.get_sleds(fd)
        adjusted = adjust_to_records(kernel, fd, vector, separator=b"\0")
        assert sum(s.length for s in adjusted) == size
        sleds = list(adjusted)
        for i, sled in enumerate(sleds):
            nxt = sleds[i + 1] if i + 1 < len(sleds) else None
            if nxt is not None and sled.latency < nxt.latency:
                assert kernel.pread(fd, sled.end - 1, 1) == b"\0"

    def test_pick_session_custom_separator(self):
        from repro.core.pick import (
            sleds_pick_finish,
            sleds_pick_init,
            sleds_pick_next_read,
        )
        machine = _machine()
        size = 8 * PAGE_SIZE
        machine.ext2.create_file("recs2", size)
        kernel = machine.kernel
        inode = machine.ext2.resolve(["recs2"])
        from repro.fs.content import ByteStoreContent
        inode.content = ByteStoreContent((b"B" * 60 + b";") * (size // 61 + 1))
        _warm_pages(kernel, inode, [4, 5, 6])
        fd = kernel.open("/mnt/ext2/recs2")
        sleds_pick_init(kernel, fd, PAGE_SIZE, record_mode=True,
                        separator=b";")
        chunks = []
        while (advice := sleds_pick_next_read(kernel, fd)) is not None:
            chunks.append(advice)
        sleds_pick_finish(kernel, fd)
        pos = 0
        for offset, length in sorted(chunks):
            assert offset == pos
            pos += length
        assert pos == size
