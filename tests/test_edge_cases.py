"""Edge-case tests across modules: empty files, tiny caches, boundary
offsets, odd record layouts, and API misuse."""

import pytest

from repro.apps.grep import grep
from repro.apps.wc import wc
from repro.core.delivery import SLEDS_BEST, sleds_total_delivery_time
from repro.core.pick import (
    sleds_pick_finish,
    sleds_pick_init,
    sleds_pick_next_read,
)
from repro.machine import Machine
from repro.sim.units import PAGE_SIZE

NEEDLE = b"XNEEDLEX"


def _machine(cache_pages=64):
    machine = Machine.unix_utilities(cache_pages=cache_pages, seed=1101)
    machine.boot()
    return machine


class TestEmptyAndTinyFiles:
    def test_pick_session_on_empty_file(self):
        machine = _machine()
        k = machine.kernel
        fd = k.open("/mnt/ext2/empty", "w")
        sleds_pick_init(k, fd, 4096)
        assert sleds_pick_next_read(k, fd) is None
        sleds_pick_finish(k, fd)
        k.close(fd)

    def test_delivery_time_of_empty_file(self):
        machine = _machine()
        k = machine.kernel
        fd = k.open("/mnt/ext2/empty", "w")
        assert sleds_total_delivery_time(k, fd) == 0.0
        k.close(fd)

    def test_one_byte_file(self):
        machine = _machine()
        machine.ext2.create_text_file("tiny", 1, seed=1)
        for use_sleds in (False, True):
            result = wc(machine.kernel, "/mnt/ext2/tiny",
                        use_sleds=use_sleds)
            assert result.chars == 1

    def test_grep_on_one_page(self):
        machine = _machine()
        machine.ext2.create_text_file("tiny", PAGE_SIZE, seed=1,
                                      plants={10: NEEDLE})
        for use_sleds in (False, True):
            result = grep(machine.kernel, "/mnt/ext2/tiny", NEEDLE,
                          use_sleds=use_sleds)
            assert result.count == 1

    def test_file_exactly_cache_sized(self):
        machine = _machine(cache_pages=16)
        machine.ext2.create_text_file("exact", 16 * PAGE_SIZE, seed=1)
        k = machine.kernel
        k.warm_file("/mnt/ext2/exact")
        with k.process() as run:
            wc(k, "/mnt/ext2/exact", use_sleds=True)
        assert run.counters.pages_read == 0  # everything fit


class TestBoundaryOffsets:
    def test_needle_at_file_start(self):
        machine = _machine()
        machine.ext2.create_text_file("f", 4 * PAGE_SIZE, seed=1,
                                      plants={0: NEEDLE})
        result = grep(machine.kernel, "/mnt/ext2/f", NEEDLE,
                      use_sleds=True)
        assert result.matches[0].offset == 0
        assert result.matches[0].line_number == 1

    def test_needle_spanning_page_boundary(self):
        machine = _machine()
        offset = PAGE_SIZE - 4
        machine.ext2.create_text_file("f", 4 * PAGE_SIZE, seed=1,
                                      plants={offset: NEEDLE})
        for use_sleds in (False, True):
            result = grep(machine.kernel, "/mnt/ext2/f", NEEDLE,
                          use_sleds=use_sleds)
            assert result.count == 1

    def test_needle_spanning_sled_boundary(self):
        """A match straddling a cached/uncached boundary must be found in
        record mode (the Figure 4 machinery guarantees it)."""
        machine = _machine(cache_pages=32)
        size = 16 * PAGE_SIZE
        machine.ext2.create_text_file("f", size, seed=2)
        k = machine.kernel
        inode = machine.ext2.resolve(["f"])
        # cache the first 8 pages only; plant the needle across the edge
        for page in range(8):
            k.page_cache.insert((inode.id, page))
        boundary = 8 * PAGE_SIZE
        inode.content.plants = {boundary - 4: NEEDLE}
        plain = grep(k, "/mnt/ext2/f", NEEDLE)
        sleds = grep(k, "/mnt/ext2/f", NEEDLE, use_sleds=True)
        assert plain.count == sleds.count == 1
        assert plain.matches[0].offset == sleds.matches[0].offset

    def test_read_at_exact_eof(self):
        machine = _machine()
        machine.ext2.create_text_file("f", 1000, seed=1)
        k = machine.kernel
        fd = k.open("/mnt/ext2/f")
        k.lseek(fd, 1000)
        assert k.read(fd, 10) == b""
        k.close(fd)

    def test_seek_past_eof_reads_nothing(self):
        machine = _machine()
        machine.ext2.create_text_file("f", 1000, seed=1)
        k = machine.kernel
        fd = k.open("/mnt/ext2/f")
        k.lseek(fd, 5000)
        assert k.read(fd, 10) == b""
        k.close(fd)


class TestTinyCache:
    def test_cache_smaller_than_one_chunk(self):
        machine = Machine.unix_utilities(cache_pages=16, seed=1102)
        machine.boot()
        machine.ext2.create_text_file("f", 64 * PAGE_SIZE, seed=1)
        k = machine.kernel
        k.warm_file("/mnt/ext2/f")
        plain = wc(k, "/mnt/ext2/f")
        sleds = wc(k, "/mnt/ext2/f", use_sleds=True)
        assert (plain.lines, plain.words, plain.chars) == \
            (sleds.lines, sleds.words, sleds.chars)

    def test_bufsize_larger_than_file(self):
        machine = _machine()
        machine.ext2.create_text_file("f", 2 * PAGE_SIZE, seed=1)
        result = wc(machine.kernel, "/mnt/ext2/f", use_sleds=True,
                    bufsize=1 << 20)
        assert result.chars == 2 * PAGE_SIZE

    def test_one_byte_bufsize(self):
        machine = _machine()
        machine.ext2.create_text_file("f", 300, seed=1)
        result = wc(machine.kernel, "/mnt/ext2/f", bufsize=1)
        reference = wc(machine.kernel, "/mnt/ext2/f")
        assert (result.lines, result.words, result.chars) == \
            (reference.lines, reference.words, reference.chars)


class TestSledsBestVsLinearOrdering:
    def test_best_reflects_cached_fraction(self):
        machine = _machine(cache_pages=32)
        machine.ext2.create_text_file("f", 64 * PAGE_SIZE, seed=1)
        k = machine.kernel
        k.warm_file("/mnt/ext2/f")
        fd = k.open("/mnt/ext2/f")
        best = sleds_total_delivery_time(k, fd, SLEDS_BEST)
        linear = sleds_total_delivery_time(k, fd)
        k.close(fd)
        assert best <= linear

    def test_multi_level_file_best_charges_levels_once(self):
        machine = _machine(cache_pages=64)
        machine.ext2.create_text_file("f", 32 * PAGE_SIZE, seed=1)
        k = machine.kernel
        inode = machine.ext2.resolve(["f"])
        # alternate cached/uncached pages: many sleds, two levels
        for page in range(0, 32, 2):
            k.page_cache.insert((inode.id, page))
        fd = k.open("/mnt/ext2/f")
        vector = k.get_sleds(fd)
        best = sleds_total_delivery_time(k, fd, SLEDS_BEST)
        linear = sleds_total_delivery_time(k, fd)
        k.close(fd)
        assert len(vector) == 32  # fully alternating
        # linear charges disk latency ~16 times, best only once
        disk_latency = k.sleds_table.lookup("ext2").latency
        assert linear - best > 10 * disk_latency


class TestApiMisuse:
    def test_double_close(self):
        from repro.sim.errors import BadFileDescriptorError
        machine = _machine()
        machine.ext2.create_text_file("f", PAGE_SIZE, seed=1)
        k = machine.kernel
        fd = k.open("/mnt/ext2/f")
        k.close(fd)
        with pytest.raises(BadFileDescriptorError):
            k.close(fd)

    def test_read_after_close(self):
        from repro.sim.errors import BadFileDescriptorError
        machine = _machine()
        machine.ext2.create_text_file("f", PAGE_SIZE, seed=1)
        k = machine.kernel
        fd = k.open("/mnt/ext2/f")
        k.close(fd)
        with pytest.raises(BadFileDescriptorError):
            k.read(fd, 10)

    def test_mount_conflict(self):
        from repro.fs.filesystem import Ext2Like
        from repro.sim.errors import InvalidArgumentError
        machine = _machine()
        with pytest.raises(InvalidArgumentError):
            machine.kernel.mount("/mnt/ext2", Ext2Like(name="dup"))

    def test_unlink_directory_rejected(self):
        from repro.sim.errors import IsADirectorySimError
        machine = _machine()
        machine.ext2.create_text_file("d/f", PAGE_SIZE, seed=1)
        with pytest.raises(IsADirectorySimError):
            machine.kernel.unlink("/mnt/ext2/d")
