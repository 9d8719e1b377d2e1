"""Tests for wc: correctness equivalence with and without SLEDs."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.wc import _WHITESPACE, _scan_chunk, wc
from repro.machine import Machine
from repro.sim.units import PAGE_SIZE


def _machine(cache_pages=64):
    machine = Machine.unix_utilities(cache_pages=cache_pages, seed=61)
    machine.boot()
    return machine


def _reference_counts(machine, path):
    """Ground truth from the content store, bypassing the kernel."""
    _, inode, _ = machine.kernel.resolve(path)
    blob = inode.content.read(0, inode.size)
    return blob.count(b"\n"), len(blob.split()), len(blob)


class TestCorrectness:
    def test_matches_reference_without_sleds(self):
        machine = _machine()
        machine.ext2.create_text_file("f", 10 * PAGE_SIZE + 17, seed=1)
        result = wc(machine.kernel, "/mnt/ext2/f")
        assert (result.lines, result.words, result.chars) == \
            _reference_counts(machine, "/mnt/ext2/f")

    def test_sleds_equals_plain_cold_cache(self):
        machine = _machine()
        machine.ext2.create_text_file("f", 10 * PAGE_SIZE, seed=2)
        plain = wc(machine.kernel, "/mnt/ext2/f")
        sleds = wc(machine.kernel, "/mnt/ext2/f", use_sleds=True)
        assert (plain.lines, plain.words, plain.chars) == \
            (sleds.lines, sleds.words, sleds.chars)

    def test_sleds_equals_plain_warm_interleaved_cache(self):
        machine = _machine(cache_pages=16)
        machine.ext2.create_text_file("f", 64 * PAGE_SIZE + 99, seed=3)
        k = machine.kernel
        k.warm_file("/mnt/ext2/f")
        plain = wc(k, "/mnt/ext2/f")
        sleds = wc(k, "/mnt/ext2/f", use_sleds=True)
        assert (plain.lines, plain.words, plain.chars) == \
            (sleds.lines, sleds.words, sleds.chars)

    def test_empty_file(self):
        machine = _machine()
        fd = machine.kernel.open("/mnt/ext2/empty", "w")
        machine.kernel.close(fd)
        for use_sleds in (False, True):
            result = wc(machine.kernel, "/mnt/ext2/empty",
                        use_sleds=use_sleds)
            assert (result.lines, result.words, result.chars) == (0, 0, 0)

    @given(st.integers(1, 8 * PAGE_SIZE), st.integers(1000, 20_000),
           st.sets(st.integers(0, 7)))
    @settings(max_examples=20, deadline=None)
    def test_equivalence_property(self, size, bufsize, cached):
        machine = _machine()
        machine.ext2.create_text_file("f", size, seed=4)
        k = machine.kernel
        inode = machine.ext2.resolve(["f"])
        for page in cached:
            if page < inode.npages:
                k.page_cache.insert((inode.id, page))
        plain = wc(k, "/mnt/ext2/f", bufsize=bufsize)
        sleds = wc(k, "/mnt/ext2/f", use_sleds=True, bufsize=bufsize)
        assert (plain.lines, plain.words, plain.chars) == \
            (sleds.lines, sleds.words, sleds.chars)


class TestPerformance:
    def test_sleds_reduces_faults_when_file_exceeds_cache(self):
        machine = _machine(cache_pages=32)
        machine.ext2.create_text_file("f", 64 * PAGE_SIZE, seed=5)
        k = machine.kernel
        k.warm_file("/mnt/ext2/f")
        with k.process() as plain:
            wc(k, "/mnt/ext2/f")
        k.drop_caches()
        k.warm_file("/mnt/ext2/f")
        with k.process() as sleds:
            wc(k, "/mnt/ext2/f", use_sleds=True)
        assert sleds.counters.pages_read < plain.counters.pages_read
        assert sleds.elapsed < plain.elapsed

    def test_no_benefit_on_cold_cache(self):
        """Paper: SLEDs provide no benefit for a completely cold cache."""
        machine = _machine(cache_pages=32)
        machine.ext2.create_text_file("f", 64 * PAGE_SIZE, seed=6)
        k = machine.kernel
        with k.process() as plain:
            wc(k, "/mnt/ext2/f")
        k.drop_caches()
        with k.process() as sleds:
            wc(k, "/mnt/ext2/f", use_sleds=True)
        assert sleds.counters.pages_read == plain.counters.pages_read


class TestScanChunk:
    """The split-free word count equals ``len(data.split())``."""

    @given(st.binary(max_size=512))
    def test_matches_split_on_any_bytes(self, data):
        newlines, words, starts, ends = _scan_chunk(data)
        assert newlines == data.count(b"\n")
        assert words == len(data.split())
        assert starts == (bool(data) and data[0] not in _WHITESPACE)
        assert ends == (bool(data) and data[-1] not in _WHITESPACE)

    def test_every_byte_value(self):
        for value in range(256):
            byte = bytes([value])
            for data in (byte, b"a" + byte + b"a", byte * 3 + b"b" + byte):
                assert _scan_chunk(data)[1] == len(data.split()), value
        assert {value for value in range(256)
                if not bytes([value]).split()} == set(_WHITESPACE)
