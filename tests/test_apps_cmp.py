"""Tests for the SLEDs-adapted cmp utility."""

from repro.apps.cmp import cmp
from repro.machine import Machine
from repro.sim.units import PAGE_SIZE


def _machine(cache_pages=64):
    machine = Machine.unix_utilities(cache_pages=cache_pages, seed=1501)
    machine.boot()
    return machine


def _pair(machine, size, diff_at=None, seed=5):
    machine.ext2.create_text_file("a.txt", size, seed=seed)
    plants = {diff_at: b"~DIFF~"} if diff_at is not None else {}
    machine.ext2.create_text_file("b.txt", size, seed=seed, plants=plants)
    return "/mnt/ext2/a.txt", "/mnt/ext2/b.txt"


class TestCorrectness:
    def test_identical_files_equal(self):
        machine = _machine()
        a, b = _pair(machine, 8 * PAGE_SIZE)
        for use_sleds in (False, True):
            result = cmp(machine.kernel, a, b, use_sleds=use_sleds)
            assert result.equal

    def test_difference_found_both_modes(self):
        machine = _machine()
        a, b = _pair(machine, 8 * PAGE_SIZE, diff_at=20_000)
        for use_sleds in (False, True):
            result = cmp(machine.kernel, a, b, use_sleds=use_sleds)
            assert not result.equal

    def test_global_first_difference(self):
        machine = _machine()
        a, b = _pair(machine, 8 * PAGE_SIZE, diff_at=20_000)
        for use_sleds in (False, True):
            result = cmp(machine.kernel, a, b, use_sleds=use_sleds,
                         stop_at_first=False)
            assert result.first_difference == 20_000

    def test_size_mismatch(self):
        machine = _machine()
        machine.ext2.create_text_file("a.txt", 1000, seed=1)
        machine.ext2.create_text_file("b.txt", 900, seed=1)
        result = cmp(machine.kernel, "/mnt/ext2/a.txt", "/mnt/ext2/b.txt")
        assert not result.equal
        assert result.size_mismatch
        assert result.first_difference == 900

    def test_empty_files_equal(self):
        machine = _machine()
        k = machine.kernel
        for name in ("a", "b"):
            fd = k.open(f"/mnt/ext2/{name}", "w")
            k.close(fd)
        assert cmp(k, "/mnt/ext2/a", "/mnt/ext2/b").equal


class TestSledsEarlyTermination:
    def _scenario(self):
        """Both files' tails (incl. the differing page) fit in cache; a's
        head was evicted by warming b — the interrupted-work state."""
        machine = _machine(cache_pages=96)
        size = 64 * PAGE_SIZE
        diff_at = size - 2 * PAGE_SIZE
        a, b = _pair(machine, size, diff_at=diff_at)
        k = machine.kernel
        k.warm_file(a)   # a fully cached...
        k.warm_file(b)   # ...b evicts a's head; both tails resident
        return k, a, b

    def test_cached_difference_found_without_device_io(self):
        """The grep -q story for cmp: the differing pages of both files
        are cached, so the SLEDs comparison never touches the disk."""
        k, a, b = self._scenario()
        with k.process() as run:
            result = cmp(k, a, b, use_sleds=True)
        assert not result.equal
        assert run.counters.pages_read == 0

    def test_linear_cmp_pays_device_io_for_same_state(self):
        k, a, b = self._scenario()
        with k.process() as run:
            result = cmp(k, a, b)
        assert not result.equal
        # the linear scan re-reads a's evicted head before reaching the
        # cached difference near the tail
        assert run.counters.pages_read > 20
