"""Unit and property tests for the SLEDs pick library."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pick import (
    SledsPickSession,
    active_session,
    sleds_pick_finish,
    sleds_pick_init,
    sleds_pick_next_read,
)
from repro.machine import Machine
from repro.sim.errors import InvalidArgumentError
from repro.sim.prefetch import Prefetcher
from repro.sim.units import PAGE_SIZE

from tests.oracles.pick import DataclassHeapPickSession


def _machine(cache_pages=64):
    machine = Machine.unix_utilities(cache_pages=cache_pages, seed=21)
    machine.boot()
    return machine


def _drain(kernel, fd):
    """Collect every advised (offset, nbytes) without reading."""
    chunks = []
    while True:
        advice = sleds_pick_next_read(kernel, fd)
        if advice is None:
            return chunks
        chunks.append(advice)


class TestSessionLifecycle:
    def test_init_returns_bufsize(self):
        machine = _machine()
        machine.ext2.create_text_file("f", 8 * PAGE_SIZE, seed=1)
        k = machine.kernel
        fd = k.open("/mnt/ext2/f")
        assert sleds_pick_init(k, fd, 8192) == 8192
        sleds_pick_finish(k, fd)

    def test_double_init_rejected(self):
        machine = _machine()
        machine.ext2.create_text_file("f", 8 * PAGE_SIZE, seed=1)
        k = machine.kernel
        fd = k.open("/mnt/ext2/f")
        sleds_pick_init(k, fd, 8192)
        with pytest.raises(InvalidArgumentError):
            sleds_pick_init(k, fd, 8192)
        sleds_pick_finish(k, fd)

    def test_next_without_init_rejected(self):
        machine = _machine()
        with pytest.raises(InvalidArgumentError):
            sleds_pick_next_read(machine.kernel, 99)

    def test_finish_is_idempotent(self):
        machine = _machine()
        sleds_pick_finish(machine.kernel, 99)  # no-op

    def test_bad_parameters(self):
        machine = _machine()
        machine.ext2.create_text_file("f", PAGE_SIZE, seed=1)
        k = machine.kernel
        fd = k.open("/mnt/ext2/f")
        with pytest.raises(InvalidArgumentError):
            sleds_pick_init(k, fd, 0)
        with pytest.raises(InvalidArgumentError):
            sleds_pick_init(k, fd, 100, order="bogus")
        with pytest.raises(InvalidArgumentError):
            sleds_pick_init(k, fd, 100, refresh_every=-1)

    def test_active_session_visibility(self):
        machine = _machine()
        machine.ext2.create_text_file("f", PAGE_SIZE, seed=1)
        k = machine.kernel
        fd = k.open("/mnt/ext2/f")
        assert active_session(k, fd) is None
        sleds_pick_init(k, fd, 4096)
        assert active_session(k, fd) is not None
        sleds_pick_finish(k, fd)
        assert active_session(k, fd) is None


class TestChunkCoverage:
    def test_cold_file_degenerates_to_linear(self):
        """Paper: with a cold cache the algorithm degenerates to linear
        access of the file."""
        machine = _machine()
        machine.ext2.create_text_file("f", 16 * PAGE_SIZE, seed=1)
        k = machine.kernel
        fd = k.open("/mnt/ext2/f")
        sleds_pick_init(k, fd, 2 * PAGE_SIZE)
        chunks = _drain(k, fd)
        sleds_pick_finish(k, fd)
        offsets = [c[0] for c in chunks]
        assert offsets == sorted(offsets)
        assert offsets[0] == 0

    def test_cached_chunks_come_first(self):
        machine = _machine(cache_pages=32)
        machine.ext2.create_text_file("f", 64 * PAGE_SIZE, seed=1)
        k = machine.kernel
        k.warm_file("/mnt/ext2/f")  # tail cached
        fd = k.open("/mnt/ext2/f")
        vector = k.get_sleds(fd)
        memory_latency = k.sleds_table.memory.latency
        cached_bytes = sum(s.length for s in vector
                           if s.latency == memory_latency)
        sleds_pick_init(k, fd, 2 * PAGE_SIZE)
        chunks = _drain(k, fd)
        sleds_pick_finish(k, fd)
        first = chunks[: max(1, cached_bytes // (2 * PAGE_SIZE))]
        for offset, length in first:
            assert vector.sled_at(offset).latency == memory_latency

    def test_exactly_once_coverage_warm(self):
        machine = _machine(cache_pages=32)
        size = 64 * PAGE_SIZE + 777
        machine.ext2.create_text_file("f", size, seed=1)
        k = machine.kernel
        k.warm_file("/mnt/ext2/f")
        fd = k.open("/mnt/ext2/f")
        sleds_pick_init(k, fd, 3 * PAGE_SIZE)
        chunks = sorted(_drain(k, fd))
        sleds_pick_finish(k, fd)
        pos = 0
        for offset, length in chunks:
            assert offset == pos, "gap or overlap in chunk coverage"
            pos += length
        assert pos == size

    def test_chunks_respect_bufsize(self):
        machine = _machine()
        machine.ext2.create_text_file("f", 10 * PAGE_SIZE, seed=1)
        k = machine.kernel
        fd = k.open("/mnt/ext2/f")
        sleds_pick_init(k, fd, 4096)
        chunks = _drain(k, fd)
        sleds_pick_finish(k, fd)
        assert all(length <= 4096 for _, length in chunks)

    @given(st.sets(st.integers(0, 31)), st.integers(1, 6 * PAGE_SIZE),
           st.sampled_from(["sleds", "linear", "random"]))
    @settings(max_examples=25, deadline=None)
    def test_exactly_once_any_cache_state_any_order(self, cached, bufsize,
                                                    order):
        """The library returns each byte exactly once regardless of cache
        state, buffer size, or pick order."""
        machine = _machine(cache_pages=64)
        size = 32 * PAGE_SIZE - 123
        machine.ext2.create_text_file("f", size, seed=1)
        k = machine.kernel
        inode = machine.ext2.resolve(["f"])
        for page in cached:
            k.page_cache.insert((inode.id, page))
        fd = k.open("/mnt/ext2/f")
        sleds_pick_init(k, fd, bufsize, order=order)
        chunks = sorted(_drain(k, fd))
        sleds_pick_finish(k, fd)
        pos = 0
        for offset, length in chunks:
            assert offset == pos
            pos += length
        assert pos == size


class TestRefresh:
    def test_refresh_preserves_exactly_once(self):
        machine = _machine(cache_pages=32)
        size = 64 * PAGE_SIZE
        machine.ext2.create_text_file("f", size, seed=1)
        k = machine.kernel
        k.warm_file("/mnt/ext2/f")
        fd = k.open("/mnt/ext2/f")
        sleds_pick_init(k, fd, PAGE_SIZE, refresh_every=5)
        seen = sorted(_drain(k, fd))
        sleds_pick_finish(k, fd)
        pos = 0
        for offset, length in seen:
            assert offset == pos
            pos += length
        assert pos == size

    def test_remaining_counters(self):
        machine = _machine()
        machine.ext2.create_text_file("f", 4 * PAGE_SIZE, seed=1)
        k = machine.kernel
        fd = k.open("/mnt/ext2/f")
        sleds_pick_init(k, fd, PAGE_SIZE)
        session = active_session(k, fd)
        assert session.remaining_chunks() == 4
        assert session.remaining_bytes() == 4 * PAGE_SIZE
        sleds_pick_next_read(k, fd)
        assert session.remaining_chunks() == 3
        sleds_pick_finish(k, fd)


class TestDeviceTrafficNeverWorse:
    @given(st.sets(st.integers(0, 63), max_size=48),
           st.sampled_from([PAGE_SIZE, 3 * PAGE_SIZE, 16 * PAGE_SIZE]))
    @settings(max_examples=20, deadline=None)
    def test_sleds_device_pages_at_most_linear(self, cached, bufsize):
        """For any initial cache state, a SLEDs-ordered single pass never
        reads more device pages than a linear pass from the same state —
        the 'better citizen' guarantee at page granularity."""
        def run(order_by_sleds):
            machine = _machine(cache_pages=48)
            size = 64 * PAGE_SIZE
            machine.ext2.create_text_file("f", size, seed=2)
            k = machine.kernel
            inode = machine.ext2.resolve(["f"])
            for page in sorted(cached):
                k.page_cache.insert((inode.id, page))
            fd = k.open("/mnt/ext2/f")
            before = k.counters.pages_read
            if order_by_sleds:
                sleds_pick_init(k, fd, bufsize)
                while (advice := sleds_pick_next_read(k, fd)) is not None:
                    offset, nbytes = advice
                    k.lseek(fd, offset)
                    k.read(fd, nbytes)
                sleds_pick_finish(k, fd)
            else:
                while k.read(fd, bufsize):
                    pass
            k.close(fd)
            return k.counters.pages_read - before

        assert run(True) <= run(False)


_FILE_PAGES = 48


@st.composite
def _pick_programs(draw):
    """A session's settings, the file's starting residency, and what
    happens after each pick: whether the advice is read, and a cache
    disturbance (drop one page of the file, or read one page of another
    file, which evicts under the 32-page cache)."""
    return dict(
        order=draw(st.sampled_from(["sleds", "linear", "random"])),
        bufsize=draw(st.integers(512, 12 * PAGE_SIZE)),
        refresh_every=draw(st.integers(0, 4)),
        pin_cached=draw(st.booleans()),
        prefetcher=draw(st.booleans()),
        cached=draw(st.sets(st.integers(0, _FILE_PAGES - 1), max_size=30)),
        steps=draw(st.lists(
            st.tuples(st.booleans(),
                      st.sampled_from([None, "drop", "other"]),
                      st.integers(0, _FILE_PAGES - 1)),
            max_size=40)),
    )


def _pick_world(session_class, program):
    machine = Machine.unix_utilities(cache_pages=32, seed=21)
    machine.boot()
    kernel = machine.kernel
    fs = machine.ext2
    fs.create_text_file("f", _FILE_PAGES * PAGE_SIZE - 123, seed=1)
    fs.create_text_file("other", _FILE_PAGES * PAGE_SIZE, seed=2)
    inode = fs.resolve(["f"])
    for page in sorted(program["cached"]):
        kernel.page_cache.insert((inode.id, page))
    engine = prefetcher = None
    if program["prefetcher"]:
        engine = kernel.attach_engine()
        prefetcher = Prefetcher(kernel).attach()
    fd = kernel.open("/mnt/ext2/f")
    other = kernel.open("/mnt/ext2/other")
    session = session_class(
        kernel, fd, program["bufsize"],
        refresh_every=program["refresh_every"], order=program["order"],
        pin_cached=program["pin_cached"], prefetcher=prefetcher,
        prefetch_depth=2)
    return kernel, engine, inode, fd, other, session


def _observe(kernel, session, advice):
    return (advice, session.remaining_chunks(), session.remaining_bytes(),
            sorted(page for _, page in session._pinned), kernel.counters,
            kernel.clock.now, kernel.clock.categories())


@given(_pick_programs())
@settings(deadline=None)
def test_tuple_heap_matches_dataclass_heap(program):
    """The session's heap of plain tuples picks exactly what the heap of
    ordered dataclasses it replaced picks (``tests/oracles/pick.py``),
    on twin kernels, refreshes, pins and prefetches included: the same
    advice, remaining chunks and bytes, pins, counters and clock at
    every step."""
    twins = [_pick_world(cls, program)
             for cls in (SledsPickSession, DataclassHeapPickSession)]
    assert (_observe(twins[0][0], twins[0][-1], None)
            == _observe(twins[1][0], twins[1][-1], None))
    steps = list(program["steps"])
    while True:
        read, disturb, slot = steps.pop(0) if steps else (True, None, 0)
        seen = []
        for kernel, engine, inode, fd, other, session in twins:
            advice = session.next_read()
            if advice is not None and read:
                kernel.lseek(fd, advice[0])
                kernel.read(fd, advice[1])
            if disturb == "drop":
                kernel.page_cache.invalidate((inode.id, slot))
            elif disturb == "other":
                kernel.pread(other, slot * PAGE_SIZE, PAGE_SIZE)
            if engine is not None:
                engine.loop.run_until_idle()
            seen.append(_observe(kernel, session, advice))
        assert seen[0] == seen[1]
        if seen[0][0] is None:
            break
    for _, _, _, _, _, session in twins:
        session.release_pins()
