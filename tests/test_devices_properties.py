"""Property tests over the device models' timing invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices.cdrom import CdromDevice
from repro.devices.disk import DiskDevice, Zone
from repro.devices.flash import FlashDevice
from repro.devices.memory import MemoryDevice
from repro.devices.network import NfsDevice
from repro.devices.raid import Raid0, Raid1
from repro.devices.tape import TapeCartridge, TapeDevice
from repro.sim.units import GB, KB, MB, PAGE_SIZE

from tests.oracles.devices import devices_of, use_submit_and_drain
from tests.oracles.disk import zone_index

ADDRS = st.integers(0, 8 * GB)
SIZES = st.integers(1, 4 * MB)


def _devices(seed=0):
    rng = lambda: np.random.default_rng(seed)  # noqa: E731
    tape = TapeDevice(rng=rng())
    tape.load(TapeCartridge("P"))
    return [
        MemoryDevice(),
        DiskDevice(rng=rng()),
        CdromDevice(rng=rng()),
        NfsDevice(rng=rng()),
        FlashDevice(rng=rng()),
        tape,
    ]


class TestUniversalInvariants:
    @given(st.lists(st.tuples(ADDRS, SIZES), min_size=1, max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_all_access_times_positive_and_finite(self, accesses):
        for device in _devices():
            for addr, nbytes in accesses:
                addr = min(addr, device.capacity - 1)
                nbytes = min(nbytes, device.capacity - addr)
                if nbytes <= 0:
                    continue
                seconds = device.read(addr, nbytes)
                assert 0 < seconds < 3600
                assert np.isfinite(seconds)

    @given(ADDRS, st.integers(1, 64))
    @settings(max_examples=40, deadline=None)
    def test_bigger_reads_never_cheaper_same_state(self, addr, pages):
        """From identical state, reading more bytes costs at least as
        much as reading fewer."""
        for seed in (1, 2):
            small = DiskDevice(rng=np.random.default_rng(seed))
            large = DiskDevice(rng=np.random.default_rng(seed))
            addr2 = min(addr, small.capacity - 65 * PAGE_SIZE)
            t_small = small.read(addr2, pages * PAGE_SIZE)
            t_large = large.read(addr2, (pages + 1) * PAGE_SIZE)
            assert t_large >= t_small - 1e-12

    @given(ADDRS, ADDRS)
    @settings(max_examples=40, deadline=None)
    def test_sequential_never_dearer_than_seek(self, a, b):
        """Continuing a stream is never more expensive than jumping."""
        seed = 7
        stream = DiskDevice(rng=np.random.default_rng(seed))
        jump = DiskDevice(rng=np.random.default_rng(seed))
        a = min(a, stream.capacity - 2 * PAGE_SIZE)
        b = min(b, stream.capacity - 2 * PAGE_SIZE)
        stream.read(a, PAGE_SIZE)
        jump.read(a, PAGE_SIZE)
        t_stream = stream.read(a + PAGE_SIZE, PAGE_SIZE)
        if b != a + PAGE_SIZE:
            t_jump = jump.read(b, PAGE_SIZE)
            assert t_stream <= t_jump + 1e-12


class TestTimingConsistency:
    def test_deterministic_given_seed(self):
        def trace(seed):
            disk = DiskDevice(rng=np.random.default_rng(seed))
            return [disk.read((i * 977) % (disk.capacity - MB), 64 * KB)
                    for i in range(20)]

        assert trace(3) == trace(3)
        assert trace(3) != trace(4)

    @given(st.integers(1, 200))
    @settings(max_examples=30, deadline=None)
    def test_streaming_total_matches_bandwidth(self, chunks):
        """A long sequential disk stream converges to the zone rate."""
        disk = DiskDevice(rng=np.random.default_rng(5))
        chunk = 64 * KB
        total = sum(disk.read(i * chunk, chunk) for i in range(chunks))
        effective = chunks * chunk / total
        zone_rate = disk.bandwidth_at(0)
        # within 20% of the zone's rate (per-access overhead + first seek)
        assert effective > 0.6 * zone_rate
        assert effective <= zone_rate * 1.001

    def test_nfs_sequential_vs_random_gap_is_large(self):
        nfs = NfsDevice(rng=np.random.default_rng(6))
        nfs.read(0, 64 * KB)
        sequential = nfs.read(64 * KB, 64 * KB)
        rng = np.random.default_rng(7)
        randoms = []
        for _ in range(10):
            device = NfsDevice(rng=np.random.default_rng(8))
            addr = int(rng.integers(1 * GB, 8 * GB)) & ~4095
            device.read(0, 4096)
            randoms.append(device.read(addr, 64 * KB))
        assert np.mean(randoms) > 3 * sequential

    def test_tape_streaming_never_locates_mid_stream(self):
        tape = TapeDevice(rng=np.random.default_rng(9))
        tape.load(TapeCartridge("Q"))
        tape.read(0, MB)
        seeks_before = tape.stats.seeks
        for i in range(1, 30):
            tape.read(i * MB, MB)
        assert tape.stats.seeks == seeks_before


# -- blocking requests against the submit-and-drain oracle ---------------

#: every twin device's address space: small, so that requests continue,
#: overlap bad ranges and run off the end often
SPACE = 16 * MB

#: a request's start: a fraction of the space in 1/2**16ths, None to
#: continue where the previous request ended, or -1 to straddle the end
WHERE = st.one_of(st.none(), st.just(-1), st.integers(0, 2**16 - 1))
NBYTES = st.integers(1, 16 * PAGE_SIZE)
#: ``now`` for submit steps, relative to the busy horizon (None: omitted)
NOW = st.sampled_from((None, -0.5, -1e-3, 0.0, 1e-3, 0.5))
#: a scatter list: its first span's start, then (gap pages, nbytes) pairs
SPANS = st.tuples(WHERE, NBYTES,
                  st.lists(st.tuples(st.integers(0, 40), NBYTES),
                           max_size=3))

STEPS = st.one_of(
    st.tuples(st.just("read"), WHERE, NBYTES),
    st.tuples(st.just("write"), WHERE, NBYTES),
    st.tuples(st.just("read_spans"), SPANS),
    st.tuples(st.just("submit"), WHERE, NBYTES, st.booleans(), NOW),
    st.tuples(st.just("submit_spans"), SPANS, st.booleans(), NOW),
    st.tuples(st.just("inject"), st.integers(0, 2)),
    st.tuples(st.just("bad"), WHERE, NBYTES),
    st.tuples(st.just("clear"),),
    st.tuples(st.just("observe"),),
)


def _raid(cls, rng, seed):
    members = [DiskDevice(name=f"m{i}", capacity=SPACE // 2,
                          rng=np.random.default_rng(seed + 1 + i))
               for i in range(2)]
    return cls(members, rng=rng)


def _loaded_tape(rng, seed):
    tape = TapeDevice(rng=rng)
    # a short cartridge in a 35 GB drive: requests past its end fail
    # after the bounds and failure checks pass
    tape.load(TapeCartridge("P", capacity=SPACE - 64 * PAGE_SIZE))
    return tape


TWINS = {
    "memory": lambda rng, seed: MemoryDevice(capacity=SPACE, rng=rng),
    "disk": lambda rng, seed: DiskDevice(
        capacity=SPACE, zones=(Zone(0.0, 9 * MB),), rng=rng),
    "zoned disk": lambda rng, seed: DiskDevice(capacity=SPACE, rng=rng),
    "cdrom": lambda rng, seed: CdromDevice(capacity=SPACE, rng=rng),
    "nfs": lambda rng, seed: NfsDevice(capacity=SPACE,
                                       server_cache_bytes=MB, rng=rng),
    "flash": lambda rng, seed: FlashDevice(capacity=SPACE, rng=rng),
    "tape": _loaded_tape,
    "raid0": lambda rng, seed: _raid(Raid0, rng, seed),
    "raid1": lambda rng, seed: _raid(Raid1, rng, seed),
}


class _Recorder:
    def __init__(self) -> None:
        self.log = []

    def on_device_access(self, device, addr, nbytes, seconds, is_write):
        self.log.append((device.name, addr, nbytes, seconds, is_write))


class _Side:
    """One twin: its device tree and the recorder its observers share."""

    def __init__(self, device) -> None:
        self.device = device
        self.recorder = _Recorder()

    def run(self, method: str, *args, **kwargs):
        try:
            return ("ok", getattr(self.device, method)(*args, **kwargs))
        except Exception as exc:  # compared, type and message, across twins
            return ("error", type(exc), str(exc))

    def toggle_observers(self) -> None:
        for device in devices_of(self.device):
            device.observer = (None if device.observer is not None
                               else self.recorder)

    def state(self) -> list:
        """Everything a request may move, per device of the tree; each
        device's rng's next draw last, since it consumes it."""
        tree = devices_of(self.device)
        state = [(d.stats, dict(d.component_totals), d.busy_until,
                  d.head_position(), d.head_pos) for d in tree]
        state.append([d.rng.random() for d in tree])
        state.append(list(self.recorder.log))
        return state


def _start(where, space, cursor):
    if where is None:
        return cursor
    if where == -1:
        return space - PAGE_SIZE
    return where * (space // PAGE_SIZE) // 2**16 * PAGE_SIZE


def _spans(spec, space, cursor):
    where, nbytes, more = spec
    addr = _start(where, space, cursor)
    spans = [(addr, nbytes)]
    for gap, size in more:
        addr += nbytes + gap * PAGE_SIZE
        nbytes = size
        spans.append((addr, nbytes))
    return spans


def _call(step, space, cursor, horizon):
    """The device call one program step makes: ``(method, args,
    kwargs)``, and where the next continuing request starts."""
    op = step[0]
    if op in ("read", "write", "bad"):
        addr = _start(step[1], space, cursor)
        method = "mark_bad_range" if op == "bad" else op
        return method, (addr, step[2]), {}, addr + step[2]
    if op == "submit":
        addr = _start(step[1], space, cursor)
        nbytes, is_write, delta = step[2:]
        now = None if delta is None else horizon + delta
        return op, (addr, nbytes, is_write), {"now": now}, addr + nbytes
    if op in ("read_spans", "submit_spans"):
        spans = _spans(step[1], space, cursor)
        end = spans[-1][0] + spans[-1][1]
        if op == "read_spans":
            return op, (spans,), {}, end
        is_write, delta = step[2:]
        now = None if delta is None else horizon + delta
        return op, (spans, is_write), {"now": now}, end
    if op == "inject":
        return "inject_failures", (step[1],), {}, cursor
    return "clear_failures", (), {}, cursor


@given(seed=st.integers(0, 2**16), program=st.lists(STEPS, max_size=30))
@settings(deadline=None)
@pytest.mark.parametrize("kind", TWINS)
def test_blocking_requests_match_submit_and_drain(kind, seed, program):
    """``read``, ``write`` and ``read_spans`` equal their submit-and-drain
    wrappers (``tests/oracles/devices.py``) on every device class: the
    same durations or errors, and the same stats, component totals, busy
    horizon, position, rng draws and observer calls after every step of
    a random program that also submits requests before and after the
    busy horizon, arms failures and bad ranges and attaches observers."""
    new = _Side(TWINS[kind](np.random.default_rng(seed), seed))
    old = _Side(use_submit_and_drain(
        TWINS[kind](np.random.default_rng(seed), seed)))
    # RAID-1 mirrors two halves; the tape drive's space runs 64 pages
    # past its cartridge
    space = min(new.device.capacity, SPACE)
    cursor = 0
    for step in program:
        if step[0] == "observe":
            new.toggle_observers()
            old.toggle_observers()
        else:
            method, args, kwargs, cursor = _call(step, space, cursor,
                                                 new.device.busy_until)
            assert (new.run(method, *args, **kwargs)
                    == old.run(method, *args, **kwargs)), (kind, step)
        assert new.state() == old.state(), (kind, step)


# -- disk zone lookup against the table scan -----------------------------

#: a zone table: the later zones' start fractions (the first starts at
#: 0.0), the zones' rates in MB/s and the capacity
ZONE_TABLES = st.tuples(
    st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
             unique=True, max_size=8),
    st.lists(st.floats(0.5, 50.0), min_size=9, max_size=9),
    st.integers(PAGE_SIZE, 64 * GB))


@given(table=ZONE_TABLES,
       fractions=st.lists(st.floats(0.0, 1.0, exclude_max=True),
                          max_size=20))
@settings(deadline=None)
def test_zone_index_matches_table_scan(table, fractions):
    """``DiskDevice.zone_index`` (a bisect) equals the scan of the zone
    table (``tests/oracles/disk.py``) over random zone tables: at 0, at
    ``capacity - 1``, at every zone edge +-2 and at random addresses."""
    starts, rates, capacity = table
    zones = tuple(Zone(start, rate * MB)
                  for start, rate in zip([0.0, *sorted(starts)], rates))
    disk = DiskDevice(capacity=capacity, zones=zones,
                      rng=np.random.default_rng(0))
    addrs = {0, capacity - 1}
    for index in range(1, len(zones)):
        for edge in (disk.zone_range(index)[0],
                     int(zones[index].start_frac * capacity)):
            addrs.update(range(edge - 2, edge + 3))
    addrs.update(int(fraction * capacity) for fraction in fractions)
    for addr in sorted(a for a in addrs if 0 <= a < capacity):
        assert disk.zone_index(addr) == zone_index(disk, addr), addr
