"""Property tests: the batched fault path is bit-identical to scalar.

The fast paths (run-priced device reads in ``Device.read_run``, the
kernel's batched one-page clusters, and the deferred telemetry fan-in)
promise *exact* equality with the scalar reference code, not
approximation.  Each test runs the same deterministic workload on the
production path and on the reference and asserts the results match bit
for bit:

* full workloads (async striding readers + a blocking fault storm)
  across all four filesystem personalities, against the per-page oracle
  loops (``tests/oracles/kernel.py``), on the page cache's run index and
  on the page-set reference (``tests/oracles/residency.py``),
  fingerprinting the clock, per-category charges, fault counters,
  per-task stats, per-device stats/component totals, and the final SLED
  vector;
* ``read_run`` on every device class with a continuation model against a
  loop of scalar ``read`` calls, over randomized runs of one-page,
  three-page and 64 KiB requests across each device's whole capacity,
  fixed disk runs across every zone edge and 64 KiB requests that
  straddle one — durations, running stats, busy horizon, component
  totals, position and rng stream alignment;
* ``read_run`` declining before any state moves, and a workload whose
  runs all decline after boot matching the batched one;
* the run-based SLED build (residency runs plus batched span
  estimates) against the paper's literal per-page walk
  (``tests/oracles/builder.py``), with and without queue delays, on
  multi-page resident runs and on random residency;
* the telemetry fan-in (``TelemetryBatch``) against the per-page oracle
  loops' immediate ``on_fault`` calls, comparing whole telemetry exports.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.block.merge import BlockConfig
from repro.core.builder import build_sled_vector
from repro.devices.base import Device
from repro.devices.cdrom import CdromDevice
from repro.devices.disk import DiskDevice
from repro.devices.flash import FlashDevice
from repro.devices.memory import MemoryDevice
from repro.devices.network import NfsDevice
from repro.devices.raid import Raid1
from repro.devices.tape import TapeCartridge, TapeDevice
from repro.fs import inode as inode_mod
from repro.machine import Machine
from repro.obs.telemetry import Telemetry
from repro.sim.tasks import EventScheduler, Task
from repro.sim.units import KB, PAGE_SIZE

from tests.oracles.builder import build_sled_vector_full_walk
from tests.oracles.kernel import (use_per_page_engine_faults,
                                  use_per_page_faults)
from tests.oracles.residency import use_set_residency

PROFILES = ("ext2", "cdrom", "nfs", "hsm")

MERGE_ALL = BlockConfig(merge=True, plug=True)


def _setup(profile: str, seed: int, pages: int, set_index: bool = False):
    if profile == "hsm":
        machine = Machine.hsm(cache_pages=256, stage_pages=512,
                              seed=13000 + seed)
        if set_index:
            use_set_residency(machine)
        machine.boot()
        machine.hsmfs.create_tape_file("f", pages * PAGE_SIZE, "VOL000")
        return machine, "/mnt/hsm/f"
    machine = Machine.unix_utilities(cache_pages=256, seed=13000 + seed)
    if set_index:
        use_set_residency(machine)
    machine.boot()
    fs = {"ext2": machine.ext2, "cdrom": machine.cdrom,
          "nfs": machine.nfs}[profile]
    fs.create_text_file("f", pages * PAGE_SIZE, seed=seed)
    return machine, f"/mnt/{profile}/f"


def _striding_readers(kernel, path, pages, readers=2, chunk_pages=2):
    nchunks = max(1, pages // chunk_pages)

    def reader(start):
        fd = kernel.open(path)
        for chunk in range(start, nchunks, readers):
            kernel.get_sleds(fd)
            yield from kernel.pread_async(
                fd, chunk * chunk_pages * PAGE_SIZE, chunk_pages * PAGE_SIZE)
        kernel.close(fd)

    return [Task(f"r{i}", reader(i)) for i in range(readers)]


def _device_state(machine):
    out = []
    for mount in sorted(machine.filesystems):
        device = machine.filesystems[mount].device
        stats = device.stats
        out.append((mount, stats.reads, stats.bytes_read, stats.busy_time,
                    stats.queue_wait_time, stats.queued_requests,
                    device.busy_until,
                    tuple(sorted(device.component_totals.items()))))
    return tuple(out)


def _fingerprint(machine, stats):
    kernel = machine.kernel
    counters = kernel.counters
    return (
        kernel.clock.now,
        tuple(sorted(kernel.clock.categories().items())),
        counters.hard_faults, counters.pages_read, counters.cache_hits,
        counters.readahead_pages, counters.evictions,
        tuple(sorted(
            (name, s.virtual_time, s.wait_time, s.hard_faults, s.io_waits,
             s.finished_at)
            for name, s in stats.items())),
        _device_state(machine),
    )


def _observed(device):
    """Attach a bare observer: it watches every access, so every
    ``read_run`` declines."""
    device.observer = SimpleNamespace(
        on_device_access=lambda *args, **kwargs: None)


def _run(profile: str, seed: int, pages: int, set_index: bool = False,
         oracle: bool = False, observed: bool = False):
    machine, path = _setup(profile, seed, pages, set_index)
    kernel = machine.kernel
    if oracle:
        use_per_page_faults(kernel)
    if observed:
        for fs in machine.filesystems.values():
            _observed(fs.device)
    engine = kernel.attach_engine(block=MERGE_ALL)
    tasks = _striding_readers(kernel, path, pages)
    stats = EventScheduler(kernel, tasks, engine=engine).run()
    # blocking storm phase: sequential re-read sweeps drive the
    # synchronous fault path (Kernel._fault_in)
    fd = kernel.open(path)
    chunk = 3 * PAGE_SIZE
    for _ in range(2):
        offset = 0
        while offset < pages * PAGE_SIZE:
            kernel.pread(fd, offset, chunk)
            offset += chunk
    vector = kernel.get_sleds(fd)
    kernel.close(fd)
    return _fingerprint(machine, stats), tuple(
        (sled.offset, sled.length, sled.latency, sled.bandwidth)
        for sled in vector)


@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 50), pages=st.integers(2, 40))
def test_vectorised_workloads_bit_identical(seed, pages):
    for profile in PROFILES:
        # every reference at once: the per-page fault loop and the
        # page-set index
        reference = _run(profile, seed, pages, set_index=True, oracle=True)
        for set_index, oracle in ((False, True), (True, False),
                                  (False, False)):
            candidate = _run(profile, seed, pages, set_index, oracle)
            assert candidate == reference, (
                f"{profile} (set_index={set_index}, oracle={oracle}): "
                f"diverged from the per-page reference")


DEVICE_FACTORIES = (
    lambda rng: DiskDevice(rng=rng),
    lambda rng: CdromDevice(rng=rng),
    lambda rng: NfsDevice(rng=rng),
    lambda rng: FlashDevice(rng=rng),
    lambda rng: MemoryDevice(rng=rng),
)


def _assert_run_matches_reads(device, twin, addr, npages,
                              page_bytes=PAGE_SIZE):
    """``device.read_run`` equals a loop of ``twin.read`` calls in its
    durations and in the state both devices are left in; returns the
    durations."""
    durations = device.read_run(addr, npages, page_bytes)
    assert durations is not None, (
        f"{type(device).__name__} declined a run")
    expected = [twin.read(addr + i * page_bytes, page_bytes)
                for i in range(npages)]
    assert durations == expected, (
        f"{type(device).__name__}: {npages} x {page_bytes} B from {addr}")
    assert device.stats == twin.stats
    assert device.busy_until == twin.busy_until
    assert device.component_totals == twin.component_totals
    assert device.head_pos == twin.head_pos
    return durations


def _assert_rng_aligned(device, twin):
    # the next non-sequential access draws the same randomness on both
    probe = device.capacity // 3
    assert device.read(probe, PAGE_SIZE) == twin.read(probe, PAGE_SIZE)


@settings(deadline=None)
@given(seed=st.integers(0, 1000),
       page_bytes=st.sampled_from((PAGE_SIZE, 3 * PAGE_SIZE, 64 * KB)),
       runs=st.lists(st.tuples(st.one_of(st.none(), st.integers(0, 2**32)),
                               st.integers(1, 64)),
                     min_size=1, max_size=6))
def test_read_run_matches_scalar_reads(seed, page_bytes, runs):
    """``read_run`` == a loop of blocking ``read`` calls, bit for bit,
    on every device class with a continuation model, for runs anywhere
    on the device: a run placed at ``None`` continues the previous one,
    so its first request is a continuation too.  Requests are one page,
    three pages, or the 64 KiB chunks of the boot bandwidth probe."""
    for make in DEVICE_FACTORIES:
        device = make(np.random.default_rng(seed))
        twin = make(np.random.default_rng(seed))
        last = device.capacity // page_bytes
        following = 0
        for where, npages in runs:
            if where is None and following + npages <= last:
                index = following
            else:
                index = (where or 0) * (last - npages) // 2**32
            _assert_run_matches_reads(device, twin, index * page_bytes,
                                      npages, page_bytes)
            following = index + npages
        _assert_rng_aligned(device, twin)


def _zone_edge_pages(disk):
    """The first page of each zone after the first: where ``zone_index``
    of a page's address changes."""
    pages = range(disk.capacity // PAGE_SIZE)
    return [bisect_right(pages, index,
                         key=lambda page: disk.zone_index(page * PAGE_SIZE))
            for index in range(len(disk.zones) - 1)]


@pytest.mark.parametrize("lead_in", (False, True))
def test_read_run_across_disk_zone_edges(lead_in):
    """Disk runs that start just before, at and just after each zone
    edge match the scalar reads: a stretch of equal cost ends where the
    zone does.  With ``lead_in`` a scalar read of the page before each
    run makes its first page a continuation; without, it seeks."""
    device = DiskDevice(rng=np.random.default_rng(3))
    twin = DiskDevice(rng=np.random.default_rng(3))
    edges = _zone_edge_pages(device)
    assert len(edges) == len(device.zones) - 1
    for edge in edges:
        for offset in (-3, -1, 0, 1):
            for npages in (1, 2, 5, 64):
                addr = (edge + offset) * PAGE_SIZE
                if lead_in:
                    assert (device.read(addr - PAGE_SIZE, PAGE_SIZE)
                            == twin.read(addr - PAGE_SIZE, PAGE_SIZE))
                _assert_run_matches_reads(device, twin, addr, npages)
    _assert_rng_aligned(device, twin)


@pytest.mark.parametrize("lead_in", (False, True))
def test_read_run_straddles_disk_zone_ends(lead_in):
    """Three 64 KiB requests, the second starting 1, 5 or 15 pages
    before a zone end so that it crosses it, match the scalar reads, and
    the straddling request (a continuation) is priced whole at its
    starting zone's rate, as the scalar read prices it.  ``lead_in``
    makes the first request a continuation too; without, it seeks."""
    chunk = 64 * KB
    device = DiskDevice(rng=np.random.default_rng(5))
    twin = DiskDevice(rng=np.random.default_rng(5))
    for edge in _zone_edge_pages(device):
        for before in (1, 5, 15):
            straddler = (edge - before) * PAGE_SIZE
            addr = straddler - chunk
            if lead_in:
                assert (device.read(addr - chunk, chunk)
                        == twin.read(addr - chunk, chunk))
            durations = _assert_run_matches_reads(device, twin, addr, 3,
                                                  chunk)
            zone = device.zones[device.zone_index(straddler)]
            assert device.zone_index(straddler + chunk - 1) \
                == device.zone_index(straddler) + 1
            assert durations[1] == (device.controller_overhead
                                    + chunk / zone.bandwidth)
    _assert_rng_aligned(device, twin)


def _tape(rng):
    tape = TapeDevice(rng=rng)
    tape.load(TapeCartridge("VOL000"))
    return tape


def _raid(rng):
    return Raid1([DiskDevice(name=f"m{i}", rng=np.random.default_rng(i))
                  for i in range(2)], rng=rng)


DECLINES = {
    "observer": (DiskDevice, _observed),
    "failures": (DiskDevice, lambda device: device.inject_failures(1)),
    "bad range": (NfsDevice,
                  lambda device: device.mark_bad_range(512 * PAGE_SIZE,
                                                       PAGE_SIZE)),
    "nfs server cache": (
        lambda rng: NfsDevice(server_cache_bytes=1 << 20, rng=rng),
        lambda device: None),
    "tape": (_tape, lambda device: None),
    "raid": (_raid, lambda device: None),
}


def _state(device):
    """Everything a declined ``read_run`` must leave as it found it; the
    rng's next draw last, since it consumes it."""
    loaded = getattr(device, "loaded", None)
    return (device.stats, device.busy_until,
            dict(device.component_totals), device.head_pos,
            getattr(device, "_next_sequential", None),
            loaded.position if loaded is not None else None,
            tuple(_state(member) for member in getattr(device, "members",
                                                       ())),
            device.rng.random())


@pytest.mark.parametrize("case", sorted(DECLINES))
def test_read_run_declines_before_state_moves(case):
    make, arm = DECLINES[case]
    device = make(np.random.default_rng(9))
    twin = make(np.random.default_rng(9))
    for each in (device, twin):
        each.read(4 * PAGE_SIZE, PAGE_SIZE)
    arm(device)
    # a continuation run and a seeking one
    assert device.read_run(5 * PAGE_SIZE, 16, PAGE_SIZE) is None
    assert device.read_run(1024 * PAGE_SIZE, 16, PAGE_SIZE) is None
    assert _state(device) == _state(twin)


def test_declined_runs_match_batched_runs(monkeypatch):
    """With every ``read_run`` declining, the kernel faults each page on
    its own, and the workload's outcome equals the batched one.  The
    file is larger than the cache, so the blocking sweeps fault.  Only
    calls after boot count: boot's bandwidth probes run through
    ``read_run`` before the observers are attached."""
    returned = []
    read_run = Device.read_run
    boot = Machine.boot

    def recording(device, *args):
        durations = read_run(device, *args)
        returned.append(durations)
        return durations

    def boot_unrecorded(machine):
        entries = boot(machine)
        returned.clear()
        return entries

    monkeypatch.setattr(Device, "read_run", recording)
    monkeypatch.setattr(Machine, "boot", boot_unrecorded)
    batched = _run("ext2", seed=3, pages=320)
    assert returned and all(durations is not None for durations in returned)
    returned.clear()
    declined = _run("ext2", seed=3, pages=320, observed=True)
    assert returned and all(durations is None for durations in returned)
    assert declined == batched


def _sled_inputs(profile: str):
    """A machine whose file has 4-page resident runs every 16 pages, so
    the SLED build sees multi-page runs on both sides of each gap."""
    machine, path = _setup(profile, seed=7, pages=256)
    kernel = machine.kernel
    fd = kernel.open(path)
    for chunk in range(0, 256, 8):
        if (chunk // 8) % 2 == 0:
            kernel.pread(fd, chunk * PAGE_SIZE, 4 * PAGE_SIZE)
    inode = kernel._fd(fd).inode
    fs = kernel._fd(fd).fs
    return machine, kernel, inode, fs


def _sleds(vector):
    return tuple((s.offset, s.length, s.latency, s.bandwidth)
                 for s in vector)


def test_sled_build_vector_path_identical():
    for profile in PROFILES:
        machine, kernel, inode, fs = _sled_inputs(profile)
        cache = kernel.page_cache
        table = kernel.sleds_table
        assert len(cache.resident_runs(inode.id, inode.npages)) > 1
        keys = {estimate.device_key for _, estimate
                in fs.span_estimates(inode, 0, inode.npages)}
        full = build_sled_vector_full_walk(cache, fs, inode, table)
        fast, _ = build_sled_vector(cache, fs, inode, table)
        assert _sleds(fast) == _sleds(full), (
            f"{profile}: run-based build diverged from the paper's "
            f"literal per-page walk")
        queue_delays = {key: 0.00173 for key in keys}
        queued, _ = build_sled_vector(cache, fs, inode, table,
                                      queue_delays=queue_delays)
        walked = build_sled_vector_full_walk(cache, fs, inode, table,
                                             queue_delays)
        assert _sleds(queued) == _sleds(walked), (
            f"{profile}: queue delays diverged from the per-page walk")
        assert _sleds(queued) != _sleds(fast)


@settings(max_examples=10, deadline=None)
@given(mask=st.lists(st.booleans(), min_size=24, max_size=120))
def test_sled_build_random_residency_identical(mask):
    """Randomized residency layouts: whatever pattern of resident pages
    the workload leaves behind, the run-based build and the literal
    per-page walk agree exactly."""
    pages = len(mask)
    machine, path = _setup("ext2", seed=11, pages=pages)
    kernel = machine.kernel
    fd = kernel.open(path)
    for page, resident in enumerate(mask):
        if resident:
            kernel.pread(fd, page * PAGE_SIZE, PAGE_SIZE)
    inode = kernel._fd(fd).inode
    fs = kernel._fd(fd).fs
    cache, table = kernel.page_cache, kernel.sleds_table
    vector, _ = build_sled_vector(cache, fs, inode, table)
    full = build_sled_vector_full_walk(cache, fs, inode, table)
    assert _sleds(vector) == _sleds(full)


def test_telemetry_fanin_identical():
    """Deferred fan-in (``TelemetryBatch``) produces byte-identical
    telemetry exports to immediate per-fault ``on_fault`` calls: the
    kernel against both per-page oracle loops, blocking and engine.

    Inode ids come from a process-global counter, so both runs pin it to
    the same start — telemetry keys spans by inode id and the exports
    would otherwise differ spuriously.
    """
    def run(oracle=False):
        saved = inode_mod._inode_ids
        inode_mod._inode_ids = itertools.count(1_000_000)
        try:
            machine, path = _setup("ext2", seed=5, pages=96)
            kernel = machine.kernel
            if oracle:
                use_per_page_faults(kernel)
                use_per_page_engine_faults(kernel)
            telemetry = Telemetry()
            telemetry.attach(kernel)
            engine = kernel.attach_engine(block=MERGE_ALL)
            tasks = _striding_readers(kernel, path, 96, readers=3,
                                      chunk_pages=4)
            EventScheduler(kernel, tasks, engine=engine).run()
            fd = kernel.open(path)
            kernel.pread(fd, 0, 96 * PAGE_SIZE)
            kernel.close(fd)
            return telemetry.to_dict(), telemetry.chrome_trace()
        finally:
            inode_mod._inode_ids = saved

    oracle_dict, oracle_trace = run(oracle=True)
    batch_dict, batch_trace = run()
    assert batch_dict == oracle_dict
    assert batch_trace == oracle_trace
