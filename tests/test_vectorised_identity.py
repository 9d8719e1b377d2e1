"""Property tests: the vectorised fault path is bit-identical to scalar.

The numpy fast paths (run-batched device math in ``Device.read_run``,
the kernel's batched one-page clusters, and the deferred telemetry
fan-in) promise *exact* equality with the scalar reference code, not
approximation.  Every vectorised-path test here runs the same
deterministic workload twice — once with
:func:`repro.devices.batch.set_enabled` forcing the vectorised path,
once on the scalar reference: numpy device math off and the blocking
fault path routed through the per-page oracle loop
(``tests/oracles/kernel.py``) — and asserts the results match bit for
bit:

* full workloads (async striding readers + a blocking fault storm)
  across all four filesystem personalities, on the page cache's run
  index and on the page-set reference (``tests/oracles/residency.py``),
  fingerprinting the clock, per-category charges, fault counters,
  per-task stats, per-device stats/component totals, and the final SLED
  vector;
* the per-device batch kernels against a scalar read loop over
  randomized run layouts — durations, running stats, busy horizon,
  component totals, and rng stream alignment;
* the run-based SLED build (residency runs plus batched span
  estimates) against the paper's literal per-page walk
  (``tests/oracles/builder.py``), with and without queue delays, on
  multi-page resident runs and on random residency;
* the telemetry fan-in (``TelemetryBatch``) against immediate per-fault
  ``on_fault`` calls, comparing whole telemetry exports;
* the no-numpy fallback: with the batch module's numpy knocked out the
  library still runs workloads, ``read_run`` declines, and the results
  still match the vectorised ones.
"""

from __future__ import annotations

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.block.merge import BlockConfig
from repro.core.builder import build_sled_vector
from repro.devices import batch
from repro.devices.cdrom import CdromDevice
from repro.devices.disk import DiskDevice
from repro.devices.flash import FlashDevice
from repro.devices.memory import MemoryDevice
from repro.devices.network import NfsDevice
from repro.fs import inode as inode_mod
from repro.machine import Machine
from repro.obs.telemetry import Telemetry
from repro.sim.tasks import EventScheduler, Task
from repro.sim.units import PAGE_SIZE

from tests.oracles.builder import build_sled_vector_full_walk
from tests.oracles.kernel import use_per_page_faults
from tests.oracles.residency import use_set_residency

PROFILES = ("ext2", "cdrom", "nfs", "hsm")

MERGE_ALL = BlockConfig(merge=True, plug=True)


def _with_batch(flag, fn, *args):
    """Run ``fn(*args)`` with the vectorised path forced on/off,
    restoring the environment-driven default afterwards."""
    batch.set_enabled(flag)
    try:
        return fn(*args)
    finally:
        batch.set_enabled(None)


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


def _run(profile: str, seed: int, pages: int, set_index: bool = False,
         oracle: bool = False):
    machine, path = _setup(profile, seed, pages, set_index)
    kernel = machine.kernel
    if oracle:
        use_per_page_faults(kernel)
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
        # every reference at once: scalar device math, the per-page
        # fault loop and the page-set index
        reference = _with_batch(False, _run, profile, seed, pages, True,
                                True)
        for vectorised, set_index in ((False, False), (True, True),
                                      (True, False)):
            candidate = _with_batch(vectorised, _run, profile, seed, pages,
                                    set_index, not vectorised)
            assert candidate == reference, (
                f"{profile} (vectorised={vectorised}, "
                f"set_index={set_index}): diverged from the scalar "
                f"reference")


DEVICE_FACTORIES = (
    lambda rng: DiskDevice(rng=rng),
    lambda rng: CdromDevice(rng=rng),
    lambda rng: NfsDevice(rng=rng),
    lambda rng: FlashDevice(rng=rng),
    lambda rng: MemoryDevice(rng=rng),
)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 1000),
       runs=st.lists(st.tuples(st.integers(0, 4000), st.integers(1, 64)),
                     min_size=1, max_size=6))
def test_device_batch_math_matches_scalar(seed, runs):
    """``read_run`` == a loop of blocking ``read`` calls, bit for bit:
    per-access durations, running stats, busy horizon, component totals,
    and the rng stream position afterwards."""
    for make in DEVICE_FACTORIES:
        batch_dev = make(np.random.default_rng(seed))
        scalar_dev = make(np.random.default_rng(seed))
        for page_addr, npages in runs:
            addr = page_addr * PAGE_SIZE
            durations = _with_batch(
                True, batch_dev.read_run, addr, npages, PAGE_SIZE)
            assert durations is not None, (
                f"{type(batch_dev).__name__} has no batch kernel")
            expected = [scalar_dev.read(addr + i * PAGE_SIZE, PAGE_SIZE)
                        for i in range(npages)]
            assert list(durations) == expected
        assert batch_dev.stats.reads == scalar_dev.stats.reads
        assert batch_dev.stats.bytes_read == scalar_dev.stats.bytes_read
        assert batch_dev.stats.busy_time == scalar_dev.stats.busy_time
        assert batch_dev.busy_until == scalar_dev.busy_until
        assert batch_dev.component_totals == scalar_dev.component_totals
        # rng alignment: the next non-sequential access draws the same
        # randomness on both devices
        probe = 5000 * PAGE_SIZE
        assert (batch_dev.read(probe, PAGE_SIZE)
                == scalar_dev.read(probe, PAGE_SIZE))


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
        fast = build_sled_vector(cache, fs, inode, table)
        assert _sleds(fast) == _sleds(full), (
            f"{profile}: run-based build diverged from the paper's "
            f"literal per-page walk")
        queue_delays = {key: 0.00173 for key in keys}
        queued = build_sled_vector(cache, fs, inode, table,
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
    vector = build_sled_vector(cache, fs, inode, table)
    full = build_sled_vector_full_walk(cache, fs, inode, table)
    assert _sleds(vector) == _sleds(full)


def test_telemetry_fanin_identical():
    """Deferred fan-in (``TelemetryBatch``) produces byte-identical
    telemetry exports to immediate per-fault ``on_fault`` calls (with
    the blocking sweep on the per-page oracle loop).

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

    scalar_dict, scalar_trace = _with_batch(False, run, True)
    batch_dict, batch_trace = _with_batch(True, run)
    assert batch_dict == scalar_dict
    assert batch_trace == scalar_trace


def test_scalar_fallback_without_numpy(monkeypatch):
    """With numpy knocked out of the batch layer the library still runs
    every workload — ``read_run`` declines, the kernel faults those pages
    one by one, and results match the vectorised run."""
    vector = _run("ext2", seed=3, pages=24)

    with monkeypatch.context() as m:
        m.setattr(batch, "_np", None)
        assert not batch.enabled()
        device = DiskDevice(rng=np.random.default_rng(1))
        assert device.read_run(0, 8, PAGE_SIZE) is None
        fallback = _run("ext2", seed=3, pages=24)

    assert fallback == vector
