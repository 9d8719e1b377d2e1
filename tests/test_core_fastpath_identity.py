"""Property test: the residency index never moves a virtual-time result.

The same workload — concurrent striding readers with merge + plug, SLED
vectors requested mid-stream, then a synchronous re-read pass — runs on
a default machine (the page cache's interval-run index) and on one whose
index is swapped for the page-set reference
(``tests/oracles/residency.py``), across all four filesystem
personalities (ext2, cdrom, nfs, hsm).  The fingerprint covers the
clock, its per-category charges, the fault counters, and every per-task
stat.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.block.merge import BlockConfig
from repro.machine import Machine
from repro.sim.tasks import EventScheduler, Task
from repro.sim.units import PAGE_SIZE

from tests.oracles.residency import use_set_residency

PROFILES = ("ext2", "cdrom", "nfs", "hsm")

MERGE_ALL = BlockConfig(merge=True, plug=True)


def _setup(profile: str, seed: int, pages: int, reference: bool):
    if profile == "hsm":
        machine = Machine.hsm(cache_pages=256, stage_pages=512,
                              seed=9000 + seed)
        if reference:
            use_set_residency(machine)
        machine.boot()
        machine.hsmfs.create_tape_file("f", pages * PAGE_SIZE, "VOL000")
        return machine, "/mnt/hsm/f"
    machine = Machine.unix_utilities(cache_pages=256, seed=9000 + seed)
    if reference:
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
            kernel.get_sleds(fd)  # SLED build hits the residency index
            yield from kernel.pread_async(
                fd, chunk * chunk_pages * PAGE_SIZE, chunk_pages * PAGE_SIZE)
        kernel.close(fd)

    return [Task(f"r{i}", reader(i)) for i in range(readers)]


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
    )


def _run(profile: str, seed: int, pages: int, reference: bool):
    machine, path = _setup(profile, seed, pages, reference)
    kernel = machine.kernel
    engine = kernel.attach_engine(block=MERGE_ALL)
    tasks = _striding_readers(kernel, path, pages)
    stats = EventScheduler(kernel, tasks, engine=engine).run()
    # synchronous warm re-read: hits, plus the sync fault path for any
    # pages the striding pass already evicted
    fd = kernel.open(path)
    kernel.pread(fd, 0, pages * PAGE_SIZE)
    vector = kernel.get_sleds(fd)
    kernel.close(fd)
    return _fingerprint(machine, stats), tuple(
        (sled.offset, sled.length, sled.latency, sled.bandwidth)
        for sled in vector)


@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 50), pages=st.integers(2, 40))
def test_backend_configs_are_bit_identical(seed, pages):
    for profile in PROFILES:
        reference = _run(profile, seed, pages, reference=True)
        candidate = _run(profile, seed, pages, reference=False)
        assert candidate == reference, (
            f"{profile}: the run index diverged from the page-set "
            f"reference")
