"""The engine's per-filesystem queue binding.

``IoEngine`` binds each filesystem's levels to their device queues on
first use, as ``(device key, device, queue)`` in key order, and reads
``FSLEDS_GET``'s congestion stamp and queue delays from that binding.
That holds only because a filesystem's device table is fixed once it is
built, which the first test checks for every filesystem type.  The
property test runs random programs of concurrent tasks on twin machines,
one engine routed through the per-call lookups it replaced
(``tests/oracles/engine.py``), and requires the same stamps and delays
at every call, the same SLED vectors, and the same queues and plugs in
the same order, under queue churn and plugs that appear after the
binding: on the Unix-utilities testbed, the HSM testbed and a zone-aware
ext2 mount, with and without a merge/plug front and the fair elevator.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.block.merge import BlockConfig
from repro.devices.disk import DiskDevice
from repro.fs.filesystem import Ext2Like, FileSystem
from repro.kernel.kernel import Kernel
from repro.machine import Machine, MachineConfig
from repro.sim.rng import RngStreams
from repro.sim.tasks import EventScheduler, Task
from repro.sim.units import GB, PAGE_SIZE

from tests.oracles.engine import use_per_call_queues

FILE_PAGES = 24


def _zone_aware(seed: int, config: MachineConfig) -> Machine:
    rng = RngStreams(seed)
    machine = Machine(kernel=Kernel(
        cache_pages=32, rng=rng,
        io_scheduler="fair" if config.fair_elevator else "clook"))
    machine.mount("/", Ext2Like(
        DiskDevice(name="root-disk", capacity=2 * GB,
                   rng=rng.stream("root-disk")),
        name="rootfs"))
    machine.mount("/mnt/ext2", Ext2Like(
        DiskDevice(name="ext2-disk", rng=rng.stream("ext2-disk")),
        name="ext2", zone_aware=True))
    return machine


def _machine(profile: str, seed: int, fair: bool = False) -> Machine:
    config = MachineConfig(fair_elevator=fair)
    if profile == "hsm":
        return Machine.hsm(cache_pages=32, stage_pages=64, seed=seed,
                           config=config)
    if profile == "unix_utilities":
        return Machine.unix_utilities(cache_pages=32, seed=seed,
                                      config=config)
    return _zone_aware(seed, config)


def _files(machine: Machine, profile: str, seed: int) -> list[str]:
    """One test file per mount past the root (a tape file on the HSM
    mount, two files on the zone-aware one); returns their paths."""
    size = FILE_PAGES * PAGE_SIZE
    paths = []
    for mount, fs in sorted(machine.filesystems.items()):
        if mount == "/":
            continue
        if mount == "/mnt/hsm":
            fs.create_tape_file("t", size, "VOL000")
            paths.append(f"{mount}/t")
        else:
            fs.create_text_file("f", size, seed=seed)
            paths.append(f"{mount}/f")
    if profile == "zone-aware ext2":
        machine.ext2.create_text_file("g", size, seed=seed + 1)
        paths.append("/mnt/ext2/g")
    return paths


PROFILES = ("unix_utilities", "hsm", "zone-aware ext2")


def _whole_read(kernel, path):
    fd = kernel.open(path)
    kernel.get_sleds(fd)
    yield from kernel.pread_async(fd, 0, FILE_PAGES * PAGE_SIZE)
    kernel.close(fd)


def test_device_tables_fixed_once_built():
    """Every filesystem type's device table — its keys, their order and
    the device objects — is the same after boot, reads, writes, tape
    staging and engine I/O as when the filesystem was built."""
    seen = set()
    for profile in PROFILES:
        machine = _machine(profile, seed=3)
        built = {mount: list(fs.device_table().items())
                 for mount, fs in machine.filesystems.items()}
        seen.update(type(fs) for fs in machine.filesystems.values())
        machine.boot()
        paths = _files(machine, profile, seed=3)
        kernel = machine.kernel
        for path in paths:
            fd = kernel.open(path)
            kernel.read(fd, 4 * PAGE_SIZE)
            kernel.get_sleds(fd)
            kernel.close(fd)
        writable = [path for path in paths if "/mnt/cdrom" not in path]
        fd = kernel.open(writable[0], "a")
        kernel.write(fd, b"x" * 3 * PAGE_SIZE)
        kernel.close(fd)
        engine = kernel.attach_engine(block=BlockConfig(merge=True,
                                                        plug=True))
        EventScheduler(kernel, [Task(path, _whole_read(kernel, path))
                                for path in paths], engine=engine).run()
        for mount, fs in machine.filesystems.items():
            after = list(fs.device_table().items())
            assert [key for key, _ in after] == [key for key, _ in
                                                 built[mount]], mount
            assert all(device is before for (_, device), (_, before)
                       in zip(after, built[mount])), mount

    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    assert seen >= {cls for cls in subclasses(FileSystem)
                    if cls.__module__.startswith("repro.")}


#: one task step: FSLEDS_GET, a stamp read or a ``pread_async`` of
#: ``npages`` from ``page``, on the file at an index into the paths
STEPS = st.one_of(
    st.tuples(st.just("sleds"), st.integers(0, 2)),
    st.tuples(st.just("stamp"), st.integers(0, 2)),
    st.tuples(st.just("read"), st.integers(0, 2),
              st.integers(0, FILE_PAGES - 1), st.integers(1, 6)),
)
TASKS = st.lists(st.tuples(st.sampled_from((None, "a", "b")),
                           st.lists(STEPS, max_size=8)),
                 min_size=1, max_size=3)
BLOCKS = {
    "none": None,
    "both": BlockConfig(merge=True, plug=True, plug_max_requests=3),
}


def _recorded(engine, log: list) -> None:
    """Log every stamp and every delay map ``engine`` hands out."""
    delays, stamp = engine.queue_delays, engine.congestion_stamp

    def queue_delays(fs, now, tenant=None):
        result = delays(fs, now, tenant)
        log.append(("delays", fs.name, now, tenant, list(result.items())))
        return result

    def congestion_stamp(fs):
        result = stamp(fs)
        log.append(("stamp", fs.name, result))
        return result

    engine.queue_delays = queue_delays
    engine.congestion_stamp = congestion_stamp


def _run(profile, seed, fair, block, tasks, per_call):
    machine = _machine(profile, seed, fair)
    machine.boot()
    paths = _files(machine, profile, seed)
    kernel = machine.kernel
    engine = kernel.attach_engine(block=BLOCKS[block])
    if per_call:
        use_per_call_queues(engine)
    log = []
    _recorded(engine, log)

    def body(steps):
        fds = [kernel.open(path) for path in paths]
        # bind every filesystem before the first request makes a plug
        for fd in fds:
            log.append(("vector", tuple(kernel.get_sleds(fd))))
        for step in steps:
            fd = fds[step[1] % len(fds)]
            if step[0] == "sleds":
                log.append(("vector", tuple(kernel.get_sleds(fd))))
            elif step[0] == "stamp":
                log.append(("stamp read", kernel.sleds_stamp(fd)))
            else:
                page, npages = step[2:]
                yield from kernel.pread_async(fd, page * PAGE_SIZE,
                                              npages * PAGE_SIZE)
        for fd in fds:
            kernel.close(fd)

    EventScheduler(kernel, [Task(f"t{i}", body(steps), tenant=tenant)
                            for i, (tenant, steps) in enumerate(tasks)],
                   engine=engine).run()
    return (log, kernel.clock.now,
            [queue.device.name for queue in engine.queues()],
            [plug.device.name for plug in engine.plugs()],
            engine.queue_report())


@settings(deadline=None)
@given(profile=st.sampled_from(PROFILES), seed=st.integers(0, 2**16),
       fair=st.booleans(), block=st.sampled_from(sorted(BLOCKS)),
       tasks=TASKS)
def test_bound_queues_match_per_call_lookups(profile, seed, fair, block,
                                             tasks):
    bound = _run(profile, seed, fair, block, tasks, per_call=False)
    per_call = _run(profile, seed, fair, block, tasks, per_call=True)
    assert bound == per_call
