"""Property test: the write pipeline against the per-page write code.

``write`` and ``pwrite`` share one span routine (one ``insert_run`` and
one dirty-set update per written span); one planner turns an inode's
dirty pages into device writes, consumed by one blocking flush
(``fsync``, ``close``, the write threshold, ``sync``) and by
``fsync_async`` under the event engine.  ``tests/oracles/kernel.py``
keeps the code this replaced: per-page inserts and dirty marks, the
blocking ``_writeback`` with its own HSM loop, ``_writeback_requests``,
``_writeback_async``, ``sync`` and ``_flush_inode``.

Random programs run on two identically built machines, one routed
through the oracle, over the joint configuration space: the ext2, nfs
and hsm filesystems (cdrom for the read-only errors), each beside a
log file on a second filesystem; small caches under lru, clock or 2q,
1 or 4 shards, tenant soft and hard caps and tenant switches; a small
writeback threshold, the fcfs, sstf and clook elevators and noise;
telemetry with or without a time series (and forensics) and a cache
observer.  Programs mix ``write`` and ``pwrite`` (overwrites,
appends, sparse writes past the end of the file), ``read``, ``pread``,
``lseek``, ``fsync``, ``sync``, reopening with ``w`` or ``a``, unlink
while open, injected failures and bad ranges, and — with the engine
attached, with or without a merge/plug front — concurrent tasks that
write and ``fsync_async``.  Afterwards the whole state must match:
clock and categories, every counter, the dirty table (key order and
pages), the cache (stats, residency, recency, shards, tenants,
generations), device statistics, HSM staging, offsets, errors, the
engine's queues and dispatch histories, the telemetry exports and the
files' bytes.
"""

from __future__ import annotations

import itertools
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.block.merge import BlockConfig
from repro.block.scheduler import make_scheduler
from repro.cache.page_cache import TenantMemoryLimit
from repro.fs import inode as inode_mod
from repro.machine import Machine, MachineConfig
from repro.obs import LatencyForensics, Telemetry
from repro.sim.tasks import EventScheduler, Task
from repro.sim.units import PAGE_SIZE

from tests.oracles.kernel import use_per_page_writes
from tests.oracles.residency import resident_keys

PROFILES = ("ext2", "nfs", "hsm", "ext2", "nfs", "hsm", "cdrom")
TENANTS = ("a", "b")
#: the file behind each descriptor slot: two on the first file, so two
#: offsets write one inode; the last file is the log on a second
#: filesystem
SLOTS = (0, 0, 1, 2)
ENGINES = {
    None: None,
    "none": None,
    "both": BlockConfig(merge=True, plug=True, plug_max_requests=4),
}


class Recorder:
    """A cache observer that logs every callback it gets."""

    def __init__(self) -> None:
        self.log = []

    def __getattr__(self, name):
        if not name.startswith("on_"):
            raise AttributeError(name)
        return lambda *args, **kwargs: self.log.append(
            (name, args, sorted(kwargs.items())))


def byte_counts(min_pages, max_pages):
    """Whole pages give or take a few bytes, so spans cover many pages."""
    return st.builds(lambda pages, slack: max(0, pages * PAGE_SIZE - slack),
                     st.integers(min_pages, max_pages),
                     st.sampled_from((0, 1, 100, PAGE_SIZE - 1)))


slots = st.integers(0, len(SLOTS) - 1)
offsets = byte_counts(0, 30)
lengths = byte_counts(0, 8)
#: an empty write one time in four
written = st.one_of(byte_counts(1, 8), byte_counts(1, 8), byte_counts(1, 8),
                    st.just(0))
writes = st.one_of(st.tuples(st.just("write"), slots, written),
                   st.tuples(st.just("pwrite"), slots, offsets, written))
failures = st.one_of(
    st.tuples(st.just("fail"), st.integers(0, 1), st.integers(1, 3)),
    st.tuples(st.just("bad"), slots, st.integers(0, 30)))
#: writes drawn four times as often as the other ops
blocking_ops = st.one_of(
    writes, writes, writes, writes,
    st.tuples(st.just("read"), slots, lengths),
    st.tuples(st.just("pread"), slots, offsets, lengths),
    st.tuples(st.just("lseek"), slots, offsets),
    st.tuples(st.just("fsync"), slots),
    st.tuples(st.just("sync")),
    st.tuples(st.just("sync")),
    st.tuples(st.just("reopen"), slots,
              st.sampled_from(("r", "r+", "w", "a"))),
    st.tuples(st.just("unlink"), st.integers(0, 2)),
    failures,
    st.tuples(st.just("clear")),
    st.tuples(st.just("tenant"), st.sampled_from((None,) + TENANTS)))
task_ops = st.one_of(writes, writes, writes,
                     st.tuples(st.just("fsync"), slots),
                     st.tuples(st.just("fsync"), slots),
                     st.tuples(st.just("pread"), slots, offsets, lengths),
                     failures)
tasks = st.tuples(st.just("tasks"),
                  st.lists(st.tuples(st.sampled_from((None,) + TENANTS),
                                     st.lists(task_ops, min_size=1,
                                              max_size=8)),
                           min_size=1, max_size=3))


@st.composite
def cases(draw):
    cache_pages = draw(st.integers(4, 48))
    limits = {}
    for tenant in TENANTS:
        if draw(st.booleans()):
            soft = draw(st.integers(1, cache_pages))
            hard = draw(st.one_of(st.none(),
                                  st.integers(soft, 2 * cache_pages)))
            limits[tenant] = TenantMemoryLimit(soft_pages=soft,
                                               hard_pages=hard)
    telemetry = draw(st.sampled_from((None, None, "plain", "series",
                                      "forensics")))
    cfg = dict(
        profile=draw(st.sampled_from(PROFILES)),
        seed=draw(st.integers(0, 1000)),
        cache_pages=cache_pages,
        policy=draw(st.sampled_from(("lru", "lru", "clock", "2q"))),
        shards=draw(st.sampled_from((1, 4))),
        limits=limits or None,
        threshold=draw(st.sampled_from((1, 6, 16, 256))),
        scheduler=draw(st.sampled_from(("fcfs", "sstf", "clook"))),
        noise=draw(st.booleans()),
        engine=draw(st.sampled_from(tuple(ENGINES))),
        telemetry=telemetry,
        # telemetry installs its own cache observer
        cache_observer=telemetry is None and draw(st.booleans()),
        sizes=tuple(draw(byte_counts(0, 24)) for _ in range(2)))
    ops = blocking_ops
    if cfg["engine"] is not None:
        ops = st.one_of(blocking_ops, tasks)
    return cfg, draw(st.lists(ops, min_size=4, max_size=30))


def _machine(cfg):
    common = dict(cache_pages=cfg["cache_pages"], seed=cfg["seed"],
                  noise=0.25 if cfg["noise"] else 0.0,
                  policy=cfg["policy"],
                  config=MachineConfig(shards=cfg["shards"],
                                       tenant_limits=cfg["limits"]))
    profile = cfg["profile"]
    if profile == "hsm":
        machine = Machine.hsm(stage_pages=64, **common)
        machine.boot()
        fs = machine.hsmfs
        for i, size in enumerate(cfg["sizes"]):
            fs.create_tape_file(f"f{i}", size, "VOL000")
    else:
        machine = Machine.unix_utilities(**common)
        machine.boot()
        fs = machine.filesystems[f"/mnt/{profile}"]
        for i, size in enumerate(cfg["sizes"]):
            fs.create_text_file(f"f{i}", size, seed=i)
    second = "/mnt/nfs" if profile == "ext2" else "/mnt/ext2"
    paths = [f"/mnt/{profile}/f0", f"/mnt/{profile}/f1", f"{second}/log"]
    return machine, [fs, machine.filesystems[second]], paths


def _data(number: int, nbytes: int) -> bytes:
    return bytes([65 + number % 26]) * nbytes


def _inject(kernel, filesystems, fds, op):
    """Arm ``op[2]`` failures on one filesystem's device, or mark the
    device address of a descriptor's file page bad."""
    if op[0] == "fail":
        filesystems[op[1]].device.inject_failures(op[2])
        return
    of = kernel._fds.get(fds[op[1]])
    if of is not None and op[2] < of.inode.npages:
        of.fs.device.mark_bad_range(of.inode.extent_map.addr_of(op[2]),
                                    PAGE_SIZE)


def _task(kernel, filesystems, fds, number, ops, errors):
    """One engine task: writes, ``fsync_async`` and ``pread_async`` on
    the shared descriptors; an op's failure ends the task."""
    try:
        for op in ops:
            kind = op[0]
            if kind in ("fail", "bad"):
                _inject(kernel, filesystems, fds, op)
            elif kind == "write":
                kernel.write(fds[op[1]], _data(number, op[2]))
            elif kind == "pwrite":
                kernel.pwrite(fds[op[1]], op[2], _data(number, op[3]))
            elif kind == "fsync":
                yield from kernel.fsync_async(fds[op[1]])
            else:
                yield from kernel.pread_async(fds[op[1]], op[2], op[3])
            yield
    except Exception as exc:
        errors.append((number, type(exc).__name__, str(exc)))


def _step(kernel, engine, filesystems, paths, fds, number, op):
    """Run one op of the program; returns what it read or ran."""
    kind = op[0]
    if kind == "tenant":
        kernel.current_tenant = op[1]
    elif kind == "sync":
        kernel.sync()
    elif kind == "unlink":
        kernel.unlink(paths[op[1]])
    elif kind in ("fail", "bad"):
        _inject(kernel, filesystems, fds, op)
    elif kind == "clear":
        for fs in filesystems:
            fs.device.clear_failures()
    elif kind == "tasks":
        errors = []
        stats = EventScheduler(kernel, [
            Task(f"t{number}.{i}",
                 _task(kernel, filesystems, fds, number + i, ops, errors),
                 tenant=tenant)
            for i, (tenant, ops) in enumerate(op[1])], engine=engine).run()
        engine.loop.run_until_idle()
        return errors, {name: repr(vars(s)) for name, s in stats.items()}
    else:
        slot = op[1]
        fd = fds[slot]
        if kind == "write":
            return kernel.write(fd, _data(number, op[2]))
        if kind == "pwrite":
            return kernel.pwrite(fd, op[2], _data(number, op[3]))
        if kind == "read":
            return kernel.read(fd, op[2])
        if kind == "pread":
            return kernel.pread(fd, op[2], op[3])
        if kind == "lseek":
            return kernel.lseek(fd, op[2])
        if kind == "fsync":
            return kernel.fsync(fd)
        # reopen: the slot gets the new descriptor, or keeps the closed
        # one (and its EBADF) when the open fails
        kernel.close(fd)
        fds[slot] = kernel.open(paths[SLOTS[slot]], op[2])
    return None


def _run(cfg, program, oracle):
    # telemetry, staging and cache shards key by inode id: number both
    # machines' files from the same start
    saved = inode_mod._inode_ids
    inode_mod._inode_ids = itertools.count(1_000)
    try:
        return _run_numbered(cfg, program, oracle)
    finally:
        inode_mod._inode_ids = saved


def _run_numbered(cfg, program, oracle):
    machine, filesystems, paths = _machine(cfg)
    kernel = machine.kernel
    kernel.writeback_threshold_pages = cfg["threshold"]
    kernel.io_scheduler = make_scheduler(cfg["scheduler"])
    if oracle:
        use_per_page_writes(kernel)
    telemetry = observer = forensics = engine = None
    if cfg["telemetry"] is not None:
        telemetry = Telemetry()
        telemetry.attach(kernel)
        if cfg["telemetry"] != "plain":
            forensics = (LatencyForensics(kernel, top_k=8)
                         if cfg["telemetry"] == "forensics" else None)
            telemetry.enable_timeseries(
                interval=0.002, sample_buckets=True,
                exemplars=forensics.reservoir if forensics else None)
            if forensics is not None:
                forensics.attach(telemetry)
    if cfg["cache_observer"]:
        observer = kernel.page_cache.observer = Recorder()
    if cfg["engine"] is not None:
        engine = kernel.attach_engine(block=ENGINES[cfg["engine"]])
    read_only = filesystems[0].read_only
    fds = [kernel.open(paths[file], "w" if file == 2
                       else "r" if read_only else "r+")
           for file in SLOTS]
    # every inode a descriptor held, unlinked ones included, for the bytes
    inodes = {kernel._fds[fd].inode.id: kernel._fds[fd].inode
              for fd in fds}
    out = []
    for number, op in enumerate(program):
        try:
            out.append(_step(kernel, engine, filesystems, paths, fds,
                             number, op))
        except Exception as exc:
            out.append((type(exc).__name__, str(exc)))
        for fd in fds:
            if fd in kernel._fds:
                inode = kernel._fds[fd].inode
                inodes[inode.id] = inode
    return _state(kernel, engine, filesystems, fds, inodes, out, telemetry,
                  forensics, observer)


def _policy_state(policy):
    return [list(value.items()) if isinstance(value, dict) else value
            for value in (getattr(policy, slot)
                          for slot in type(policy).__slots__)]


def _state(kernel, engine, filesystems, fds, inodes, out, telemetry,
           forensics, observer):
    cache = kernel.page_cache
    devices = {id(device): device for fs in filesystems
               for device in fs.observable_devices()}
    state = {
        "out": out,
        "clock": kernel.clock.now,
        "categories": sorted(kernel.clock.categories().items()),
        "counters": repr(vars(kernel.counters)),
        "dirty": [(inode_id, fs.name, inode.id, sorted(pages))
                  for inode_id, (fs, inode, pages) in kernel._dirty.items()],
        "cache_stats": repr(vars(cache.stats)),
        "resident": resident_keys(cache),
        "recency": [_policy_state(shard.policy) for shard in cache._shards],
        "shards": cache.shard_report(),
        "tenants": cache.tenant_report(),
        "owners": list(cache._page_tenant.items()),
        "generations": sorted(cache._generations.items()),
        "devices": [(device.name, repr(vars(device.stats)),
                     device.busy_until,
                     sorted(device.component_totals.items()))
                    for device in devices.values()],
        "staged": [list(getattr(fs, "_staged", ())) for fs in filesystems],
        "offsets": [kernel._fds[fd].pos if fd in kernel._fds else None
                    for fd in fds],
        "files": sorted((inode_id, inode.size, inode.mtime,
                         inode.content.read(0, inode.size))
                        for inode_id, inode in inodes.items()),
    }
    if engine is not None:
        state["queues"] = [(queue.device.name, queue.dispatched,
                            queue.depth_high_water, queue.total_queue_wait,
                            queue.congestion_epoch)
                           for queue in engine.queues()]
        state["histories"] = {
            name: [record.to_dict() for record in records]
            for name, records in engine.dispatch_histories().items()}
    if telemetry is not None:
        state["prometheus"] = telemetry.render_prometheus()
        state["chrome_trace"] = json.dumps(telemetry.chrome_trace(),
                                           sort_keys=True)
        state["lifecycle"] = json.dumps(telemetry.lifecycle.to_dict(),
                                        sort_keys=True)
        state["telemetry"] = json.dumps(telemetry.to_dict(), sort_keys=True)
        if telemetry.timeseries is not None:
            state["openmetrics"] = telemetry.timeseries.render_openmetrics()
    if forensics is not None:
        state["forensics"] = json.dumps(forensics.analyze(top=5).to_dict(),
                                        sort_keys=True)
    if observer is not None:
        state["observed"] = observer.log
    return state


def _assert_matches_oracle(cfg, program):
    pipeline = _run(cfg, program, oracle=False)
    reference = _run(cfg, program, oracle=True)
    assert pipeline.keys() == reference.keys()
    for key in reference:
        assert pipeline[key] == reference[key], key


@settings(deadline=None)
@given(case=cases())
def test_write_pipeline_matches_per_page_oracle(case):
    _assert_matches_oracle(*case)


def test_oracle_is_routed():
    """The oracle replaces every write path: the pipeline makes a span
    resident with one ``insert_run``, the oracle page by page."""
    cfg = dict(profile="ext2", seed=1, cache_pages=64, policy="lru",
               shards=1, limits=None, noise=False, sizes=(0, 0))
    machine, _, paths = _machine(cfg)
    kernel = machine.kernel
    calls = []
    cache = kernel.page_cache
    insert = cache.insert
    cache.insert = lambda *args: calls.append("insert") or insert(*args)
    insert_run = cache.insert_run
    cache.insert_run = (
        lambda *args: calls.append("insert_run") or insert_run(*args))
    fd = kernel.open(paths[0], "w")
    kernel.write(fd, b"x" * (3 * PAGE_SIZE))
    assert calls == ["insert_run"]
    use_per_page_writes(kernel)
    kernel.pwrite(fd, 0, b"y" * (3 * PAGE_SIZE))
    assert calls[1:] == ["insert"] * 3
    written = kernel.counters.pages_written
    kernel.fsync(fd)
    assert kernel.counters.pages_written == written + 3
