"""Property test: the engine's fault pipeline against the per-page loops.

``Kernel._fault_in_async`` plans an engine read's span by runs, submits
its miss clusters (a plug takes a span's clusters in one call) and
completes them with one tenant- and shard-aware ``insert_run`` per
contiguous span; it parks after each cluster without a block front, or
once per span through one.  ``tests/oracles/kernel.py`` keeps the
per-page loops it replaced.  Random programs of concurrent tasks —
``read_async``, ``pread_async``, ``lseek``, ``get_sleds``, appends
with ``fsync_async`` and prefetch requests, each task under its own
tenant — run on two identically built machines, one routed through the
oracle, over the joint configuration space: the engine without a block
front, with merge, with plug and with both; 1 or 4 cache shards
rebalanced every few inserts or rarely, with tenant soft and hard
limits; three replacement policies; the fair
elevator; readahead window bounds; a prefetcher; telemetry with or
without time series; and the ext2, cdrom, nfs and hsm filesystems.
Afterwards the whole virtual state must match: clock and categories,
every kernel counter (per tenant too), per-task stats, the bytes read,
residency, per-shard recency, tenant owners, generations, readahead
windows, plug and queue counters, the elevator's DRR state, dispatch
histories, prefetch accounting and the Prometheus and OpenMetrics text.
"""

from __future__ import annotations

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.block.merge import BlockConfig
from repro.cache.page_cache import TenantMemoryLimit
from repro.fs import inode as inode_mod
from repro.machine import Machine, MachineConfig
from repro.obs.telemetry import Telemetry
from repro.sim.prefetch import Prefetcher
from repro.sim.tasks import EventScheduler, Task
from repro.sim.units import PAGE_SIZE

from tests.oracles.kernel import use_per_page_engine_faults
from tests.oracles.residency import resident_keys

PROFILES = ("ext2", "cdrom", "nfs", "hsm")
TENANTS = (None, "a", "b")
#: file of each descriptor a task opens: two on the first file, so two
#: readahead windows walk one inode
FDS = (0, 0, 1)
BLOCKS = {
    "none": None,
    "merge": BlockConfig(merge=True),
    "plug": BlockConfig(plug=True),
    "both": BlockConfig(merge=True, plug=True, plug_max_requests=6),
}


def byte_counts(min_pages, max_pages):
    """Whole pages give or take a few bytes, so spans cover many pages."""
    return st.builds(lambda pages, slack: max(0, pages * PAGE_SIZE - slack),
                     st.integers(min_pages, max_pages),
                     st.sampled_from((0, 1, 100, PAGE_SIZE - 1)))


@st.composite
def configs(draw):
    max_pages = draw(st.integers(1, 16))
    cache_pages = draw(st.integers(8, 48))
    limits = {}
    for tenant in ("a", "b"):
        if draw(st.booleans()):
            soft = draw(st.integers(1, cache_pages))
            hard = draw(st.one_of(st.none(),
                                  st.integers(soft, 2 * cache_pages)))
            limits[tenant] = TenantMemoryLimit(soft_pages=soft,
                                               hard_pages=hard)
    return dict(
        profile=draw(st.sampled_from(PROFILES)),
        seed=draw(st.integers(0, 1000)),
        block=draw(st.sampled_from(tuple(BLOCKS))),
        readahead=(draw(st.integers(1, max_pages)), max_pages),
        cache_pages=cache_pages,
        policy=draw(st.sampled_from(("lru", "lru", "clock", "2q"))),
        shards=draw(st.sampled_from((1, 4))),
        rebalance_every=draw(st.sampled_from((3, 16, 1024))),
        limits=limits or None,
        fair=draw(st.booleans()),
        prefetcher=draw(st.booleans()),
        telemetry=draw(st.sampled_from((None, "plain", "series"))),
        sizes=tuple(draw(byte_counts(1, 40)) for _ in range(2)),
        resident=draw(st.lists(st.tuples(st.integers(0, 1),
                                         st.integers(0, 40)),
                               max_size=16)))


offsets = byte_counts(0, 42)
nbytes = byte_counts(0, 24)
fds = st.integers(0, len(FDS) - 1)
#: the two engine reads drawn twice as often as the other ops
ops = st.one_of(
    st.tuples(st.just("read"), fds, nbytes),
    st.tuples(st.just("pread"), fds, offsets, nbytes),
    st.tuples(st.just("read"), fds, nbytes),
    st.tuples(st.just("pread"), fds, offsets, nbytes),
    st.tuples(st.just("lseek"), fds, offsets),
    st.tuples(st.just("sleds"), fds),
    st.tuples(st.just("append"), st.integers(1, 3 * PAGE_SIZE)),
    st.tuples(st.just("prefetch"), fds, offsets, nbytes))
tasks = st.lists(st.tuples(st.sampled_from(TENANTS),
                           st.lists(ops, min_size=1, max_size=10)),
                 min_size=1, max_size=4)


def _machine(cfg):
    readahead_min, readahead_max = cfg["readahead"]
    common = dict(cache_pages=cfg["cache_pages"], seed=cfg["seed"],
                  policy=cfg["policy"],
                  readahead_min_pages=readahead_min,
                  readahead_max_pages=readahead_max,
                  config=MachineConfig(shards=cfg["shards"],
                                       tenant_limits=cfg["limits"],
                                       fair_elevator=cfg["fair"]))
    if cfg["profile"] == "hsm":
        machine = Machine.hsm(stage_pages=64, **common)
        machine.boot()
        fs = machine.hsmfs
        paths = []
        for i, size in enumerate(cfg["sizes"]):
            fs.create_tape_file(f"f{i}", size, "VOL000")
            paths.append(f"/mnt/hsm/f{i}")
    else:
        machine = Machine.unix_utilities(**common)
        machine.boot()
        fs = machine.filesystems[f"/mnt/{cfg['profile']}"]
        paths = []
        for i, size in enumerate(cfg["sizes"]):
            fs.create_text_file(f"f{i}", size, seed=i)
            paths.append(f"/mnt/{cfg['profile']}/f{i}")
    return machine, fs, paths


def _task(kernel, fs, paths, number, ops, prefetcher, data, errors):
    log = f"/mnt/ext2/log{number}"
    fds = [kernel.open(paths[file]) for file in FDS]
    try:
        for op in ops:
            kind = op[0]
            if kind == "append":
                fd = kernel.open(log, "a")
                try:
                    kernel.write(fd, b"L" * op[1])
                    yield from kernel.fsync_async(fd)
                finally:
                    kernel.close(fd)
                continue
            fd = fds[op[1]]
            if kind == "read":
                data.append((number, (yield from kernel.read_async(
                    fd, op[2]))))
            elif kind == "pread":
                data.append((number, (yield from kernel.pread_async(
                    fd, op[2], op[3]))))
            elif kind == "lseek":
                kernel.lseek(fd, op[2])
            elif kind == "sleds":
                vector = kernel.get_sleds(fd)
                data.append((number, [(s.offset, s.end, s.latency,
                                       s.bandwidth) for s in vector]))
            elif prefetcher is not None:
                of = kernel._fd(fd)
                prefetcher.prefetch_span(fs, of.inode, op[2], op[3])
            yield
    except Exception as exc:  # an op's failure ends its task
        errors.append((number, type(exc).__name__, str(exc)))
    finally:
        for fd in fds:
            kernel.close(fd)


def _run(cfg, program, oracle):
    # telemetry, staging and cache shards key by inode id: number both
    # machines' files (the task logs too) from the same start
    saved = inode_mod._inode_ids
    inode_mod._inode_ids = itertools.count(1_000)
    try:
        return _run_numbered(cfg, program, oracle)
    finally:
        inode_mod._inode_ids = saved


def _run_numbered(cfg, program, oracle):
    machine, fs, paths = _machine(cfg)
    kernel = machine.kernel
    kernel.page_cache.rebalance_every = cfg["rebalance_every"]
    if oracle:
        use_per_page_engine_faults(kernel)
    telemetry = None
    if cfg["telemetry"] is not None:
        telemetry = Telemetry()
        telemetry.attach(kernel)
        if cfg["telemetry"] == "series":
            telemetry.enable_timeseries(interval=0.002, sample_buckets=True)
    engine = kernel.attach_engine(block=BLOCKS[cfg["block"]])
    prefetcher = None
    if cfg["prefetcher"]:
        prefetcher = Prefetcher(kernel, max_run_pages=4).attach()
    inodes = [kernel.resolve(path)[1] for path in paths]
    for file, page in cfg["resident"]:
        if page < inodes[file].npages:
            kernel.page_cache.insert((inodes[file].id, page))
    data, errors = [], []
    tasks = [Task(f"t{number}",
                  _task(kernel, fs, paths, number, ops, prefetcher, data,
                        errors),
                  tenant=tenant)
             for number, (tenant, ops) in enumerate(program)]
    stats = EventScheduler(kernel, tasks, engine=engine).run()
    engine.loop.run_until_idle()
    return _state(kernel, engine, stats, data, errors, telemetry,
                  prefetcher)


def _policy_state(policy):
    return [list(value.items()) if isinstance(value, dict) else value
            for value in (getattr(policy, slot)
                          for slot in type(policy).__slots__)]


def _state(kernel, engine, stats, data, errors, telemetry, prefetcher):
    cache = kernel.page_cache
    state = {
        "clock": kernel.clock.now,
        "categories": sorted(kernel.clock.categories().items()),
        "counters": repr(vars(kernel.counters)),
        "tasks": {name: repr(vars(s)) for name, s in stats.items()},
        "data": data,
        "errors": errors,
        "cache_stats": repr(vars(cache.stats)),
        "resident": resident_keys(cache),
        "recency": [_policy_state(shard.policy) for shard in cache._shards],
        "shards": cache.shard_report(),
        "owners": list(cache._page_tenant.items()),
        "tenant_pages": {tenant: list(pages) for tenant, pages
                         in cache._tenant_pages.items()},
        "generations": sorted(cache._generations.items()),
        "readahead": sorted((fd, of.readahead.state())
                            for fd, of in kernel._fds.items()),
        "plugs": [(plug.device.name, plug._seq, plug.merged_requests,
                   plug.merged_bytes, plug.flushes, plug.plug_wait_total,
                   plug.tenant_requests, plug.tenant_bytes,
                   plug.recent_dispatched_holds())
                  for plug in engine.plugs()],
        "queues": [(queue.device.name, queue.dispatched,
                    queue.depth_high_water, queue.total_queue_wait,
                    queue.congestion_epoch,
                    _elevator_state(queue.scheduler))
                   for queue in engine.queues()],
        "histories": engine.dispatch_histories(),
    }
    if telemetry is not None:
        state["prometheus"] = telemetry.render_prometheus()
        if telemetry.timeseries is not None:
            state["openmetrics"] = telemetry.timeseries.render_openmetrics()
    if prefetcher is not None:
        state["prefetch"] = (prefetcher.issued_pages, prefetcher.used_pages,
                             prefetcher.completed_requests,
                             prefetcher.cancelled_requests,
                             prefetcher.tenant_issued_pages,
                             prefetcher.tenant_used_pages)
    return state


def _elevator_state(scheduler):
    """The fair elevator's DRR state (nothing for position policies)."""
    return (list(getattr(scheduler, "_ring", ())),
            dict(getattr(scheduler, "_deficits", {})),
            getattr(scheduler, "_cursor", None),
            dict(getattr(scheduler, "served_bytes", {})))


def _assert_matches_oracle(cfg, program):
    pipeline = _run(cfg, program, oracle=False)
    reference = _run(cfg, program, oracle=True)
    assert pipeline.keys() == reference.keys()
    for key in reference:
        assert pipeline[key] == reference[key], key


@settings(deadline=None)
@given(cfg=configs(), program=tasks)
def test_engine_pipeline_matches_per_page_oracle(cfg, program):
    _assert_matches_oracle(cfg, program)


def test_oracle_is_routed():
    """The oracle replaces the engine's fault path, and the pipeline
    hands a plug a span's clusters in one call."""
    cfg = dict(profile="ext2", seed=1, readahead=(4, 16), cache_pages=64,
               policy="lru", shards=1, limits=None, fair=False,
               sizes=(32 * PAGE_SIZE, PAGE_SIZE))
    machine, fs, paths = _machine(cfg)
    kernel = machine.kernel
    engine = kernel.attach_engine(block=BLOCKS["both"])
    plug = engine.plug_for(fs.device)
    calls = []
    submit = plug.submit
    plug.submit = lambda fs, inode, runs, **kw: (
        calls.append(list(runs)) or submit(fs, inode, runs, **kw))

    def reader(offset):
        fd = kernel.open(paths[0])
        yield from kernel.pread_async(fd, offset, 4 * PAGE_SIZE)
        kernel.close(fd)

    EventScheduler(kernel, [Task("r", reader(0))], engine=engine).run()
    assert calls == [[(0, 1), (1, 1), (2, 1), (3, 1)]]
    use_per_page_engine_faults(kernel)
    EventScheduler(kernel, [Task("r", reader(8 * PAGE_SIZE))],
                   engine=engine).run()
    assert calls[1:] == [[(8, 1)], [(9, 1)], [(10, 1)], [(11, 1)]]


def test_readahead_marks_of_a_span_that_evicts_itself():
    """An 8-page cluster into a 4-page cache evicts its own first pages
    while it goes in.  The per-page loop marks each readahead page right
    after its insert and the eviction drops the mark again; the pipeline
    marks the span's pages still resident once it is in.  Faulting an
    evicted page back in as a cluster head and hitting it shows whether
    a mark survived."""
    cfg = dict(profile="ext2", seed=3, block="none", readahead=(8, 8),
               cache_pages=4, policy="lru", shards=1, rebalance_every=1024,
               limits=None, fair=False, prefetcher=False, telemetry="plain",
               sizes=(16 * PAGE_SIZE, PAGE_SIZE), resident=[])
    program = [(None, [("read", 0, PAGE_SIZE),
                       ("pread", 1, PAGE_SIZE, PAGE_SIZE),
                       ("pread", 1, PAGE_SIZE, PAGE_SIZE)])]
    _assert_matches_oracle(cfg, program)
