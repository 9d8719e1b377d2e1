"""Property test: the blocking fault pipeline against the per-page loop.

``Kernel._fault_in`` plans a blocking read's span by runs, services it by
cluster (batching runs of one-page clusters through ``Device.read_run``)
and inserts each cluster in one step.  ``tests/oracles/kernel.py`` keeps
the per-page loop it replaced.  Random programs of ``read``, ``pread``,
``lseek`` and ``MappedRegion.read`` run on two identically built
machines, one routed through the oracle, over the joint configuration
space: readahead window bounds (equal and non-power-of-two pairs
included), random pre-resident pages and caches smaller than one span,
replacement policies, 1 or 4 shards with tenant soft/hard limits, noise,
a prefetcher, telemetry with time series, bare cache and device
observers, and the ext2, cdrom, nfs and hsm filesystems.  Afterwards the whole virtual state must match:
clock and categories, every kernel counter, the cache (stats, residency,
recency, shards, tenants), every readahead window, device statistics and
component totals, staging, prefetch accounting and the telemetry export
(Prometheus text, OpenMetrics time series, every span).
"""

from __future__ import annotations

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.page_cache import TenantMemoryLimit
from repro.fs import inode as inode_mod
from repro.machine import Machine, MachineConfig
from repro.obs.telemetry import Telemetry
from repro.sim.prefetch import Prefetcher
from repro.sim.units import PAGE_SIZE

from tests.oracles.kernel import use_per_page_faults
from tests.oracles.residency import resident_keys

PROFILES = ("ext2", "cdrom", "nfs", "hsm")
TENANTS = ("a", "b")
#: (file, fd) pairs: two descriptors on the first file, so two readahead
#: windows walk one inode
FDS = (0, 0, 1)


#: what may watch or perturb each fault: noise, telemetry (with time
#: series), or a bare cache or device observer
HOOKS = ("noise", "telemetry", "cache", "device")
one_hook = st.sampled_from(HOOKS).map(lambda hook: {hook})


class Recorder:
    """A cache or device observer that logs every callback it gets."""

    def __init__(self) -> None:
        self.log = []

    def __getattr__(self, name):
        if not name.startswith("on_"):
            raise AttributeError(name)
        return lambda *args, **kwargs: self.log.append(
            (name, tuple(getattr(a, "name", a) for a in args),
             sorted(kwargs.items())))


#: none or one as often as several: each hook alone decides whether runs
#: of one-page clusters may batch
any_hooks = st.one_of(st.just(set()), one_hook, one_hook,
                      st.sets(st.sampled_from(HOOKS), max_size=3))


@st.composite
def configs(draw, hooks=any_hooks, max_pages=st.integers(1, 24)):
    max_pages = draw(max_pages)
    cache_pages = draw(st.integers(4, 48))
    limits = None
    if draw(st.booleans()):
        soft = draw(st.integers(1, cache_pages))
        hard = draw(st.one_of(st.none(), st.integers(soft, 2 * cache_pages)))
        limits = {"a": TenantMemoryLimit(soft_pages=soft, hard_pages=hard)}
    return dict(
        profile=draw(st.sampled_from(PROFILES)),
        seed=draw(st.integers(0, 1000)),
        readahead=(draw(st.integers(1, max_pages)), max_pages),
        cache_pages=cache_pages,
        policy=draw(st.sampled_from(("lru", "lru", "clock", "2q"))),
        shards=draw(st.sampled_from((1, 4))),
        limits=limits,
        tenant=draw(st.sampled_from((None, "a"))),
        prefetcher=draw(st.booleans()),
        hooks=draw(hooks),
        sizes=tuple(draw(byte_counts(1, 40)) for _ in range(2)),
        resident=draw(st.lists(st.tuples(st.integers(0, 1),
                                         st.integers(0, 40)),
                               max_size=24)))


def byte_counts(min_pages, max_pages):
    """Whole pages give or take a few bytes, so spans cover many pages."""
    return st.builds(lambda pages, slack: max(0, pages * PAGE_SIZE - slack),
                     st.integers(min_pages, max_pages),
                     st.sampled_from((0, 1, 100, PAGE_SIZE - 1)))


offsets = byte_counts(0, 42)
nbytes = byte_counts(0, 24)
fds = st.integers(0, len(FDS) - 1)
preads = st.tuples(st.just("pread"), fds, offsets, nbytes)
reads = st.tuples(st.just("read"), fds, nbytes)
mmap_reads = st.tuples(st.just("mmap"), fds, offsets, nbytes)
tenant_switches = st.tuples(st.just("tenant"),
                            st.sampled_from((None,) + TENANTS))
#: the three blocking reads drawn twice as often as the other ops
programs = st.lists(
    st.one_of(reads, preads, mmap_reads, reads, preads, mmap_reads,
              st.tuples(st.just("lseek"), fds, offsets),
              st.tuples(st.just("prefetch"), fds, offsets, nbytes),
              tenant_switches),
    min_size=8, max_size=40)


def _machine(cfg):
    readahead_min, readahead_max = cfg["readahead"]
    common = dict(cache_pages=cfg["cache_pages"], seed=cfg["seed"],
                  noise=0.25 if "noise" in cfg["hooks"] else 0.0,
                  policy=cfg["policy"],
                  readahead_min_pages=readahead_min,
                  readahead_max_pages=readahead_max,
                  config=MachineConfig(shards=cfg["shards"],
                                       tenant_limits=cfg["limits"]))
    # telemetry and staging key by inode id: number both machines' files
    # from the same start
    saved = inode_mod._inode_ids
    inode_mod._inode_ids = itertools.count(1_000)
    try:
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
    finally:
        inode_mod._inode_ids = saved
    return machine, fs, paths


def _run(cfg, program, oracle):
    machine, fs, paths = _machine(cfg)
    kernel = machine.kernel
    if oracle:
        use_per_page_faults(kernel)
    hooks = cfg["hooks"]
    telemetry = prefetcher = observer = None
    if "telemetry" in hooks:
        telemetry = Telemetry()
        telemetry.attach(kernel)
        telemetry.enable_timeseries(interval=0.002, sample_buckets=True)
    elif hooks & {"cache", "device"}:
        # telemetry installs its own observers on both
        observer = Recorder()
        if "cache" in hooks:
            kernel.page_cache.observer = observer
        if "device" in hooks:
            for device in fs.observable_devices():
                device.observer = observer
    if cfg["prefetcher"]:
        kernel.attach_engine()
        prefetcher = Prefetcher(kernel, max_run_pages=4).attach()
    fds = [kernel.open(paths[file]) for file in FDS]
    inodes = [kernel._fd(fd).inode for fd in fds]
    for file, page in cfg["resident"]:
        inode = inodes[FDS.index(file)]
        if page < inode.npages:
            kernel.page_cache.insert((inode.id, page))
    kernel.current_tenant = cfg["tenant"]
    regions = {}
    data = []
    for op in program:
        kind = op[0]
        if kind == "tenant":
            kernel.current_tenant = op[1]
            continue
        fd = fds[op[1]]
        if kind == "read":
            data.append(kernel.read(fd, op[2]))
        elif kind == "pread":
            data.append(kernel.pread(fd, op[2], op[3]))
        elif kind == "lseek":
            kernel.lseek(fd, op[2])
        elif kind == "mmap":
            if fd not in regions:
                regions[fd] = kernel.mmap(fd)
            data.append(regions[fd].read(op[2], op[3]))
        elif prefetcher is not None:
            prefetcher.prefetch_span(fs, inodes[op[1]], op[2], op[3])
            kernel.engine.loop.run_until_idle()
    state = _state(kernel, fs, fds, data, telemetry, prefetcher)
    if observer is not None:
        state["observed"] = observer.log
    return state


def _policy_state(policy):
    out = []
    for slot in type(policy).__slots__:
        value = getattr(policy, slot)
        out.append(list(value.items()) if isinstance(value, dict)
                   else value)
    return out


def _state(kernel, fs, fds, data, telemetry, prefetcher):
    cache = kernel.page_cache
    state = {
        "clock": kernel.clock.now,
        "categories": sorted(kernel.clock.categories().items()),
        "counters": repr(vars(kernel.counters)),
        "cache_stats": repr(vars(cache.stats)),
        "resident": resident_keys(cache),
        "recency": [_policy_state(shard.policy) for shard in cache._shards],
        "shards": cache.shard_report(),
        "tenants": cache.tenant_report(),
        "readahead": [kernel._fd(fd).readahead.state() for fd in fds],
        "devices": [(device.name, repr(vars(device.stats)),
                     device.busy_until,
                     sorted(device.component_totals.items()))
                    for device in fs.observable_devices()],
        "staged": list(getattr(fs, "_staged", ())),
        "data": data,
    }
    if telemetry is not None:
        state["prometheus"] = telemetry.render_prometheus()
        state["timeseries"] = telemetry.timeseries.render_openmetrics()
        state["telemetry"] = telemetry.to_dict()
        state["spans"] = telemetry.spans.spans()
    if prefetcher is not None:
        state["prefetch"] = (prefetcher.issued_pages, prefetcher.used_pages,
                             prefetcher.tenant_used_pages)
    return state


def _assert_matches_oracle(cfg, program):
    pipeline = _run(cfg, program, oracle=False)
    reference = _run(cfg, program, oracle=True)
    for key in reference:
        assert pipeline[key] == reference[key], key


@settings(deadline=None)
@given(cfg=configs(), program=programs)
def test_pipeline_matches_per_page_oracle(cfg, program):
    _assert_matches_oracle(cfg, program)


@settings(deadline=None)
@given(cfg=configs(hooks=st.sampled_from(
           (set(), {"noise"}, {"cache"}, {"device"})),
                   max_pages=st.sampled_from((1, 1, 4))),
       program=st.lists(st.one_of(preads, preads, reads, tenant_switches),
                        min_size=4, max_size=24))
def test_one_page_clusters_match_per_page_oracle(cfg, program):
    """Runs of one-page clusters (``pread``, or a one-page readahead
    window) batch only while no hook watches or perturbs each fault; a
    lone hook must send them down the per-cluster path."""
    _assert_matches_oracle(cfg, program)


def test_oracle_is_routed():
    """The oracle replaces the kernel's fault path, and the pipeline's
    batched one-page clusters really run on the unobserved pread path."""
    cfg = dict(profile="ext2", seed=1, readahead=(4, 16), cache_pages=64,
               policy="lru", shards=1, limits=None, hooks=set(),
               sizes=(32 * PAGE_SIZE, PAGE_SIZE))
    machine, _, paths = _machine(cfg)
    kernel = machine.kernel
    calls = []
    device = machine.ext2.device
    read_run = device.read_run
    device.read_run = lambda *args: calls.append(args) or read_run(*args)
    fd = kernel.open(paths[0])
    kernel.pread(fd, 0, 8 * PAGE_SIZE)
    assert [npages for _, npages, _ in calls] == [8]
    use_per_page_faults(kernel)
    kernel.pread(fd, 16 * PAGE_SIZE, 8 * PAGE_SIZE)
    assert len(calls) == 1
