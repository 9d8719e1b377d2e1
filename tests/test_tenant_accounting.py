"""Cross-tenant attribution regression tests.

The leak being pinned down: speculative and coalesced I/O used to be
billed to whichever context happened to be running at dispatch time —
the prefetcher's pump runs inside completion callbacks (no task, no
tenant) and the block layer happily merged adjacent requests from
different tenants into one dispatch.  These tests assert the fixes:

* the plug/merge stage never coalesces requests across tenants, and
  accounts submitted requests/bytes to the owning tenant;
* the prefetcher charges speculation to the tenant that *planned* it,
  wherever the pump happens to run;
* per-tenant kernel counters (hits/misses/evictions) survive the
  ``ProcessRun`` copy/delta machinery and export through telemetry;
* every eviction an insert performs (hard-cap self-evictions and
  rebalances included) reaches the kernel counters with its owner, on
  the read, write, pwrite and prefetch paths;
* tenant-labeled SLO families route past-cap tenants into the
  ``_overflow`` series instead of growing without bound.
"""

import pytest

from repro.block.merge import BlockConfig, FaultRun
from repro.cache import TenantMemoryLimit
from repro.machine import Machine, MachineConfig
from repro.obs import Telemetry
from repro.obs.lifecycle import LifecycleRecord
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import SloTarget, SloTracker
from repro.sim.events import IoFuture
from repro.sim.prefetch import Prefetcher
from repro.sim.tasks import EventScheduler, Task
from repro.sim.units import PAGE_SIZE

MERGE_ALL = BlockConfig(merge=True, plug=True)


def _record(i, tenant, latency=0.5, task="r0", cls="disk"):
    return LifecycleRecord(
        id=i, kind="fault", task=task, fs="ext2", device_class=cls,
        inode=1, page=0, cluster=1, nbytes=PAGE_SIZE,
        submit_time=0.0, start_time=0.0, finish_time=latency,
        components=(), tenant=tenant)


def _plug_batch(spec):
    """A real ext2 PlugQueue plus hand-built two-page FaultRuns.

    ``spec`` is a list of ``(page, tenant)``; consecutive entries two
    pages apart are extent-adjacent, i.e. mergeable but for tenancy.
    """
    machine = Machine.unix_utilities(cache_pages=256, seed=9401)
    machine.boot()
    machine.ext2.create_text_file("f", 16 * PAGE_SIZE, seed=2)
    kernel = machine.kernel
    engine = kernel.attach_engine(block=MERGE_ALL)
    fs, inode, _ = kernel.resolve("/mnt/ext2/f")
    plug = engine.plug_for(fs.device)
    runs = [FaultRun(fs=fs, inode=inode, page=page, cluster=2,
                     addr=inode.extent_map.addr_of(page),
                     nbytes=2 * PAGE_SIZE, future=IoFuture(f"r{i}"),
                     submit_time=0.0, seq=i, tenant=tenant)
            for i, (page, tenant) in enumerate(spec)]
    return plug, runs


def _run_interleaved(tenants, pages=32, seed=11):
    """Two interleaved striding readers over one ext2 file, merge on."""
    machine = Machine.unix_utilities(cache_pages=256, seed=9000 + seed)
    machine.boot()
    machine.ext2.create_text_file("f", pages * PAGE_SIZE, seed=seed)
    kernel = machine.kernel
    telemetry = Telemetry()
    telemetry.attach(kernel)
    engine = kernel.attach_engine(block=MERGE_ALL)
    nchunks = pages // 2

    def reader(start):
        fd = kernel.open("/mnt/ext2/f")
        for chunk in range(start, nchunks, 2):
            yield from kernel.pread_async(
                fd, chunk * 2 * PAGE_SIZE, 2 * PAGE_SIZE)
        kernel.close(fd)

    tasks = [Task(f"r{i}", reader(i), tenant=tenants[i])
             for i in range(2)]
    EventScheduler(kernel, tasks, engine=engine).run()
    return machine, engine, telemetry


class TestPlugTenantIsolation:
    def test_same_tenant_requests_still_merge(self):
        _, engine, _ = _run_interleaved(["t0", "t0"])
        assert sum(p.merged_requests for p in engine.plugs()) > 0

    def test_coalesce_groups_never_span_tenants(self):
        """The batch partition refuses to bridge tenants even for
        perfectly adjacent extents of the same inode."""
        plug, runs = _plug_batch(
            [(0, "t0"), (2, "t0"), (4, "t1"), (6, "t1")])
        groups = plug._coalesce(runs)
        assert [[r.page for r in g] for g in groups] == [[0, 2], [4, 6]]
        assert all(len({r.tenant for r in g}) == 1 for g in groups)

    def test_coalesce_merges_same_batch_under_one_tenant(self):
        """Control: the identical batch collapses to one group when all
        runs belong to the same tenant."""
        plug, runs = _plug_batch(
            [(0, "t0"), (2, "t0"), (4, "t0"), (6, "t0")])
        groups = plug._coalesce(runs)
        assert [[r.page for r in g] for g in groups] == [[0, 2, 4, 6]]

    def test_untenanted_runs_form_their_own_group(self):
        plug, runs = _plug_batch([(0, None), (2, "t0")])
        groups = plug._coalesce(runs)
        assert [[r.page for r in g] for g in groups] == [[0], [2]]

    def test_cross_tenant_adjacency_merges_less_end_to_end(self):
        """Interleaved readers whose adjacent chunks belong to different
        tenants lose exactly the cross-task merges; intra-tenant
        (readahead) merges survive in both runs."""
        _, same, _ = _run_interleaved(["t0", "t0"], seed=12)
        _, distinct, _ = _run_interleaved(["t0", "t1"], seed=12)
        same_merges = sum(p.merged_requests for p in same.plugs())
        distinct_merges = sum(p.merged_requests
                              for p in distinct.plugs())
        assert same_merges > distinct_merges

    def test_plug_accounts_bytes_to_owning_tenant(self):
        _, engine, _ = _run_interleaved(["t0", "t1"])
        requests = {}
        nbytes = {}
        for plug in engine.plugs():
            for tenant, n in plug.tenant_requests.items():
                requests[tenant] = requests.get(tenant, 0) + n
            for tenant, n in plug.tenant_bytes.items():
                nbytes[tenant] = nbytes.get(tenant, 0) + n
        assert set(requests) == {"t0", "t1"}
        assert requests["t0"] > 0 and requests["t1"] > 0
        assert nbytes["t0"] > 0 and nbytes["t1"] > 0

    def test_lifecycle_records_carry_tenant(self):
        _, _, telemetry = _run_interleaved(["t0", "t1"])
        tenants = {rec.tenant for rec in telemetry.lifecycle.records
                   if rec.kind == "fault"}
        assert tenants == {"t0", "t1"}
        assert all("tenant" in rec.to_dict()
                   for rec in telemetry.lifecycle.records)

    def test_untenanted_records_have_no_tenant(self):
        _, _, telemetry = _run_interleaved([None, None])
        assert all(rec.tenant is None
                   for rec in telemetry.lifecycle.records)


class TestPrefetcherTenantCapture:
    def _machine(self):
        machine = Machine.unix_utilities(cache_pages=256, seed=9402)
        machine.boot()
        machine.ext2.create_text_file("big.dat", 64 * PAGE_SIZE, seed=7)
        return machine

    def test_speculation_charged_to_planning_tenant(self):
        """The pump may run from completion callbacks where no tenant is
        current; bytes must still be billed to the planner."""
        machine = self._machine()
        kernel = machine.kernel
        telemetry = Telemetry()
        telemetry.attach(kernel)
        engine = kernel.attach_engine()
        prefetcher = Prefetcher(kernel, engine).attach()
        fd = kernel.open("/mnt/ext2/big.dat")
        kernel.current_tenant = "tenA"
        planned = prefetcher.prefetch_fd(fd)
        kernel.current_tenant = None  # completion context has no tenant
        engine.loop.run_until_idle()
        assert planned > 0
        assert prefetcher.tenant_issued_pages.get("tenA", 0) > 0
        assert kernel.page_cache.tenant_resident_count("tenA") > 0
        prefetch_tenants = {rec.tenant
                            for rec in telemetry.lifecycle.records
                            if rec.kind == "prefetch"}
        assert prefetch_tenants == {"tenA"}
        kernel.close(fd)

    def test_used_pages_attributed_to_owner(self):
        machine = self._machine()
        kernel = machine.kernel
        engine = kernel.attach_engine()
        prefetcher = Prefetcher(kernel, engine).attach()
        fd = kernel.open("/mnt/ext2/big.dat")
        kernel.current_tenant = "tenA"
        prefetcher.prefetch_span(machine.ext2,
                                 kernel.resolve("/mnt/ext2/big.dat")[1],
                                 0, 8 * PAGE_SIZE)
        kernel.current_tenant = None
        engine.loop.run_until_idle()
        kernel.pread(fd, 0, 8 * PAGE_SIZE)  # untenanted demand read
        assert prefetcher.used_pages > 0
        assert prefetcher.tenant_used_pages.get("tenA") == \
            prefetcher.used_pages
        kernel.close(fd)

    def test_untenanted_prefetch_keeps_dicts_empty(self):
        machine = self._machine()
        kernel = machine.kernel
        engine = kernel.attach_engine()
        prefetcher = Prefetcher(kernel, engine).attach()
        fd = kernel.open("/mnt/ext2/big.dat")
        prefetcher.prefetch_fd(fd)
        engine.loop.run_until_idle()
        kernel.pread(fd, 0, 8 * PAGE_SIZE)
        assert prefetcher.issued_pages > 0
        assert prefetcher.tenant_issued_pages == {}
        assert prefetcher.tenant_used_pages == {}
        kernel.close(fd)


class TestPerTenantCounters:
    def test_counters_split_by_tenant(self):
        machine = Machine.unix_utilities(cache_pages=32, seed=9403)
        machine.boot()
        machine.ext2.create_text_file("f", 48 * PAGE_SIZE, seed=3)
        kernel = machine.kernel
        engine = kernel.attach_engine()

        def reader(start):
            fd = kernel.open("/mnt/ext2/f")
            for chunk in range(start, 24, 2):
                yield from kernel.pread_async(
                    fd, chunk * 2 * PAGE_SIZE, 2 * PAGE_SIZE)
            kernel.close(fd)

        tasks = [Task(f"r{i}", reader(i), tenant=f"t{i}")
                 for i in range(2)]
        with kernel.process() as run:
            EventScheduler(kernel, tasks, engine=engine).run()
        counters = run.counters
        assert set(counters.tenant_cache_misses) == {"t0", "t1"}
        assert all(n > 0 for n in counters.tenant_cache_misses.values())
        assert sum(counters.tenant_cache_misses.values()) <= \
            counters.cache_misses
        # the 32-page cache churned under 48 pages of file: evictions
        # must be attributed to the page owners
        assert counters.evictions > 0
        assert sum(counters.tenant_evictions.values()) > 0

    def test_process_delta_keeps_only_window_activity(self):
        machine = Machine.unix_utilities(cache_pages=256, seed=9404)
        machine.boot()
        machine.ext2.create_text_file("f", 8 * PAGE_SIZE, seed=5)
        kernel = machine.kernel
        engine = kernel.attach_engine()

        def reader():
            fd = kernel.open("/mnt/ext2/f")
            yield from kernel.pread_async(fd, 0, 8 * PAGE_SIZE)
            kernel.close(fd)

        EventScheduler(kernel, [Task("warm", reader(), tenant="early")],
                       engine=engine).run()
        with kernel.process() as run:
            EventScheduler(kernel, [Task("w2", reader(), tenant="late")],
                           engine=engine).run()
        # the warm tenant's counts predate the window: delta drops them
        assert "early" not in run.counters.tenant_cache_misses
        assert run.counters.tenant_cache_hits.get("late", 0) > 0

    def test_snapshot_exports_tenant_counters(self):
        machine = Machine.unix_utilities(cache_pages=256, seed=9405)
        machine.boot()
        machine.ext2.create_text_file("f", 4 * PAGE_SIZE, seed=6)
        kernel = machine.kernel
        telemetry = Telemetry()
        telemetry.attach(kernel)
        engine = kernel.attach_engine()

        def reader():
            fd = kernel.open("/mnt/ext2/f")
            yield from kernel.pread_async(fd, 0, 4 * PAGE_SIZE)
            kernel.close(fd)

        EventScheduler(kernel, [Task("r", reader(), tenant="t0")],
                       engine=engine).run()
        telemetry.snapshot()  # must not crash on dict counters
        gauge = telemetry.registry.get("kernel_counter_tenant").labels(
            name="tenant_cache_misses", tenant="t0")
        assert gauge.value > 0
        text = telemetry.render_prometheus()
        assert 'repro_kernel_counter_tenant{name="tenant_cache_misses"' \
            ',tenant="t0"}' in text


class TestEvictionAccounting:
    def test_every_eviction_reaches_the_kernel_with_its_owner(self):
        limits = {f"t{i}": TenantMemoryLimit(soft_pages=12, hard_pages=16)
                  for i in range(3)}
        machine = Machine.unix_utilities(
            cache_pages=64, seed=9407,
            config=MachineConfig(shards=4, tenant_limits=limits,
                                 fair_elevator=True))
        machine.boot()
        for i in range(3):
            machine.ext2.create_text_file(f"f{i}", 48 * PAGE_SIZE, seed=i)
        kernel = machine.kernel
        cache = kernel.page_cache
        cache.rebalance_every = 32
        engine = kernel.attach_engine(block=MERGE_ALL)
        prefetcher = Prefetcher(kernel, engine).attach()

        def client(i):
            fd = kernel.open(f"/mnt/ext2/f{i}")
            prefetcher.prefetch_fd(fd, budget_bytes=16 * PAGE_SIZE)
            for chunk in range(0, 24, 3):
                yield from kernel.pread_async(
                    fd, chunk * 2 * PAGE_SIZE, 2 * PAGE_SIZE)
                yield from kernel.read_async(fd, 2 * PAGE_SIZE)
            kernel.close(fd)
            fd = kernel.open(f"/mnt/ext2/log{i}", "w")
            kernel.write(fd, b"w" * 12 * PAGE_SIZE)
            kernel.pwrite(fd, 20 * PAGE_SIZE, b"p" * 12 * PAGE_SIZE)
            kernel.close(fd)

        stats = cache.stats
        evictions = stats.evictions
        by_owner = dict(stats.tenant_evictions)
        with kernel.process() as run:
            EventScheduler(kernel, [Task(f"c{i}", client(i), tenant=f"t{i}")
                                    for i in range(3)],
                           engine=engine).run()
            # an untenanted blocking reader evicts tenant pages too
            fd = kernel.open("/mnt/ext2/f0")
            kernel.read(fd, 48 * PAGE_SIZE)
            kernel.close(fd)
        # the run exercised every eviction kind this can lose
        assert stats.tenant_hard_evictions > 0
        assert stats.tenant_soft_evictions > 0
        assert stats.rebalances > 0
        assert prefetcher.issued_pages > 0
        assert run.counters.evictions == stats.evictions - evictions > 0
        assert run.counters.tenant_evictions == {
            owner: count - by_owner.get(owner, 0)
            for owner, count in stats.tenant_evictions.items()
            if count != by_owner.get(owner, 0)}


class TestSloTenantFamilies:
    def _tracker(self, registry=None, **kw):
        targets = [SloTarget(name="all", cls="*", latency_objective=0.1)]
        return SloTracker(targets, registry=registry,
                          track_tenants=True, **kw)

    def test_tenant_rows_roll_up(self):
        tracker = self._tracker()
        for i in range(4):
            tracker.observe(_record(i, "fast", latency=0.01))
        for i in range(4, 8):
            tracker.observe(_record(i, "slow", latency=0.5))
        rows = {row["tenant"]: row for row in tracker.tenant_rows()}
        assert rows["fast"]["compliance"] == 1.0
        assert rows["slow"]["compliance"] == 0.0
        assert rows["slow"]["burn_rate"] > 1.0
        assert rows["slow"]["p50_s"] == pytest.approx(0.5)
        assert "tenants" in tracker.to_dict()
        assert "slow" in tracker.render_tenants()

    def test_untenanted_records_not_rolled_up(self):
        tracker = self._tracker()
        tracker.observe(_record(0, None))
        assert tracker.tenant_rows() == []

    def test_target_glob_matches_tenant_label(self):
        target = SloTarget(name="team", cls="*", latency_objective=1.0,
                           tenant="team-*")
        assert target.matches(_record(0, "team-a", task="r9"))
        assert not target.matches(_record(1, "other", task="team-a"))
        # untenanted records keep the historical task-name fallback
        assert target.matches(_record(2, None, task="team-batch"))

    def test_overflow_routing_under_cardinality_cap(self):
        registry = MetricsRegistry(max_label_cardinality=4)
        tracker = self._tracker(registry=registry)
        with pytest.warns(RuntimeWarning, match="cardinality"):
            for i in range(10):
                tracker.observe(_record(i, f"tenant-{i}", latency=0.5))
        family = registry.get("slo_tenant_requests_total")
        assert family.overflows > 0
        children = {tuple(labels.values()): child.value
                    for labels, child in family.children()}
        assert ("_overflow",) in children
        assert children[("_overflow",)] == 6  # 10 tenants, cap 4
        violations = registry.get("slo_tenant_violations_total")
        assert violations.labels(tenant="_overflow").value > 0
        # the rollup itself still tracks every tenant exactly
        assert len(tracker.tenant_rows()) == 10
