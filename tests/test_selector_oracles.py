"""Property tests: the indexed and batched hot paths agree with the
per-item code they replaced.

* :meth:`PageCache._soft_victim` takes the first unpinned key of the
  evicting shard's per-tenant bucket, where the reference
  (:class:`tests.oracles.cache.LinearSoftVictimCache`) scans every page
  the tenant owns and filters by shard;
* :meth:`PageCache.insert_run` inserts a run of one inode's pages in one
  call, where the reference is one :meth:`PageCache.insert` per page;
* a replacement policy takes a hit run in one ``on_hit_run`` call and
  gives ``k`` victims as runs from one ``choose_victims(k)`` call, where
  the reference is one ``on_hit`` per page and ``k`` ``choose_victim``
  calls;
* :meth:`FairScheduler.take_next` buckets ``pending`` by tenant in one
  pass, where the reference
  (:class:`tests.oracles.scheduler.MultiPassFairScheduler`) rescans the
  list on every ring visit;
* a :class:`DeviceQueue` keeps its pending requests bucketed by tenant
  for the fair elevator, where the reference
  (:class:`tests.oracles.scheduler.ScanningDeviceQueue`) hands the
  multi-pass elevator its whole pending list and scans it for delay
  estimates.

Each test drives the production code and its oracle through the same
random program and compares their whole observable state after every
step.  The tests set no ``max_examples``, so a hypothesis profile
(``--hypothesis-profile=oracle``, see ``conftest.py``) sets their budget.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from repro.block.scheduler import (DeviceQueue, FairScheduler, IoRequest,
                                   by_tenant)
from repro.cache import PageCache, TenantMemoryLimit
from repro.cache.policies import make_policy
from repro.devices.disk import DiskDevice
from repro.sim.clock import VirtualClock
from repro.sim.events import EventLoop
from repro.sim.units import PAGE_SIZE
from tests.oracles.cache import LinearSoftVictimCache
from tests.oracles.residency import resident_keys
from tests.oracles.scheduler import (MultiPassFairScheduler,
                                     ScanningDeviceQueue)

TENANTS = (None, "a", "b", "c")

# -- the page cache ------------------------------------------------------------


class _EvictionLog:
    """An eviction sink that records each evicted page's owner, in order."""

    def __init__(self):
        self.owners = []

    def note_evictions(self, count, owner):
        self.owners.extend([owner] * count)


#: op kinds, inserts weighted up so caches fill and evict
_CACHE_OPS = (("insert",) * 12 + ("access",) * 3 + ("pin",) * 4
              + ("unpin", "invalidate", "invalidate_inode", "clear"))


@st.composite
def _limits(draw, capacity: int):
    limits = {}
    for tenant in ("a", "b", "c"):
        if draw(st.booleans()):
            soft = draw(st.none() | st.integers(1, capacity // 2 + 1))
            hard = draw(st.none() | st.integers(soft or 1, capacity + 2))
            limits[tenant] = TenantMemoryLimit(soft_pages=soft,
                                               hard_pages=hard)
    return limits


@st.composite
def _cache_programs(draw):
    capacity = draw(st.integers(3, 12))
    config = dict(
        capacity_pages=capacity,
        policy=draw(st.sampled_from(("lru", "clock", "2q"))),
        shards=draw(st.integers(1, min(4, capacity))),
        tenant_limits=draw(_limits(capacity)),
        rebalance_every=draw(st.integers(2, 32)),
        max_pinned_fraction=draw(st.sampled_from((0.25, 1.0))),
    )
    # (kind, key, tenant): each kind reads the fields it needs
    op = st.tuples(st.sampled_from(_CACHE_OPS),
                   st.tuples(st.integers(0, 5), st.integers(0, 5)),
                   st.sampled_from(TENANTS))
    return config, draw(st.lists(op, min_size=30, max_size=150))


def _policy_state(policy) -> tuple:
    return tuple(
        list(value.items()) if hasattr(value, "items") else value
        for value in (getattr(policy, name) for name in policy.__slots__))


def _cache_state(cache: PageCache) -> tuple:
    return (
        resident_keys(cache), sorted(cache._pinned),
        cache.eviction_sink.owners, cache.stats, dict(cache._generations),
        {tenant: list(pages) for tenant, pages in cache._tenant_pages.items()},
        dict(cache._page_tenant), cache.shard_report(),
        [_policy_state(shard.policy) for shard in cache._shards],
        {inode: sorted(cache.resident_set(inode)) for inode in range(6)},
    )


def _apply(cache: PageCache, op: tuple):
    kind, key, tenant = op
    if kind == "insert":
        return cache.insert(key, tenant)
    if kind == "invalidate_inode":
        return cache.invalidate_inode(key[0])
    if kind == "clear":
        return cache.clear()
    return getattr(cache, kind)(key)


def _check_reclaim_index(cache: PageCache) -> None:
    """Each per-shard bucket is its shard's slice of the tenant's pages,
    in the same order."""
    assert set(cache._tenant_shard_pages) == set(cache._tenant_pages)
    for tenant, pages in cache._tenant_pages.items():
        buckets = cache._tenant_shard_pages[tenant]
        for index, bucket in enumerate(buckets):
            assert list(bucket) == [key for key in pages
                                    if key[0] % cache.nshards == index]


@settings(deadline=None)
@given(program=_cache_programs())
def test_indexed_soft_victim_matches_linear_scan(program):
    config, ops = program
    cache = PageCache(**config)
    oracle = LinearSoftVictimCache(**config)
    cache.eviction_sink = _EvictionLog()
    oracle.eviction_sink = _EvictionLog()
    for step, op in enumerate(ops):
        got, want = _apply(cache, op), _apply(oracle, op)
        assert got == want, f"step {step} {op}: {got} != {want}"
        assert _cache_state(cache) == _cache_state(oracle), (
            f"state diverged after step {step} {op}")
        _check_reclaim_index(cache)
        # every eviction reached the sink, with its owner
        owners = cache.eviction_sink.owners
        assert len(owners) == cache.stats.evictions
        assert Counter(owner for owner in owners
                       if owner is not None) == cache.stats.tenant_evictions


class _CallLog:
    """A cache observer that logs every call with the counters and
    generations the cache shows at that moment."""

    def __init__(self, cache: PageCache):
        self.cache = cache
        self.calls = []

    def __getattr__(self, name):
        if not name.startswith("on_"):
            raise AttributeError(name)
        return lambda *args, **kwargs: self.calls.append(
            (name, args, sorted(kwargs.items()), self._seen()))

    def _seen(self) -> tuple:
        cache = self.cache
        return (cache.stats.insertions, cache.stats.evictions,
                sorted(cache._generations.items()))


#: op kinds: runs weighted up, plus the ops that shape what a run meets
_RUN_OPS = (("insert_run",) * 8 + ("insert",) * 3 + ("access",) * 2
            + ("pin",) * 4 + ("unpin", "invalidate", "invalidate_inode"))


@st.composite
def _run_programs(draw):
    config, _ = draw(_cache_programs())
    # (kind, (inode, page), tenant, run length)
    op = st.tuples(st.sampled_from(_RUN_OPS),
                   st.tuples(st.integers(0, 5), st.integers(0, 7)),
                   st.sampled_from(TENANTS), st.integers(1, 9))
    return (config, draw(st.booleans()),
            draw(st.lists(op, min_size=20, max_size=100)))


def _apply_run(cache: PageCache, op: tuple, batched: bool):
    kind, (inode, page), tenant, n = op
    if kind != "insert_run":
        return _apply(cache, (kind, (inode, page), tenant))
    if batched:
        return cache.insert_run(inode, page, n, tenant)
    for key in range(page, page + n):
        cache.insert((inode, key), tenant)
    return None


def _run_caches(config, observed):
    caches = []
    for _ in range(2):
        cache = PageCache(**config)
        cache.eviction_sink = _EvictionLog()
        if observed:
            cache.observer = _CallLog(cache)
        caches.append(cache)
    return caches


def _assert_same_caches(cache, reference, where):
    assert _cache_state(cache) == _cache_state(reference), where
    if cache.observer is not None:
        assert cache.observer.calls == reference.observer.calls, where
    _check_reclaim_index(cache)


@settings(deadline=None)
@given(program=_run_programs())
def test_insert_run_matches_per_page_inserts(program):
    """Tenants, shards, soft and hard limits, pins, an observer, three
    policies, runs that straddle a rebalance, runs over resident keys and
    runs longer than their shard: a run inserts, evicts (same victims,
    same owners, same order), observes and rebalances as its pages would
    one by one, and each observer call sees the same counters and
    generations."""
    config, observed, ops = program
    cache, reference = _run_caches(config, observed)
    for step, op in enumerate(ops):
        got = _apply_run(cache, op, batched=True)
        want = _apply_run(reference, op, batched=False)
        if op[0] != "insert_run":
            assert got == want, f"step {step} {op}: {got} != {want}"
        _assert_same_caches(cache, reference,
                            f"state diverged after step {step} {op}")


def test_insert_run_with_every_page_of_a_capped_tenant_pinned():
    """A tenant at its hard cap whose pages are all pinned cannot
    self-evict, so the run's first page takes it over the cap; from then
    on each page evicts the run's previous one, exactly as per-page
    inserts do."""
    config = dict(capacity_pages=6, policy="lru", shards=1,
                  tenant_limits={"a": TenantMemoryLimit(hard_pages=2)},
                  max_pinned_fraction=1.0)
    cache, reference = _run_caches(config, observed=True)
    for target in (cache, reference):
        for page in range(2):
            target.insert((0, page), "a")
            assert target.pin((0, page))
        target.insert((1, 0), "b")
    _apply_run(cache, ("insert_run", (2, 0), "a", 5), batched=True)
    _apply_run(reference, ("insert_run", (2, 0), "a", 5), batched=False)
    _assert_same_caches(cache, reference, "after the run")
    assert cache.stats.tenant_hard_evictions == 4
    assert cache.tenant_resident_count("a") == 3


def test_insert_run_straddling_a_rebalance():
    config = dict(capacity_pages=8, policy="2q", shards=4,
                  rebalance_every=3)
    cache, reference = _run_caches(config, observed=False)
    _apply_run(cache, ("insert_run", (1, 0), "a", 7), batched=True)
    _apply_run(reference, ("insert_run", (1, 0), "a", 7), batched=False)
    _assert_same_caches(cache, reference, "after the run")
    assert cache.stats.rebalances == 2


@settings(deadline=None)
@given(policy=st.sampled_from(["lru", "clock", "2q"]),
       ops=st.lists(st.tuples(
           st.sampled_from(["insert", "hit_run", "victims", "remove"]),
           st.integers(0, 2), st.integers(0, 15), st.integers(1, 8)),
           min_size=1, max_size=80))
def test_policy_run_calls_match_per_key_calls(policy, ops):
    """On twin policies, ``choose_victims(k)`` picks what ``k``
    ``choose_victim()`` calls pick, grouped into runs of consecutive
    pages of one inode in eviction order, and ``on_hit_run`` over a
    tracked stretch leaves the state ``on_hit`` per page leaves: the LRU
    order, the CLOCK ring with its bits, 2Q's three queues."""
    runs, keys = make_policy(policy), make_policy(policy)
    tracked: set[tuple[int, int]] = set()
    for op, inode, page, n in ops:
        if op == "insert":
            for key in [(inode, p) for p in range(page, page + n)
                        if (inode, p) not in tracked]:
                runs.on_insert(key)
                keys.on_insert(key)
                tracked.add(key)
        elif op == "hit_run":
            stop = page
            while stop < page + n and (inode, stop) in tracked:
                stop += 1
            if stop > page:
                runs.on_hit_run(inode, page, stop - page)
                for p in range(page, stop):
                    keys.on_hit((inode, p))
        elif op == "victims":
            k = min(n, len(tracked))
            picked = [keys.choose_victim() for _ in range(k)]
            expected: list[tuple[int, int, int]] = []
            for vin, vpage in picked:
                if (expected and expected[-1][0] == vin
                        and sum(expected[-1][1:]) == vpage):
                    expected[-1] = (vin, expected[-1][1],
                                    expected[-1][2] + 1)
                else:
                    expected.append((vin, vpage, 1))
            assert runs.choose_victims(k) == expected
            tracked.difference_update(picked)
        else:
            runs.on_remove((inode, page))
            keys.on_remove((inode, page))
            tracked.discard((inode, page))
        assert _policy_state(runs) == _policy_state(keys)
        assert len(runs) == len(tracked)


# -- the fair elevator ---------------------------------------------------------

_request = st.tuples(st.sampled_from(TENANTS), st.integers(0, 4095),
                     st.integers(1, 96))


@st.composite
def _dispatch_programs(draw):
    inner = draw(st.sampled_from(("clook", "sstf", "fcfs")))
    quantum = draw(st.sampled_from((4 * 1024, 64 * 1024, 256 * 1024)))
    step = st.one_of(
        st.tuples(st.just("arrive"),
                  st.lists(_request, min_size=1, max_size=6)),
        st.tuples(st.just("take"), st.integers(1, 4)),
        st.just(("drain",)),
    )
    return (inner, quantum, draw(st.integers(0, 4095)),
            draw(st.lists(step, max_size=40)))


def _drr_state(scheduler: FairScheduler) -> tuple:
    return (list(scheduler._ring), dict(scheduler._deficits),
            scheduler._cursor, dict(scheduler.served_bytes))


@settings(deadline=None)
@given(program=_dispatch_programs())
def test_bucketed_drr_matches_multi_pass(program):
    inner, quantum, head, steps = program
    fair = FairScheduler(inner=inner, quantum_bytes=quantum)
    oracle = MultiPassFairScheduler(inner=inner, quantum_bytes=quantum)
    pending: list[IoRequest] = []
    oracle_pending: list[IoRequest] = []
    seq = 0
    for step in steps:
        if step[0] == "arrive":
            for tenant, block, pages in step[1]:
                request = IoRequest(addr=block * PAGE_SIZE,
                                    nbytes=pages * PAGE_SIZE, tag=seq,
                                    tenant=tenant)
                seq += 1
                pending.append(request)
                oracle_pending.append(request)
            continue
        # order() drains a fresh clone: the same plan, live state untouched
        assert fair.order(pending, head) == oracle.order(oracle_pending, head)
        takes = len(pending) if step[0] == "drain" else step[1]
        for _ in range(min(takes, len(pending))):
            got = fair.take_next(pending, head)
            want = oracle.take_next(oracle_pending, head)
            assert got is want, f"dispatched {got} != {want}"
            assert [r.tag for r in pending] == [r.tag
                                                for r in oracle_pending]
            assert _drr_state(fair) == _drr_state(oracle)
            head = got.end


# -- the fair elevator inside its device queue ---------------------------------

@st.composite
def _queue_programs(draw):
    inner = draw(st.sampled_from(("clook", "sstf", "fcfs")))
    quantum = draw(st.sampled_from((4 * 1024, 64 * 1024, 256 * 1024)))
    # (tenant, block, pages, fails, resubmits on failure)
    request = st.tuples(st.sampled_from(TENANTS), st.integers(0, 4095),
                        st.integers(1, 96), st.booleans(), st.booleans())
    step = st.one_of(
        st.tuples(st.just("submit"), st.lists(request, min_size=1,
                                              max_size=6)),
        st.tuples(st.just("cancel"), st.integers(0, 1000)),
        st.tuples(st.just("fail_next"), st.integers(1, 3)),
        st.tuples(st.just("step"), st.integers(1, 4)),
        st.just(("drain",)),
    )
    return inner, quantum, draw(st.lists(step, max_size=40))


class _QueueSide:
    """One device queue and the futures submitted to it."""

    def __init__(self, queue_type, scheduler):
        disk = DiskDevice(rng=np.random.default_rng(5))
        self.loop = EventLoop(VirtualClock())
        self.queue = queue_type(disk, self.loop, scheduler)
        self.futures = []

    def submit(self, tenant, block, pages, fails, resubmit):
        def boom():
            raise RuntimeError("service failed")

        future = self.queue.submit(
            block * PAGE_SIZE, pages * PAGE_SIZE, is_write=False,
            service=boom if fails else None, label=f"{tenant}:{block}",
            tenant=tenant)
        if resubmit:
            # a failed request's waiter submits again from its callback,
            # as the prefetcher's re-pump does
            future.add_done_callback(
                lambda f: f.exception is not None and self.submit(
                    tenant, block + 1, pages, False, False))
        self.futures.append(future)

    def state(self):
        queue = self.queue
        return (
            [(r.rid, r.label, r.tenant, r.nbytes, r.start, r.finish)
             for r in queue.recent_dispatches()],
            [future.done for future in self.futures],
            _drr_state(queue.scheduler),
            queue.depth, queue.congestion_epoch, queue.dispatched,
            self.loop.clock.now,
            [queue.estimated_delay(self.loop.clock.now, tenant)
             for tenant in TENANTS + ("z",)],
        )


@settings(deadline=None)
@given(program=_queue_programs())
def test_indexed_queue_matches_scanning_queue(program):
    """Submissions, cancellations and failing services (some resubmitting
    from their callbacks): the same dispatches, DRR state, served bytes
    and per-tenant delay estimates, and never two requests in service."""
    inner, quantum, steps = program
    fair = _QueueSide(DeviceQueue, FairScheduler(inner=inner,
                                                   quantum_bytes=quantum))
    oracle = _QueueSide(ScanningDeviceQueue, MultiPassFairScheduler(
        inner=inner, quantum_bytes=quantum))
    for step in steps:
        for side in (fair, oracle):
            kind = step[0]
            if kind == "submit":
                for request in step[1]:
                    side.submit(*request)
            elif kind == "cancel":
                waiting = [f for f in side.futures if not f.done]
                if waiting:
                    side.queue.cancel(waiting[step[1] % len(waiting)])
            elif kind == "fail_next":
                side.queue.device.inject_failures(step[1])
            elif kind == "step":
                for _ in range(step[1]):
                    side.loop.step()
            elif kind == "drain":
                side.loop.run_until_idle()
            assert side.queue.depth <= len(side.queue._pending) + 1
        assert fair.state() == oracle.state(), f"diverged at {step}"
        assert fair.queue._by_tenant == by_tenant(fair.queue._pending)
    fair.loop.run_until_idle()
    oracle.loop.run_until_idle()
    assert fair.state() == oracle.state()
    assert all(fair.state()[1])


def test_cancelling_a_tenants_first_request_reorders_its_bucket():
    """Tenants join the DRR ring in the order of their earliest pending
    request: after ``a``'s first request is cancelled, ``b`` (now first
    in line) must join ahead of ``a``."""
    sides = [_QueueSide(DeviceQueue, FairScheduler(inner="fcfs")),
               _QueueSide(ScanningDeviceQueue,
                            MultiPassFairScheduler(inner="fcfs"))]
    for side in sides:
        side.submit(None, 0, 1, False, False)  # in service
        side.submit("a", 10, 1, False, False)
        side.submit("b", 20, 1, False, False)
        side.submit("a", 30, 1, False, False)
        assert side.queue.cancel(side.futures[1])
        side.loop.run_until_idle()
    fair, oracle = sides
    assert fair.state() == oracle.state()
    assert [r.label for r in fair.queue.recent_dispatches()] == [
        "None:0", "b:20", "a:30"]
