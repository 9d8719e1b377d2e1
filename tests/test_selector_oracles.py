"""Property tests: the indexed selectors agree with the scans they replaced.

Two hot-path selectors answer from an index instead of a rescan:

* :meth:`PageCache._soft_victim` takes the first unpinned key of the
  evicting shard's per-tenant bucket, where the reference
  (:class:`tests.oracles.cache.LinearSoftVictimCache`) scans every page
  the tenant owns and filters by shard;
* :meth:`FairScheduler.take_next` buckets ``pending`` by tenant in one
  pass, where the reference
  (:class:`tests.oracles.scheduler.MultiPassFairScheduler`) rescans the
  list on every ring visit.

Each test drives the production class and its oracle through the same
random program and compares their whole observable state after every
step.  The tests set no ``max_examples``, so a hypothesis profile
(``--hypothesis-profile=oracle``, see ``conftest.py``) sets their budget.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.block.scheduler import FairScheduler, IoRequest
from repro.cache import PageCache, TenantMemoryLimit
from repro.sim.units import PAGE_SIZE
from tests.oracles.cache import LinearSoftVictimCache
from tests.oracles.scheduler import MultiPassFairScheduler

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
        sorted(cache._resident), sorted(cache._pinned),
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
