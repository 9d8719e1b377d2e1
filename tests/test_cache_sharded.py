"""Tests for the sharded page cache, tenant limits, and the balancer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.page_cache import PageCache, TenantMemoryLimit


class _EvictionLog:
    """An eviction sink that records each evicted page's owner, in order."""

    def __init__(self):
        self.owners = []

    def note_evictions(self, count, owner):
        self.owners.extend([owner] * count)


class TestTenantMemoryLimit:
    def test_validates_positive(self):
        with pytest.raises(ValueError):
            TenantMemoryLimit(soft_pages=0)
        with pytest.raises(ValueError):
            TenantMemoryLimit(hard_pages=-1)

    def test_soft_must_not_exceed_hard(self):
        with pytest.raises(ValueError):
            TenantMemoryLimit(soft_pages=10, hard_pages=5)
        TenantMemoryLimit(soft_pages=5, hard_pages=5)  # equal is fine

    def test_unbounded_axes(self):
        limit = TenantMemoryLimit()
        assert limit.soft_pages is None and limit.hard_pages is None


class TestShardedStructure:
    def test_shard_validation(self):
        with pytest.raises(ValueError):
            PageCache(16, shards=0)
        with pytest.raises(ValueError):
            PageCache(4, shards=8)  # more shards than pages

    def test_policy_object_rejected_for_multiple_shards(self):
        from repro.cache.policies import make_policy
        with pytest.raises(ValueError):
            PageCache(16, policy=make_policy("lru"), shards=4)

    def test_capacity_split_sums_to_total(self):
        cache = PageCache(10, shards=3)
        report = cache.shard_report()
        assert sum(s["capacity_pages"] for s in report) == 10
        assert [s["capacity_pages"] for s in report] == [4, 3, 3]

    def test_keys_route_by_inode(self):
        cache = PageCache(16, shards=4)
        for inode in range(8):
            cache.insert((inode, 0))
        report = cache.shard_report()
        # inodes 0..7 over 4 shards: two inodes per shard
        assert [s["resident_pages"] for s in report] == [2, 2, 2, 2]

    def test_single_shard_is_the_seed_structure(self):
        cache = PageCache(4, shards=1)
        evicted = [cache.insert((0, p)) for p in range(6)]
        # LRU at capacity 4: pages 0 and 1 evicted, in order
        assert evicted == [None, None, None, None, (0, 0), (0, 1)]
        assert len(cache) == 4

    def test_per_shard_eviction_pressure(self):
        """A full shard evicts even while other shards sit empty."""
        cache = PageCache(8, shards=2)
        # inode 0 routes to shard 0 (capacity 4); fill past it
        for p in range(5):
            cache.insert((0, p))
        assert cache.stats.evictions == 1
        assert not cache.peek((0, 0))
        report = cache.shard_report()
        assert report[0]["resident_pages"] == 4
        assert report[1]["resident_pages"] == 0

    @given(shards=st.integers(1, 5), inodes=st.integers(1, 6),
           pages=st.integers(1, 40))
    @settings(max_examples=40, deadline=None)
    def test_shard_counts_always_consistent(self, shards, inodes, pages):
        cache = PageCache(12, shards=min(shards, 12))
        for p in range(pages):
            cache.insert((p % inodes, p))
        report = cache.shard_report()
        assert sum(s["resident_pages"] for s in report) == len(cache)
        assert all(s["resident_pages"] <= s["capacity_pages"]
                   for s in report)
        assert len(cache) <= cache.capacity_pages


class TestBalancer:
    def test_rebalance_moves_capacity_toward_hot_shard(self):
        cache = PageCache(64, shards=4, rebalance_every=32)
        # all traffic on inode 0 -> shard 0 is the only hot shard
        for p in range(200):
            cache.insert((0, p))
        assert cache.stats.rebalances > 0
        report = cache.shard_report()
        assert report[0]["capacity_pages"] > report[1]["capacity_pages"]
        assert sum(s["capacity_pages"] for s in report) == 64

    def test_cold_shards_keep_the_floor(self):
        cache = PageCache(64, shards=4, rebalance_every=16)
        for p in range(500):
            cache.insert((0, p))
        floor = 64 // (4 * 4)
        assert all(s["capacity_pages"] >= floor
                   for s in cache.shard_report())

    def test_rebalance_never_loses_resident_pages(self):
        cache = PageCache(32, shards=4, rebalance_every=8)
        keys = [(i % 4, p) for i, p in enumerate(range(120))]
        for key in keys:
            cache.insert(key)
        report = cache.shard_report()
        assert sum(s["resident_pages"] for s in report) == len(cache)
        assert all(s["resident_pages"] <= s["capacity_pages"]
                   for s in report)

    def test_no_rebalance_at_one_shard(self):
        cache = PageCache(8, shards=1, rebalance_every=2)
        for p in range(50):
            cache.insert((0, p))
        assert cache.stats.rebalances == 0


class TestTenantLimits:
    def test_soft_limit_prefers_over_soft_tenant(self):
        limits = {"hog": TenantMemoryLimit(soft_pages=2)}
        cache = PageCache(8, tenant_limits=limits)
        for p in range(4):
            cache.insert((0, p), "hog")        # hog 2 over soft
        for p in range(4):
            cache.insert((1, p), "victim")     # fills the cache
        assert cache.stats.evictions == 0
        log = cache.eviction_sink = _EvictionLog()
        # next insert must reclaim from the over-soft hog, not LRU order
        cache.insert((2, 0), "victim")
        assert cache.stats.tenant_soft_evictions == 1
        assert cache.stats.tenant_evictions.get("hog") == 1
        assert cache.tenant_resident_count("hog") == 3
        assert log.owners == ["hog"]

    def test_under_soft_tenant_not_preferred(self):
        limits = {"a": TenantMemoryLimit(soft_pages=8)}
        cache = PageCache(4, tenant_limits=limits)
        for p in range(4):
            cache.insert((0, p), "a")
        cache.insert((0, 4), "a")
        # nobody over soft: plain LRU victim, not a soft eviction
        assert cache.stats.tenant_soft_evictions == 0
        assert cache.stats.evictions == 1

    def test_hard_cap_self_evicts(self):
        limits = {"capped": TenantMemoryLimit(hard_pages=3)}
        cache = PageCache(16, tenant_limits=limits)
        for p in range(6):
            cache.insert((0, p), "capped")
        assert cache.tenant_resident_count("capped") == 3
        assert cache.stats.tenant_hard_evictions == 3
        # oldest pages went first; the newest 3 remain
        assert [cache.peek((0, p)) for p in range(6)] == [
            False, False, False, True, True, True]

    def test_hard_cap_never_touches_other_tenants(self):
        limits = {"capped": TenantMemoryLimit(hard_pages=2)}
        cache = PageCache(16, tenant_limits=limits)
        for p in range(4):
            cache.insert((1, p), "other")
        for p in range(5):
            cache.insert((0, p), "capped")
        assert cache.tenant_resident_count("other") == 4
        assert cache.tenant_resident_count("capped") == 2

    def test_tenant_report_shape(self):
        limits = {"a": TenantMemoryLimit(soft_pages=2, hard_pages=4)}
        cache = PageCache(8, tenant_limits=limits)
        cache.insert((0, 0), "a")
        cache.insert((1, 0), "b")
        report = cache.tenant_report()
        assert report["a"] == {"resident_pages": 1, "soft_pages": 2,
                               "hard_pages": 4, "evictions": 0}
        assert report["b"]["soft_pages"] is None
        assert report["b"]["resident_pages"] == 1

    def test_invalidate_forgets_tenant_ownership(self):
        cache = PageCache(8)
        cache.insert((0, 0), "a")
        assert cache.tenant_resident_count("a") == 1
        cache.invalidate((0, 0))
        assert cache.tenant_resident_count("a") == 0

    def test_clear_resets_tenant_tracking(self):
        cache = PageCache(8)
        cache.insert((0, 0), "a")
        cache.insert((0, 1), "b")
        cache.clear()
        assert cache.tenant_resident_count("a") == 0
        assert cache.tenant_resident_count("b") == 0
        assert len(cache) == 0

    def test_untenanted_eviction_clears_owner(self):
        """An untenanted eviction that follows a tenant's is reported
        with no owner, not the previous victim's."""
        cache = PageCache(2)
        log = cache.eviction_sink = _EvictionLog()
        cache.insert((0, 0), "a")
        cache.insert((0, 1))
        cache.insert((0, 2))  # evicts (0,0), owner "a"
        assert log.owners == ["a"]
        cache.insert((0, 3))  # evicts untenanted (0,1)
        assert log.owners == ["a", None]

    @given(hard=st.integers(1, 6), inserts=st.integers(1, 60))
    @settings(max_examples=40, deadline=None)
    def test_hard_cap_is_an_invariant(self, hard, inserts):
        limits = {"t": TenantMemoryLimit(hard_pages=hard)}
        cache = PageCache(32, tenant_limits=limits)
        for p in range(inserts):
            cache.insert((p % 3, p), "t")
            assert cache.tenant_resident_count("t") <= hard


class TestShardsAndLimitsTogether:
    def test_soft_reclaim_within_a_shard(self):
        limits = {"hog": TenantMemoryLimit(soft_pages=1)}
        cache = PageCache(8, shards=2, tenant_limits=limits)
        # shard 0: inode 0/2 keys; hog over-soft inside shard 0
        cache.insert((0, 0), "hog")
        cache.insert((0, 1), "hog")
        cache.insert((2, 0), "v")
        cache.insert((2, 1), "v")  # shard 0 (capacity 4) now full
        cache.insert((2, 2), "v")
        assert cache.stats.tenant_soft_evictions == 1
        assert cache.tenant_resident_count("hog") == 1
