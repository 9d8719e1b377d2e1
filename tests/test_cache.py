"""Unit and property tests for the page cache, policies, and readahead."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.page_cache import PageCache
from repro.cache.policies import (
    ClockPolicy,
    LruPolicy,
    TwoQPolicy,
    make_policy,
)
from repro.cache.readahead import ReadaheadWindow

from tests.oracles.residency import resident_keys


class TestLruPolicy:
    def test_evicts_least_recent(self):
        lru = LruPolicy()
        for key in "abc":
            lru.on_insert(key)
        lru.on_hit("a")
        assert lru.choose_victim() == "b"

    def test_duplicate_insert_rejected(self):
        lru = LruPolicy()
        lru.on_insert("a")
        with pytest.raises(ValueError):
            lru.on_insert("a")

    def test_remove_forgets(self):
        lru = LruPolicy()
        lru.on_insert("a")
        lru.on_insert("b")
        lru.on_remove("a")
        assert lru.choose_victim() == "b"
        assert len(lru) == 0


class TestClockPolicy:
    def test_second_chance(self):
        clock = ClockPolicy()
        for key in "abc":
            clock.on_insert(key)
        clock.on_hit("a")  # already referenced on insert, stays referenced
        # all referenced: hand clears a, b, c, then evicts a
        assert clock.choose_victim() == "a"

    def test_unreferenced_evicted_first(self):
        clock = ClockPolicy()
        for key in "abc":
            clock.on_insert(key)
        clock.choose_victim()  # clears and eventually pops 'a'
        clock.on_insert("d")
        # b and c had their bits cleared by the sweep; b is at the hand
        assert clock.choose_victim() == "b"


class TestTwoQPolicy:
    def test_scan_does_not_evict_protected(self):
        twoq = TwoQPolicy(a1in_fraction=0.25)
        # promote "hot" into Am via ghost re-insert
        twoq.on_insert("hot")
        victim = twoq.choose_victim()
        assert victim == "hot"  # through A1in into ghost
        twoq.on_insert("hot")  # ghost hit -> Am
        for i in range(12):
            twoq.on_insert(f"scan{i}")
        victims = [twoq.choose_victim() for _ in range(10)]
        assert "hot" not in victims

    def test_bad_fractions_rejected(self):
        with pytest.raises(ValueError):
            TwoQPolicy(a1in_fraction=0.0)
        with pytest.raises(ValueError):
            TwoQPolicy(ghost_fraction=-0.1)


class TestMakePolicy:
    @pytest.mark.parametrize("name,cls", [
        ("lru", LruPolicy), ("clock", ClockPolicy), ("2q", TwoQPolicy),
        ("LRU", LruPolicy),
    ])
    def test_factory(self, name, cls):
        assert isinstance(make_policy(name), cls)

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            make_policy("fifo")


class TestPageCache:
    def test_capacity_enforced(self):
        cache = PageCache(capacity_pages=2)
        cache.insert((1, 0))
        cache.insert((1, 1))
        evicted = cache.insert((1, 2))
        assert evicted == (1, 0)
        assert len(cache) == 2

    def test_access_hit_and_miss_counters(self):
        cache = PageCache(4)
        assert cache.access((1, 0)) is False
        cache.insert((1, 0))
        assert cache.access((1, 0)) is True
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5

    def test_peek_does_not_touch_recency(self):
        cache = PageCache(2)
        cache.insert((1, 0))
        cache.insert((1, 1))
        cache.peek((1, 0))  # must NOT refresh (1,0)
        evicted = cache.insert((1, 2))
        assert evicted == (1, 0)

    def test_access_refreshes_recency(self):
        cache = PageCache(2)
        cache.insert((1, 0))
        cache.insert((1, 1))
        cache.access((1, 0))
        evicted = cache.insert((1, 2))
        assert evicted == (1, 1)

    def test_reinsert_refreshes_without_eviction(self):
        cache = PageCache(2)
        cache.insert((1, 0))
        cache.insert((1, 1))
        assert cache.insert((1, 0)) is None
        assert cache.insert((1, 2)) == (1, 1)

    def test_invalidate(self):
        cache = PageCache(2)
        cache.insert((1, 0))
        assert cache.invalidate((1, 0)) is True
        assert cache.invalidate((1, 0)) is False
        assert (1, 0) not in cache

    def test_invalidate_inode_drops_only_that_inode(self):
        cache = PageCache(8)
        for p in range(3):
            cache.insert((1, p))
            cache.insert((2, p))
        assert cache.invalidate_inode(1) == 3
        assert cache.resident_count(2, 3) == 3
        assert cache.resident_count(1, 3) == 0

    def test_clear(self):
        cache = PageCache(4)
        cache.insert((1, 0))
        assert cache.clear() == 1
        assert len(cache) == 0

    def test_resident_pages_bitmap(self):
        cache = PageCache(4)
        cache.insert((1, 0))
        cache.insert((1, 2))
        assert cache.resident_pages(1, 4) == [True, False, True, False]

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            PageCache(0)

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 20)),
                    min_size=1, max_size=200),
           st.sampled_from(["lru", "clock", "2q"]))
    @settings(max_examples=50, deadline=None)
    def test_capacity_invariant_all_policies(self, accesses, policy):
        cache = PageCache(capacity_pages=5, policy=policy)
        for key in accesses:
            if not cache.access(key):
                cache.insert(key)
            assert len(cache) <= 5
            assert len(cache.policy) == len(cache)

    @given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 15)),
                    min_size=1, max_size=120))
    @settings(max_examples=50, deadline=None)
    def test_resident_set_matches_policy_lru(self, accesses):
        cache = PageCache(capacity_pages=4, policy="lru")
        for key in accesses:
            if not cache.access(key):
                cache.insert(key)
        # every resident page is tracked and peekable
        for inode in range(3):
            for page, resident in enumerate(cache.resident_pages(inode, 16)):
                assert resident == cache.peek((inode, page))


class TestResidencyIndex:
    def test_generation_bumps_on_membership_changes(self):
        cache = PageCache(4)
        assert cache.generation(1) == 0
        cache.insert((1, 0))
        g1 = cache.generation(1)
        assert g1 > 0
        cache.invalidate((1, 0))
        assert cache.generation(1) > g1

    def test_generation_not_bumped_by_recency(self):
        """Hits and re-inserts move recency, not residency: the stamp must
        stay put or cached vectors would never be reused."""
        cache = PageCache(4)
        cache.insert((1, 0))
        g = cache.generation(1)
        cache.access((1, 0))
        cache.insert((1, 0))  # already-resident: refresh only
        cache.peek((1, 0))
        assert cache.generation(1) == g

    def test_generation_isolated_per_inode(self):
        cache = PageCache(8)
        cache.insert((1, 0))
        g2 = cache.generation(2)
        cache.insert((1, 1))
        assert cache.generation(2) == g2

    def test_eviction_bumps_victims_inode(self):
        cache = PageCache(1)
        cache.insert((1, 0))
        g = cache.generation(1)
        cache.insert((2, 0))  # evicts (1, 0)
        assert cache.generation(1) > g

    def test_invalidate_inode_bumps_even_when_empty(self):
        """A truncate of a never-cached file must still move the stamp."""
        cache = PageCache(4)
        g = cache.generation(5)
        assert cache.invalidate_inode(5) == 0
        assert cache.generation(5) > g

    def test_generation_survives_full_eviction(self):
        """Generations never reset to 0 while the cache lives, so a stamp
        taken before an evict-everything episode can't collide with one
        taken after."""
        cache = PageCache(4)
        cache.insert((1, 0))
        g = cache.generation(1)
        cache.clear()
        assert cache.generation(1) > g

    def test_resident_set_tracks_membership(self):
        cache = PageCache(8)
        for p in (0, 3, 5):
            cache.insert((1, p))
        cache.insert((2, 1))
        assert cache.resident_set(1) == {0, 3, 5}
        assert cache.resident_set(2) == {1}
        assert cache.resident_set(9) == frozenset()
        cache.invalidate((1, 3))
        assert cache.resident_set(1) == {0, 5}

    @given(st.lists(st.tuples(
        st.sampled_from(["insert", "access", "invalidate", "inode"]),
        st.integers(0, 2), st.integers(0, 9)), min_size=1, max_size=150),
        st.sampled_from(["lru", "clock", "2q"]))
    @settings(max_examples=50, deadline=None)
    def test_index_mirrors_resident_under_churn(self, ops, policy):
        """The residency index always holds exactly the pages a model
        set kept from the same operations holds (an insert adds its key
        and drops the key it evicted), for every policy and operation
        mix."""
        cache = PageCache(capacity_pages=5, policy=policy)
        model: set[tuple[int, int]] = set()
        for op, inode, page in ops:
            key = (inode, page)
            if op == "insert":
                evicted = cache.insert(key)
                model.add(key)
                model.discard(evicted)
            elif op == "access":
                assert cache.access(key) == (key in model)
            elif op == "invalidate":
                assert cache.invalidate(key) == (key in model)
                model.discard(key)
            else:
                cache.invalidate_inode(inode)
                model = {k for k in model if k[0] != inode}
            assert resident_keys(cache) == sorted(model)
            assert len(cache) == len(model)


class TestPinnedEvictionRefresh:
    def test_all_pinned_forced_eviction(self):
        """Regression: skipping pinned victims used to re-admit them via
        on_insert + on_hit.  With every page pinned the loop visits each
        victim once, must not corrupt the policy, and ends in a forced
        eviction."""
        cache = PageCache(3, max_pinned_fraction=1.0)
        for p in range(3):
            cache.insert((1, p))
            assert cache.pin((1, p))
        evicted = cache.insert((1, 3))
        assert evicted is not None
        assert cache.stats.forced_pinned_evictions == 1
        assert len(cache) == 3
        assert len(cache.policy) == len(cache)
        assert not cache.is_pinned(evicted)

    @pytest.mark.parametrize("policy", ["lru", "clock", "2q"])
    def test_pinned_skip_keeps_policy_consistent(self, policy):
        cache = PageCache(4, policy=policy, max_pinned_fraction=1.0)
        for p in range(4):
            cache.insert((1, p))
        assert cache.pin((1, 0))
        for p in range(4, 10):
            cache.insert((1, p))
            assert len(cache.policy) == len(cache) == 4
            assert cache.peek((1, 0))  # the pinned page never leaves

    def test_fifo_style_policy_needs_no_duplicate_tolerance(self):
        """A list-backed policy whose on_insert is not idempotent works as
        a pinned-eviction citizen by overriding on_refresh — the dedicated
        hook exists precisely so such policies never see a double-insert."""
        from repro.cache.policies import ReplacementPolicy

        class FifoList(ReplacementPolicy):
            def __init__(self):
                self.queue = []

            def on_insert(self, key):
                self.queue.append(key)  # duplicates if called twice!

            def on_hit(self, key):
                pass

            def on_remove(self, key):
                self.queue.remove(key)

            def choose_victim(self):
                return self.queue.pop(0)

            def on_refresh(self, key):
                self.queue.append(key)  # victim was popped: one append

            def __len__(self):
                return len(self.queue)

        cache = PageCache(3, policy=FifoList(), max_pinned_fraction=1.0)
        for p in range(3):
            cache.insert((1, p))
        assert cache.pin((1, 0))
        for p in range(3, 8):
            cache.insert((1, p))
            assert len(cache.policy.queue) == len(cache) == 3
            assert len(set(cache.policy.queue)) == len(cache.policy.queue)


class TestLinearScanPathology:
    def test_two_pass_lru_gains_nothing(self):
        """The paper's Figure 3: 5-block file through a 3-block cache."""
        cache = PageCache(3)
        faults_pass1 = faults_pass2 = 0
        for block in range(5):
            if not cache.access((1, block)):
                cache.insert((1, block))
                faults_pass1 += 1
        for block in range(5):
            if not cache.access((1, block)):
                cache.insert((1, block))
                faults_pass2 += 1
        assert faults_pass1 == 5
        assert faults_pass2 == 5  # LRU throws the tail out as we go

    def test_cached_first_order_wins(self):
        cache = PageCache(3)
        for block in range(5):
            if not cache.access((1, block)):
                cache.insert((1, block))
        cached = [b for b in range(5) if cache.peek((1, b))]
        uncached = [b for b in range(5) if not cache.peek((1, b))]
        faults = 0
        for block in cached + uncached:
            if not cache.access((1, block)):
                cache.insert((1, block))
                faults += 1
        assert faults == 2  # only the two uncached blocks


class TestReadahead:
    def test_window_grows_on_sequential(self):
        window = ReadaheadWindow(min_pages=4, max_pages=16)
        assert window.advise(0) == 4
        assert window.advise(1) == 8
        assert window.advise(2) == 16
        assert window.advise(3) == 16  # capped

    def test_window_collapses_on_random(self):
        window = ReadaheadWindow(min_pages=4, max_pages=16)
        for page in range(3):
            window.advise(page)
        assert window.advise(100) == 4

    def test_reset(self):
        window = ReadaheadWindow()
        window.advise(0)
        window.advise(1)
        window.reset()
        assert window.window_pages == window.min_pages

    def test_grow_and_collapse_counters(self):
        window = ReadaheadWindow(min_pages=4, max_pages=16)
        for page in range(4):
            window.advise(page)          # two doublings, then capped
        assert window.grows == 2
        window.advise(100)               # random access collapses
        assert window.collapses == 1

    def test_collapse_at_minimum_not_counted(self):
        window = ReadaheadWindow(min_pages=4, max_pages=16)
        window.advise(0)
        window.advise(50)                # window still at min_pages
        assert window.collapses == 0
        assert window.grows == 0

    def test_negative_page_rejected(self):
        with pytest.raises(ValueError):
            ReadaheadWindow().advise(-1)

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            ReadaheadWindow(min_pages=8, max_pages=4)
        with pytest.raises(ValueError):
            ReadaheadWindow(min_pages=0, max_pages=4)
