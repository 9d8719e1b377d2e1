"""Property tests: the run index answers like the set reference.

``RunResidency`` (interval runs, the page cache's index) and
``SetResidency`` (a page set per inode, ``tests/oracles/residency.py``)
must answer every query identically under any legal update sequence —
that is what lets the identity tests swap the reference into a machine
without perturbing a single virtual-time result.  A pure-python model
(dict of sets) provides the ground truth; a second test drives two
whole :class:`PageCache` instances, one on each index, through an
identical churn script and demands identical observable state
(residency, runs, counts, bitmaps, generations, eviction stats).
"""

from __future__ import annotations

import random

import pytest

from repro.cache.page_cache import PageCache
from repro.cache.residency import RunResidency

from tests.oracles.residency import SetResidency

SEEDS = range(6)
OPS = 600
INODES = (1, 2, 7)
MAX_PAGE = 96


def _check_against_model(backends, model):
    """Every backend answers every query exactly like the model,
    including the fault planner's run questions at every page."""
    npages_probes = (0, 1, MAX_PAGE // 3, MAX_PAGE, MAX_PAGE + 10)
    for index in backends:
        assert set(index.inodes()) == {i for i, pages in model.items()
                                       if pages}
        for inode_id in INODES:
            pages = model.get(inode_id, set())
            assert index.pages(inode_id) == frozenset(pages)
            for page in range(MAX_PAGE + 2):
                assert index.contains(inode_id, page) == (page in pages)
                end = page
                while end in pages:
                    end += 1
                assert index.run_end(inode_id, page) == end
                for limit in (page - 1, page, page + 1, page + 8,
                              MAX_PAGE + 2):
                    first = next((p for p in range(page, limit)
                                  if p in pages), limit)
                    assert index.next_resident(inode_id, page,
                                               limit) == first
            for npages in npages_probes:
                clipped = sorted(p for p in pages if p < npages)
                runs: list[tuple[int, int]] = []
                for page in clipped:
                    if runs and runs[-1][1] == page:
                        runs[-1] = (runs[-1][0], page + 1)
                    else:
                        runs.append((page, page + 1))
                assert index.runs(inode_id, npages) == runs
                assert index.count(inode_id, npages) == len(clipped)
                assert index.bitmap(inode_id, npages) == [
                    p in pages for p in range(npages)]


def _span(rng, page, ok) -> int:
    """How many pages from ``page`` one update covers: one (a point
    update) half the time, else the stretch of up to 8 pages for which
    ``ok`` holds (a run update)."""
    limit = 1 if rng.random() < 0.5 else rng.randint(2, 8)
    n = 0
    while n < limit and ok(page + n):
        n += 1
    return n


@pytest.mark.parametrize("seed", SEEDS)
def test_backends_match_model(seed):
    rng = random.Random(seed)
    backends = [RunResidency(), SetResidency()]
    model: dict[int, set[int]] = {}

    for op in range(OPS):
        roll = rng.random()
        inode_id = rng.choice(INODES)
        pages = model.setdefault(inode_id, set())
        if roll < 0.55:
            # sequential bias: extend the trailing run half the time
            page = (max(pages) + 1 if pages and rng.random() < 0.5
                    else rng.randrange(MAX_PAGE))
            n = _span(rng, page, lambda p: p < MAX_PAGE and p not in pages)
            if n:
                pages.update(range(page, page + n))
                for index in backends:
                    if n == 1:
                        index.add(inode_id, page)
                    else:
                        index.add_run(inode_id, page, n)
        elif roll < 0.85:
            if pages:
                page = rng.choice(sorted(pages))
                n = _span(rng, page, lambda p: p in pages)
                pages.difference_update(range(page, page + n))
                for index in backends:
                    if n == 1:
                        index.discard(inode_id, page)
                    else:
                        index.discard_run(inode_id, page, n)
        elif roll < 0.95:
            expected = sorted(pages)
            pages.clear()
            for index in backends:
                assert list(index.pop_inode(inode_id)) == expected
        else:
            # what PageCache.clear() does: pop every inode in turn
            model = {}
            for index in backends:
                for inode_id in list(index.inodes()):
                    list(index.pop_inode(inode_id))
        if op % 40 == 0:
            _check_against_model(backends, model)

    _check_against_model(backends, model)


@pytest.mark.parametrize("seed", SEEDS)
def test_page_caches_agree_across_backends(seed):
    """Whole caches on different backends stay observably identical."""
    rng = random.Random(seed)
    caches = [PageCache(48, policy="lru"), PageCache(48, policy="lru")]
    caches[1]._index = SetResidency()

    for _ in range(OPS):
        roll = rng.random()
        inode_id = rng.choice(INODES)
        page = rng.randrange(MAX_PAGE)
        key = (inode_id, page)
        if roll < 0.55:
            results = {cache.insert(key) if key not in cache
                       else cache.access(key) for cache in caches}
            assert len(results) == 1  # same hit/miss/evictee everywhere
        elif roll < 0.70:
            assert len({cache.access(key) for cache in caches}) == 1
        elif roll < 0.80:
            assert len({cache.invalidate(key) for cache in caches}) == 1
        elif roll < 0.90:
            assert len({cache.invalidate_inode(inode_id)
                        for cache in caches}) == 1
        elif roll < 0.95:
            assert len({cache.pin(key) for cache in caches}) == 1
        else:
            assert len({cache.unpin(key) for cache in caches}) == 1

    cache, reference = caches  # the run index, the set reference
    assert len(cache) == len(reference)
    assert cache.stats.hits == reference.stats.hits
    assert cache.stats.misses == reference.stats.misses
    assert cache.stats.evictions == reference.stats.evictions
    for inode_id in INODES:
        assert (cache.resident_set(inode_id)
                == reference.resident_set(inode_id))
        assert (cache.resident_runs(inode_id, MAX_PAGE)
                == reference.resident_runs(inode_id, MAX_PAGE))
        assert (cache.resident_pages(inode_id, MAX_PAGE)
                == reference.resident_pages(inode_id, MAX_PAGE))
        assert (cache.resident_count(inode_id, MAX_PAGE)
                == reference.resident_count(inode_id, MAX_PAGE))
        assert (cache.generation(inode_id)
                == reference.generation(inode_id))
