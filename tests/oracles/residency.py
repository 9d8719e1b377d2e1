"""Reference residency index: a plain page set per inode.

:class:`repro.cache.residency.RunResidency` keeps each inode's resident
pages as interval runs.  :class:`SetResidency` answers the same queries
from a ``set[int]`` per inode — the obvious structure, and the one the
run index replaced.  Its run questions (``run_end``, ``next_resident``)
probe one page at a time up to the limit, as the fault planner's
per-page key probes did.  ``tests/test_cache_residency.py`` requires the
two to agree with a model under any legal update sequence, and the
identity tests run whole machines on both (:func:`use_set_residency`)
and demand bit-identical virtual outcomes.
"""

from __future__ import annotations

from typing import Iterable, Iterator

__all__ = ["SetResidency", "resident_keys", "use_set_residency"]

_EMPTY_PAGES: frozenset[int] = frozenset()


class SetResidency:
    """One ``set[int]`` per inode, with sort-on-demand runs.

    Point updates are O(1), but every runs/count/bitmap query pays
    O(resident) (plus a sort for runs) — the cost profile the run index
    exists to remove.
    """

    def __init__(self) -> None:
        self._by_inode: dict[int, set[int]] = {}

    def add(self, inode_id: int, page: int) -> None:
        self._by_inode.setdefault(inode_id, set()).add(page)

    def add_run(self, inode_id: int, start: int, n: int) -> None:
        self._by_inode.setdefault(inode_id, set()).update(
            range(start, start + n))

    def contains(self, inode_id: int, page: int) -> bool:
        return page in self._by_inode.get(inode_id, _EMPTY_PAGES)

    def run_end(self, inode_id: int, page: int) -> int:
        pages = self._by_inode.get(inode_id, _EMPTY_PAGES)
        while page in pages:
            page += 1
        return page

    def next_resident(self, inode_id: int, page: int, limit: int) -> int:
        pages = self._by_inode.get(inode_id, _EMPTY_PAGES)
        while page < limit and page not in pages:
            page += 1
        return min(page, limit)

    def any_in(self, inode_id: int, start: int, n: int) -> bool:
        pages = self._by_inode.get(inode_id, ())
        return any(page in pages for page in range(start, start + n))

    def discard_run(self, inode_id: int, start: int, n: int) -> None:
        pages = self._by_inode.get(inode_id)
        if pages is not None:
            pages.difference_update(range(start, start + n))
            if not pages:
                del self._by_inode[inode_id]

    def discard(self, inode_id: int, page: int) -> None:
        pages = self._by_inode.get(inode_id)
        if pages is not None:
            pages.discard(page)
            if not pages:
                del self._by_inode[inode_id]

    def pop_inode(self, inode_id: int) -> Iterator[int]:
        pages = self._by_inode.pop(inode_id, None)
        return iter(sorted(pages)) if pages else iter(())

    def pages(self, inode_id: int) -> frozenset[int]:
        pages = self._by_inode.get(inode_id)
        return frozenset(pages) if pages else _EMPTY_PAGES

    def runs(self, inode_id: int, npages: int) -> list[tuple[int, int]]:
        pages = self._by_inode.get(inode_id)
        if not pages:
            return []
        out: list[tuple[int, int]] = []
        start = prev = None
        for page in sorted(p for p in pages if 0 <= p < npages):
            if start is None:
                start = prev = page
            elif page == prev + 1:
                prev = page
            else:
                out.append((start, prev + 1))
                start = prev = page
        if start is not None:
            out.append((start, prev + 1))
        return out

    def count(self, inode_id: int, npages: int) -> int:
        pages = self._by_inode.get(inode_id)
        if not pages:
            return 0
        return sum(1 for page in pages if page < npages)

    def bitmap(self, inode_id: int, npages: int) -> list[bool]:
        pages = self._by_inode.get(inode_id, _EMPTY_PAGES)
        return [idx in pages for idx in range(npages)]

    def inodes(self) -> Iterable[int]:
        return self._by_inode.keys()


def resident_keys(cache) -> list[tuple[int, int]]:
    """Every resident ``(inode, page)`` key of a page cache, sorted, as
    its residency index records them."""
    index = cache.residency
    return sorted((inode_id, page) for inode_id in index.inodes()
                  for page in index.pages(inode_id))


def use_set_residency(machine):
    """Swap ``machine``'s page-cache index for :class:`SetResidency`.

    Call it before ``boot()``, while the cache is still empty; returns
    the machine.
    """
    cache = machine.kernel.page_cache
    assert len(cache) == 0, "swap the residency index before boot()"
    cache._index = SetResidency()
    return machine
