"""The page cache's residency index, as interval runs per inode.

:class:`RunResidency` is the page cache's only record of which
``(inode, page)`` keys are resident.  It answers the fault path's
questions — is this page resident (:meth:`~RunResidency.contains`),
where does its resident run end (:meth:`~RunResidency.run_end`), where
is the next resident page (:meth:`~RunResidency.next_resident`) — and
the SLED builder's: which pages of this inode are resident, as a
bitmap, as a count, or — the shape the interval-merge builder actually
wants — as sorted ``[start, end)`` runs.

Each inode's resident pages are sorted interval runs in a flat boundary
list ``[s0, e0, s1, e1, ...]``.  Point questions and updates are a
``bisect`` plus an O(1) boundary tweak in the common sequential case;
``runs``/``count``/``bitmap`` queries are O(runs), not O(pages) — a
million-page resident file is *one* run.  ``pop_inode`` hands pages
back in ascending order so observer callbacks fire in a
deterministic order.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable, Iterator

_EMPTY_PAGES: frozenset[int] = frozenset()


class RunResidency:
    """Sorted interval runs per inode, as a flat boundary list.

    ``_bounds[inode]`` is ``[s0, e0, s1, e1, ...]`` with
    ``s0 < e0 < s1 < e1 < ...``; page ``p`` is resident iff
    ``bisect_right(bounds, p)`` is odd.  Adding or discarding a page
    touches at most two boundaries; appending to the trailing run (the
    sequential-read common case) is a single list-element bump.
    """

    def __init__(self) -> None:
        self._bounds: dict[int, list[int]] = {}
        self._counts: dict[int, int] = {}

    def add(self, inode_id: int, page: int) -> None:
        """Mark ``page`` resident (caller guarantees it was not)."""
        bounds = self._bounds.get(inode_id)
        if bounds is None:
            self._bounds[inode_id] = [page, page + 1]
            self._counts[inode_id] = 1
            return
        self._counts[inode_id] += 1
        if bounds[-1] == page:  # extend the trailing run: sequential reads
            bounds[-1] = page + 1
            return
        i = bisect_right(bounds, page)
        joins_prev = i > 0 and bounds[i - 1] == page
        joins_next = i < len(bounds) and bounds[i] == page + 1
        if joins_prev and joins_next:
            del bounds[i - 1:i + 1]  # bridge the gap between two runs
        elif joins_prev:
            bounds[i - 1] = page + 1
        elif joins_next:
            bounds[i] = page
        else:
            bounds[i:i] = (page, page + 1)

    def add_run(self, inode_id: int, start: int, n: int) -> None:
        """Mark the contiguous run ``[start, start+n)`` resident (caller
        guarantees none of it was).

        Equivalent to ``n`` :meth:`add` calls but a single splice: with no
        resident page inside the range, the whole run lies in one gap of
        the boundary list.
        """
        end = start + n
        bounds = self._bounds.get(inode_id)
        if bounds is None:
            self._bounds[inode_id] = [start, end]
            self._counts[inode_id] = n
            return
        self._counts[inode_id] += n
        if bounds[-1] == start:  # extend the trailing run: sequential reads
            bounds[-1] = end
            return
        i = bisect_right(bounds, start)
        joins_prev = i > 0 and bounds[i - 1] == start
        joins_next = i < len(bounds) and bounds[i] == end
        if joins_prev and joins_next:
            del bounds[i - 1:i + 1]  # bridge the gap between two runs
        elif joins_prev:
            bounds[i - 1] = end
        elif joins_next:
            bounds[i] = start
        else:
            bounds[i:i] = (start, end)

    def contains(self, inode_id: int, page: int) -> bool:
        """Whether ``page`` of the inode is resident."""
        bounds = self._bounds.get(inode_id)
        return bounds is not None and bool(bisect_right(bounds, page) & 1)

    def run_end(self, inode_id: int, page: int) -> int:
        """The end of the resident run that holds ``page``; ``page``
        itself when it is not resident."""
        bounds = self._bounds.get(inode_id)
        if bounds is None:
            return page
        i = bisect_right(bounds, page)
        return bounds[i] if i & 1 else page

    def next_resident(self, inode_id: int, page: int, limit: int) -> int:
        """The first resident page in ``[page, limit)``; ``limit`` when
        there is none."""
        bounds = self._bounds.get(inode_id)
        if bounds is None or page >= limit:
            return limit
        i = bisect_right(bounds, page)
        if i & 1:
            return page
        return bounds[i] if i < len(bounds) and bounds[i] < limit else limit

    def any_in(self, inode_id: int, start: int, n: int) -> bool:
        """Whether any page of ``[start, start+n)`` is resident."""
        bounds = self._bounds.get(inode_id)
        if bounds is None:
            return False
        i = bisect_right(bounds, start)
        return bool(i & 1) or (i < len(bounds) and bounds[i] < start + n)

    def discard_run(self, inode_id: int, start: int, n: int) -> None:
        """Mark the contiguous run ``[start, start+n)`` non-resident
        (caller guarantees all of it was).

        Equivalent to ``n`` :meth:`discard` calls but a single trim or
        split: a fully resident contiguous range lies inside one maximal
        run of the boundary list.
        """
        count = self._counts[inode_id] - n
        if count == 0:
            del self._bounds[inode_id]
            del self._counts[inode_id]
            return
        bounds = self._bounds[inode_id]
        self._counts[inode_id] = count
        end = start + n
        i = bisect_right(bounds, start)  # odd: start inside run [i-1, i)
        run_start, run_end = bounds[i - 1], bounds[i]
        if run_start == start and run_end == end:
            del bounds[i - 1:i + 1]
        elif run_start == start:
            bounds[i - 1] = end
        elif run_end == end:
            bounds[i] = start
        else:  # split the run around the hole
            bounds[i:i] = (start, end)

    def discard(self, inode_id: int, page: int) -> None:
        """Mark ``page`` non-resident (caller guarantees it was)."""
        bounds = self._bounds[inode_id]
        count = self._counts[inode_id] - 1
        if count == 0:
            del self._bounds[inode_id]
            del self._counts[inode_id]
            return
        self._counts[inode_id] = count
        i = bisect_right(bounds, page)  # odd: page inside run [i-1, i)
        start, end = bounds[i - 1], bounds[i]
        if start == page and end == page + 1:
            del bounds[i - 1:i + 1]
        elif start == page:
            bounds[i - 1] = page + 1
        elif end == page + 1:
            bounds[i] = page
        else:  # split the run around the hole
            bounds[i:i] = (page, page + 1)

    def pop_inode(self, inode_id: int) -> Iterator[int]:
        """Remove the inode's entry, yielding its pages in ascending order."""
        bounds = self._bounds.pop(inode_id, None)
        self._counts.pop(inode_id, None)
        if bounds is None:
            return iter(())
        return iter([p for i in range(0, len(bounds), 2)
                     for p in range(bounds[i], bounds[i + 1])])

    def pages(self, inode_id: int) -> frozenset[int]:
        bounds = self._bounds.get(inode_id)
        if bounds is None:
            return _EMPTY_PAGES
        return frozenset(p for i in range(0, len(bounds), 2)
                         for p in range(bounds[i], bounds[i + 1]))

    def runs(self, inode_id: int, npages: int) -> list[tuple[int, int]]:
        """Resident ``[start, end)`` runs clipped to ``[0, npages)``."""
        bounds = self._bounds.get(inode_id)
        if not bounds or npages <= 0 or bounds[0] >= npages:
            return []
        hi = bisect_right(bounds, npages - 1)
        out = [(bounds[i], bounds[i + 1])
               for i in range(0, hi - (hi & 1), 2)]
        if hi & 1:  # npages-1 lands inside run [hi-1, hi): clip it
            out.append((bounds[hi - 1], npages))
        return out

    def count(self, inode_id: int, npages: int) -> int:
        bounds = self._bounds.get(inode_id)
        if not bounds:
            return 0
        if bounds[-1] <= npages:  # whole index below the limit
            return self._counts[inode_id]
        return sum(end - start for start, end in self.runs(inode_id, npages))

    def bitmap(self, inode_id: int, npages: int) -> list[bool]:
        out = [False] * npages
        for start, end in self.runs(inode_id, npages):
            out[start:end] = [True] * (end - start)
        return out

    def inodes(self) -> Iterable[int]:
        return self._bounds.keys()
