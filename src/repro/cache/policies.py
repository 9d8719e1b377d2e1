"""Page-replacement policies for the simulated buffer cache.

The paper's Linux 2.2 substrate used (approximately) global LRU, whose
pathological behaviour on linear scans larger than the cache is the whole
reason reordering I/O with SLEDs pays off (paper Fig. 3).  We implement LRU
as the default and CLOCK and 2Q as ablations (DESIGN.md §5.5): CLOCK behaves
like LRU for this workload, while 2Q's scan resistance changes which pages
survive a pass and therefore how much SLEDs can win.

A policy tracks *keys* only; the cache owns the mapping and the capacity
bookkeeping.  Keys are ``(inode_id, page)`` pairs, so a policy can also
take a run of one inode's pages in one call
(:meth:`~ReplacementPolicy.on_hit_run`) and hand its victims back as
runs (:meth:`~ReplacementPolicy.choose_victims`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import OrderedDict
from typing import Hashable, Iterable

PageKey = Hashable


def _as_runs(keys: Iterable[PageKey]) -> list[tuple[int, int, int]]:
    """``(inode, page)`` keys, in their order, grouped into
    ``(inode, start, n)`` runs of consecutive pages of one inode."""
    runs: list[tuple[int, int, int]] = []
    run_inode = run_start = run_len = None
    for inode_id, page in keys:
        if inode_id == run_inode and page == run_start + run_len:
            run_len += 1
        else:
            if run_inode is not None:
                runs.append((run_inode, run_start, run_len))
            run_inode, run_start, run_len = inode_id, page, 1
    if run_inode is not None:
        runs.append((run_inode, run_start, run_len))
    return runs


class ReplacementPolicy(ABC):
    """Interface the :class:`~repro.cache.page_cache.PageCache` drives.

    Implementations are slotted: policy calls sit on the per-fault hot
    path, and ``__slots__`` keeps attribute loads dict-free.
    """

    __slots__ = ()

    #: short name used as the ``policy`` label on telemetry metrics
    name = "abstract"

    @abstractmethod
    def on_insert(self, key: PageKey) -> None:
        """A new page entered the cache."""

    @abstractmethod
    def on_hit(self, key: PageKey) -> None:
        """A cached page was accessed."""

    def on_hit_run(self, inode_id: int, start: int, n: int) -> None:
        """The cached pages ``[start, start+n)`` of one inode were
        accessed, in page order: one :meth:`on_hit` per page."""
        on_hit = self.on_hit
        for page in range(start, start + n):
            on_hit((inode_id, page))

    @abstractmethod
    def choose_victim(self) -> PageKey:
        """Pick (and forget) the page to evict.  Cache must be non-empty."""

    def choose_victims(self, k: int) -> list[tuple[int, int, int]]:
        """Pick (and forget) the ``k`` pages ``k`` :meth:`choose_victim`
        calls would, as ``(inode, start, n)`` runs in eviction order.
        The policy must track at least ``k`` keys."""
        return _as_runs([self.choose_victim() for _ in range(k)])

    @abstractmethod
    def on_remove(self, key: PageKey) -> None:
        """A page was removed without eviction (invalidation)."""

    def on_refresh(self, key: PageKey) -> None:
        """Re-admit a victim the cache declined to evict (it was pinned).

        ``choose_victim`` already forgot the key, so the default re-insert
        is correct for the built-in policies; policies whose ``on_insert``
        is not safe to call twice for a key they may still track (e.g. a
        list-backed FIFO that appends unconditionally) must override this
        with a guarded path instead of relying on insert + hit.
        """
        self.on_insert(key)
        self.on_hit(key)

    @abstractmethod
    def __len__(self) -> int:
        """Number of tracked keys."""


class LruPolicy(ReplacementPolicy):
    """Strict least-recently-used replacement."""

    name = "lru"

    __slots__ = ("_order",)

    def __init__(self) -> None:
        self._order: OrderedDict[PageKey, None] = OrderedDict()

    def on_insert(self, key: PageKey) -> None:
        if key in self._order:
            raise ValueError(f"duplicate insert of {key!r}")
        self._order[key] = None

    def on_hit(self, key: PageKey) -> None:
        self._order.move_to_end(key)

    def on_hit_run(self, inode_id: int, start: int, n: int) -> None:
        move_to_end = self._order.move_to_end
        for page in range(start, start + n):
            move_to_end((inode_id, page))

    def choose_victim(self) -> PageKey:
        key, _ = self._order.popitem(last=False)
        return key

    def choose_victims(self, k: int) -> list[tuple[int, int, int]]:
        popitem = self._order.popitem
        return _as_runs([popitem(False)[0] for _ in range(k)])

    def on_remove(self, key: PageKey) -> None:
        self._order.pop(key, None)

    def on_refresh(self, key: PageKey) -> None:
        # idempotent whether or not choose_victim forgot the key
        self._order[key] = None
        self._order.move_to_end(key)

    def on_insert_run(self, inode_id: int, start: int, n: int) -> None:
        """Append ``(inode_id, start) .. (inode_id, start+n-1)`` in page
        order — exactly ``n`` :meth:`on_insert` calls for fresh keys.
        Only the batched cache insert (``PageCache.insert_run``) calls
        this, and it guarantees the keys are new."""
        order = self._order
        for page in range(start, start + n):
            order[(inode_id, page)] = None

    def __len__(self) -> int:
        return len(self._order)


class ClockPolicy(ReplacementPolicy):
    """Second-chance (CLOCK) replacement.

    Keys sit on a circular list with a reference bit; the hand sweeps,
    clearing bits until it finds an unreferenced page.
    """

    name = "clock"

    __slots__ = ("_ring",)

    def __init__(self) -> None:
        self._ring: OrderedDict[PageKey, bool] = OrderedDict()

    def on_insert(self, key: PageKey) -> None:
        if key in self._ring:
            raise ValueError(f"duplicate insert of {key!r}")
        self._ring[key] = True

    def on_hit(self, key: PageKey) -> None:
        self._ring[key] = True

    def choose_victim(self) -> PageKey:
        while True:
            key, referenced = next(iter(self._ring.items()))
            if referenced:
                # clear the bit and move behind the hand
                del self._ring[key]
                self._ring[key] = False
            else:
                del self._ring[key]
                return key

    def on_remove(self, key: PageKey) -> None:
        self._ring.pop(key, None)

    def on_refresh(self, key: PageKey) -> None:
        # appends behind the hand when forgotten, else just re-references
        self._ring[key] = True

    def __len__(self) -> int:
        return len(self._ring)


class TwoQPolicy(ReplacementPolicy):
    """Johnson & Shasha's 2Q: a FIFO probation queue (A1in), a ghost queue
    of recently evicted once-used pages (A1out), and a protected LRU (Am).

    Pages referenced while in A1out are promoted to Am on re-insert; pure
    sequential scans wash through A1in without disturbing Am, which makes
    2Q scan-resistant.
    """

    name = "2q"

    __slots__ = ("a1in_fraction", "ghost_fraction", "_a1in", "_am", "_ghost")

    def __init__(self, a1in_fraction: float = 0.25,
                 ghost_fraction: float = 0.5) -> None:
        if not 0.0 < a1in_fraction < 1.0:
            raise ValueError(f"a1in_fraction must be in (0, 1): {a1in_fraction}")
        if ghost_fraction < 0.0:
            raise ValueError(f"ghost_fraction must be >= 0: {ghost_fraction}")
        self.a1in_fraction = a1in_fraction
        self.ghost_fraction = ghost_fraction
        self._a1in: OrderedDict[PageKey, None] = OrderedDict()
        self._am: OrderedDict[PageKey, None] = OrderedDict()
        self._ghost: OrderedDict[PageKey, None] = OrderedDict()

    def on_insert(self, key: PageKey) -> None:
        if key in self._a1in or key in self._am:
            raise ValueError(f"duplicate insert of {key!r}")
        if key in self._ghost:
            del self._ghost[key]
            self._am[key] = None
        else:
            self._a1in[key] = None

    def on_hit(self, key: PageKey) -> None:
        if key in self._am:
            self._am.move_to_end(key)
        # hits in A1in deliberately do not reorder (FIFO probation)

    def choose_victim(self) -> PageKey:
        total = len(self._a1in) + len(self._am)
        a1in_target = max(1, int(total * self.a1in_fraction))
        if self._a1in and (len(self._a1in) >= a1in_target or not self._am):
            key, _ = self._a1in.popitem(last=False)
            self._ghost[key] = None
            ghost_cap = max(1, int(total * self.ghost_fraction))
            while len(self._ghost) > ghost_cap:
                self._ghost.popitem(last=False)
            return key
        key, _ = self._am.popitem(last=False)
        return key

    def on_remove(self, key: PageKey) -> None:
        self._a1in.pop(key, None)
        self._am.pop(key, None)
        self._ghost.pop(key, None)

    def on_refresh(self, key: PageKey) -> None:
        if key not in self._a1in and key not in self._am:
            self.on_insert(key)
        self.on_hit(key)

    def __len__(self) -> int:
        return len(self._a1in) + len(self._am)


POLICY_FACTORIES = {
    "lru": LruPolicy,
    "clock": ClockPolicy,
    "2q": TwoQPolicy,
}


def make_policy(name: str) -> ReplacementPolicy:
    """Build a policy by name (``lru``, ``clock``, ``2q``)."""
    try:
        factory = POLICY_FACTORIES[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown replacement policy {name!r}; "
            f"choose from {sorted(POLICY_FACTORIES)}") from None
    return factory()
