"""The global file-system buffer cache.

One :class:`PageCache` instance per simulated kernel caches (inode, page)
keys with a fixed page capacity and a pluggable replacement policy.  The
cache stores *residency only*; page bytes live in the filesystem's content
store.  That mirrors what SLEDs needs from the real Linux page cache — the
kernel-side SLED builder only asks "is this page resident, and if not,
which device holds it?".

Two access styles matter:

* :meth:`access` — the read path: records a hit (touching recency) or a
  miss.
* :meth:`peek` — the SLED side (the prefetcher, pick pinning): checks
  residency *without* touching recency, so asking for SLEDs does not
  itself distort the cache state the SLEDs describe.

Residency lives in one structure, the per-inode *residency index*
(sorted interval runs; see :mod:`repro.cache.residency`), which every
membership test reads and the kernel's fault planner asks run questions
of through :attr:`PageCache.residency`.  Beside it the cache keeps a
per-inode *generation*: a monotonically increasing counter bumped on
every insert, eviction, or invalidation that changes the inode's
residency.  The run-based index makes per-inode queries —
:meth:`resident_runs`, :meth:`resident_count`, :meth:`resident_pages`,
:meth:`invalidate_inode` — O(runs) instead of O(pages) or
O(cache-size); the generation is the cache half of the stamp that lets
the kernel serve repeated ``FSLEDS_GET`` requests without re-walking
the file (see :mod:`repro.core.builder` and ``docs/performance.md``).

Multi-tenancy
-------------

The cache scales out along two orthogonal axes (both default-off, and a
1-shard no-limit cache executes the exact seed operation sequence):

* **Sharding** (``shards=N``): keys hash (by inode id) onto N independent
  shards, each with its own replacement-policy instance and capacity
  share.  Residency, pinning, the per-inode index, and generations stay
  global — SLED builds and invalidation are shard-oblivious — but victim
  selection and capacity pressure are per shard, so thousands of
  concurrent tasks do not serialise recency updates through one policy
  structure.  A global *eviction balancer* periodically reassigns
  capacity toward hot shards (proportional to recent insertions, with a
  floor so cold shards never starve).

* **Tenant working-set limits** (``tenant_limits={tenant: TenantMemoryLimit}``):
  cgroup-style isolation.  Above ``soft_pages`` a tenant becomes the
  preferred reclaim victim (its oldest page in the evicting shard goes
  before the shard policy's choice); at ``hard_pages`` an insert by that
  tenant evicts the tenant's own oldest page first.  The cap bounds the
  tenant's footprint, but it does not fully isolate the other tenants
  under sharding: the self-eviction may free a slot in a different shard
  than the one the insert lands in, and a full target shard then evicts
  by its own policy, possibly another tenant's page.

Each tenant's pages are indexed twice, both in insertion order: as one
dict (hard caps evict the tenant's globally oldest page) and as one dict
per shard, so soft-limit reclaim finds the oldest page in the evicting
shard without scanning the tenant's other shards.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cache.policies import (LruPolicy, PageKey, ReplacementPolicy,
                                  make_policy)
from repro.cache.residency import RunResidency


@dataclass(frozen=True)
class TenantMemoryLimit:
    """cgroup-style working-set bounds for one tenant.

    ``soft_pages`` — reclaim pressure: above this many resident pages the
    tenant's oldest page is the preferred eviction victim.  ``hard_pages``
    — cap: an insert by a tenant at its cap evicts the tenant's own
    oldest page first.  Either may be ``None`` (unbounded on that axis).
    """

    soft_pages: int | None = None
    hard_pages: int | None = None

    def __post_init__(self) -> None:
        for name in ("soft_pages", "hard_pages"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive: {value}")
        if (self.soft_pages is not None and self.hard_pages is not None
                and self.soft_pages > self.hard_pages):
            raise ValueError(
                f"soft_pages {self.soft_pages} exceeds hard_pages "
                f"{self.hard_pages}")


class _Shard:
    """One cache shard: a policy instance plus its capacity share."""

    __slots__ = ("index", "policy", "capacity", "count", "recent_insertions")

    def __init__(self, index: int, policy: ReplacementPolicy,
                 capacity: int) -> None:
        self.index = index
        self.policy = policy
        self.capacity = capacity
        self.count = 0
        self.recent_insertions = 0


@dataclass
class CacheStats:
    """Cumulative hit/miss/eviction counters."""

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    invalidations: int = 0
    #: evictions that had to sacrifice a pinned page (pin pressure)
    forced_pinned_evictions: int = 0
    #: evictions chosen by soft-limit reclaim pressure (over-soft tenant)
    tenant_soft_evictions: int = 0
    #: evictions forced by a tenant hitting its hard cap (self-eviction)
    tenant_hard_evictions: int = 0
    #: capacity rebalances performed by the eviction balancer
    rebalances: int = 0
    #: evictions by owning tenant (untenanted pages are not counted)
    tenant_evictions: dict = field(default_factory=dict)

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.insertions = 0
        self.evictions = 0
        self.invalidations = 0
        self.forced_pinned_evictions = 0
        self.tenant_soft_evictions = 0
        self.tenant_hard_evictions = 0
        self.rebalances = 0
        self.tenant_evictions = {}

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class PageCache:
    """Fixed-capacity page cache keyed by ``(inode_id, page_index)``."""

    def __init__(self, capacity_pages: int,
                 policy: str | ReplacementPolicy = "lru",
                 max_pinned_fraction: float = 0.9,
                 shards: int = 1,
                 tenant_limits: dict[str, TenantMemoryLimit] | None = None,
                 rebalance_every: int = 1024) -> None:
        if capacity_pages <= 0:
            raise ValueError(f"cache capacity must be positive: {capacity_pages}")
        if not 0.0 <= max_pinned_fraction <= 1.0:
            raise ValueError(
                f"max_pinned_fraction must be in [0, 1]: {max_pinned_fraction}")
        if shards <= 0:
            raise ValueError(f"shards must be positive: {shards}")
        if shards > capacity_pages:
            raise ValueError(
                f"shards {shards} exceeds capacity {capacity_pages}")
        if shards > 1 and not isinstance(policy, str):
            raise ValueError(
                "a sharded cache needs a policy *name* (one instance per "
                "shard); got a policy object")
        if rebalance_every <= 0:
            raise ValueError(
                f"rebalance_every must be positive: {rebalance_every}")
        self.capacity_pages = capacity_pages
        self.max_pinned_fraction = max_pinned_fraction
        self.rebalance_every = rebalance_every
        base, extra = divmod(capacity_pages, shards)
        self._shards: list[_Shard] = [
            _Shard(i,
                   make_policy(policy) if isinstance(policy, str) else policy,
                   base + (1 if i < extra else 0))
            for i in range(shards)
        ]
        self._nshards = shards
        self._inserts_since_rebalance = 0
        self._pinned: set[PageKey] = set()
        #: the residency index: which pages are resident, as runs per inode
        self._index = RunResidency()
        #: per-inode residency generation; entries survive full eviction so
        #: a generation never moves backwards for a given inode id
        self._generations: dict[int, int] = {}
        #: tenant bookkeeping, populated lazily — untenanted workloads
        #: never touch these (the seed fast path stays allocation-free)
        self._tenant_limits: dict[str, TenantMemoryLimit] = (
            dict(tenant_limits) if tenant_limits else {})
        self._page_tenant: dict[PageKey, str] = {}
        self._tenant_pages: dict[str, dict[PageKey, None]] = {}
        #: the same pages split by shard index (``inode % nshards``), each
        #: dict in insertion order — the soft-limit reclaim index
        self._tenant_shard_pages: dict[str, list[dict[PageKey, None]]] = {}
        self.stats = CacheStats()
        #: optional eviction counter sink (the kernel's KernelCounters):
        #: ``note_evictions(count, owner)`` is called for every eviction,
        #: including hard-cap and rebalance evictions inside one insert
        self.eviction_sink = None
        #: optional telemetry observer (see repro.obs.telemetry) receiving
        #: on_cache_access / on_cache_insert / on_cache_evict /
        #: on_cache_remove; purely observational, never affects residency
        self.observer = None

    @property
    def policy(self) -> ReplacementPolicy:
        """Shard 0's replacement policy — *the* policy at 1 shard."""
        return self._shards[0].policy

    @property
    def nshards(self) -> int:
        return self._nshards

    @property
    def residency(self) -> RunResidency:
        """The residency index, for run questions such as
        :meth:`RunResidency.run_end`; callers outside the cache only
        query it."""
        return self._index

    def _shard_of(self, key: PageKey) -> _Shard:
        return self._shards[key[0] % self._nshards]

    # -- queries ------------------------------------------------------------

    def __len__(self) -> int:
        return sum(shard.count for shard in self._shards)

    def __contains__(self, key: PageKey) -> bool:
        return self._index.contains(key[0], key[1])

    def peek(self, key: PageKey) -> bool:
        """Residency check that does not disturb replacement state."""
        return self._index.contains(key[0], key[1])

    def generation(self, inode_id: int) -> int:
        """The inode's residency generation: bumps on every insert,
        eviction, or invalidation touching the inode.  Two equal readings
        with no interleaving bump guarantee identical residency."""
        return self._generations.get(inode_id, 0)

    def resident_set(self, inode_id: int) -> frozenset[int]:
        """The inode's resident page indices, as a fresh frozenset.

        O(resident-in-inode) materialisation; prefer :meth:`resident_runs`
        on hot paths — a densely resident inode is only a few runs."""
        return self._index.pages(inode_id)

    def resident_runs(self, inode_id: int,
                      npages: int) -> list[tuple[int, int]]:
        """Sorted resident ``[start, end)`` page runs clipped to
        ``[0, npages)`` — the shape the SLED interval-merge builder
        consumes.  O(runs)."""
        return self._index.runs(inode_id, npages)

    def resident_pages(self, inode_id: int, npages: int) -> list[bool]:
        """Residency bitmap for the first ``npages`` pages of an inode.

        O(runs + npages) output fill, no per-page membership probes."""
        return self._index.bitmap(inode_id, npages)

    def resident_count(self, inode_id: int, npages: int) -> int:
        """Number of the inode's first ``npages`` pages currently cached.

        O(runs) (O(1) when the whole index fits)."""
        return self._index.count(inode_id, npages)

    def tenant_resident_count(self, tenant: str) -> int:
        """How many resident pages the tenant currently owns."""
        pages = self._tenant_pages.get(tenant)
        return len(pages) if pages is not None else 0

    def tenant_report(self) -> dict[str, dict[str, int | None]]:
        """Per-tenant residency vs configured limits, for observability."""
        tenants = set(self._tenant_pages) | set(self._tenant_limits)
        out: dict[str, dict[str, int | None]] = {}
        for tenant in sorted(tenants):
            limit = self._tenant_limits.get(tenant)
            out[tenant] = {
                "resident_pages": self.tenant_resident_count(tenant),
                "soft_pages": limit.soft_pages if limit else None,
                "hard_pages": limit.hard_pages if limit else None,
                "evictions": self.stats.tenant_evictions.get(tenant, 0),
            }
        return out

    def shard_report(self) -> list[dict[str, int]]:
        """Per-shard occupancy and capacity, for observability."""
        return [{"capacity_pages": shard.capacity,
                 "resident_pages": shard.count,
                 "recent_insertions": shard.recent_insertions}
                for shard in self._shards]

    # -- index maintenance -----------------------------------------------

    def _index_add(self, key: PageKey) -> None:
        inode_id, page = key
        self._index.add(inode_id, page)
        self._generations[inode_id] = self._generations.get(inode_id, 0) + 1

    def _index_discard(self, key: PageKey) -> None:
        inode_id, page = key
        self._index.discard(inode_id, page)
        self._generations[inode_id] = self._generations.get(inode_id, 0) + 1

    # -- tenant bookkeeping ----------------------------------------------

    def _tenant_track(self, key: PageKey, tenant: str) -> None:
        self._page_tenant[key] = tenant
        pages = self._tenant_pages.get(tenant)
        if pages is None:
            pages = self._tenant_pages[tenant] = {}
            self._tenant_shard_pages[tenant] = [
                {} for _ in range(self._nshards)]
        pages[key] = None
        self._tenant_shard_pages[tenant][key[0] % self._nshards][key] = None

    def _tenant_forget(self, key: PageKey) -> str | None:
        """Drop tenant bookkeeping for an evicted/invalidated key
        (callers skip it while no page is tenanted)."""
        tenant = self._page_tenant.pop(key, None)
        if tenant is not None:
            pages = self._tenant_pages[tenant]
            del pages[key]
            if pages:
                del self._tenant_shard_pages[tenant][
                    key[0] % self._nshards][key]
            else:
                del self._tenant_pages[tenant]
                del self._tenant_shard_pages[tenant]
        return tenant

    def _drop_victim(self, victim: PageKey, shard: _Shard,
                     forced: bool = False) -> None:
        """The bookkeeping every eviction shares, once the victim has
        left its shard's policy: residency, owner, counts."""
        self._index_discard(victim)
        owner = self._tenant_forget(victim) if self._page_tenant else None
        shard.count -= 1
        stats = self.stats
        stats.evictions += 1
        if owner is not None:
            stats.tenant_evictions[owner] = (
                stats.tenant_evictions.get(owner, 0) + 1)
        if self.eviction_sink is not None:
            self.eviction_sink.note_evictions(1, owner)
        if self.observer is not None:
            self.observer.on_cache_evict(victim, forced=forced)

    # -- the read/write path --------------------------------------------------

    def access(self, key: PageKey) -> bool:
        """Record an access; returns True on hit, False on miss.

        A miss does *not* insert; the kernel inserts after the device read
        completes, via :meth:`insert`.
        """
        if self._index.contains(key[0], key[1]):
            self._shard_of(key).policy.on_hit(key)
            self.stats.hits += 1
            if self.observer is not None:
                self.observer.on_cache_access(key, hit=True)
            return True
        self.stats.misses += 1
        if self.observer is not None:
            self.observer.on_cache_access(key, hit=False)
        return False

    def hit_run(self, inode_id: int, start: int, n: int) -> None:
        """:meth:`access` hits on the ``n`` pages ``[start, start+n)`` of
        one inode, in page order — the caller found them all resident.

        The inode's shard policy sees one ``on_hit_run``, which equals
        an ``on_hit`` per page, and the observer one ``on_cache_access``
        per page, as ``n`` :meth:`access` calls would make them.  A hit
        moves no count or generation, so the observer's calls may follow
        the policy's."""
        self._shards[inode_id % self._nshards].policy.on_hit_run(
            inode_id, start, n)
        observer = self.observer
        if observer is not None:
            for page in range(start, start + n):
                observer.on_cache_access((inode_id, page), hit=True)
        self.stats.hits += n

    def insert(self, key: PageKey, tenant: str | None = None) -> PageKey | None:
        """Make ``key`` resident; returns the key its shard evicted to
        make room, if any.  A hard-cap or rebalance eviction in the same
        insert is not returned; every eviction reaches ``eviction_sink``.

        Inserting an already-resident key just refreshes its recency.
        Pinned pages are passed over during victim selection (they get a
        fresh lease in the policy); only when *every* resident page is
        pinned does the cache sacrifice one, counting it in
        ``stats.forced_pinned_evictions``.

        ``tenant`` attributes the page to a tenant for working-set
        accounting and limits; ``None`` (the default) takes the exact seed
        path with no tenant bookkeeping.
        """
        shard = self._shards[key[0] % self._nshards]
        if self._index.contains(key[0], key[1]):
            shard.policy.on_hit(key)
            return None
        return self._insert_new(shard, key, tenant)

    def _insert_new(self, shard: _Shard, key: PageKey,
                    tenant: str | None) -> PageKey | None:
        """:meth:`insert`'s steps for a non-resident ``key`` of
        ``shard``: make room under ``tenant``'s hard cap, then in the
        full shard; make the key resident, owned by ``tenant`` and
        observed; count it toward the next rebalance.  Returns the key
        the shard evicted, if any."""
        evicted: PageKey | None = None
        if tenant is not None:
            self._enforce_hard_cap(tenant)
        if shard.count >= shard.capacity:
            evicted = self._evict_one(shard)
        self._index_add(key)
        shard.policy.on_insert(key)
        shard.count += 1
        self.stats.insertions += 1
        if tenant is not None:
            self._tenant_track(key, tenant)
        if self.observer is not None:
            self.observer.on_cache_insert(key)
        if self._nshards > 1:
            shard.recent_insertions += 1
            self._inserts_since_rebalance += 1
            if self._inserts_since_rebalance >= self.rebalance_every:
                self._rebalance()
        return evicted

    def insert_run(self, inode_id: int, start: int, n: int,
                   tenant: str | None = None) -> None:
        """:meth:`insert` of the ``n`` pages ``[start, start+n)`` of one
        inode, in page order, as one call — the kernel completes each
        span of fault clusters it has read with this.

        Each page takes :meth:`insert`'s own steps, so evictions, their
        owners, victim choices, rebalance points, hook calls and the
        counters and generations each hook sees match ``n``
        :meth:`insert` calls.  The run is walked in index pieces: a
        resident piece refreshes its recency with one ``on_hit_run``, a
        new one goes page by page through :meth:`_insert_new`.  Each
        piece is asked for only when the walk reaches it, because
        inserting the pages before it may evict pages after it.

        An untenanted run of new pages into a one-shard LRU cache with no
        pins, limits or observer takes a shortcut: scalar interleaving
        evicts ``max(0, count + n - capacity)`` victims from the *front*
        of the recency order while appending the new keys at the back;
        with ``n <= capacity`` every victim predates the run, so evicting
        them all first and then appending the run reaches the identical
        final order, residency, index, and generation values.
        """
        if n == 1:
            # a one-page run is one insert
            self.insert((inode_id, start), tenant)
            return
        shard = self._shards[inode_id % self._nshards]
        policy = shard.policy
        index = self._index
        if not (tenant is None and self._nshards == 1
                and not self._pinned and self.observer is None
                and not self._tenant_limits and not self._page_tenant
                and type(policy) is LruPolicy and n <= shard.capacity
                and not index.any_in(inode_id, start, n)):
            insert_new = self._insert_new
            page, stop = start, start + n
            while page < stop:
                end = index.run_end(inode_id, page)
                if end > page:
                    end = min(end, stop)
                    policy.on_hit_run(inode_id, page, end - page)
                else:
                    end = index.next_resident(inode_id, page + 1, stop)
                    for new in range(page, end):
                        insert_new(shard, (inode_id, new), tenant)
                page = end
            return
        need = shard.count + n - shard.capacity
        generations = self._generations
        if need > 0:
            for vin, vstart, vn in policy.choose_victims(need):
                index.discard_run(vin, vstart, vn)
                generations[vin] = generations.get(vin, 0) + vn
            shard.count -= need
            self.stats.evictions += need
            if self.eviction_sink is not None:
                self.eviction_sink.note_evictions(need, None)
        index.add_run(inode_id, start, n)
        generations[inode_id] = generations.get(inode_id, 0) + n
        policy.on_insert_run(inode_id, start, n)
        shard.count += n
        self.stats.insertions += n

    def _evict_one(self, shard: _Shard) -> PageKey:
        if self._tenant_limits:
            victim = self._soft_victim(shard)
            if victim is not None:
                shard.policy.on_remove(victim)
                self.stats.tenant_soft_evictions += 1
                self._drop_victim(victim, shard)
                return victim
        for _ in range(shard.count):
            victim = shard.policy.choose_victim()
            if victim not in self._pinned:
                self._drop_victim(victim, shard)
                return victim
            # pinned: give it a fresh lease and keep looking
            shard.policy.on_refresh(victim)
        # every resident page is pinned: forced eviction, oldest pinned
        victim = shard.policy.choose_victim()
        self._pinned.discard(victim)
        self.stats.forced_pinned_evictions += 1
        self._drop_victim(victim, shard, forced=True)
        return victim

    def _soft_victim(self, shard: _Shard) -> PageKey | None:
        """The oldest unpinned page (in this shard) of a tenant over its
        soft limit — the cgroup-style preferred reclaim victim.

        Shard routing is fixed per key, so the first unpinned key of the
        tenant's per-shard bucket is the first one a scan of all the
        tenant's pages, filtered by shard, would find."""
        pinned = self._pinned
        for tenant, limit in self._tenant_limits.items():
            if limit.soft_pages is None:
                continue
            pages = self._tenant_pages.get(tenant)
            if pages is None or len(pages) <= limit.soft_pages:
                continue
            for key in self._tenant_shard_pages[tenant][shard.index]:
                if key not in pinned:
                    return key
        return None

    def _enforce_hard_cap(self, tenant: str) -> None:
        """Evict the tenant's own oldest unpinned pages while it sits at
        or above its hard cap, so the upcoming insert keeps it within the
        cap.  The freed slot may sit in another shard than the insert's;
        a full target shard then still evicts by its own policy."""
        limit = self._tenant_limits.get(tenant)
        if limit is None or limit.hard_pages is None:
            return
        pages = self._tenant_pages.get(tenant)
        while pages and len(pages) >= limit.hard_pages:
            victim = next(
                (key for key in pages if key not in self._pinned), None)
            if victim is None:  # every page pinned: cap cannot be enforced
                return
            shard = self._shard_of(victim)
            shard.policy.on_remove(victim)
            self.stats.tenant_hard_evictions += 1
            self._drop_victim(victim, shard)
            pages = self._tenant_pages.get(tenant)

    # -- the eviction balancer -------------------------------------------

    def _rebalance(self) -> None:
        """Reassign shard capacities toward recently-hot shards.

        Each shard keeps a floor (a quarter of its even share) so cold
        shards never starve; the remainder is split proportionally to the
        insertions observed since the last rebalance, largest remainders
        rounding up so the shares sum exactly to ``capacity_pages``.
        Shards that shrank below their occupancy evict down immediately.
        """
        self._inserts_since_rebalance = 0
        shards = self._shards
        floor = max(1, self.capacity_pages // (self._nshards * 4))
        spare = self.capacity_pages - floor * self._nshards
        weights = [shard.recent_insertions for shard in shards]
        total = sum(weights)
        if total == 0:
            weights = [1] * self._nshards
            total = self._nshards
        exact = [spare * w / total for w in weights]
        grants = [int(x) for x in exact]
        remainder = spare - sum(grants)
        for i in sorted(range(self._nshards),
                        key=lambda i: (grants[i] - exact[i], i)):
            if remainder <= 0:
                break
            grants[i] += 1
            remainder -= 1
        for shard, grant in zip(shards, grants):
            shard.capacity = floor + grant
            shard.recent_insertions = 0
            while shard.count > shard.capacity:
                self._evict_one(shard)
        self.stats.rebalances += 1

    # -- pinning (the paper's §3.4 lock/reservation mechanism) -------------

    def pin(self, key: PageKey) -> bool:
        """Lock a resident page against eviction.

        Returns False (no pin taken) when the page is not resident or the
        pin budget (``max_pinned_fraction`` of capacity) is exhausted —
        the reservation analogue of mlock limits.
        """
        if key in self._pinned:
            return True
        if not self._index.contains(key[0], key[1]):
            return False
        if (len(self._pinned) + 1
                > self.max_pinned_fraction * self.capacity_pages):
            return False
        self._pinned.add(key)
        return True

    def unpin(self, key: PageKey) -> bool:
        """Release a pin; returns True if the key was pinned."""
        if key in self._pinned:
            self._pinned.discard(key)
            return True
        return False

    def is_pinned(self, key: PageKey) -> bool:
        return key in self._pinned

    @property
    def pinned_count(self) -> int:
        return len(self._pinned)

    # -- invalidation -----------------------------------------------------------

    def invalidate(self, key: PageKey) -> bool:
        """Drop one page; returns True if it was resident."""
        if not self._index.contains(key[0], key[1]):
            return False
        shard = self._shard_of(key)
        self._index_discard(key)
        self._pinned.discard(key)
        if self._page_tenant:
            self._tenant_forget(key)
        shard.policy.on_remove(key)
        shard.count -= 1
        self.stats.invalidations += 1
        if self.observer is not None:
            self.observer.on_cache_remove(key)
        return True

    def invalidate_inode(self, inode_id: int) -> int:
        """Drop every cached page of an inode; returns the count dropped.

        O(resident-in-inode) via the residency index, pages visited in
        ascending order.  Always bumps the inode's generation, so a
        kernel-cached SLED vector is invalidated even when nothing was
        resident.
        """
        count = 0
        shard = self._shards[inode_id % self._nshards]
        for page in self._index.pop_inode(inode_id):
            count += 1
            key = (inode_id, page)
            self._pinned.discard(key)
            if self._page_tenant:
                self._tenant_forget(key)
            shard.policy.on_remove(key)
            shard.count -= 1
            if self.observer is not None:
                self.observer.on_cache_remove(key)
        self._generations[inode_id] = self._generations.get(inode_id, 0) + 1
        self.stats.invalidations += count
        return count

    def clear(self) -> int:
        """Drop everything (e.g. to simulate a cold boot); returns count.

        Each resident inode is invalidated in turn, its pages in
        ascending order."""
        return sum(self.invalidate_inode(inode_id)
                   for inode_id in list(self._index.inodes()))
