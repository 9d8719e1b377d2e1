"""Per-run accounting, replacing the paper's use of ``time`` and page-fault
counters.

The paper validates its hypotheses by measuring (a) hard page faults and
(b) elapsed time per application run.  :class:`ProcessRun` captures a delta
of the kernel's counters and the virtual clock over a ``with`` block, so a
benchmark run reads::

    with kernel.process() as run:
        wc(kernel, "/data/big.txt", use_sleds=True)
    print(run.elapsed, run.hard_faults)
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class KernelCounters:
    """Cumulative kernel-wide counters."""

    syscalls: int = 0
    hard_faults: int = 0
    pages_read: int = 0
    pages_written: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    readahead_pages: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    #: every page the page cache evicted (reported by the cache itself)
    evictions: int = 0
    #: FSLEDS_GET calls that rebuilt the vector (stamp mismatch / first call)
    sleds_builds: int = 0
    #: FSLEDS_GET calls answered from the generation-stamped vector cache
    sleds_cache_hits: int = 0
    #: library-level refetches skipped because the kernel stamp was unchanged
    sleds_refetch_skips: int = 0
    #: per-tenant cache accounting; empty until a tenanted task runs.
    #: tenant_evictions is keyed by the *owner* of the evicted page.
    tenant_cache_hits: dict = field(default_factory=dict)
    tenant_cache_misses: dict = field(default_factory=dict)
    tenant_evictions: dict = field(default_factory=dict)

    #: dict-valued fields, copied/diffed per key (everything else is int)
    _DICT_FIELDS = ("tenant_cache_hits", "tenant_cache_misses",
                    "tenant_evictions")

    def note_tenant_hit(self, tenant: str, count: int = 1) -> None:
        self.tenant_cache_hits[tenant] = (
            self.tenant_cache_hits.get(tenant, 0) + count)

    def note_tenant_miss(self, tenant: str, count: int = 1) -> None:
        self.tenant_cache_misses[tenant] = (
            self.tenant_cache_misses.get(tenant, 0) + count)

    def note_evictions(self, count: int, owner: str | None) -> None:
        """Charge ``count`` page-cache evictions of pages owned by
        ``owner`` (``None``: untenanted pages, counted in ``evictions``
        only).  The page cache calls this for every eviction it makes."""
        self.evictions += count
        if owner is not None:
            self.tenant_evictions[owner] = (
                self.tenant_evictions.get(owner, 0) + count)

    def copy(self) -> "KernelCounters":
        values = vars(self).copy()
        for name in self._DICT_FIELDS:
            values[name] = dict(values[name])
        return KernelCounters(**values)

    def delta(self, earlier: "KernelCounters") -> "KernelCounters":
        values = {}
        for name, value in vars(self).items():
            before = getattr(earlier, name)
            if name in self._DICT_FIELDS:
                values[name] = {
                    tenant: count - before.get(tenant, 0)
                    for tenant, count in value.items()
                    if count - before.get(tenant, 0)
                }
            else:
                values[name] = value - before
        return KernelCounters(**values)


@dataclass
class ProcessRun:
    """Measurement window over one application run."""

    _kernel: object = field(repr=False, default=None)
    _start_counters: KernelCounters | None = field(repr=False, default=None)
    _start_clock: object = field(repr=False, default=None)
    counters: KernelCounters | None = None
    elapsed: float = 0.0
    by_category: dict[str, float] = field(default_factory=dict)

    def finalize(self, kernel) -> None:
        self.counters = kernel.counters.delta(self._start_counters)
        self.elapsed = kernel.clock.elapsed_since(self._start_clock)
        self.by_category = kernel.clock.elapsed_by_category(self._start_clock)

    # -- convenience views ------------------------------------------------

    @property
    def hard_faults(self) -> int:
        assert self.counters is not None, "run not finalized"
        return self.counters.hard_faults

    @property
    def hit_ratio(self) -> float:
        """Page-cache hit ratio over the window (0.0 with no accesses)."""
        assert self.counters is not None, "run not finalized"
        accesses = self.counters.cache_hits + self.counters.cache_misses
        return self.counters.cache_hits / accesses if accesses else 0.0

    @property
    def cpu_time(self) -> float:
        return self.by_category.get("cpu", 0.0)

    @property
    def io_time(self) -> float:
        # category accounting can overlap elapsed time (e.g. writeback
        # triggered inside the window for pages dirtied before it), so
        # clamp instead of reporting a nonsensical negative duration
        return max(
            0.0,
            self.elapsed - self.cpu_time - self.by_category.get("memory", 0.0))
