"""Buffer-cache substrate: page cache, replacement policies, readahead."""

from repro.cache.page_cache import CacheStats, PageCache, TenantMemoryLimit
from repro.cache.policies import (
    ClockPolicy,
    LruPolicy,
    ReplacementPolicy,
    TwoQPolicy,
    make_policy,
)
from repro.cache.readahead import ReadaheadWindow
from repro.cache.residency import RunResidency

__all__ = [
    "PageCache",
    "CacheStats",
    "TenantMemoryLimit",
    "RunResidency",
    "ReplacementPolicy",
    "LruPolicy",
    "ClockPolicy",
    "TwoQPolicy",
    "make_policy",
    "ReadaheadWindow",
]
