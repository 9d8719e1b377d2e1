"""Reference soft-limit reclaim: a scan of all of a tenant's pages.

:meth:`repro.cache.page_cache.PageCache._soft_victim` looks only in the
evicting shard's bucket of each over-soft tenant.  This is the scan it
replaced: every page the tenant owns, in insertion order, filtered by
shard.  The tests require the same victims step for step.
"""

from __future__ import annotations

from repro.cache.page_cache import PageCache

__all__ = ["LinearSoftVictimCache"]


class LinearSoftVictimCache(PageCache):
    """A :class:`PageCache` whose soft-limit victim comes from a linear
    scan of the tenant's whole page dict."""

    def _soft_victim(self, shard):
        for tenant, limit in self._tenant_limits.items():
            if limit.soft_pages is None:
                continue
            pages = self._tenant_pages.get(tenant)
            if pages is None or len(pages) <= limit.soft_pages:
                continue
            for key in pages:
                if key not in self._pinned and self._shard_of(key) is shard:
                    return key
        return None
