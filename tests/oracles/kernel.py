"""Reference blocking fault path: the kernel's per-page loop.

:meth:`repro.kernel.kernel.Kernel._fault_in` plans a span by runs,
services it by cluster and inserts each cluster in one step.  This is
the loop it replaced: one readahead advice, one cache access and, on a
miss, one cluster read and its per-page inserts, page by page.  The
tests require the same virtual outcome from both: clock, counters,
cache, readahead, device and telemetry state.
"""

from __future__ import annotations

from types import MethodType

from repro.obs.lifecycle import component_delta, snapshot_components
from repro.sim.units import page_span

__all__ = ["per_page_fault_in", "use_per_page_faults"]


def per_page_fault_in(kernel, of, offset: int, length: int,
                      use_readahead: bool = True) -> None:
    """Fault in ``[offset, offset + length)`` one page at a time."""
    inode = of.inode
    inode_id = inode.id
    fs = of.fs
    cache = kernel.page_cache
    counters = kernel.counters
    clock = kernel.clock
    telemetry = kernel.telemetry
    tracer = kernel.tracer
    prefetcher = kernel.prefetcher
    readahead = of.readahead
    npages = inode.npages
    category = fs.device.time_category
    tenant = kernel.current_tenant
    for page in page_span(offset, length):
        window = readahead.advise(page) if use_readahead else 1
        key = (inode_id, page)
        if cache.access(key):
            counters.cache_hits += 1
            if tenant is not None:
                counters.note_tenant_hit(tenant)
            if prefetcher is not None:
                prefetcher.note_access(key)
            if telemetry is not None:
                telemetry.on_hit(inode_id, page)
            continue
        counters.cache_misses += 1
        counters.hard_faults += 1
        if tenant is not None:
            counters.note_tenant_miss(tenant)
        cluster = 1
        limit = min(window, npages - page)
        while (cluster < limit
               and not cache.peek((inode_id, page + cluster))):
            cluster += 1
        if telemetry is not None:
            before = snapshot_components(fs)
        seconds = kernel._noisy(fs.read_pages(inode, page, cluster))
        clock.advance(seconds, category)
        counters.pages_read += cluster
        counters.readahead_pages += cluster - 1
        if tracer is not None:
            tracer.emit(clock.now, "fault", category, seconds,
                        page=page, cluster=cluster, inode=inode_id)
        if telemetry is not None:
            telemetry.on_fault(
                fs.device, inode_id, page, cluster, seconds,
                now=clock.now, window=window, fs=fs,
                components=component_delta(before))
        for extra in range(page, page + cluster):
            cache.insert((inode_id, extra), tenant)
            if telemetry is not None and extra != page:
                telemetry.on_readahead_insert((inode_id, extra))


def use_per_page_faults(kernel):
    """Route ``kernel``'s blocking reads (``read``, ``pread``,
    ``MappedRegion.read``) through :func:`per_page_fault_in`; returns
    the kernel."""
    kernel._fault_in = MethodType(per_page_fault_in, kernel)
    return kernel
