"""Reference fault paths: the kernel's per-page loops.

:meth:`repro.kernel.kernel.Kernel._fault_in` (blocking) and
:meth:`~repro.kernel.kernel.Kernel._fault_in_async` (under the event
engine) plan a span by runs and insert each span of clusters in one
step.  These are the loops they replaced: one readahead advice, one
cache access and, on a miss, one cluster and its per-page inserts, page
by page — for the engine, parking after each cluster or, through a
merge/plug front, once per span.  The tests require the same virtual
outcome from both: clock, counters, cache, readahead, device, queue and
telemetry state.
"""

from __future__ import annotations

from types import MethodType

from repro.obs.lifecycle import component_delta, snapshot_components
from repro.sim.errors import InvalidArgumentError
from repro.sim.units import page_span

__all__ = ["per_page_fault_in", "per_page_fault_in_async",
           "per_page_fault_in_runs", "use_per_page_engine_faults",
           "use_per_page_faults"]


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


# -- the engine's per-page loops -------------------------------------------


def per_page_fault_in_async(kernel, of, offset: int, length: int,
                            use_readahead: bool = True):
    """The engine's fault path one page at a time: park after each miss
    cluster, or, through an active merge/plug front, plan the whole span
    per page and park once (:func:`per_page_fault_in_runs`)."""
    engine = kernel.engine
    if engine is None:
        raise InvalidArgumentError(
            "no I/O engine attached; use the blocking read path or "
            "kernel.attach_engine()")
    if engine.block_active:
        yield from per_page_fault_in_runs(kernel, of, offset, length,
                                          use_readahead)
        return
    inode = of.inode
    inode_id = inode.id
    fs = of.fs
    cache = kernel.page_cache
    counters = kernel.counters
    readahead = of.readahead
    npages = inode.npages
    tenant = kernel.current_tenant
    for page in page_span(offset, length):
        window = readahead.advise(page) if use_readahead else 1
        key = (inode_id, page)
        if cache.access(key):
            counters.cache_hits += 1
            if tenant is not None:
                counters.note_tenant_hit(tenant)
            if kernel.prefetcher is not None:
                kernel.prefetcher.note_access(key)
            if kernel.telemetry is not None:
                kernel.telemetry.on_hit(inode_id, page)
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
        future = engine.submit_cluster(fs, inode, page, cluster,
                                       tenant=tenant)
        completion = yield future
        seconds = completion.duration
        counters.pages_read += cluster
        counters.readahead_pages += cluster - 1
        if kernel.tracer is not None:
            kernel.tracer.emit(kernel.clock.now, "fault",
                               fs.device.time_category, seconds,
                               page=page, cluster=cluster, inode=inode_id)
        if kernel.telemetry is not None:
            kernel.telemetry.on_fault(
                fs.device, inode_id, page, cluster, seconds,
                now=kernel.clock.now, window=window, fs=fs,
                completion=completion)
        for extra in range(page, page + cluster):
            cache.insert((inode_id, extra), tenant)
            if kernel.telemetry is not None and extra != page:
                kernel.telemetry.on_readahead_insert((inode_id, extra))


def per_page_fault_in_runs(kernel, of, offset: int, length: int,
                           use_readahead: bool = True):
    """Plan a span page by page, submit every miss cluster, park once,
    then complete cluster by cluster with per-page inserts; pages an
    earlier cluster of the span covers count as hits."""
    engine = kernel.engine
    inode = of.inode
    inode_id = inode.id
    fs = of.fs
    cache = kernel.page_cache
    counters = kernel.counters
    readahead = of.readahead
    npages = inode.npages
    tenant = kernel.current_tenant
    runs: list[tuple[int, int, int]] = []  # (page, cluster, window)
    covered_until = -1  # end of the last planned run, exclusive
    for page in page_span(offset, length):
        window = readahead.advise(page) if use_readahead else 1
        key = (inode_id, page)
        if page < covered_until or cache.access(key):
            counters.cache_hits += 1
            if tenant is not None:
                counters.note_tenant_hit(tenant)
            if page >= covered_until and kernel.prefetcher is not None:
                kernel.prefetcher.note_access(key)
            if kernel.telemetry is not None:
                kernel.telemetry.on_hit(inode_id, page)
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
        runs.append((page, cluster, window))
        covered_until = page + cluster
    if not runs:
        return
    futures = [engine.submit_cluster(fs, inode, page, cluster,
                                     tenant=tenant)
               for page, cluster, _ in runs]
    yield futures
    tracer = kernel.tracer
    telemetry = kernel.telemetry
    device = fs.device
    category = device.time_category
    now = kernel.clock.now
    for (page, cluster, window), future in zip(runs, futures):
        completion = future.value
        seconds = completion.duration
        counters.pages_read += cluster
        counters.readahead_pages += cluster - 1
        if tracer is not None:
            tracer.emit(now, "fault", category, seconds,
                        page=page, cluster=cluster, inode=inode_id)
        if telemetry is not None:
            telemetry.on_fault(
                device, inode_id, page, cluster, seconds,
                now=now, window=window, fs=fs, completion=completion)
        for extra in range(page, page + cluster):
            cache.insert((inode_id, extra), tenant)
            if telemetry is not None and extra != page:
                telemetry.on_readahead_insert((inode_id, extra))


def use_per_page_engine_faults(kernel):
    """Route ``kernel``'s engine reads (``read_async``, ``pread_async``)
    through :func:`per_page_fault_in_async`; returns the kernel."""
    kernel._fault_in_async = MethodType(per_page_fault_in_async, kernel)
    return kernel
