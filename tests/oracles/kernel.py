"""Reference fault and write paths: the kernel's per-page loops.

:meth:`repro.kernel.kernel.Kernel._fault_in` (blocking) and
:meth:`~repro.kernel.kernel.Kernel._fault_in_async` (under the event
engine) plan a span by runs and insert each span of clusters in one
step.  These are the loops they replaced: one readahead advice, one
cache access and, on a miss, one cluster and its per-page inserts, page
by page — for the engine, parking after each cluster or, through a
merge/plug front, once per span.  The tests require the same virtual
outcome from both: clock, counters, cache, readahead, device, queue and
telemetry state.

The kernel's write side likewise has one span routine for ``write`` and
``pwrite`` (one ``insert_run`` per written span), one writeback planner
and one blocking flush.  The code they replaced is kept below:
per-page inserts and dirty marks, ``_writeback`` with its own HSM loop,
``_writeback_requests``, ``_writeback_async``, ``sync`` and
``_flush_inode``, with two fixes applied so that programs with injected
failures compare too: ``sync`` takes each filesystem's files out of the
dirty table only when that filesystem's flush starts, and the blocking
HSM flush counts its pages written once, after its last run.
"""

from __future__ import annotations

from types import MethodType

from repro.fs.filesystem import FileSystem
from repro.kernel.kernel import _contiguous_runs, _syscall_span
from repro.obs.lifecycle import component_delta, snapshot_components
from repro.sim.errors import (BadFileDescriptorError, InvalidArgumentError,
                              ReadOnlyFilesystemError)
from repro.sim.units import PAGE_SIZE, page_span

__all__ = ["per_page_fault_in", "per_page_fault_in_async",
           "per_page_fault_in_runs", "use_per_page_engine_faults",
           "use_per_page_faults", "use_per_page_writes"]


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


# -- the write side ----------------------------------------------------------


def per_page_write(kernel, fd: int, data: bytes) -> int:
    kernel._syscall("write")
    of = kernel._fd(fd)
    if not of.writable:
        raise BadFileDescriptorError(f"fd {fd} not open for writing")
    if of.fs.read_only:
        raise ReadOnlyFilesystemError(
            f"filesystem {of.fs.name!r} is read-only")
    if not data:
        return 0
    inode = of.inode
    if of.append:
        of.pos = inode.size
    end = of.pos + len(data)
    if end > inode.size:
        of.fs.grow_file(inode, end)
    try:
        inode.content.write(of.pos, data)
    except ReadOnlyFilesystemError:
        from repro.fs.content import CowContent
        inode.content = CowContent(inode.content)
        inode.content.write(of.pos, data)
    kernel._charge_memory(len(data))
    dirty = kernel._dirty.setdefault(inode.id, (of.fs, inode, set()))[2]
    for page in page_span(of.pos, len(data)):
        kernel.page_cache.insert((inode.id, page), kernel.current_tenant)
        dirty.add(page)
    kernel.counters.bytes_written += len(data)
    of.pos = end
    inode.mtime = kernel.clock.now
    if len(dirty) >= kernel.writeback_threshold_pages:
        flush_inode(kernel, inode.id)
    return len(data)


def per_page_pwrite(kernel, fd: int, offset: int, data: bytes) -> int:
    kernel._syscall("pwrite")
    of = kernel._fd(fd)
    if not of.writable:
        raise BadFileDescriptorError(f"fd {fd} not open for writing")
    if of.fs.read_only:
        raise ReadOnlyFilesystemError(
            f"filesystem {of.fs.name!r} is read-only")
    if offset < 0:
        raise InvalidArgumentError(f"negative offset: {offset}")
    if not data:
        return 0
    inode = of.inode
    end = offset + len(data)
    if end > inode.size:
        of.fs.grow_file(inode, end)
    try:
        inode.content.write(offset, data)
    except ReadOnlyFilesystemError:
        from repro.fs.content import CowContent
        inode.content = CowContent(inode.content)
        inode.content.write(offset, data)
    kernel._charge_memory(len(data))
    dirty = kernel._dirty.setdefault(inode.id, (of.fs, inode, set()))[2]
    for page in page_span(offset, len(data)):
        kernel.page_cache.insert((inode.id, page), kernel.current_tenant)
        dirty.add(page)
    kernel.counters.bytes_written += len(data)
    inode.mtime = kernel.clock.now
    if len(dirty) >= kernel.writeback_threshold_pages:
        flush_inode(kernel, inode.id)
    return len(data)


def sync(kernel) -> None:
    """Flush every dirty page, one filesystem at a time; a filesystem's
    files leave the dirty table only when its flush starts."""
    by_fs = {}
    for inode_id, (fs, _, _) in kernel._dirty.items():
        by_fs.setdefault(id(fs), (fs, []))[1].append(inode_id)
    for fs, inode_ids in by_fs.values():
        dirty_files = []
        for inode_id in inode_ids:
            _, inode, pages = kernel._dirty.pop(inode_id)
            dirty_files.append((inode, pages))
        try:
            writeback(kernel, fs, dirty_files)
        except Exception:
            for inode, pages in dirty_files:
                kernel._dirty.setdefault(
                    inode.id, (fs, inode, set()))[2].update(pages)
            raise


def flush_inode(kernel, inode_id: int) -> None:
    entry = kernel._dirty.pop(inode_id, None)
    if entry is None:
        return
    fs, inode, pages = entry
    try:
        writeback(kernel, fs, [(inode, pages)])
    except Exception:
        kernel._dirty.setdefault(
            inode_id, (fs, inode, set()))[2].update(pages)
        raise


def writeback(kernel, fs, dirty_files) -> None:
    """Flush dirty runs of one filesystem, batched via the scheduler
    when the filesystem has no write path of its own; otherwise run by
    run through it, counting the pages written after the last run."""
    from repro.block.scheduler import submit_batch

    if type(fs).write_pages is not FileSystem.write_pages:
        total_pages = 0
        for inode, pages in dirty_files:
            for start, run in _contiguous_runs(sorted(pages)):
                seconds = fs.write_pages(inode, start, run)
                kernel.clock.advance(kernel._noisy(seconds),
                                     fs.device.time_category)
                total_pages += run
        kernel.counters.pages_written += total_pages
        return
    requests, total_pages = writeback_requests(dirty_files)
    if not requests:
        return
    if kernel.telemetry is not None:
        kernel.telemetry.on_queue_depth(fs.device, len(requests))
    seconds = submit_batch(fs.device, requests, kernel.io_scheduler)
    kernel.clock.advance(kernel._noisy(seconds), fs.device.time_category)
    kernel.counters.pages_written += total_pages


def writeback_requests(dirty_files) -> tuple[list, int]:
    """Dirty page runs -> block-layer write requests, split at extent
    boundaries."""
    from repro.block.scheduler import IoRequest

    requests = []
    total_pages = 0
    for inode, pages in dirty_files:
        for start, run in _contiguous_runs(sorted(pages)):
            requests.extend(
                IoRequest(addr=addr, nbytes=npages * PAGE_SIZE,
                          is_write=True)
                for addr, npages in inode.extent_map.device_runs(
                    start, run))
            total_pages += run
    return requests, total_pages


def per_page_fsync_async(kernel, fd: int):
    kernel._syscall("fsync")
    of = kernel._fd(fd)
    yield from writeback_async(kernel, of.inode.id)


def writeback_async(kernel, inode_id: int):
    engine = kernel.engine
    if engine is None:
        raise InvalidArgumentError(
            "no I/O engine attached; use the blocking fsync() or "
            "kernel.attach_engine()")
    entry = kernel._dirty.pop(inode_id, None)
    if entry is None:
        return
    fs, inode, pages = entry
    queue = engine.queue_for(fs.device)
    futures = []
    if type(fs).write_pages is FileSystem.write_pages:
        requests, total_pages = writeback_requests([(inode, pages)])
        if kernel.telemetry is not None:
            kernel.telemetry.on_queue_depth(fs.device, len(requests))
        for request in requests:
            futures.append(queue.submit(
                request.addr, request.nbytes, is_write=True,
                service=kernel._traced_service(
                    fs, ("writeback", inode.id, request.addr),
                    lambda r=request, device=fs.device:
                    device.write(r.addr, r.nbytes)),
                label=f"writeback:{fs.name}:{inode.id}",
                kind="writeback"))
    else:
        total_pages = 0
        for start, run in _contiguous_runs(sorted(pages)):
            addr = inode.extent_map.addr_of(start)
            futures.append(queue.submit(
                addr, run * PAGE_SIZE, is_write=True,
                service=kernel._traced_service(
                    fs, ("writeback", inode.id, addr),
                    lambda inode=inode, start=start, run=run:
                    fs.write_pages(inode, start, run)),
                label=f"writeback:{fs.name}:{inode.id}:{start}+{run}",
                kind="writeback"))
            total_pages += run
    if not futures:
        return
    try:
        yield futures
    except Exception:
        kernel._dirty.setdefault(
            inode_id, (fs, inode, set()))[2].update(pages)
        raise
    kernel.counters.pages_written += total_pages
    if kernel.telemetry is not None:
        for future in futures:
            if future.value is not None:
                kernel.telemetry.on_writeback(fs, inode, future.value)


def per_page_flush(kernel, inode_ids) -> None:
    """The kernel's blocking flush of one file (``fsync``, ``close``) as
    :func:`flush_inode`; ``sync`` is routed to :func:`sync` itself."""
    for inode_id in inode_ids:
        flush_inode(kernel, inode_id)


def use_per_page_writes(kernel):
    """Route ``kernel``'s ``write``, ``pwrite``, ``fsync``, ``close``,
    ``sync`` and ``fsync_async`` through the write code above; returns
    the kernel."""
    kernel.write = MethodType(_syscall_span("write")(per_page_write), kernel)
    kernel.pwrite = MethodType(_syscall_span("pwrite")(per_page_pwrite),
                               kernel)
    kernel.sync = MethodType(sync, kernel)
    kernel._flush = MethodType(per_page_flush, kernel)
    kernel.fsync_async = MethodType(per_page_fsync_async, kernel)
    return kernel
