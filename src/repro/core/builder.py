"""Kernel-side SLED vector construction.

Implements the paper's §4.1 walk: "each virtual memory page of the data
file is checked.  After the kernel finds out where a page of the data file
resides, it assigns a latency and bandwidth from the sleds table to this
page.  If consecutive pages have the same latency and bandwidth, i.e. they
are in the same storage device, they are grouped into one SLED."

:func:`build_sled_vector` produces the same vector as that literal
O(npages) walk (the reference in ``tests/oracles/builder.py``) in
O(resident + runs).  Resident pages come from the cache's per-inode
residency index as intervals; the gaps between them are answered by the
filesystem's batched
:meth:`~repro.fs.filesystem.FileSystem.span_estimates`, which reports
contiguous same-level runs straight from layout/HSM/NFS state.

Residency checks use the cache's index, so asking for SLEDs does not
itself perturb the cache recency the SLEDs describe.
"""

from __future__ import annotations

from repro.cache.page_cache import PageCache
from repro.core.sled import Sled, SledVector, check_sled
from repro.core.sled_table import SledTable
from repro.fs.filesystem import FileSystem, PageEstimate
from repro.fs.inode import Inode
from repro.sim.units import PAGE_SIZE

#: One run of the fold: ``(pages, latency, bandwidth, device key)``.
#: ``latency`` is what the SLED promises, the device's queue delay
#: included; a resident run has no device key.
Run = tuple[int, float, float, str | None]

_new_tuple = tuple.__new__


def _emit(runs: list[Run], size: int) -> SledVector:
    """Fold the runs (in file order) into SLEDs, merging same-level
    neighbours; the last SLED is clamped to ``size``.

    Each SLED is checked once, as it closes and in file order, by
    :func:`~repro.core.sled.check_sled`, so a filesystem's bad answer
    raises what the ``Sled`` constructor raises.  The checked fields are
    then packed straight into tuples, and ``coalesce=False`` has the
    vector validate them without sorting or merging again."""
    sleds: list[Sled] = []
    _, latency, bandwidth, _ = runs[0]
    start = page = 0
    for pages, run_latency, run_bandwidth, _ in runs:
        if run_latency != latency or run_bandwidth != bandwidth:
            offset = start * PAGE_SIZE
            length = (page - start) * PAGE_SIZE
            check_sled(offset, length, latency, bandwidth)
            sleds.append(_new_tuple(Sled, (offset, length, latency,
                                           bandwidth)))
            start, latency, bandwidth = page, run_latency, run_bandwidth
        page += pages
    offset = start * PAGE_SIZE
    check_sled(offset, size - offset, latency, bandwidth)
    sleds.append(_new_tuple(Sled, (offset, size - offset, latency,
                                   bandwidth)))
    return SledVector(sleds, size, coalesce=False)


def _price(estimate: PageEstimate, table: SledTable,
           queue_delays: dict[str, float] | None
           ) -> tuple[float, float, str]:
    """``(latency, bandwidth, device key)`` of a non-resident run: the
    estimate's figures, or the sleds-table row's where it gives none,
    with the device's queue delay added to the latency."""
    key = estimate.device_key
    extra = queue_delays.get(key, 0.0) if queue_delays else 0.0
    latency = estimate.latency
    bandwidth = estimate.bandwidth
    if latency is None or bandwidth is None:
        fallback = table.lookup(key)
        if latency is None:
            latency = fallback.latency
        if bandwidth is None:
            bandwidth = fallback.bandwidth
    return latency + extra, bandwidth, key


def build_sled_vector(cache: PageCache, fs: FileSystem, inode: Inode,
                      table: SledTable,
                      queue_delays: dict[str, float] | None = None,
                      ) -> tuple[SledVector, list[Run]]:
    """The FSLEDS_GET payload: a validated SLED vector for ``inode``,
    and the runs it was folded from.

    Cost is O(resident runs + estimate runs), not O(npages) and not even
    O(resident pages): resident *intervals* come straight from the
    cache's run-based per-inode index (:meth:`PageCache.resident_runs` —
    no sort, no per-page walk) and the non-resident gaps are filled by
    one ``span_estimates`` call each.

    ``queue_delays`` (device_key -> seconds, from
    :meth:`~repro.sim.engine.IoEngine.queue_delays`) inflates the latency
    of non-resident runs by the current wait behind each device's queue;
    resident (memory-level) runs are untouched — cached pages don't queue.

    The walk prices each estimate it meets once (filesystems share one
    estimate per storage level) and collects one :data:`Run` per
    resident or estimate run; :func:`_emit` folds them into SLEDs.  The
    kernel keeps the runs beside the vector, and telemetry's accuracy
    snapshot is built from them, so no second walk is needed.  At the few
    dozen runs these vectors reach, the scalar fold is faster than a
    numpy group-by, which only wins from about 512 runs
    (docs/performance.md, "The multi-tenant path").
    """
    size = inode.size
    if size == 0:
        return SledVector([], file_size=0), []
    npages = inode.npages
    row = table.memory
    memory_latency, memory_bandwidth = row.latency, row.bandwidth
    runs: list[Run] = []
    priced = level = None

    def gap(start: int, n: int) -> None:
        nonlocal priced, level
        for run_pages, estimate in fs.span_estimates(inode, start, n):
            if estimate is not priced:
                priced = estimate
                level = _price(estimate, table, queue_delays)
            latency, bandwidth, key = level
            runs.append((run_pages, latency, bandwidth, key))

    cursor = 0
    for start, end in cache.resident_runs(inode.id, npages):
        if start > cursor:
            gap(cursor, start - cursor)
        runs.append((end - start, memory_latency, memory_bandwidth, None))
        cursor = end
    if cursor < npages:
        gap(cursor, npages - cursor)
    return _emit(runs, size), runs
