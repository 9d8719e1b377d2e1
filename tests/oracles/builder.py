"""Reference SLED builder: the paper's literal per-page walk.

:func:`repro.core.builder.build_sled_vector` answers ``FSLEDS_GET`` from
the cache's resident runs and the filesystem's batched span estimates.
This is the §4.1 walk it replaced: "each virtual memory page of the data
file is checked", given the latency and bandwidth of the level holding
it, and consecutive pages at the same level form one SLED.  The tests
and ``benchmarks/test_perf_sled_scaling.py`` require the two to agree
exactly.
"""

from __future__ import annotations

from repro.core.sled import Sled, SledVector
from repro.sim.units import PAGE_SIZE

__all__ = ["build_sled_vector_full_walk", "page_level"]


def page_level(cache, fs, inode, page_index, table, queue_delays=None):
    """(latency, bandwidth) of one page right now.

    A resident page is at memory level and never queues.  Any other
    page takes its filesystem estimate, falling back to the boot-time
    sleds-table row where the estimate gives no latency or bandwidth,
    plus, from ``queue_delays`` (device_key -> seconds), the wait behind
    its device's queue.
    """
    if cache.peek((inode.id, page_index)):
        row = table.memory
        return row.latency, row.bandwidth
    estimate = fs.page_estimate(inode, page_index)
    extra = (queue_delays.get(estimate.device_key, 0.0) if queue_delays
             else 0.0)
    latency, bandwidth = estimate.latency, estimate.bandwidth
    if latency is None or bandwidth is None:
        row = table.lookup(estimate.device_key)
        if latency is None:
            latency = row.latency
        if bandwidth is None:
            bandwidth = row.bandwidth
    return latency + extra, bandwidth


def build_sled_vector_full_walk(cache, fs, inode, table,
                                queue_delays=None) -> SledVector:
    """One residency peek and one ``page_estimate`` per page, then
    same-level neighbours merged; the last SLED ends at the file size."""
    size = inode.size
    sleds: list[Sled] = []
    start = 0
    level = None
    for page in range(inode.npages):
        here = page_level(cache, fs, inode, page, table, queue_delays)
        if here != level:
            if level is not None:
                sleds.append(Sled(start * PAGE_SIZE,
                                  (page - start) * PAGE_SIZE, *level))
            start, level = page, here
    if level is not None:
        sleds.append(Sled(start * PAGE_SIZE, size - start * PAGE_SIZE,
                          *level))
    return SledVector(sleds, file_size=size)
