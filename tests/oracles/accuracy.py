"""Reference SLED prediction snapshots: one page at a time.

:meth:`repro.obs.accuracy.SledAccuracyTracker.record_prediction` walks
the SLED vector run by run, and ``Telemetry.on_sleds`` splits off the
queue term per run.  These are the per-page loops they replaced: a
residency peek per page for the queue split, a binary search per page
for the prediction.  The tests require identical predictions, insertion
order included.
"""

from __future__ import annotations

from repro.sim.units import PAGE_SIZE


def queue_by_page(kernel, fs, inode, queue_delays) -> dict[int, float] | None:
    """Each non-resident page's queue term, as ``Telemetry.on_sleds``
    computed it (pages absent predict zero queueing)."""
    if fs is None or inode is None or not queue_delays:
        return None
    cache = kernel.page_cache if kernel is not None else None
    out = {}
    page = 0
    for run, estimate in fs.span_estimates(inode, 0, inode.npages):
        queue = estimate.queue_delay + queue_delays.get(
            estimate.device_key, 0.0)
        if queue > 0.0:
            for p in range(page, page + run):
                if cache is None or not cache.peek((inode.id, p)):
                    out[p] = queue
        page += run
    return out


def predictions_per_page(inode_id: int, vector,
                         queues: dict[int, float] | None
                         ) -> dict[tuple[int, int], tuple[float, float, float]]:
    """The ``(latency, bandwidth, queue)`` snapshot of every page."""
    out = {}
    npages = (vector.file_size + PAGE_SIZE - 1) // PAGE_SIZE
    for page in range(npages):
        sled = vector.sled_at(page * PAGE_SIZE)
        queue = queues.get(page, 0.0) if queues else 0.0
        out[(inode_id, page)] = (sled.latency, sled.bandwidth, queue)
    return out
