"""Reference SLED prediction store: one dict entry per page.

:class:`repro.obs.accuracy.SledAccuracyTracker` keeps each inode's last
snapshot as runs and settles faults and resident runs by range.  Here is
the per-page store it replaced: ``(inode, page) -> prediction``, one
``pop`` per delivered page, samples recorded page by page.  The tests
drive both with the same calls and require the same outstanding counts,
reports, dumps and histogram lines, and the same predictions in page
order (:func:`expand_predictions`).

Also here: the reference snapshot path.  ``FSLEDS_GET`` snapshots its
predictions from the runs the kernel's fold built the vector from
(``SledAccuracyTracker.record_runs``).  Before that, telemetry walked
the file a second time for the queue split (:func:`queue_runs`: the
filesystem's estimate runs minus the cache's resident runs) and then
the returned vector SLED by SLED (:func:`vector_runs`); before those,
a residency peek and a binary search per page (:func:`queue_by_page`,
:func:`predictions_per_page`).
"""

from __future__ import annotations

from repro.obs.accuracy import SledAccuracyTracker
from repro.sim.units import PAGE_SIZE


def queue_runs(kernel, fs, inode, queue_delays
               ) -> list[tuple[int, int, float]] | None:
    """Split each non-resident page's predicted latency into its queue
    term and the rest: the page runs ``(start, end, queue seconds)`` with
    a positive queue term, in file order — the filesystem's estimate
    runs over the whole file minus the cache's resident runs (None when
    there are no queue delays)."""
    if fs is None or inode is None or not queue_delays:
        return None
    npages = inode.npages
    cache = kernel.page_cache if kernel is not None else None
    gaps = []  # non-resident page runs
    cursor = 0
    if cache is not None:
        for start, stop in cache.resident_runs(inode.id, npages):
            if start > cursor:
                gaps.append((cursor, start))
            cursor = stop
    if cursor < npages:
        gaps.append((cursor, npages))
    runs = []
    g = 0
    page = 0
    for run, estimate in fs.span_estimates(inode, 0, npages):
        end = page + run
        queue = queue_delays.get(estimate.device_key, 0.0)
        if queue > 0.0:
            while g < len(gaps) and gaps[g][1] <= page:
                g += 1
            k = g
            while k < len(gaps) and gaps[k][0] < end:
                runs.append((max(page, gaps[k][0]),
                             min(end, gaps[k][1]), queue))
                k += 1
        page = end
    return runs


def vector_runs(vector, queue_runs=None) -> tuple[list, dict]:
    """The snapshot runs of ``vector``, walked SLED by SLED, and their
    queue delays, in the form ``SledAccuracyTracker.record_runs`` takes:
    ``(pages, latency, bandwidth, key)`` runs and ``{key: seconds}``.

    A page takes the SLED holding its first byte.  SLEDs split where a
    run of ``queue_runs`` (sorted disjoint ``(start page, end page,
    seconds)``; pages outside them predict zero queueing and take no
    key) starts or ends, and every page of a run shares one prediction.
    Each queue run has its own key: its index in ``queue_runs``."""
    npages = (vector.file_size + PAGE_SIZE - 1) // PAGE_SIZE
    runs = []
    queues = queue_runs or ()
    delays = {q: queue for q, (_, _, queue) in enumerate(queues)}
    q = 0
    for sled in vector:
        offset = sled.offset
        page = -(-offset // PAGE_SIZE)
        stop = min(-(-(offset + sled.length) // PAGE_SIZE), npages)
        while page < stop:
            while q < len(queues) and queues[q][1] <= page:
                q += 1  # that queue run ended before this page
            if q == len(queues):
                end, key = stop, None
            elif queues[q][0] <= page:
                end, key = min(stop, queues[q][1]), q
            else:
                end, key = min(stop, queues[q][0]), None
            runs.append((end - page, sled.latency, sled.bandwidth, key))
            page = end
    return runs, delays


def queue_by_page(kernel, fs, inode, queue_delays) -> dict[int, float] | None:
    """Each non-resident page's queue term, one residency peek per page
    (pages absent predict zero queueing)."""
    if fs is None or inode is None or not queue_delays:
        return None
    cache = kernel.page_cache if kernel is not None else None
    out = {}
    page = 0
    for run, estimate in fs.span_estimates(inode, 0, inode.npages):
        queue = queue_delays.get(estimate.device_key, 0.0)
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


def expand_predictions(tracker) -> list[tuple[tuple[int, int],
                                              tuple[float, float, float]]]:
    """Every outstanding ``((inode, page), prediction)`` of either
    store, in inode and page order."""
    if isinstance(tracker, PerPageAccuracyTracker):
        return sorted(tracker._predictions.items())
    out = []
    for inode_id in sorted(tracker._tables):
        table = tracker._tables[inode_id]
        for start, end, prediction in zip(table.starts, table.ends,
                                          table.predictions):
            out.extend(((inode_id, page), prediction)
                       for page in range(start, end)
                       if page not in table.consumed)
    return out


class PerPageAccuracyTracker(SledAccuracyTracker):
    """The tracker with its per-page prediction store: a snapshot
    writes every page of the file, a fault pops its cluster page by
    page, and each resident page settles on its own."""

    def __init__(self, registry=None) -> None:
        super().__init__(registry)
        self._predictions: dict[tuple[int, int],
                                tuple[float, float, float]] = {}

    def record_runs(self, inode_id: int, runs, queue_delays=None) -> int:
        delays = queue_delays or {}
        page = 0
        for pages, latency, bandwidth, key in runs:
            prediction = (latency, bandwidth, delays.get(key, 0.0))
            for p in range(page, page + pages):
                self._predictions[(inode_id, p)] = prediction
            page += pages
        return page

    def drop(self, inode_id: int) -> None:
        for key in [key for key in self._predictions if key[0] == inode_id]:
            del self._predictions[key]

    def record_fault(self, inode_id, page, cluster, actual_seconds,
                     device_class, queue_wait=0.0):
        prediction = self._predictions.pop((inode_id, page), None)
        for extra in range(page + 1, page + cluster):
            self._predictions.pop((inode_id, extra), None)
        if prediction is None:
            self.unmatched_faults += 1
            return None
        latency, bandwidth, queue = prediction
        predicted = latency + (cluster * PAGE_SIZE) / bandwidth
        self._record(device_class, predicted, actual_seconds + queue_wait)
        self._record_component(device_class, "queue", queue, queue_wait)
        self._record_component(device_class, "service",
                               predicted - queue, actual_seconds)
        return predicted, queue

    def record_hit(self, inode_id, page, actual_seconds,
                   device_class="memory", pages=1) -> None:
        for hit in range(page, page + pages):
            prediction = self._predictions.pop((inode_id, hit), None)
            if prediction is None:
                continue
            latency, bandwidth, _queue = prediction
            self._record(device_class, latency + PAGE_SIZE / bandwidth,
                         actual_seconds)

    @property
    def outstanding(self) -> int:
        return len(self._predictions)

    def clear(self) -> None:
        super().clear()
        self._predictions.clear()
