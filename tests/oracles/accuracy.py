"""Reference SLED prediction store: one dict entry per page.

:class:`repro.obs.accuracy.SledAccuracyTracker` keeps each inode's last
snapshot as runs and settles faults and resident runs by range.  Here is
the per-page store it replaced: ``(inode, page) -> prediction``, one
``pop`` per delivered page, samples recorded page by page.  The tests
drive both with the same calls and require the same outstanding counts,
reports, dumps and histogram lines, and the same predictions in page
order (:func:`expand_predictions`).

Also here: the per-page loops ``record_prediction`` and
``Telemetry.on_sleds`` replaced — a residency peek per page for the
queue split, a binary search per page for the prediction.
"""

from __future__ import annotations

from repro.obs.accuracy import SledAccuracyTracker
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

    def record_prediction(self, inode_id: int, vector,
                          queue_runs=None) -> int:
        queues = {page: queue for lo, hi, queue in queue_runs or ()
                  for page in range(lo, hi)}
        snapshot = predictions_per_page(inode_id, vector, queues)
        self._predictions.update(snapshot)
        return len(snapshot)

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
