"""SLED prediction-accuracy tracking.

The paper's whole interface is an *estimate*: ``FSLEDS_GET`` hands the
application a latency/bandwidth guess for every file section.  This module
answers the question the paper never quantifies for our simulator: how
close are those guesses to what the kernel subsequently measures?

Mechanism: when the kernel serves ``FSLEDS_GET`` with telemetry attached,
the tracker snapshots the predicted (latency, bandwidth, queue term) of
every page in the returned vector, from the runs the kernel folded the
vector from.  Later, when a page is actually delivered —

* a **hard fault** reads a cluster from a device: the actual time is the
  device access; the prediction is the lead page's SLED applied to the
  cluster size (``latency + bytes / bandwidth``);
* a **cache hit** delivers from memory: the actual time is the memory
  level's per-page cost; the prediction is the page's SLED applied to one
  page —

the tracker consumes the snapshot and records the signed and absolute error
into per-device-class calibration stats (and, when a registry is supplied,
into ``sled_abs_error_seconds`` histograms labelled by class).

Predictions are consumed on first use: a SLED describes the state at
``FSLEDS_GET`` time, and once a page has moved (device → cache) the old
estimate no longer applies.  A truncation drops the file's predictions:
they describe bytes that no longer exist.

A snapshot is kept as runs, not pages: per inode, a :class:`_Table` of
run bounds with one prediction tuple per run, plus the set of pages
already consumed.  Snapshotting is O(runs), and a fault or a resident
run settles by range; samples are still added one page at a time, in
page order, so every sum is the one a per-page store gives
(``tests/oracles/accuracy.py`` keeps that store as the oracle, and the
second walk over the file and its vector that snapshots used to take).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

from repro.obs.metrics import MetricsRegistry
from repro.sim.units import PAGE_SIZE, human_time


@dataclass
class ClassAccuracy:
    """Accumulated prediction error for one device class."""

    samples: int = 0
    abs_error_sum: float = 0.0
    error_sum: float = 0.0
    predicted_sum: float = 0.0
    actual_sum: float = 0.0

    def add(self, predicted: float, actual: float, n: int = 1) -> None:
        """``n`` samples of one ``(predicted, actual)`` pair, summed one
        at a time (so ``add(p, a, 3)`` equals three ``add(p, a)``)."""
        error = actual - predicted
        abs_error = abs(error)
        abs_sum, error_sum = self.abs_error_sum, self.error_sum
        predicted_sum, actual_sum = self.predicted_sum, self.actual_sum
        for _ in range(n):
            abs_sum += abs_error
            error_sum += error
            predicted_sum += predicted
            actual_sum += actual
        self.samples += n
        self.abs_error_sum, self.error_sum = abs_sum, error_sum
        self.predicted_sum, self.actual_sum = predicted_sum, actual_sum

    @property
    def mean_abs_error(self) -> float:
        return self.abs_error_sum / self.samples if self.samples else 0.0

    @property
    def mean_error(self) -> float:
        return self.error_sum / self.samples if self.samples else 0.0

    @property
    def mean_relative_error(self) -> float:
        """Mean absolute error over mean actual time (scale-free)."""
        if self.actual_sum <= 0.0:
            return 0.0
        return self.abs_error_sum / self.actual_sum


@dataclass
class AccuracyReport:
    """Snapshot of per-class calibration, ready for printing.

    ``by_component`` splits each class's fault error between the queue
    and service terms of the prediction — (class, component) keys — so
    a well-calibrated service model with a stale queue estimate is
    distinguishable from the reverse.
    """

    by_class: dict[str, ClassAccuracy] = field(default_factory=dict)
    by_component: dict[tuple[str, str], ClassAccuracy] = field(
        default_factory=dict)
    predictions_outstanding: int = 0
    unmatched_faults: int = 0

    def render(self) -> str:
        lines = ["SLED prediction accuracy (per device class):"]
        if not self.by_class:
            lines.append("  (no predictions were exercised)")
        for name in sorted(self.by_class):
            acc = self.by_class[name]
            lines.append(
                f"  {name:>8}: n={acc.samples:<6d} "
                f"mean_abs_err={human_time(acc.mean_abs_error):>10} "
                f"mean_err={'+' if acc.mean_error >= 0 else '-'}"
                f"{human_time(abs(acc.mean_error)):<10} "
                f"rel_err={acc.mean_relative_error:6.1%}")
        for cls, component in sorted(self.by_component):
            acc = self.by_component[(cls, component)]
            lines.append(
                f"  {cls:>8}/{component:<7}: "
                f"mean_abs_err={human_time(acc.mean_abs_error):>10} "
                f"mean_err={'+' if acc.mean_error >= 0 else '-'}"
                f"{human_time(abs(acc.mean_error)):<10}")
        lines.append(
            f"  outstanding predictions: {self.predictions_outstanding}, "
            f"deliveries without a prediction: {self.unmatched_faults}")
        return "\n".join(lines)

    @staticmethod
    def _acc_dict(acc: ClassAccuracy) -> dict:
        return {
            "samples": acc.samples,
            "mean_abs_error": acc.mean_abs_error,
            "mean_error": acc.mean_error,
            "mean_relative_error": acc.mean_relative_error,
            "mean_predicted": (acc.predicted_sum / acc.samples
                               if acc.samples else 0.0),
            "mean_actual": (acc.actual_sum / acc.samples
                            if acc.samples else 0.0),
        }

    def to_dict(self) -> dict:
        """JSON-ready snapshot, ``by_component`` included — the machine-
        readable twin of :meth:`render`."""
        return {
            "by_class": {name: self._acc_dict(acc)
                         for name, acc in sorted(self.by_class.items())},
            "by_component": {
                f"{cls}/{component}": self._acc_dict(acc)
                for (cls, component), acc in
                sorted(self.by_component.items())},
            "predictions_outstanding": self.predictions_outstanding,
            "unmatched_faults": self.unmatched_faults,
        }


class _Table:
    """One inode's outstanding predictions, kept as runs.

    Run ``i`` covers pages ``starts[i]`` up to ``ends[i]`` and predicts
    ``predictions[i]`` for each of them; a page in ``consumed`` has
    been delivered since the snapshot.  ``outstanding`` counts the
    predicted pages not yet consumed.
    """

    __slots__ = ("starts", "ends", "predictions", "consumed", "outstanding")

    def __init__(self, starts: list[int], ends: list[int],
                 predictions: list[tuple[float, float, float]],
                 outstanding: int) -> None:
        self.starts = starts
        self.ends = ends
        self.predictions = predictions
        self.consumed: set[int] = set()
        self.outstanding = outstanding

    def settle(self, lo: int, hi: int
               ) -> list[tuple[tuple[float, float, float], int]]:
        """Consume pages ``lo`` up to ``hi``.  Returns, per run they
        touch in page order, its prediction and how many of its pages
        were still outstanding."""
        starts, ends, consumed = self.starts, self.ends, self.consumed
        settled = []
        i = max(bisect_right(starts, lo) - 1, 0)
        while i < len(starts) and starts[i] < hi:
            a = max(lo, starts[i])
            b = min(hi, ends[i])
            if a < b:
                before = len(consumed)
                consumed.update(range(a, b))
                fresh = len(consumed) - before
                if fresh:
                    self.outstanding -= fresh
                    settled.append((self.predictions[i], fresh))
            i += 1
        return settled

    def prediction_at(self, page: int) -> tuple[float, float, float] | None:
        """``page``'s prediction, unless it has none or was consumed."""
        i = bisect_right(self.starts, page) - 1
        if i < 0 or page >= self.ends[i] or page in self.consumed:
            return None
        return self.predictions[i]


class SledAccuracyTracker:
    """Pairs ``FSLEDS_GET`` predictions with observed delivery times."""

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        #: inode_id -> its last snapshot, as runs of (predicted latency,
        #: predicted bandwidth, predicted queue delay).  The latency
        #: already folds the queue term in (that is the promise
        #: FSLEDS_GET makes); the separate queue figure lets errors be
        #: attributed to queue vs. service.
        self._tables: dict[int, _Table] = {}
        self._by_class: dict[str, ClassAccuracy] = {}
        self._by_component: dict[tuple[str, str], ClassAccuracy] = {}
        self.unmatched_faults = 0
        self._abs_error = None
        if registry is not None:
            self._abs_error = registry.histogram(
                "sled_abs_error_seconds",
                "Absolute SLED prediction error per delivery",
                labels=("cls",))

    # -- snapshotting -----------------------------------------------------

    def record_runs(self, inode_id: int, runs,
                    queue_delays: dict[str, float] | None = None) -> int:
        """Snapshot the predictions of one ``FSLEDS_GET`` from the runs
        its vector was folded from (:data:`repro.core.builder.Run`:
        pages, latency, bandwidth, device key).

        Returns the number of pages snapshotted.  Re-asking for SLEDs on
        the same file replaces its outstanding predictions.  Every page
        of a run shares one prediction tuple.  A run's queue term is its
        device's entry in ``queue_delays`` (device key -> seconds): the
        delays the vector's build folded in, or, for a vector served
        from the kernel's cache, the delays read now.  A resident run
        has no device and predicts no queueing.  O(runs).
        """
        delays = queue_delays or {}
        starts: list[int] = []
        ends: list[int] = []
        predictions: list[tuple[float, float, float]] = []
        page = 0
        for pages, latency, bandwidth, key in runs:
            starts.append(page)
            page += pages
            ends.append(page)
            predictions.append((latency, bandwidth, delays.get(key, 0.0)))
        self._tables[inode_id] = _Table(starts, ends, predictions, page)
        return page

    def drop(self, inode_id: int) -> None:
        """Forget ``inode_id``'s predictions (its file was truncated)."""
        self._tables.pop(inode_id, None)

    # -- observations ----------------------------------------------------

    def record_fault(self, inode_id: int, page: int, cluster: int,
                     actual_seconds: float, device_class: str,
                     queue_wait: float = 0.0
                     ) -> tuple[float, float] | None:
        """One hard fault delivered ``cluster`` pages after waiting
        ``queue_wait`` seconds in queue and ``actual_seconds`` of
        service.  Returns the consumed ``(predicted total, predicted
        queue)`` pair, or None when no prediction was outstanding.
        """
        table = self._tables.get(inode_id)
        prediction = None
        if table is not None:
            prediction = table.prediction_at(page)
            table.settle(page, page + cluster)
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

    def record_hit(self, inode_id: int, page: int,
                   actual_seconds: float,
                   device_class: str = "memory", pages: int = 1) -> None:
        """``pages`` pages from ``page`` on delivered from the cache in
        ``actual_seconds`` each."""
        table = self._tables.get(inode_id)
        if table is None:
            return
        for (latency, bandwidth, _queue), n in table.settle(page,
                                                            page + pages):
            self._record(device_class, latency + PAGE_SIZE / bandwidth,
                         actual_seconds, n)

    def _record(self, device_class: str, predicted: float,
                actual: float, n: int = 1) -> None:
        acc = self._by_class.get(device_class)
        if acc is None:
            acc = self._by_class[device_class] = ClassAccuracy()
        acc.add(predicted, actual, n)
        if self._abs_error is not None:
            observe = self._abs_error.child[device_class].observe
            error = abs(actual - predicted)
            for _ in range(n):
                observe(error)

    def _record_component(self, device_class: str, component: str,
                          predicted: float, actual: float) -> None:
        key = (device_class, component)
        acc = self._by_component.get(key)
        if acc is None:
            acc = self._by_component[key] = ClassAccuracy()
        acc.add(predicted, actual)

    # -- reporting --------------------------------------------------------

    @property
    def outstanding(self) -> int:
        return sum(table.outstanding for table in self._tables.values())

    def report(self) -> AccuracyReport:
        return AccuracyReport(
            by_class={name: acc for name, acc in self._by_class.items()},
            by_component=dict(self._by_component),
            predictions_outstanding=self.outstanding,
            unmatched_faults=self.unmatched_faults)

    def to_dict(self) -> dict:
        """JSON-ready per-class summary."""
        return {
            "classes": {
                name: {
                    "samples": acc.samples,
                    "mean_abs_error": acc.mean_abs_error,
                    "mean_error": acc.mean_error,
                    "mean_relative_error": acc.mean_relative_error,
                    "mean_predicted": (acc.predicted_sum / acc.samples
                                       if acc.samples else 0.0),
                    "mean_actual": (acc.actual_sum / acc.samples
                                    if acc.samples else 0.0),
                }
                for name, acc in sorted(self._by_class.items())
            },
            "components": {
                f"{cls}/{component}": {
                    "samples": acc.samples,
                    "mean_abs_error": acc.mean_abs_error,
                    "mean_error": acc.mean_error,
                    "mean_predicted": (acc.predicted_sum / acc.samples
                                       if acc.samples else 0.0),
                    "mean_actual": (acc.actual_sum / acc.samples
                                    if acc.samples else 0.0),
                }
                for (cls, component), acc in
                sorted(self._by_component.items())
            },
            "outstanding": self.outstanding,
            "unmatched_faults": self.unmatched_faults,
        }

    def clear(self) -> None:
        self._tables.clear()
        self._by_class.clear()
        self._by_component.clear()
        self.unmatched_faults = 0
