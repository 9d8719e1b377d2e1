"""Tests for SLED prediction-accuracy tracking."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sled import Sled, SledVector
from repro.obs.accuracy import ClassAccuracy, SledAccuracyTracker
from repro.obs.metrics import MetricsRegistry
from repro.sim.units import PAGE_SIZE


def _vector(npages=4, latency=0.018, bandwidth=9e6):
    size = npages * PAGE_SIZE
    return SledVector([Sled(0, size, latency, bandwidth)], file_size=size)


class TestClassAccuracy:
    def test_means(self):
        acc = ClassAccuracy()
        acc.add(predicted=1.0, actual=2.0)
        acc.add(predicted=4.0, actual=2.0)
        assert acc.mean_abs_error == pytest.approx(1.5)
        assert acc.mean_error == pytest.approx(-0.5)  # (+1 - 2) / 2
        assert acc.mean_relative_error == pytest.approx(3.0 / 4.0)

    def test_empty_is_zero(self):
        acc = ClassAccuracy()
        assert acc.mean_abs_error == 0.0
        assert acc.mean_error == 0.0
        assert acc.mean_relative_error == 0.0


class TestTracker:
    def test_fault_consumes_whole_cluster(self):
        tracker = SledAccuracyTracker()
        tracker.record_prediction(1, _vector(npages=4))
        assert tracker.outstanding == 4
        tracker.record_fault(1, 0, cluster=4, actual_seconds=0.02,
                             device_class="disk")
        assert tracker.outstanding == 0
        report = tracker.report()
        assert report.by_class["disk"].samples == 1

    def test_fault_error_math(self):
        tracker = SledAccuracyTracker()
        tracker.record_prediction(1, _vector(npages=2, latency=0.01,
                                             bandwidth=1e6))
        predicted = 0.01 + (2 * PAGE_SIZE) / 1e6
        tracker.record_fault(1, 0, cluster=2, actual_seconds=predicted + 0.005,
                             device_class="disk")
        acc = tracker.report().by_class["disk"]
        assert acc.mean_abs_error == pytest.approx(0.005)
        assert acc.mean_error == pytest.approx(0.005)

    def test_hit_uses_single_page_transfer(self):
        tracker = SledAccuracyTracker()
        tracker.record_prediction(1, _vector(npages=1, latency=0.0,
                                             bandwidth=1e6))
        predicted = PAGE_SIZE / 1e6
        tracker.record_hit(1, 0, actual_seconds=predicted)
        acc = tracker.report().by_class["memory"]
        assert acc.samples == 1
        assert acc.mean_abs_error == pytest.approx(0.0)

    def test_predictions_consumed_on_first_use(self):
        tracker = SledAccuracyTracker()
        tracker.record_prediction(1, _vector(npages=1))
        tracker.record_hit(1, 0, actual_seconds=0.001)
        tracker.record_hit(1, 0, actual_seconds=0.001)  # no prediction left
        assert tracker.report().by_class["memory"].samples == 1

    def test_unmatched_fault_counted(self):
        tracker = SledAccuracyTracker()
        tracker.record_fault(9, 0, cluster=1, actual_seconds=0.01,
                             device_class="disk")
        report = tracker.report()
        assert report.unmatched_faults == 1
        assert "disk" not in report.by_class

    def test_unmatched_hit_ignored(self):
        tracker = SledAccuracyTracker()
        tracker.record_hit(9, 0, actual_seconds=0.001)
        assert tracker.report().by_class == {}

    def test_reask_refreshes_predictions(self):
        tracker = SledAccuracyTracker()
        tracker.record_prediction(1, _vector(npages=2))
        tracker.record_prediction(1, _vector(npages=2))
        assert tracker.outstanding == 2

    def test_registry_histogram_fed(self):
        registry = MetricsRegistry()
        tracker = SledAccuracyTracker(registry=registry)
        tracker.record_prediction(1, _vector(npages=1))
        tracker.record_fault(1, 0, cluster=1, actual_seconds=0.02,
                             device_class="disk")
        hist = registry.get("sled_abs_error_seconds").labels(cls="disk")
        assert hist.count == 1

    def test_render_and_to_dict(self):
        tracker = SledAccuracyTracker()
        tracker.record_prediction(1, _vector(npages=1))
        tracker.record_fault(1, 0, cluster=1, actual_seconds=0.02,
                             device_class="disk")
        text = tracker.report().render()
        assert "disk" in text
        assert "mean_abs_err" in text
        dump = tracker.to_dict()
        assert dump["classes"]["disk"]["samples"] == 1
        assert dump["unmatched_faults"] == 0

    def test_render_empty(self):
        text = SledAccuracyTracker().report().render()
        assert "no predictions" in text

    def test_clear(self):
        tracker = SledAccuracyTracker()
        tracker.record_prediction(1, _vector(npages=1))
        tracker.record_fault(2, 0, cluster=1, actual_seconds=0.01,
                             device_class="disk")
        tracker.clear()
        assert tracker.outstanding == 0
        assert tracker.unmatched_faults == 0
        assert tracker.report().by_class == {}


class TestRunWalk:
    """``record_prediction`` walks SLED runs split at queue-run edges;
    the per-page binary-search loop it replaced is the oracle."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_per_page_oracle(self, data):
        from tests.oracles.accuracy import predictions_per_page

        size = data.draw(st.integers(1, 40 * PAGE_SIZE))
        # byte-granular SLED edges: a page takes the SLED holding its
        # first byte, wherever the edges fall
        edges = sorted(set(data.draw(st.lists(
            st.integers(1, size - 1), max_size=8)) if size > 1 else []))
        bounds = [0, *edges, size]
        sleds = [Sled(lo, hi - lo, 0.001 * (i + 1), 1e6 * (i % 3 + 1))
                 for i, (lo, hi) in enumerate(zip(bounds, bounds[1:]))]
        vector = SledVector(sleds, file_size=size, coalesce=False)
        npages = -(-size // PAGE_SIZE)
        cuts = sorted(set(data.draw(st.lists(
            st.integers(0, npages), max_size=8))))
        queue_runs = [(lo, hi, 0.25 * (i + 1))
                      for i, (lo, hi) in enumerate(zip(cuts, cuts[1:]))
                      if hi > lo and i % 2 == 0]
        tracker = SledAccuracyTracker()
        tracker._predictions[(7, npages // 2)] = (9.0, 9.0, 9.0)
        assert tracker.record_prediction(7, vector, queue_runs) == npages
        expected = {(7, npages // 2): None}
        expected.update(predictions_per_page(
            7, vector, {p: queue for lo, hi, queue in queue_runs
                        for p in range(lo, hi)}))
        assert list(tracker._predictions.items()) == list(expected.items())
