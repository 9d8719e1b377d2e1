"""Tests for SLED prediction-accuracy tracking."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sled import Sled, SledVector
from repro.machine import Machine
from repro.obs import Telemetry
from repro.obs.accuracy import ClassAccuracy, SledAccuracyTracker
from repro.obs.metrics import MetricsRegistry
from repro.sim.units import PAGE_SIZE
from tests.oracles.accuracy import (PerPageAccuracyTracker,
                                    expand_predictions,
                                    predictions_per_page, vector_runs)


def _vector(npages=4, latency=0.018, bandwidth=9e6):
    size = npages * PAGE_SIZE
    return SledVector([Sled(0, size, latency, bandwidth)], file_size=size)


def _record(tracker, inode_id, vector, queue_runs=None) -> int:
    """Snapshot ``vector`` through the tracker's one table builder."""
    return tracker.record_runs(inode_id, *vector_runs(vector, queue_runs))


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
        _record(tracker, 1, _vector(npages=4))
        assert tracker.outstanding == 4
        tracker.record_fault(1, 0, cluster=4, actual_seconds=0.02,
                             device_class="disk")
        assert tracker.outstanding == 0
        report = tracker.report()
        assert report.by_class["disk"].samples == 1

    def test_fault_error_math(self):
        tracker = SledAccuracyTracker()
        _record(tracker, 1, _vector(npages=2, latency=0.01, bandwidth=1e6))
        predicted = 0.01 + (2 * PAGE_SIZE) / 1e6
        tracker.record_fault(1, 0, cluster=2, actual_seconds=predicted + 0.005,
                             device_class="disk")
        acc = tracker.report().by_class["disk"]
        assert acc.mean_abs_error == pytest.approx(0.005)
        assert acc.mean_error == pytest.approx(0.005)

    def test_hit_uses_single_page_transfer(self):
        tracker = SledAccuracyTracker()
        _record(tracker, 1, _vector(npages=1, latency=0.0, bandwidth=1e6))
        predicted = PAGE_SIZE / 1e6
        tracker.record_hit(1, 0, actual_seconds=predicted)
        acc = tracker.report().by_class["memory"]
        assert acc.samples == 1
        assert acc.mean_abs_error == pytest.approx(0.0)

    def test_predictions_consumed_on_first_use(self):
        tracker = SledAccuracyTracker()
        _record(tracker, 1, _vector(npages=1))
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
        _record(tracker, 1, _vector(npages=2))
        _record(tracker, 1, _vector(npages=2))
        assert tracker.outstanding == 2

    def test_registry_histogram_fed(self):
        registry = MetricsRegistry()
        tracker = SledAccuracyTracker(registry=registry)
        _record(tracker, 1, _vector(npages=1))
        tracker.record_fault(1, 0, cluster=1, actual_seconds=0.02,
                             device_class="disk")
        hist = registry.get("sled_abs_error_seconds").labels(cls="disk")
        assert hist.count == 1

    def test_render_and_to_dict(self):
        tracker = SledAccuracyTracker()
        _record(tracker, 1, _vector(npages=1))
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
        _record(tracker, 1, _vector(npages=1))
        tracker.record_fault(2, 0, cluster=1, actual_seconds=0.01,
                             device_class="disk")
        tracker.clear()
        assert tracker.outstanding == 0
        assert tracker.unmatched_faults == 0
        assert tracker.report().by_class == {}


class TestRunWalk:
    """The vector walk (SLED runs split at queue-run edges) through the
    one table builder; the per-page binary-search loop is the oracle."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_per_page_oracle(self, data):
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
        # a stale snapshot, partly consumed, that the new one replaces
        stale = npages // 2 + 1
        _record(tracker, 7, _vector(npages=stale, latency=9.0,
                                    bandwidth=9.0))
        tracker.record_hit(7, npages // 2, actual_seconds=1.0)
        assert _record(tracker, 7, vector, queue_runs) == npages
        assert tracker.outstanding == npages
        expected = predictions_per_page(
            7, vector, {p: queue for lo, hi, queue in queue_runs
                        for p in range(lo, hi)})
        assert expand_predictions(tracker) == sorted(expected.items())


def _abs_error_lines(registry: MetricsRegistry) -> list[str]:
    return [line for line in registry.render_prometheus().splitlines()
            if "sled_abs_error_seconds" in line]


class TestPerPageStoreOracle:
    """The run tables against the per-page store they replaced
    (``tests/oracles/accuracy.py``), over random programs on a few
    inodes: snapshots that grow (or shrink after a truncation), queue
    runs, faults that may start on an unpredicted page, hit runs that
    cross run edges and consumed pages, truncations and ``clear()``."""

    INODES = (3, 5, 8)
    MAX_PAGES = 24

    @staticmethod
    def _snapshot(data, npages: int):
        size = data.draw(st.integers((npages - 1) * PAGE_SIZE + 1,
                                     npages * PAGE_SIZE))
        edges = sorted(set(data.draw(st.lists(
            st.integers(1, size - 1), max_size=5)) if size > 1 else []))
        bounds = [0, *edges, size]
        latencies = st.floats(1e-5, 0.5, allow_nan=False)
        bandwidths = st.floats(1e5, 1e8, allow_nan=False)
        sleds = [Sled(lo, hi - lo, data.draw(latencies),
                      data.draw(bandwidths))
                 for lo, hi in zip(bounds, bounds[1:])]
        cuts = sorted(set(data.draw(st.lists(
            st.integers(0, npages), max_size=6))))
        queue_runs = [(lo, hi, data.draw(st.floats(1e-4, 0.1)))
                      for i, (lo, hi) in enumerate(zip(cuts, cuts[1:]))
                      if hi > lo and i % 2 == 0]
        return (SledVector(sleds, file_size=size, coalesce=False),
                queue_runs or None)

    @settings(deadline=None)
    @given(data=st.data())
    def test_run_tables_match_per_page_store(self, data):
        registries = MetricsRegistry(), MetricsRegistry()
        tracker = SledAccuracyTracker(registry=registries[0])
        oracle = PerPageAccuracyTracker(registry=registries[1])
        #: the smallest snapshot each inode may take next: kernel
        #: snapshots only shrink after a truncation
        floor = dict.fromkeys(self.INODES, 1)
        seconds = st.floats(1e-6, 2.0, allow_nan=False)
        pages = st.integers(0, self.MAX_PAGES + 4)
        for _ in range(data.draw(st.integers(1, 25))):
            step = data.draw(st.sampled_from(
                ("snapshot", "snapshot", "fault", "fault", "hit", "hit",
                 "truncate", "clear")))
            inode = data.draw(st.sampled_from(self.INODES))
            if step == "snapshot":
                npages = data.draw(st.integers(floor[inode],
                                               self.MAX_PAGES))
                floor[inode] = npages
                vector, queue_runs = self._snapshot(data, npages)
                for store in (tracker, oracle):
                    _record(store, inode, vector, queue_runs)
            elif step == "fault":
                page, cluster = data.draw(pages), data.draw(
                    st.integers(1, 8))
                actual, wait = data.draw(seconds), data.draw(seconds)
                cls = data.draw(st.sampled_from(("disk", "nfs")))
                assert tracker.record_fault(
                    inode, page, cluster, actual, cls, queue_wait=wait
                ) == oracle.record_fault(inode, page, cluster, actual,
                                         cls, queue_wait=wait)
            elif step == "hit":
                page, run = data.draw(pages), data.draw(st.integers(1, 12))
                actual = data.draw(seconds)
                for store in (tracker, oracle):
                    store.record_hit(inode, page, actual, pages=run)
            elif step == "truncate":
                floor[inode] = 1
                for store in (tracker, oracle):
                    store.drop(inode)
            else:
                floor = dict.fromkeys(self.INODES, 1)
                for store in (tracker, oracle):
                    store.clear()
            assert tracker.outstanding == oracle.outstanding
            assert tracker.unmatched_faults == oracle.unmatched_faults
            assert tracker.report().render() == oracle.report().render()
            assert tracker.to_dict() == oracle.to_dict()
            assert (_abs_error_lines(registries[0])
                    == _abs_error_lines(registries[1]))
            assert expand_predictions(tracker) == expand_predictions(oracle)


class TestTruncation:
    """A truncated file's predictions describe bytes that no longer
    exist: the kernel drops them, so a reread settles nothing against
    them."""

    PAGES = 16

    def _machine(self):
        machine = Machine.unix_utilities(cache_pages=64, seed=77)
        machine.boot()
        machine.ext2.create_text_file("f.txt", self.PAGES * PAGE_SIZE,
                                      seed=5)
        telemetry = Telemetry()
        telemetry.attach(machine.kernel)
        return machine.kernel, telemetry.accuracy, "/mnt/ext2/f.txt"

    def test_rewrite_drops_predictions(self):
        kernel, accuracy, path = self._machine()
        fd = kernel.open(path)
        kernel.get_sleds(fd)
        kernel.close(fd)
        assert accuracy.outstanding == self.PAGES
        fd = kernel.open(path, "w")
        assert accuracy.outstanding == 0
        kernel.write(fd, b"x" * (self.PAGES * PAGE_SIZE))
        kernel.close(fd)
        fd = kernel.open(path)
        assert len(kernel.read(fd, self.PAGES * PAGE_SIZE)) == (
            self.PAGES * PAGE_SIZE)
        kernel.close(fd)
        assert "memory" not in accuracy.report().by_class
        assert accuracy.outstanding == 0

    def test_unlink_while_open_drops_on_last_close(self):
        kernel, accuracy, path = self._machine()
        fd = kernel.open(path)
        kernel.get_sleds(fd)
        kernel.unlink(path)
        # the bytes stay readable until the last close, and so do the
        # predictions for them
        kernel.read(fd, 4 * PAGE_SIZE)
        assert 0 < accuracy.outstanding <= self.PAGES - 4
        kernel.close(fd)
        assert accuracy.outstanding == 0
