"""Tests for the virtual-time metric sampler (repro.obs.timeseries)."""

import json

import pytest

from repro.machine import Machine
from repro.obs import Telemetry, TimeSeriesRecorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import series_key
from repro.sim.units import MB


def _registry():
    reg = MetricsRegistry(namespace="repro")
    reg.counter("reads_total", "Reads", labels=("device",))
    reg.gauge("depth", "Depth")
    reg.histogram("lat_seconds", "Latency", buckets=(0.01, 0.1, 1.0))
    return reg


class TestCadence:
    def test_first_tick_anchors_and_samples(self):
        ts = TimeSeriesRecorder(_registry(), interval=0.01)
        assert ts.tick(5.0) is True
        assert len(ts) == 1
        # within the same period: no second sample
        assert ts.tick(5.004) is False
        assert ts.tick(5.009) is False
        assert ts.tick(5.010) is True
        assert len(ts) == 2

    def test_one_sample_per_crossing_however_large_the_jump(self):
        ts = TimeSeriesRecorder(_registry(), interval=0.01)
        ts.tick(0.0)
        # a 100 s jump (tape mount) produces ONE sample, not 10 000
        assert ts.tick(100.0) is True
        assert len(ts) == 2
        # and the grid stays anchored: next boundary is past 100.0
        assert ts.tick(100.0) is False
        assert ts.tick(100.01) is True

    def test_samples_stamped_with_actual_time(self):
        ts = TimeSeriesRecorder(_registry(), interval=0.01)
        ts.tick(0.0)
        ts.tick(0.0137)
        times = [t for t, _ in ts.samples]
        assert times == [0.0, 0.0137]

    def test_ring_buffer_drops_oldest(self):
        ts = TimeSeriesRecorder(_registry(), interval=1.0, capacity=3)
        for i in range(5):
            ts.sample(float(i))
        assert len(ts) == 3
        assert ts.dropped == 2
        assert [t for t, _ in ts.samples] == [2.0, 3.0, 4.0]

    @pytest.mark.parametrize("kwargs", [
        {"interval": 0.0}, {"interval": -1.0}, {"capacity": 0},
    ])
    def test_bad_spec_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TimeSeriesRecorder(_registry(), **kwargs)


class TestSampling:
    def test_counter_gauge_histogram_shapes(self):
        reg = _registry()
        reg.get("reads_total").labels(device="disk").inc(5)
        reg.get("depth").set(3)
        reg.get("lat_seconds").observe(0.05)
        ts = TimeSeriesRecorder(reg)
        row = ts.sample(1.0)
        assert row[series_key("reads_total", {"device": "disk"})] == 5.0
        assert row["depth"] == 3.0
        hist = row["lat_seconds"]
        assert hist["count"] == 1 and hist["sum"] == 0.05
        assert hist["p50"] == 0.1  # bucket upper edge

    def test_family_filter(self):
        reg = _registry()
        reg.get("reads_total").labels(device="disk").inc()
        reg.get("depth").set(1)
        ts = TimeSeriesRecorder(reg, families=("depth",))
        row = ts.sample(0.0)
        assert set(row) == {"depth"}
        assert ts.family_names_sampled() == ["depth"]

    def test_series_pivot_per_series_time_axis(self):
        reg = _registry()
        ts = TimeSeriesRecorder(reg)
        reg.get("depth").set(1)
        ts.sample(0.0)
        # a series born later is simply missing earlier timestamps
        reg.get("reads_total").labels(device="disk").inc()
        reg.get("depth").set(2)
        ts.sample(1.0)
        series = ts.series()
        assert series["depth"] == {"t": [0.0, 1.0], "values": [1.0, 2.0]}
        key = series_key("reads_total", {"device": "disk"})
        assert series[key] == {"t": [1.0], "values": [1.0]}

    def test_snapshot_hook_runs_before_each_sample(self):
        reg = _registry()
        calls = []
        ts = TimeSeriesRecorder(reg, snapshot_hook=lambda: calls.append(1))
        ts.sample(0.0)
        ts.sample(1.0)
        assert len(calls) == 2

    def test_to_dict_round_trips_json(self):
        reg = _registry()
        reg.get("depth").set(4)
        ts = TimeSeriesRecorder(reg)
        ts.sample(0.5)
        dump = json.loads(json.dumps(ts.to_dict(), sort_keys=True))
        assert dump["samples"] == 1
        assert dump["families"] == ["depth"]
        assert dump["series"]["depth"]["values"] == [4.0]

    def test_clear(self):
        ts = TimeSeriesRecorder(_registry(), capacity=1)
        ts.sample(0.0)
        ts.sample(1.0)
        ts.clear()
        assert len(ts) == 0 and ts.dropped == 0
        # cadence re-anchors after clear
        assert ts.tick(50.0) is True


class TestOpenMetrics:
    def test_timestamped_lines_and_eof(self):
        reg = _registry()
        reg.get("reads_total").labels(device="disk").inc(2)
        reg.get("depth").set(7)
        ts = TimeSeriesRecorder(reg)
        ts.sample(0.25)
        ts.sample(0.5)
        text = ts.render_openmetrics()
        assert text.endswith("# EOF\n")
        assert "# TYPE repro_reads_total counter" in text
        assert "# TYPE repro_depth gauge" in text
        assert 'repro_reads_total{device="disk"} 2 0.25' in text
        assert "repro_depth 7 0.5" in text

    def test_histograms_flatten_to_quantile_gauges(self):
        reg = _registry()
        reg.get("lat_seconds").observe(0.05)
        ts = TimeSeriesRecorder(reg)
        ts.sample(1.0)
        text = ts.render_openmetrics()
        assert "# TYPE repro_lat_seconds_count gauge" in text
        assert "repro_lat_seconds_p50 0.1 1" in text
        assert "repro_lat_seconds_sum 0.05 1" in text


class TestOpenMetricsConformance:
    """Spec-hygiene: real histogram bucket series when opted in,
    exemplars only where the spec allows them, families contiguous and
    sorted, exactly one terminating ``# EOF``."""

    def _request_registry(self):
        reg = MetricsRegistry(namespace="repro")
        reg.histogram("lifecycle_request_seconds", "Latency",
                      labels=("cls",), buckets=(0.01, 0.1, 1.0))
        reg.histogram("lifecycle_component_seconds", "Component",
                      labels=("cls", "component"),
                      buckets=(0.01, 0.1, 1.0))
        return reg

    def _reservoir(self):
        from repro.obs.forensics import ExemplarReservoir
        from repro.obs.lifecycle import LifecycleRecord
        from repro.sim.units import PAGE_SIZE
        reservoir = ExemplarReservoir(buckets=(0.01, 0.1, 1.0))
        reservoir.observe(LifecycleRecord(
            id=42, kind="fault", task="t", fs="ext2",
            device_class="disk", inode=1, page=0, cluster=1,
            nbytes=PAGE_SIZE, submit_time=10.0, start_time=10.01,
            finish_time=10.05, components=(("transfer", 0.04),)))
        return reservoir

    def test_sampled_buckets_render_as_real_histograms(self):
        reg = self._request_registry()
        hist = reg.get("lifecycle_request_seconds").labels(cls="disk")
        hist.observe(0.05)
        hist.observe(0.5)
        ts = TimeSeriesRecorder(reg, sample_buckets=True)
        ts.sample(1.0)
        text = ts.render_openmetrics()
        assert "# TYPE repro_lifecycle_request_seconds histogram" in text
        assert ('repro_lifecycle_request_seconds_bucket'
                '{cls="disk",le="0.01"} 0 1') in text
        assert ('repro_lifecycle_request_seconds_bucket'
                '{cls="disk",le="0.1"} 1 1') in text
        assert ('repro_lifecycle_request_seconds_bucket'
                '{cls="disk",le="+Inf"} 2 1') in text
        assert "repro_lifecycle_request_seconds_count" in text
        assert "repro_lifecycle_request_seconds_sum" in text
        # quantile summaries stay flattened gauges
        assert "# TYPE repro_lifecycle_request_seconds_p50 gauge" in text

    def test_exemplars_only_on_request_bucket_lines(self):
        reg = self._request_registry()
        reg.get("lifecycle_request_seconds").labels(
            cls="disk").observe(0.05)
        reg.get("lifecycle_component_seconds").labels(
            cls="disk", component="transfer").observe(0.04)
        ts = TimeSeriesRecorder(reg, sample_buckets=True,
                                exemplars=self._reservoir())
        ts.sample(1.0)
        for line in ts.render_openmetrics().splitlines():
            if " # {" not in line:
                continue
            # exemplars are legal on bucket samples only, and only the
            # request-latency family carries them (a component bucket
            # would get an out-of-range exemplar value)
            assert line.startswith(
                "repro_lifecycle_request_seconds_bucket{"), line
            assert '# {trace_id="42"} 0.05' in line
            assert line.endswith(" 10.05")
        assert sum(" # {" in line
                   for line in ts.render_openmetrics().splitlines()) > 0

    def test_no_exemplars_without_reservoir(self):
        reg = self._request_registry()
        reg.get("lifecycle_request_seconds").labels(
            cls="disk").observe(0.05)
        ts = TimeSeriesRecorder(reg, sample_buckets=True)
        ts.sample(1.0)
        assert " # {" not in ts.render_openmetrics()

    def test_families_contiguous_sorted_single_eof(self):
        reg = _registry()
        reg.get("reads_total").labels(device="disk").inc(2)
        reg.get("depth").set(7)
        reg.get("lat_seconds").observe(0.05)
        ts = TimeSeriesRecorder(reg, sample_buckets=True,
                                exemplars=self._reservoir())
        ts.sample(0.25)
        ts.sample(0.5)
        lines = ts.render_openmetrics().splitlines()
        assert lines[-1] == "# EOF"
        assert sum(line == "# EOF" for line in lines) == 1
        families = []
        current = None
        for line in lines[:-1]:
            if line.startswith("# TYPE "):
                current = line.split()[2]
                families.append(current)
            else:
                assert current is not None
                name = line.split("{", 1)[0].split(" ", 1)[0]
                # every sample line belongs to the family most recently
                # declared — i.e. families are contiguous blocks
                assert name == current or name.startswith(current + "_"), \
                    f"{name} interleaved into family {current}"
        assert families == sorted(families)
        assert len(families) == len(set(families))


class TestTelemetryIntegration:
    def test_enable_and_sample_on_real_run(self):
        machine = Machine.unix_utilities(cache_pages=256, seed=123)
        machine.boot()
        machine.ext2.create_text_file("data/f.txt", MB // 2, seed=7)
        telemetry = Telemetry()
        telemetry.attach(machine.kernel)
        series = telemetry.enable_timeseries(interval=0.002)
        from repro.apps.wc import wc
        wc(machine.kernel, "/mnt/ext2/data/f.txt", use_sleds=True)
        series.sample(machine.kernel.clock.now)
        telemetry.detach()
        assert len(series) >= 2
        # the acceptance bar: at least three sampled metric families
        assert len(series.family_names_sampled()) >= 3
        # snapshot hook refreshed point-in-time gauges into the rows
        assert any("virtual_time_seconds" in key
                   for _, row in series.samples for key in row)

    def test_double_enable_rejected(self):
        telemetry = Telemetry()
        telemetry.enable_timeseries()
        with pytest.raises(ValueError):
            telemetry.enable_timeseries()
        telemetry.disable_timeseries()
        assert telemetry.timeseries is None


class TestExportOracle:
    """The production recorder stores numeric rows and formats on read;
    the dict-row recorder it replaced (``tests/oracles/timeseries.py``)
    formats at sample time.  Driven side by side over the same registry,
    every export must come out identical."""

    @staticmethod
    def _pair(reg, **kwargs):
        from tests.oracles.timeseries import TimeSeriesRecorder as Oracle
        return TimeSeriesRecorder(reg, **kwargs), Oracle(reg, **kwargs)

    @staticmethod
    def _sample(new, oracle, t):
        # the production recorder samples first, so a series its own
        # snapshot hook creates is born inside its sample, not before
        assert new.sample(t) == oracle.sample(t)

    @staticmethod
    def _assert_same(new, oracle):
        assert new.samples == list(oracle.samples)
        assert len(new) == len(oracle)
        assert new.dropped == oracle.dropped
        assert new.series() == oracle.series()
        assert new.family_names_sampled() == oracle.family_names_sampled()
        # unsorted: key order must match at every level too
        assert json.dumps(new.to_dict()) == json.dumps(oracle.to_dict())
        assert new.render_openmetrics() == oracle.render_openmetrics()

    def _script(self, reg, new, oracle, start=0.0):
        """Mutate the registry between samples: values, series born
        mid-run, a histogram on its own bucket ladder."""
        reads = reg.get("reads_total")
        for step in range(6):
            t = start + step * 0.5
            reads.labels(device="disk").inc(step)
            reg.get("depth").set(step * 1.5)
            reg.get("lat_seconds").observe(0.003 * (step + 1) ** 3)
            if step == 2:
                reads.labels(device="nfs").inc()
                reg.counter("late_total", "Born mid-run").inc(7)
            if step >= 3:
                reg.get("late_total").inc()
                reg.histogram("sizes", "Sizes", labels=("cls",),
                              buckets=(1.0, 4.0, 16.0)).labels(
                    cls="disk").observe(step * 3)
            self._sample(new, oracle, t)

    def test_scripted_registry_with_births_and_hook(self):
        reg = _registry()
        depth = reg.get("depth")

        def hook():
            # from the fourth step on, the hook itself creates a series
            if depth.labels().value >= 4.5:
                reg.gauge("hooked", "Set by the hook",
                          labels=("by",)).labels(by="hook").set(
                    depth.labels().value)

        new, oracle = self._pair(reg, snapshot_hook=hook)
        self._script(reg, new, oracle)
        assert any("hooked" in key for _, row in new.samples for key in row)
        self._assert_same(new, oracle)

    def test_overflow_child(self):
        import warnings

        reg = MetricsRegistry(namespace="repro", max_label_cardinality=2)
        fam = reg.counter("reads_total", "Reads", labels=("device",))
        reg.gauge("depth", "Depth")
        reg.histogram("lat_seconds", "Latency", buckets=(0.01, 0.1, 1.0))
        new, oracle = self._pair(reg)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for i in range(5):
                fam.labels(device=f"d{i}").inc()
                self._sample(new, oracle, float(i))
        assert fam.overflows == 3
        assert any('device="_overflow"' in key for key in new.series())
        self._assert_same(new, oracle)

    def test_family_filter(self):
        reg = _registry()
        new, oracle = self._pair(reg, families=("depth", "lat_seconds"))
        self._script(reg, new, oracle)
        assert new.family_names_sampled() == ["depth", "lat_seconds"]
        self._assert_same(new, oracle)

    def test_ring_wrap_and_clear(self):
        reg = _registry()
        new, oracle = self._pair(reg, capacity=4, interval=0.5)
        self._script(reg, new, oracle)
        assert new.dropped == 2
        self._assert_same(new, oracle)
        new.clear()
        oracle.clear()
        self._assert_same(new, oracle)
        for t in (10.0, 10.2, 10.5, 11.7, 11.8):
            reg.get("depth").inc()
            assert new.tick(t) == oracle.tick(t)
        self._script(reg, new, oracle, start=20.0)
        self._assert_same(new, oracle)

    @pytest.mark.parametrize("buckets", [False, True])
    def test_buckets_off_and_on_with_exemplars(self, buckets):
        reg = TestOpenMetricsConformance()._request_registry()
        reservoir = TestOpenMetricsConformance()._reservoir()
        new, oracle = self._pair(reg, sample_buckets=buckets,
                                 exemplars=reservoir)
        request = reg.get("lifecycle_request_seconds")
        component = reg.get("lifecycle_component_seconds")
        for step in range(4):
            request.labels(cls="disk").observe(0.02 * (step + 1))
            request.labels(cls="nfs").observe(0.5 / (step + 1))
            component.labels(cls="disk", component="transfer").observe(
                0.04)
            self._sample(new, oracle, 10.0 + step)
        text = new.render_openmetrics()
        assert (' # {trace_id="42"}' in text) is buckets
        self._assert_same(new, oracle)

    def test_telemetry_attached_engine_run(self):
        """One engine run with the full stack ticking both recorders."""
        from repro.block.merge import BlockConfig
        from repro.obs import LatencyForensics, SloTracker
        from repro.sim.tasks import EventScheduler, Task
        from tests.oracles.timeseries import TimeSeriesRecorder as Oracle

        machine = Machine.unix_utilities(cache_pages=64, seed=11)
        machine.boot()
        machine.ext2.create_text_file("f.txt", 96 * 4096, seed=3)
        machine.nfs.create_text_file("g.txt", 48 * 4096, seed=4)
        kernel = machine.kernel
        telemetry = Telemetry()
        telemetry.attach(kernel)
        forensics = LatencyForensics(kernel)
        new = telemetry.enable_timeseries(interval=0.002, capacity=64,
                                          sample_buckets=True,
                                          exemplars=forensics.reservoir)
        oracle = Oracle(telemetry.registry, interval=0.002, capacity=64,
                        snapshot_hook=telemetry.snapshot,
                        sample_buckets=True,
                        exemplars=forensics.reservoir)

        class Both:
            def tick(self, now):
                assert new.tick(now) == oracle.tick(now)

        telemetry.timeseries = Both()
        slo = SloTracker.for_classes({"disk": 0.01, "nfs": 0.05},
                                     registry=telemetry.registry,
                                     track_tenants=True).attach(telemetry)
        engine = kernel.attach_engine(block=BlockConfig(merge=True,
                                                        plug=True))
        forensics.attach(telemetry, slo=slo)

        def reader(path, start, stride):
            fd = kernel.open(path)
            kernel.get_sleds(fd)
            size = kernel.stat(path).size
            for offset in range(start * 4096, size, stride * 4096):
                yield from kernel.pread_async(fd, offset, 2 * 4096)
            kernel.close(fd)

        tasks = [Task(f"r{i}", reader(path, i, 3), tenant=f"t{i % 2}")
                 for i, path in enumerate(["/mnt/ext2/f.txt"] * 3
                                          + ["/mnt/nfs/g.txt"])]
        EventScheduler(kernel, tasks, engine=engine).run()
        self._sample(new, oracle, kernel.clock.now)
        assert new.dropped > 0
        assert len(new.family_names_sampled()) > 10
        self._assert_same(new, oracle)
