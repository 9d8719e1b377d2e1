"""Tests for the deterministic metrics registry."""

import pytest

from repro.obs.metrics import (
    DEPTH_BUCKETS,
    LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    log_buckets,
)


class TestBuckets:
    def test_log_buckets_cover_range(self):
        bounds = log_buckets(lo=1e-7, hi=150.0, factor=2.0)
        assert bounds[0] == 1e-7
        assert bounds[-1] >= 150.0
        assert list(bounds) == sorted(bounds)

    def test_log_buckets_geometric(self):
        bounds = log_buckets(lo=1.0, hi=8.0, factor=2.0)
        assert bounds == (1.0, 2.0, 4.0, 8.0)

    @pytest.mark.parametrize("lo,hi,factor", [
        (0.0, 1.0, 2.0), (1.0, 1.0, 2.0), (1.0, 2.0, 1.0), (-1.0, 1.0, 2.0),
    ])
    def test_bad_spec_rejected(self, lo, hi, factor):
        with pytest.raises(ValueError):
            log_buckets(lo=lo, hi=hi, factor=factor)

    def test_default_buckets_span_memory_to_tape(self):
        assert LATENCY_BUCKETS[0] <= 175e-9   # a memory access fits
        assert LATENCY_BUCKETS[-1] >= 150.0   # a tape exchange fits
        assert DEPTH_BUCKETS[0] == 1.0


class TestSamples:
    def test_counter_monotonic(self):
        c = Counter()
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_moves_both_ways(self):
        g = Gauge()
        g.set(10)
        g.inc(5)
        g.dec(2)
        assert g.value == 13.0

    def test_histogram_observe_and_mean(self):
        h = Histogram(bounds=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 3.0, 100.0):
            h.observe(v)
        assert h.count == 4
        assert h.sum == 105.0
        assert h.mean == pytest.approx(26.25)
        # slot counts: <=1, <=2, <=4, +Inf
        assert h.counts == [1, 1, 1, 1]

    def test_histogram_boundary_lands_in_its_bucket(self):
        h = Histogram(bounds=(1.0, 2.0))
        h.observe(1.0)      # exactly on a bound -> that bucket, not the next
        assert h.counts == [1, 0, 0]

    def test_histogram_quantile(self):
        h = Histogram(bounds=(1.0, 2.0, 4.0))
        for v in (0.5, 0.5, 0.5, 3.0):
            h.observe(v)
        assert h.quantile(0.5) == 1.0
        assert h.quantile(1.0) == 4.0
        assert Histogram().quantile(0.5) == 0.0
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_histogram_bad_bounds(self):
        with pytest.raises(ValueError):
            Histogram(bounds=())
        with pytest.raises(ValueError):
            Histogram(bounds=(2.0, 1.0))


class TestFamilies:
    def test_labels_create_children(self):
        reg = MetricsRegistry()
        fam = reg.counter("reads_total", "Reads", labels=("device",))
        fam.labels(device="disk").inc()
        fam.labels(device="disk").inc()
        fam.labels(device="nfs").inc(3)
        children = dict((labels["device"], child.value)
                        for labels, child in fam.children())
        assert children == {"disk": 2.0, "nfs": 3.0}

    def test_label_schema_enforced(self):
        reg = MetricsRegistry()
        fam = reg.counter("reads_total", "Reads", labels=("device",))
        with pytest.raises(ValueError):
            fam.labels(dev="disk")
        with pytest.raises(ValueError):
            fam.labels(device="disk", op="read")

    def test_unlabeled_proxy(self):
        reg = MetricsRegistry()
        c = reg.counter("ticks_total", "Ticks")
        c.inc(2)
        assert c.labels().value == 2.0

    def test_proxy_rejected_on_labeled_family(self):
        reg = MetricsRegistry()
        fam = reg.counter("reads_total", "Reads", labels=("device",))
        with pytest.raises(ValueError):
            fam.inc()

    def test_duplicate_name_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x_total", "X")
        with pytest.raises(ValueError):
            reg.gauge("x_total", "X again")


class TestRegistrationHygiene:
    def test_identical_reregistration_is_idempotent(self):
        reg = MetricsRegistry()
        a = reg.counter("x_total", "X", labels=("device",))
        b = reg.counter("x_total", "X", labels=("device",))
        assert a is b

    def test_mismatched_help_raises(self):
        reg = MetricsRegistry()
        reg.counter("x_total", "X")
        with pytest.raises(ValueError, match="x_total"):
            reg.counter("x_total", "different help")

    def test_mismatched_labels_raise(self):
        reg = MetricsRegistry()
        reg.counter("x_total", "X", labels=("device",))
        with pytest.raises(ValueError):
            reg.counter("x_total", "X", labels=("cls",))

    def test_mismatched_histogram_buckets_raise(self):
        reg = MetricsRegistry()
        reg.histogram("lat_seconds", "L", buckets=(0.1, 1.0))
        with pytest.raises(ValueError):
            reg.histogram("lat_seconds", "L", buckets=(0.5, 1.0))
        # identical buckets are fine
        reg.histogram("lat_seconds", "L", buckets=(0.1, 1.0))


class TestCardinalityCap:
    def test_overflow_routes_to_sink_child(self):
        reg = MetricsRegistry(max_label_cardinality=2)
        fam = reg.counter("reads_total", "Reads", labels=("device",))
        fam.labels(device="a").inc()
        fam.labels(device="b").inc()
        with pytest.warns(RuntimeWarning, match="cardinality"):
            fam.labels(device="c").inc()
        assert fam.overflows == 1
        sink = dict((labels["device"], child.value)
                    for labels, child in fam.children())
        assert sink == {"a": 1.0, "b": 1.0, "_overflow": 1.0}

    def test_warns_once_but_keeps_counting(self):
        import warnings

        reg = MetricsRegistry(max_label_cardinality=1)
        fam = reg.counter("reads_total", "Reads", labels=("device",))
        fam.labels(device="a").inc()
        with pytest.warns(RuntimeWarning):
            fam.labels(device="b").inc()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a second warning would raise
            fam.labels(device="c").inc()
            fam.labels(device="d").inc()
        assert fam.overflows == 3

    def test_existing_children_unaffected_by_cap(self):
        reg = MetricsRegistry(max_label_cardinality=1)
        fam = reg.counter("reads_total", "Reads", labels=("device",))
        fam.labels(device="a").inc()
        fam.labels(device="a").inc()  # re-use never overflows
        assert fam.overflows == 0

    def test_cap_must_be_positive(self):
        with pytest.raises(ValueError):
            MetricsRegistry(max_label_cardinality=0)


class TestExposition:
    def _registry(self):
        reg = MetricsRegistry(namespace="repro")
        reg.counter("reads_total", "Reads", labels=("device",)) \
            .labels(device="disk").inc(5)
        reg.gauge("depth", "Depth").set(3)
        h = reg.histogram("lat_seconds", "Latency", buckets=(0.01, 0.1, 1.0))
        h.observe(0.05)
        h.observe(0.05)
        h.observe(50.0)
        return reg

    def test_prometheus_text(self):
        text = self._registry().render_prometheus()
        assert "# HELP repro_reads_total Reads" in text
        assert "# TYPE repro_reads_total counter" in text
        assert 'repro_reads_total{device="disk"} 5' in text
        assert "repro_depth 3" in text
        # cumulative buckets plus +Inf
        assert 'repro_lat_seconds_bucket{le="0.1"} 2' in text
        assert 'repro_lat_seconds_bucket{le="1"} 2' in text
        assert 'repro_lat_seconds_bucket{le="+Inf"} 3' in text
        assert "repro_lat_seconds_count 3" in text

    def test_render_is_deterministic(self):
        assert (self._registry().render_prometheus()
                == self._registry().render_prometheus())

    def test_empty_families_not_rendered(self):
        reg = MetricsRegistry()
        reg.counter("unused_total", "Never touched", labels=("device",))
        assert reg.render_prometheus() == ""
        assert reg.to_dict() == {}

    def test_to_dict_round_trips_json(self):
        import json
        dump = json.dumps(self._registry().to_dict(), sort_keys=True)
        assert "repro_lat_seconds" in dump
        assert json.loads(dump)["repro_depth"]["series"][0]["value"] == 3.0


class TestChildCache:
    def test_resolves_once_and_creates_lazily(self):
        reg = MetricsRegistry()
        fam = reg.counter("reads_total", "Reads", labels=("device",))
        pairs = reg.counter("ops_total", "Ops", labels=("device", "op"))
        assert "reads_total" not in reg.render_prometheus()
        fam.child["disk"].inc()
        fam.child["disk"].inc(2)
        pairs.child[("disk", "read")].inc()
        assert fam.child["disk"] is fam.labels(device="disk")
        assert fam.labels(device="disk").value == 3.0
        assert pairs.child[("disk", "read")] is pairs.labels(
            device="disk", op="read")
        assert [labels for labels, _ in fam.children()] == [
            {"device": "disk"}]

    def test_overflow_sink_is_never_kept(self):
        reg = MetricsRegistry(max_label_cardinality=1)
        fam = reg.counter("reads_total", "Reads", labels=("device",))
        fam.child["a"].inc()
        with pytest.warns(RuntimeWarning):
            fam.child["b"].inc()
        fam.child["b"].inc()
        assert "b" not in fam.child
        # every collapsed lookup still counts
        assert fam.overflows == 2
        sink = dict((labels["device"], child.value)
                    for labels, child in fam.children())
        assert sink == {"a": 1.0, "_overflow": 2.0}

    def test_registry_generation_tracks_shape_changes(self):
        reg = MetricsRegistry()
        seen = reg.generation
        fam = reg.counter("reads_total", "Reads", labels=("device",))
        assert reg.generation > seen
        seen = reg.generation
        reg.counter("reads_total", "Reads", labels=("device",))
        fam.labels(device="a").inc()
        assert reg.generation == seen + 1
        seen = reg.generation
        fam.labels(device="a").inc()
        fam.child["a"].inc()
        assert reg.generation == seen
        gauge = reg.gauge("depth", "Depth")
        gauge.set(1)
        gauge.set(2)
        assert reg.generation == seen + 2
