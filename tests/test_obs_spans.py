"""Tests for the span recorder, the kernel's spans, the Chrome trace
export and the timeline renderer."""

import json

import pytest

from repro.machine import Machine
from repro.obs import Telemetry
from repro.obs.spans import Span, SpanRecorder, chrome_trace, render_timeline
from repro.sim.units import PAGE_SIZE


class TestSpanRecorder:
    def test_begin_end_nesting(self):
        rec = SpanRecorder()
        outer = rec.begin("syscall", "read", 0.0)
        inner = rec.begin("fault", "disk", 0.1)
        rec.end(inner, 0.3)
        rec.end(outer, 0.4)
        syscall = rec.spans("syscall")[0]
        fault = rec.spans("fault")[0]
        assert syscall.parent_id is None
        assert fault.parent_id == syscall.id
        assert fault.duration == pytest.approx(0.2)
        assert rec.children_of(syscall) == [fault]

    def test_add_defaults_parent_to_open_span(self):
        rec = SpanRecorder()
        outer = rec.begin("syscall", "read", 0.0)
        dev = rec.add("device", "ext2-disk", 0.1, 0.2, bytes=4096)
        rec.end(outer, 0.3)
        assert dev.parent_id == outer.id
        assert dev.attr("bytes") == 4096
        # explicit parent wins over the stack
        orphan = rec.add("device", "x", 0.4, 0.5, parent_id=None)
        assert orphan.parent_id is None

    def test_end_pops_abandoned_children(self):
        rec = SpanRecorder()
        outer = rec.begin("syscall", "read", 0.0)
        rec.begin("fault", "disk", 0.1)  # never ended
        rec.end(outer, 0.5)
        assert rec.open_depth == 0
        assert rec.current() is None

    def test_ring_buffer_drops_oldest(self):
        rec = SpanRecorder(capacity=2)
        for i in range(4):
            rec.add("syscall", f"s{i}", float(i), float(i) + 0.5)
        assert len(rec) == 2
        assert rec.dropped == 2
        assert [s.name for s in rec.spans()] == ["s2", "s3"]

    def test_bad_capacity_and_backwards_span(self):
        with pytest.raises(ValueError):
            SpanRecorder(capacity=0)
        rec = SpanRecorder()
        with pytest.raises(ValueError):
            rec.add("syscall", "read", 1.0, 0.5)

    def test_attrs(self):
        span = Span(1, None, "fault", "disk", 1.0, 1.02,
                    attrs=(("cluster", 4), ("page", 3)))
        assert span.attr("page") == 3
        assert span.attr("nope", "dflt") == "dflt"

    def test_add_and_filter(self):
        rec = SpanRecorder()
        rec.add("syscall", "read", 1.0, 1.001)
        rec.add("fault", "disk", 2.0, 2.02, page=3)
        assert len(rec) == 2
        assert len(rec.spans("fault")) == 1
        assert rec.spans("syscall", "read")[0].start == 1.0

    def test_filters_compose(self):
        rec = SpanRecorder()
        rec.add("syscall", "read", 0.0, 0.5)
        rec.add("syscall", "write", 1.0, 1.5)
        rec.add("fault", "read", 2.0, 2.5)  # name collides across kinds
        assert [s.start for s in rec.spans(kind="syscall",
                                           name="read")] == [0.0]

    def test_clear(self):
        rec = SpanRecorder(capacity=1)
        rec.add("syscall", "a", 0.0, 1.0)
        rec.add("syscall", "b", 1.0, 2.0)
        rec.clear()
        assert len(rec) == 0
        assert rec.dropped == 0


class TestChromeTrace:
    def _recorder(self):
        rec = SpanRecorder()
        outer = rec.begin("syscall", "read", 0.0)
        rec.add("fault", "disk", 0.0, 0.02, page=3)
        rec.end(outer, 0.025)
        return rec

    def test_structure(self):
        doc = chrome_trace(self._recorder())
        assert set(doc) == {"traceEvents", "displayTimeUnit", "otherData"}
        assert all(e["ph"] == "X" for e in doc["traceEvents"])
        assert json.loads(json.dumps(doc)) == doc

    def test_units_are_microseconds(self):
        doc = chrome_trace(self._recorder())
        fault = next(e for e in doc["traceEvents"] if e["cat"] == "fault")
        assert fault["ts"] == 0.0
        assert fault["dur"] == pytest.approx(20_000.0)

    def test_parent_before_child_on_shared_start(self):
        # Perfetto nests by containment; on a tied start the longer
        # (enclosing) span must sort first.
        doc = chrome_trace(self._recorder())
        names = [e["name"] for e in doc["traceEvents"]]
        assert names.index("read") < names.index("disk")

    def test_explicit_parent_links(self):
        doc = chrome_trace(self._recorder())
        by_name = {e["name"]: e for e in doc["traceEvents"]}
        assert by_name["disk"]["args"]["parent"] == \
            by_name["read"]["args"]["span"]
        assert "parent" not in by_name["read"]["args"]

    def test_accepts_plain_span_list(self):
        rec = self._recorder()
        doc = chrome_trace(rec.spans("fault"))
        assert len(doc["traceEvents"]) == 1


class TestKernelSpans:
    def _traced_machine(self):
        machine = Machine.unix_utilities(cache_pages=64, seed=501)
        machine.boot()
        telemetry = Telemetry()
        machine.kernel.attach_telemetry(telemetry)
        return machine, telemetry

    def test_syscalls_traced_by_name(self):
        machine, telemetry = self._traced_machine()
        machine.ext2.create_text_file("f", 4 * PAGE_SIZE, seed=1)
        k = machine.kernel
        fd = k.open("/mnt/ext2/f")
        k.read(fd, 100)
        k.lseek(fd, 0)
        k.close(fd)
        names = [s.name for s in telemetry.spans.spans("syscall")]
        assert names == ["open", "read", "lseek", "close"]

    def test_faults_traced_with_cluster_info(self):
        machine, telemetry = self._traced_machine()
        machine.ext2.create_text_file("f", 16 * PAGE_SIZE, seed=1)
        machine.kernel.warm_file("/mnt/ext2/f")
        faults = telemetry.spans.spans("fault")
        assert faults
        assert sum(s.attr("cluster") for s in faults) == 16
        assert all(s.name == "disk" for s in faults)
        assert all(s.duration > 0 for s in faults)

    def test_ioctls_traced_by_command_name(self):
        machine, telemetry = self._traced_machine()
        machine.ext2.create_text_file("f", PAGE_SIZE, seed=1)
        k = machine.kernel
        fd = k.open("/mnt/ext2/f")
        k.get_sleds(fd)
        k.close(fd)
        names = [s.name for s in telemetry.spans.spans("syscall")]
        assert names == ["open", "FSLEDS_GET", "close"]

    def test_detach_stops_recording(self):
        machine, telemetry = self._traced_machine()
        machine.kernel.detach_telemetry()
        machine.ext2.create_text_file("f", PAGE_SIZE, seed=1)
        machine.kernel.warm_file("/mnt/ext2/f")
        assert telemetry.spans.spans("fault") == []

    def test_warm_run_emits_no_faults(self):
        machine, telemetry = self._traced_machine()
        machine.ext2.create_text_file("f", 8 * PAGE_SIZE, seed=1)
        machine.kernel.warm_file("/mnt/ext2/f")
        telemetry.spans.clear()
        machine.kernel.warm_file("/mnt/ext2/f")
        assert telemetry.spans.spans("syscall")
        assert telemetry.spans.spans("fault") == []


def _span(kind, start, end, span_id=1):
    return Span(span_id, None, kind, kind, start, end)


def _lane(text, kind):
    return next(line for line in text.splitlines()
                if line.split() and line.split()[0] == kind)[9:]


class TestRenderTimeline:
    def test_render_empty(self):
        assert render_timeline([]) == "(no spans)"

    def test_render_contains_lanes(self):
        text = render_timeline([_span("syscall", 0.0, 0.0),
                                _span("fault", 0.5, 0.7, 2)], width=40)
        assert "syscall" in text
        assert "fault" in text
        assert "device" in text
        assert "|" in text or "#" in text

    def test_render_single_event(self):
        # one span: the time axis is degenerate but must still render
        text = render_timeline([_span("fault", 1.0, 1.0)], width=40)
        assert "fault" in text
        assert "|" in text

    def test_render_zero_duration_uses_tick_glyph(self):
        text = render_timeline([_span("syscall", 0.0, 0.0),
                                _span("fault", 1.0, 1.5, 2)], width=40)
        assert "|" in _lane(text, "syscall")
        assert "#" not in _lane(text, "syscall")
        assert "#" in _lane(text, "fault")

    def test_fault_drawn_from_its_start(self):
        """A span covers the columns from its start to its end, and the
        axis runs from the first start to the last end."""
        outer = Span(1, None, "syscall", "read", 0.0, 2.0)
        fault = Span(2, 1, "fault", "disk", 0.0, 1.0)
        text = render_timeline([outer, fault], width=41)
        assert _lane(text, "fault") == "#" * 21 + " " * 20
        assert _lane(text, "syscall") == "#" * 41
        assert text.splitlines()[-1].split() == ["0.0000", "2.0000"]

    def test_kernel_run_draws_every_lane(self):
        machine = Machine.unix_utilities(cache_pages=64, seed=501)
        machine.boot()
        machine.ext2.create_text_file("f", 16 * PAGE_SIZE, seed=1)
        telemetry = Telemetry()
        machine.kernel.attach_telemetry(telemetry)
        start = machine.kernel.clock.now
        machine.kernel.warm_file("/mnt/ext2/f")
        end = machine.kernel.clock.now
        machine.kernel.detach_telemetry()
        text = render_timeline(telemetry.spans.spans())
        for kind in ("syscall", "fault", "device"):
            assert "#" in _lane(text, kind), kind
        assert text.splitlines()[-1].split() == [f"{start:.4f}",
                                                 f"{end:.4f}"]
