"""Tests for the trace a simulated kernel records: the telemetry span
ring buffer as the kernel fills it, and a detached trace's zero cost."""

import pytest

from repro.machine import Machine
from repro.obs import Telemetry
from repro.sim.units import PAGE_SIZE


def _traced_machine(span_capacity: int = 100_000):
    machine = Machine.unix_utilities(cache_pages=64, seed=501)
    machine.boot()
    telemetry = Telemetry(span_capacity=span_capacity)
    machine.kernel.attach_telemetry(telemetry)
    return machine, telemetry


class TestTracer:
    def test_ring_buffer_drops_oldest(self):
        machine, telemetry = _traced_machine(span_capacity=3)
        machine.ext2.create_text_file("f", PAGE_SIZE, seed=1)
        k = machine.kernel
        fd = k.open("/mnt/ext2/f")
        for offset in (1, 2, 3):
            k.lseek(fd, offset)
        k.close(fd)
        spans = telemetry.spans.spans()
        assert len(telemetry.spans) == 3
        assert telemetry.spans.dropped == 2
        assert [s.name for s in spans] == ["lseek", "lseek", "close"]
        assert [s.id for s in spans] == [3, 4, 5]

    def test_bad_capacity(self):
        for capacity in (0, -1):
            with pytest.raises(ValueError):
                Telemetry(span_capacity=capacity)

    def test_clear(self):
        machine, telemetry = _traced_machine(span_capacity=4)
        machine.ext2.create_text_file("f", 8 * PAGE_SIZE, seed=1)
        machine.kernel.warm_file("/mnt/ext2/f")
        assert telemetry.spans.dropped > 0
        telemetry.spans.clear()
        assert len(telemetry.spans) == 0
        assert telemetry.spans.dropped == 0
        assert telemetry.spans.open_depth == 0
        k = machine.kernel
        k.close(k.open("/mnt/ext2/f"))
        assert [s.name for s in telemetry.spans.spans()] == ["open", "close"]


class TestKernelIntegration:
    def test_disabled_tracer_costs_nothing(self):
        """Tracing must not perturb virtual time: with the telemetry
        detached the run is bit-identical to one on a machine that never
        traced, and nothing more is recorded."""
        plain = Machine.unix_utilities(cache_pages=64, seed=501)
        plain.boot()
        plain.ext2.create_text_file("f", 8 * PAGE_SIZE, seed=1)

        machine, telemetry = _traced_machine()
        machine.kernel.detach_telemetry()
        machine.ext2.create_text_file("f", 8 * PAGE_SIZE, seed=1)

        with plain.kernel.process() as want:
            plain.kernel.warm_file("/mnt/ext2/f")
        with machine.kernel.process() as got:
            machine.kernel.warm_file("/mnt/ext2/f")
        assert len(telemetry.spans) == 0
        assert got.elapsed == want.elapsed
        assert got.by_category == want.by_category
