"""Integration tests for the telemetry facade on a simulated machine."""

import json

import pytest

from repro.apps.wc import wc
from repro.hsm.migration import MigrationDaemon
from repro.machine import Machine
from repro.obs import Telemetry
from repro.sim.units import MB, PAGE_SIZE


def _machine(seed=321, cache_pages=256):
    machine = Machine.unix_utilities(cache_pages=cache_pages, seed=seed)
    machine.boot()
    return machine


def _wc_run(machine, path="/mnt/ext2/data/f.txt", use_sleds=True):
    with machine.kernel.process() as run:
        wc(machine.kernel, path, use_sleds=use_sleds)
    return run


@pytest.fixture
def telemetry_machine():
    machine = _machine()
    machine.ext2.create_text_file("data/f.txt", MB // 2, seed=7)
    telemetry = Telemetry()
    machine.kernel.attach_telemetry(telemetry)
    return machine, telemetry


class TestZeroCost:
    def test_virtual_times_bit_identical_with_telemetry(self):
        """The acceptance bar: telemetry never perturbs simulated time."""
        plain = _machine()
        plain.ext2.create_text_file("data/f.txt", MB // 2, seed=7)
        observed = _machine()
        observed.ext2.create_text_file("data/f.txt", MB // 2, seed=7)
        observed.kernel.attach_telemetry(Telemetry())

        cold_plain = _wc_run(plain)
        cold_observed = _wc_run(observed)
        warm_plain = _wc_run(plain)
        warm_observed = _wc_run(observed)

        assert cold_observed.elapsed == cold_plain.elapsed
        assert warm_observed.elapsed == warm_plain.elapsed
        assert cold_observed.hard_faults == cold_plain.hard_faults
        assert warm_observed.by_category == warm_plain.by_category

    def test_detach_restores_plain_machine(self, telemetry_machine):
        machine, telemetry = telemetry_machine
        machine.kernel.detach_telemetry()
        assert machine.kernel.telemetry is None
        assert machine.kernel.page_cache.observer is None
        spans_before = len(telemetry.spans)
        _wc_run(machine)
        assert len(telemetry.spans) == spans_before


class TestAccuracy:
    def test_warm_wc_reports_per_class_error(self, telemetry_machine):
        """Warm-cache wc: accuracy summary has disk and memory classes."""
        machine, telemetry = telemetry_machine
        _wc_run(machine)          # cold: faults from disk
        _wc_run(machine)          # warm: hits settle as memory class
        report = telemetry.accuracy.report()
        assert report.by_class["disk"].samples > 0
        assert report.by_class["memory"].samples > 0
        assert report.by_class["memory"].mean_abs_error < 1e-6
        text = report.render()
        assert "disk" in text and "memory" in text
        assert "mean_abs_err" in text

    def test_without_sleds_no_predictions(self, telemetry_machine):
        machine, telemetry = telemetry_machine
        _wc_run(machine, use_sleds=False)
        assert telemetry.accuracy.report().by_class == {}


class TestSpans:
    def test_syscall_fault_device_nesting(self, telemetry_machine):
        machine, telemetry = telemetry_machine
        _wc_run(machine)
        spans = telemetry.spans
        faults = spans.spans("fault")
        devices = spans.spans("device")
        assert faults and devices
        by_id = {s.id: s for s in spans.spans()}
        for fault in faults:
            parent = by_id[fault.parent_id]
            assert parent.kind == "syscall"
            assert parent.start <= fault.start <= fault.end <= parent.end
        fault_ids = {f.id for f in faults}
        assert any(d.parent_id in fault_ids for d in devices)
        for dev in devices:
            parent = by_id[dev.parent_id]
            assert parent.start <= dev.start
            assert dev.end <= parent.end + 1e-12

    def test_chrome_trace_is_valid_and_nested(self, telemetry_machine):
        machine, telemetry = telemetry_machine
        _wc_run(machine)
        doc = telemetry.chrome_trace()
        blob = json.dumps(doc)
        assert json.loads(blob) == doc
        events = doc["traceEvents"]
        assert all(e["ph"] == "X" for e in events)
        assert all(e["dur"] >= 0 for e in events)
        starts = [e["ts"] for e in events]
        assert starts == sorted(starts)
        cats = {e["cat"] for e in events}
        assert {"syscall", "fault", "device"} <= cats

    def test_fault_spans_carry_latency_breakdown(self, telemetry_machine):
        """Every closed fault span names its queue wait and per-component
        seconds, and the breakdown matches the lifecycle record's."""
        machine, telemetry = telemetry_machine
        _wc_run(machine)
        faults = telemetry.spans.spans("fault")
        assert faults
        by_key = {(r.inode, r.page): r
                  for r in telemetry.lifecycle.records}
        checked = 0
        for span in faults:
            attrs = dict(span.attrs)
            assert "queue_wait" in attrs and "components" in attrs
            rec = by_key.get((attrs["inode"], attrs["page"]))
            if rec is None:
                continue
            checked += 1
            assert attrs["queue_wait"] == rec.queue_wait
            assert attrs["components"] == dict(rec.components)
        assert checked > 0
        # and the breakdown survives into the Chrome trace args
        events = telemetry.chrome_trace()["traceEvents"]
        fault_events = [e for e in events if e["cat"] == "fault"]
        assert all("components" in e["args"] for e in fault_events)

    def test_merged_fault_spans_carry_provenance(self):
        from repro.block.merge import BlockConfig
        from repro.sim.tasks import EventScheduler, Task

        machine = _machine()
        machine.ext2.create_text_file("data/f.txt", 32 * PAGE_SIZE, seed=7)
        telemetry = Telemetry()
        machine.kernel.attach_telemetry(telemetry)
        engine = machine.kernel.attach_engine(
            block=BlockConfig(merge=True, plug=True))
        kernel = machine.kernel

        def reader(start):
            fd = kernel.open("/mnt/ext2/data/f.txt")
            for chunk in range(start, 16, 2):
                yield from kernel.pread_async(
                    fd, chunk * 2 * PAGE_SIZE, 2 * PAGE_SIZE)
            kernel.close(fd)

        tasks = [Task(f"r{i}", reader(i)) for i in range(2)]
        EventScheduler(kernel, tasks, engine=engine).run()
        merged_spans = [s for s in telemetry.spans.spans("fault")
                        if "merged_from" in dict(s.attrs)]
        assert merged_spans, "merge workload produced no coalesced faults"
        merged_recs = {(r.inode, tuple(map(tuple, r.merged_from)))
                       for r in telemetry.lifecycle.records
                       if r.merged_from}
        for span in merged_spans:
            attrs = dict(span.attrs)
            members = tuple(tuple(m) for m in attrs["merged_from"])
            assert len(members) >= 2
            assert (attrs["inode"], members) in merged_recs


class TestMetrics:
    def test_cache_metrics_match_kernel_counters(self, telemetry_machine):
        machine, telemetry = telemetry_machine
        run = _wc_run(machine)
        counters = machine.kernel.counters
        hits = telemetry.cache_hits.labels(policy="lru").value
        misses = telemetry.cache_misses.labels(policy="lru").value
        assert hits == counters.cache_hits
        assert misses == counters.cache_misses
        assert run.hit_ratio == pytest.approx(hits / (hits + misses))

    def test_syscall_and_fault_families(self, telemetry_machine):
        machine, telemetry = telemetry_machine
        _wc_run(machine)
        assert telemetry.syscalls.labels(name="read").value > 0
        assert telemetry.syscalls.labels(name="open").value == 1
        fault_hist = telemetry.fault_latency.labels(device="disk")
        assert fault_hist.count == machine.kernel.counters.hard_faults
        assert fault_hist.sum > 0

    def test_readahead_issued_and_used(self, telemetry_machine):
        machine, telemetry = telemetry_machine
        _wc_run(machine)
        issued = telemetry.readahead_issued.labels().value
        used = telemetry.readahead_used.labels().value
        assert issued > 0
        assert 0 < used <= issued

    def test_eviction_metrics(self):
        machine = _machine(cache_pages=8)
        machine.ext2.create_text_file("data/f.txt", 32 * PAGE_SIZE, seed=7)
        telemetry = Telemetry()
        machine.kernel.attach_telemetry(telemetry)
        _wc_run(machine)
        evictions = telemetry.cache_evictions.labels(
            policy="lru", forced="false").value
        assert evictions > 0
        assert evictions == machine.kernel.counters.evictions

    def test_queue_depth_on_writeback(self, telemetry_machine):
        machine, telemetry = telemetry_machine
        k = machine.kernel
        fd = k.open("/mnt/ext2/out.txt", "w")
        k.write(fd, b"\0" * (4 * PAGE_SIZE))
        k.fsync(fd)
        k.close(fd)
        # contiguous dirty pages coalesce, so depth counts requests, not pages
        hist = telemetry.queue_depth.labels(device="ext2-disk")
        assert hist.count >= 1
        assert hist.sum >= 1

    def test_nfs_metadata_ops_exported(self, telemetry_machine):
        machine, telemetry = telemetry_machine
        machine.nfs.create_text_file("pub/r.txt", PAGE_SIZE, seed=1)
        machine.kernel.stat("/mnt/nfs/pub/r.txt")
        telemetry.snapshot()
        gauge = telemetry.remote_metadata_ops.labels(fs="nfs")
        assert gauge.value >= 1
        hist = telemetry.metadata_latency.labels(fs="nfs")
        assert hist.count >= 1

    def test_sleds_requests_counted(self, telemetry_machine):
        machine, telemetry = telemetry_machine
        _wc_run(machine)
        assert telemetry.sleds_requests.labels().value >= 1
        assert telemetry.sleds_vector_sleds.labels().count >= 1

    def test_prometheus_export_scrapes(self, telemetry_machine):
        machine, telemetry = telemetry_machine
        _wc_run(machine)
        text = telemetry.render_prometheus()
        assert 'repro_syscalls_total{name="read"}' in text
        assert 'repro_faults_total{device="disk"}' in text
        assert 'repro_virtual_time_seconds{category="total"}' in text
        assert text == telemetry.render_prometheus()  # deterministic

    def test_to_dict_round_trips(self, telemetry_machine):
        machine, telemetry = telemetry_machine
        _wc_run(machine)
        dump = telemetry.to_dict()
        assert json.loads(json.dumps(dump)) == dump
        assert dump["spans"]["recorded"] == len(telemetry.spans)
        assert dump["accuracy"]["classes"]


class TestHsmAndMigration:
    def test_migration_metrics(self):
        machine = Machine.hsm(cache_pages=256, stage_pages=512, seed=99)
        machine.boot()
        telemetry = Telemetry()
        machine.kernel.attach_telemetry(telemetry)
        inode = machine.hsmfs.create_tape_file("cold.dat", 4 * PAGE_SIZE,
                                               "VOL000")
        daemon = MigrationDaemon(machine.hsmfs, cold_after=0.0,
                                 telemetry=telemetry)
        daemon.stage_out(inode)
        assert telemetry.migrated_files.labels().value == 1
        assert telemetry.migration_seconds.labels().count == 1

    def test_hsm_devices_observed(self):
        machine = Machine.hsm(cache_pages=256, stage_pages=512, seed=99)
        machine.boot()
        telemetry = Telemetry()
        machine.kernel.attach_telemetry(telemetry)
        machine.hsmfs.create_tape_file("f.dat", 4 * PAGE_SIZE, "VOL000")
        with machine.kernel.process():
            fd = machine.kernel.open("/mnt/hsm/f.dat")
            machine.kernel.read(fd, PAGE_SIZE)
            machine.kernel.close(fd)
        devices = {labels["device"]
                   for labels, _ in telemetry.device_access.children()}
        assert "hsm-stage-disk" in devices


class TestAttachment:
    def test_double_attach_rejected(self, telemetry_machine):
        machine, telemetry = telemetry_machine
        with pytest.raises(ValueError):
            telemetry.attach(machine.kernel)

    def test_detach_is_idempotent(self, telemetry_machine):
        machine, telemetry = telemetry_machine
        machine.kernel.detach_telemetry()
        machine.kernel.detach_telemetry()
        assert machine.kernel.telemetry is None
