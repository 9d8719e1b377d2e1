"""Tests for the latency-forensics layer (repro.obs.forensics).

Load-bearing invariants:

* **blame closure** — every blame vector ``fsum``s to the record's
  latency *exactly*, across filesystem personalities, with the block
  layer on and under the fair elevator (property-tested);
* **reconciliation** — interference-matrix row totals equal the queue
  waits the SLO tracker pooled per tenant;
* **aliasing safety** — exemplars survive the lifecycle tracker's slab
  recycling because they are snapshots, never live records.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.block.merge import BlockConfig
from repro.block.scheduler import make_scheduler
from repro.machine import Machine
from repro.obs import SloTracker, Telemetry
from repro.obs.forensics import (
    BlameEngine,
    ExemplarReservoir,
    InterferenceMatrix,
    LatencyForensics,
    folded_blame,
    folded_critical_path,
)
from repro.obs.lifecycle import LifecycleRecord, LifecycleTracker, critical_path
from repro.sim.engine import IoEngine
from repro.sim.tasks import EventScheduler, Task
from repro.sim.units import PAGE_SIZE
from tests.oracles.accuracy import (
    expand_predictions,
    predictions_per_page,
    queue_by_page,
)
from tests.oracles.forensics import blame_full_scan, occupancy_full_scan

PROFILES = ("ext2", "cdrom", "nfs", "hsm")

MERGE_ALL = BlockConfig(merge=True, plug=True)

SLO_OBJECTIVES = {"memory": 0.001, "disk": 0.02, "nfs": 0.06,
                  "cdrom": 1.0, "tape": 300.0}


def _setup(profile: str, seed: int, pages: int):
    if profile == "hsm":
        machine = Machine.hsm(cache_pages=256, stage_pages=512,
                              seed=9000 + seed)
        machine.boot()
        machine.hsmfs.create_tape_file("f", pages * PAGE_SIZE, "VOL000")
        return machine, "/mnt/hsm/f"
    machine = Machine.unix_utilities(cache_pages=256, seed=9000 + seed)
    machine.boot()
    fs = {"ext2": machine.ext2, "cdrom": machine.cdrom,
          "nfs": machine.nfs}[profile]
    fs.create_text_file("f", pages * PAGE_SIZE, seed=seed)
    return machine, f"/mnt/{profile}/f"


def _tenant_readers(kernel, path, pages, readers=3, chunk_pages=2,
                    sleds=False):
    nchunks = max(1, pages // chunk_pages)

    def reader(start):
        fd = kernel.open(path)
        for chunk in range(start, nchunks, readers):
            if sleds:
                kernel.get_sleds(fd)
            yield from kernel.pread_async(
                fd, chunk * chunk_pages * PAGE_SIZE,
                chunk_pages * PAGE_SIZE)
        kernel.close(fd)

    return [Task(f"r{i}", reader(i), tenant=f"tenant{i}")
            for i in range(readers)]


def _check_predictions(telemetry, checked: list) -> None:
    """Route every FSLEDS_GET snapshot past the per-page oracle: the
    snapshot built from the fold's runs (queue split included) must hold
    the same predictions, page by page, as a residency peek and a SLED
    lookup per page.  ``checked`` collects one entry per call: whether
    any page predicted queueing."""
    on_sleds = telemetry.on_sleds
    kernel = telemetry._kernel

    def spy(inode_id, vector, runs, queue_delays=None):
        of = next(of for of in kernel._fds.values()
                  if of.inode.id == inode_id)
        queues = queue_by_page(kernel, of.fs, of.inode, queue_delays)
        expected = predictions_per_page(inode_id, vector, queues)
        on_sleds(inode_id, vector, runs, queue_delays)
        snapshot = [item for item in expand_predictions(telemetry.accuracy)
                    if item[0][0] == inode_id]
        assert snapshot == sorted(expected.items())
        checked.append(bool(queues))

    telemetry.on_sleds = spy


def _forensic_run(profile, seed, pages, scheduler="clook",
                  block=MERGE_ALL, track_tenants=True, checked=None):
    """A contended multi-tenant run with the full stack attached; with
    ``checked`` the readers also ask for SLEDs before every read and
    each snapshot is checked against the per-page oracle."""
    machine, path = _setup(profile, seed, pages)
    kernel = machine.kernel
    telemetry = Telemetry()
    telemetry.attach(kernel)
    if checked is not None:
        _check_predictions(telemetry, checked)
    slo = SloTracker.for_classes(
        SLO_OBJECTIVES, registry=telemetry.registry,
        track_tenants=track_tenants).attach(telemetry)
    engine = kernel.attach_engine(
        engine=IoEngine(kernel, scheduler=make_scheduler(scheduler),
                        block=block))
    forensics = LatencyForensics(kernel, engine).attach(telemetry,
                                                        slo=slo)
    tasks = _tenant_readers(kernel, path, pages,
                            sleds=checked is not None)
    EventScheduler(kernel, tasks, engine=engine).run()
    return machine, telemetry, slo, forensics


class TestBlameClosure:
    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 50), pages=st.integers(4, 40),
           scheduler=st.sampled_from(("clook", "fair", "fair:sstf")))
    def test_blame_fsums_to_latency_exactly(self, seed, pages, scheduler):
        """The acceptance identity: across every personality, with the
        block layer on and under the fair elevator, every blame vector
        closes bit-exactly.  Along the way: the bisected history walk
        matches the full-scan oracle key for key and in order, waterfall
        queue spans included, and every FSLEDS_GET snapshot matches the
        per-page oracle."""
        for profile in PROFILES:
            checked = []
            _, telemetry, _, forensics = _forensic_run(
                profile, seed, pages, scheduler=scheduler, checked=checked)
            assert checked
            blame_engine = forensics.blame_engine()
            records = list(telemetry.lifecycle.records)
            assert records
            for rec in records:
                blame = blame_engine.blame(rec)
                assert math.fsum(blame.values()) == rec.latency, (
                    f"{profile}/{scheduler}: blame does not close for "
                    f"record {rec.id}")
                assert list(blame.items()) == list(
                    blame_full_scan(blame_engine, rec).items())
            for rec in records[::7]:
                spans = [(s["who"], s["t0"], s["t1"], s["detail"])
                         for s in blame_engine.waterfall(rec)["spans"]
                         if s["phase"] == "queue"]
                assert spans == occupancy_full_scan(blame_engine, rec)

    def test_run_walk_predictions_see_queue_terms(self):
        """The snapshot check above must also cover queue runs: under
        contention some FSLEDS_GET calls predict queueing."""
        checked = []
        _forensic_run("ext2", 3, 36, checked=checked)
        assert any(checked) and not all(checked)

    def test_sub_ulp_remainder_closes_a_rounding_tie(self):
        """Regression (``observed`` workload, seed 12, record 24): the
        untracked residual shares the latency's binade and the exact sum
        lands on a rounding tie, so no single residual closes the
        vector.  The remainder past the residual is carried on its own
        and counts in the matrix's untracked column."""
        parts = {"noise": -1.6653345369377348e-16,
                 "overhead": 0.0002999999999999947,
                 "positioning": 0.00582398470297929,
                 "transfer": 0.0028409090909091717,
                 "queue:tenant:t0": 0.04750028896245502,
                 "queue:self": 0.0373372939351416}
        latency = 0.21965444643790674
        blame = BlameEngine._close(dict(parts), latency)
        assert math.fsum(blame.values()) == latency
        assert {k: blame[k] for k in parts} == parts
        residual = blame["queue:untracked"]
        remainder = blame["queue:untracked:sub_ulp"]
        assert 0.0 < abs(remainder) < math.ulp(residual)
        assert math.fsum([*parts.values(), residual]) != latency
        matrix = InterferenceMatrix()
        matrix.add(_record(tenant="a"), blame, "d0")
        assert matrix.cell("d0", "a", "untracked") == math.fsum(
            [residual, remainder])
        assert matrix.row_totals()["a"] == math.fsum(
            [residual, remainder, parts["queue:tenant:t0"],
             parts["queue:self"]])

    def test_blame_closes_without_block_layer(self):
        """Straight-to-elevator submissions (no plug stage) must close
        too — there is just never a plug_hold component."""
        _, telemetry, _, forensics = _forensic_run(
            "ext2", 3, 24, block=None)
        blame_engine = forensics.blame_engine()
        for rec in telemetry.lifecycle.records:
            blame = blame_engine.blame(rec)
            assert math.fsum(blame.values()) == rec.latency
            assert "plug_hold" not in blame

    def test_queue_blame_names_the_aggressor(self):
        """Under contention the decomposition must name other tenants,
        not just lump everything into untracked."""
        _, telemetry, _, forensics = _forensic_run("ext2", 3, 36)
        blame_engine = forensics.blame_engine()
        named = set()
        for rec in telemetry.lifecycle.records:
            for key in blame_engine.blame(rec):
                if key.startswith("queue:tenant:"):
                    named.add(key)
        assert named, "expected cross-tenant queue blame"

    def test_waterfall_spans_are_ordered_and_bounded(self):
        _, telemetry, _, forensics = _forensic_run("ext2", 5, 24)
        blame_engine = forensics.blame_engine()
        rec = max(telemetry.lifecycle.records, key=lambda r: r.latency)
        wf = blame_engine.waterfall(rec)
        assert math.fsum(wf["blame"].values()) == rec.latency
        spans = wf["spans"]
        assert spans[-1]["phase"] == "service"
        for span in spans:
            assert rec.submit_time <= span["t0"] <= span["t1"] \
                <= rec.finish_time


class TestInterferenceMatrix:
    def test_rows_reconcile_with_slo_queue_pools(self):
        """Per-victim row totals (across devices and aggressor columns,
        pseudo columns included) must equal the queue-wait seconds the
        SLO tracker pooled for that tenant."""
        _, telemetry, slo, forensics = _forensic_run("ext2", 7, 36)
        report = forensics.analyze(top=3)
        rows = report.matrix.row_totals()
        pools = slo.tenant_queue_waits()
        assert set(rows) == set(pools)
        for tenant, row_total in rows.items():
            assert row_total == pytest.approx(pools[tenant],
                                              rel=1e-12, abs=1e-15)

    def test_rows_are_exact_fsum_of_record_waits(self):
        _, telemetry, _, forensics = _forensic_run("nfs", 2, 24)
        report = forensics.analyze()
        rows = report.matrix.row_totals()
        by_tenant = {}
        for rec in telemetry.lifecycle.records:
            by_tenant.setdefault(rec.tenant or "-", []).append(
                rec.queue_wait)
        for tenant, waits in by_tenant.items():
            assert rows.get(tenant, 0.0) == pytest.approx(
                math.fsum(waits), rel=1e-12, abs=1e-15)

    def test_imposed_totals_exclude_self(self):
        matrix = InterferenceMatrix()
        rec = _record(tenant="a")
        matrix.add(rec, {"queue:self": 1.0, "queue:tenant:b": 2.0,
                         "transfer": 9.0}, "disk0")
        imposed = matrix.imposed_totals()
        assert imposed == {"b": 2.0}
        assert matrix.cell("disk0", "a", "self") == 1.0
        assert matrix.cell("disk0", "a", "b") == 2.0
        # service components never enter the matrix
        assert matrix.row_totals() == {"a": 3.0}

    def test_render_and_dict_shapes(self):
        _, _, _, forensics = _forensic_run("ext2", 1, 16)
        report = forensics.analyze(top=2)
        text = report.matrix.render()
        assert "victim" in text
        d = report.matrix.to_dict()
        assert set(d) == {"records", "devices", "row_totals",
                          "imposed_totals"}
        assert d["records"] == report.analyzed


def _record(rid=0, latency=0.5, wait=0.1, tenant=None, cls="disk",
            kind="fault"):
    start = 10.0 + wait
    return LifecycleRecord(
        id=rid, kind=kind, task="t", fs="ext2", device_class=cls,
        inode=1, page=0, cluster=2, nbytes=2 * PAGE_SIZE,
        submit_time=10.0, start_time=start,
        finish_time=10.0 + latency,
        components=(("transfer", latency - wait),), tenant=tenant)


class TestExemplarReservoir:
    def test_keeps_worst_per_class_tenant(self):
        reservoir = ExemplarReservoir(top_k=4)
        reservoir.observe(_record(rid=1, latency=0.5, tenant="a"))
        reservoir.observe(_record(rid=2, latency=0.9, tenant="a"))
        reservoir.observe(_record(rid=3, latency=0.7, tenant="a"))
        worst = reservoir.by_key[("disk", "a")]
        assert worst.id == 2
        assert reservoir.seen == 3

    def test_bucket_exemplar_is_freshest(self):
        reservoir = ExemplarReservoir(buckets=(0.1, 1.0, 10.0))
        reservoir.observe(_record(rid=1, latency=0.5))
        reservoir.observe(_record(rid=2, latency=0.6))
        assert reservoir.bucket_of(0.6) == 1.0
        assert reservoir.bucket_exemplar("disk", 1.0).id == 2
        assert reservoir.bucket_exemplar("disk", 0.1) is None
        reservoir.observe(_record(rid=3, latency=50.0))
        assert reservoir.bucket_of(50.0) == math.inf
        assert reservoir.bucket_exemplar("disk", math.inf).id == 3

    def test_top_k_is_bounded_and_sorted(self):
        reservoir = ExemplarReservoir(top_k=3)
        for rid, latency in enumerate((0.2, 0.9, 0.1, 0.7, 0.4)):
            reservoir.observe(_record(rid=rid, latency=latency))
        top = reservoir.top()
        assert [r.id for r in top] == [1, 3, 4]
        assert [r.id for r in reservoir.top(2)] == [1, 3]

    def test_violation_pinning_keeps_worst_per_target(self):
        reservoir = ExemplarReservoir()
        reservoir.pin(_record(rid=1, latency=0.5), ["disk-latency"])
        reservoir.pin(_record(rid=2, latency=0.9),
                      ["disk-latency", "star"])
        reservoir.pin(_record(rid=3, latency=0.7), ["disk-latency"])
        assert reservoir.pinned["disk-latency"].id == 2
        assert reservoir.pinned["star"].id == 2
        assert reservoir.violations == 3

    def test_exemplars_survive_slab_recycling(self):
        """Regression for the aliasing hazard: a record held past the
        tracker's window must not mutate under the holder.  The
        reservoir snapshots, so its exemplars stay frozen while the
        tracker renews the evicted shells in place."""
        tracker = LifecycleTracker(capacity=2)
        reservoir = ExemplarReservoir()
        tracker.observers.append(reservoir.observe)
        live = []
        for rid in range(5):
            live.append(tracker.record(
                kind="fault", task="t", fs="ext2", device_class="disk",
                inode=1, page=rid, cluster=1, nbytes=PAGE_SIZE,
                submit_time=float(rid), start_time=rid + 0.1,
                finish_time=rid + 1.0 - rid * 0.1,
                components={"transfer": 0.9 - rid * 0.2}))
        # the tracker recycled shells: early live references now
        # describe *later* requests (the documented hazard) ...
        assert live[0].page != 0
        # ... but the reservoir's worst-per-key exemplar still shows
        # the request it pinned (rid 0 had the largest latency)
        worst = reservoir.by_key[("disk", None)]
        assert worst.page == 0
        assert worst.submit_time == 0.0
        assert worst.latency == pytest.approx(1.0)

    def test_snapshot_equals_original_fields(self):
        rec = _record(rid=9, latency=0.8, tenant="x")
        snap = rec.snapshot()
        assert snap is not rec
        assert snap.to_dict() == rec.to_dict()


class TestFoldedStacks:
    def test_blame_folding_aggregates_nanoseconds(self):
        rec_a = _record(rid=1, tenant="a")
        rec_b = _record(rid=2, tenant="a")
        lines = folded_blame([
            (rec_a, {"transfer": 0.25, "queue:tenant:b": 0.125}, "d0"),
            (rec_b, {"transfer": 0.5}, "d0"),
        ])
        assert "a;d0;fault;transfer 750000000" in lines
        assert "a;d0;fault;queue:tenant:b 125000000" in lines
        for line in lines:
            stack, _, value = line.rpartition(" ")
            assert stack and int(value) > 0

    def test_critical_path_folding_covers_the_makespan(self):
        _, telemetry, _, forensics = _forensic_run("ext2", 4, 24)
        records = list(telemetry.lifecycle.records)
        start = min(r.submit_time for r in records)
        end = max(r.finish_time for r in records)
        report = critical_path(records, start, end)
        lines = folded_critical_path(report)
        assert lines
        total = sum(int(line.rpartition(" ")[2]) for line in lines)
        # folded weights (ns) telescope to the makespan up to rounding
        assert total == pytest.approx((end - start) * 1e9, abs=len(lines))

    def test_analyze_emits_folded_lines(self):
        _, _, _, forensics = _forensic_run("cdrom", 2, 16)
        report = forensics.analyze(top=2)
        assert report.folded
        assert report.to_dict()["folded"] == report.folded


class TestFacade:
    def test_attach_detach_is_reentrant_safe(self):
        machine, _ = _setup("ext2", 0, 8)
        kernel = machine.kernel
        telemetry = Telemetry()
        telemetry.attach(kernel)
        forensics = LatencyForensics(kernel)
        forensics.attach(telemetry)
        with pytest.raises(ValueError):
            forensics.attach(telemetry)
        forensics.detach()
        forensics.detach()  # idempotent
        assert telemetry.lifecycle.observers == []

    def test_analyze_without_telemetry_requires_records(self):
        machine, _ = _setup("ext2", 0, 8)
        forensics = LatencyForensics(machine.kernel)
        with pytest.raises(ValueError):
            forensics.analyze()
        report = forensics.analyze(records=[_record()])
        assert report.analyzed == 1

    def test_report_renders_and_serializes(self):
        _, _, slo, forensics = _forensic_run("hsm", 1, 16)
        report = forensics.analyze(top=2)
        text = report.render()
        assert "latency forensics" in text
        assert "blame:" in text
        d = report.to_dict()
        assert d["analyzed"] == report.analyzed
        assert d["exemplars"]["seen"] == forensics.reservoir.seen
        # HSM staging violates the tight objectives → pinned exemplars
        assert forensics.reservoir.violations > 0
        assert d["exemplars"]["violation_exemplars"]
