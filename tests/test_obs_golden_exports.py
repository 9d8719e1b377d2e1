"""Golden exports: one fixed, seeded full-stack scenario, pinned by hash.

Every observability export of the scenario below is hashed with SHA-256
and compared with a pinned digest: the Prometheus text, the time
series' OpenMetrics text, the Chrome trace JSON, the SLED accuracy
summary, the lifecycle dump, the forensics report, the SLO summary and
the telemetry dump.  A refactor of the observers must leave every
export byte-identical, so any moved byte fails here with the name of
the export that moved.

The scenario attaches the whole stack: the event engine with merge and
plug, the fair elevator, tenant memory limits on a sharded cache, a
time series with bucket rows and exemplars, a per-tenant SLO tracker
and forensics.  Tenant tasks ask for SLEDs and then read with
``read_async`` or ``pread_async``, some append to a log and
``fsync_async`` it, and a blocking reader runs beside them.  No file is
truncated after an ``FSLEDS_GET``.

A change that moves an export on purpose updates the pins below and
says so in CHANGES.md.
"""

import hashlib
import itertools
import json

import pytest

from repro.block.merge import BlockConfig
from repro.cache.page_cache import TenantMemoryLimit
from repro.fs import inode as inode_module
from repro.machine import Machine, MachineConfig
from repro.obs import LatencyForensics, SloTracker, Telemetry
from repro.sim.tasks import EventScheduler, Task
from repro.sim.units import PAGE_SIZE

SEED = 20_000
TENANTS = 3
TASKS_PER_TENANT = 2
OPS_PER_TASK = 6
FILES = 2
FILE_PAGES = 40
SHARED_PAGES = 48
READER_PAGES = 32
CHUNK_PAGES = 6
CACHE_PAGES = 160
OBJECTIVES = {"memory": 0.001, "disk": 0.02, "nfs": 0.06,
              "cdrom": 1.0, "tape": 300.0}

PINS = {
    "accuracy":
        "1e6b76a6d0c8d71f1249ab64581fac25f2303639d79266b7c07cfd026e8e32bf",
    "accuracy_report":
        "a179c65d2eafb5584fdaa27a9fbbbd1ea8d34ca38d8e006a47fe8b744a59acea",
    "chrome_trace":
        "8720ea31b770684f5b8520aa95167ccf65774c3ff96f7328ae9272813a3cc94a",
    "forensics":
        "a8dd0bf30c35e1fc93f7ec5568973b4b9af97cedf11b8b23cd2723caaac11dee",
    "lifecycle":
        "35f1ee935bebf44de8a849516a47c141031cd73f38bc42a052e4b26feb442ab2",
    "openmetrics":
        "ef246b9f039682048c63335ae77c6236998ea83fc156b374aa730a00272bfbdc",
    "prometheus":
        "bdfe624aa0d414e8ee86e0a9ab6073cd7028cf78aa2bce44d59ad0dab56f32a4",
    "slo":
        "f1700e5e7b1bef2cac3d9f6781399f227c1fa4f57182a83e74986e18707d9299",
    "telemetry":
        "9c9316be0368c35a6078d7879e43bc12972373f9a0e0f4c1ed9f8a490ac398e2",
}


def _path(tenant: int, op: int) -> tuple[str, int]:
    """The file op ``op`` of ``tenant`` reads, and its size in pages."""
    if (op + tenant) % 4 == 3:
        return "/mnt/nfs/shared.txt", SHARED_PAGES
    return f"/mnt/ext2/t{tenant}/f{(op * 3 + tenant) % FILES}.txt", FILE_PAGES


def _client(kernel, tenant: int, task: int):
    for op in range(OPS_PER_TASK):
        path, pages = _path(tenant, op)
        page = (op * 11 + task * 7 + tenant * 5) % (pages - CHUNK_PAGES + 1)
        fd = kernel.open(path)
        kernel.get_sleds(fd)
        if (op + task) % 2:
            yield from kernel.pread_async(fd, page * PAGE_SIZE,
                                          CHUNK_PAGES * PAGE_SIZE)
        else:
            kernel.lseek(fd, page * PAGE_SIZE)
            yield from kernel.read_async(fd, CHUNK_PAGES * PAGE_SIZE)
        kernel.close(fd)
        if (op + task + tenant) % 3 == 0:
            fd = kernel.open(f"/mnt/ext2/t{tenant}/log", "a")
            for _ in range(2):
                kernel.write(fd, b"L" * PAGE_SIZE)
            yield from kernel.fsync_async(fd)
            kernel.close(fd)


def _reader(kernel):
    """Two blocking passes over one file, each after an FSLEDS_GET."""
    for _ in range(2):
        fd = kernel.open("/mnt/ext2/reader.txt")
        kernel.get_sleds(fd)
        while kernel.read(fd, 3 * PAGE_SIZE):
            yield
        kernel.close(fd)


def _run():
    """Build the machine, run the scenario, return the observers.

    Inodes are numbered from 1 here, so the exports (which name inode
    ids) do not depend on how many machines the process built before.
    """
    saved = inode_module._inode_ids
    inode_module._inode_ids = itertools.count(1)
    try:
        limits = {f"t{t}": TenantMemoryLimit(soft_pages=CACHE_PAGES // 4,
                                             hard_pages=CACHE_PAGES // 3)
                  for t in range(TENANTS)}
        machine = Machine.unix_utilities(
            cache_pages=CACHE_PAGES, seed=SEED,
            config=MachineConfig(shards=2, tenant_limits=limits,
                                 fair_elevator=True))
        machine.boot()
        for t in range(TENANTS):
            for f in range(FILES):
                machine.ext2.create_text_file(
                    f"t{t}/f{f}.txt", FILE_PAGES * PAGE_SIZE,
                    seed=SEED + 10 * t + f)
        machine.nfs.create_text_file("shared.txt", SHARED_PAGES * PAGE_SIZE,
                                     seed=SEED + 1)
        machine.ext2.create_text_file("reader.txt", READER_PAGES * PAGE_SIZE,
                                      seed=SEED + 2)
        kernel = machine.kernel
        telemetry = Telemetry()
        telemetry.attach(kernel)
        forensics = LatencyForensics(kernel, top_k=16)
        telemetry.enable_timeseries(interval=0.01, capacity=256,
                                    sample_buckets=True,
                                    exemplars=forensics.reservoir)
        slo = SloTracker.for_classes(OBJECTIVES, registry=telemetry.registry,
                                     track_tenants=True).attach(telemetry)
        forensics.attach(telemetry, slo=slo)
        engine = kernel.attach_engine(block=BlockConfig(merge=True,
                                                        plug=True))
        tasks = [Task(f"t{t}.{n}", _client(kernel, t, n), tenant=f"t{t}")
                 for t in range(TENANTS) for n in range(TASKS_PER_TENANT)]
        tasks.append(Task("reader", _reader(kernel)))
        EventScheduler(kernel, tasks, engine=engine).run()
    finally:
        inode_module._inode_ids = saved
    return telemetry, slo, forensics


def _exports() -> dict[str, str]:
    """Every export of the scenario, in a fixed order (the Prometheus
    render refreshes the snapshot gauges the later dumps read)."""
    telemetry, slo, forensics = _run()
    out = {"prometheus": telemetry.render_prometheus(),
           "openmetrics": telemetry.timeseries.render_openmetrics(),
           "chrome_trace": json.dumps(telemetry.chrome_trace(),
                                      sort_keys=True),
           "accuracy": json.dumps(telemetry.accuracy.to_dict(),
                                  sort_keys=True),
           "accuracy_report": telemetry.accuracy.report().render(),
           "lifecycle": json.dumps(telemetry.lifecycle.to_dict(),
                                   sort_keys=True)}
    report = forensics.analyze(top=5)
    out["forensics"] = json.dumps(report.to_dict(), sort_keys=True)
    out["slo"] = json.dumps(slo.to_dict(), sort_keys=True)
    out["telemetry"] = json.dumps(telemetry.to_dict(), sort_keys=True)
    return out


@pytest.fixture(scope="module")
def exports() -> dict[str, str]:
    return _exports()


def test_scenario_exercises_the_stack(exports):
    """The pins only guard what the scenario reaches: SLED samples from
    faults and hits, merged requests, tenant queueing and exemplars."""
    accuracy = json.loads(exports["accuracy"])
    assert {"disk", "memory", "nfs"} <= set(accuracy["classes"])
    assert accuracy["classes"]["memory"]["samples"] > 0
    lifecycle = json.loads(exports["lifecycle"])
    assert any(rec["merged_from"] for rec in lifecycle["records"])
    assert {rec["kind"] for rec in lifecycle["records"]} >= {
        "fault", "writeback"}
    assert "queue:tenant:" in exports["forensics"]
    assert "# {trace_id=" in exports["openmetrics"]


@pytest.mark.parametrize("name", sorted(PINS))
def test_export_matches_pin(exports, name):
    digest = hashlib.sha256(exports[name].encode()).hexdigest()
    assert digest == PINS[name], f"export {name!r} moved"
