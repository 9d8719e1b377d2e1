"""Hot-path profiler coverage benchmark: where does host CPU time go?

Three deterministic phases, one profiler, so every declared site in
:data:`repro.obs.profile.SITES` is exercised:

* **async striding readers** over a cold ext2 file with merging +
  plugging on and SLED vectors requested up front — the event-loop,
  SLED-build, residency, and merge/flush sites;
* **blocking pread sweep** over a second cold file with no telemetry
  attached — the run-batched fault path (``kernel.fault_batch``) and the
  whole-run device pricing (``device.batch_math``);
* **telemetry replay**: the striding readers again, over a third cold
  file, with telemetry attached — the deferred fan-in flush
  (``obs.telemetry_flush``).

The per-site *call counts* and the virtual-time results are
deterministic and participate in the ``sleds-bench check`` gate: a
change that silently stops exercising a hot path (or doubles the event
count) trips the baseline comparison.  The wall-second measurements are
host-dependent and live under ``wall_clock`` keys, which the gate
skips.
"""

from __future__ import annotations

import time

from repro.bench.results import publish_bench
from repro.block.merge import BlockConfig
from repro.machine import Machine
from repro.obs import HotPathProfiler
from repro.obs.profile import SITES
from repro.obs.telemetry import Telemetry
from repro.sim.tasks import EventScheduler, Task
from repro.sim.units import PAGE_SIZE

SEED = 4242
FILE_PAGES = 256
READERS = 3
CHUNK_PAGES = 4


def _striding_readers(kernel, path):
    nchunks = FILE_PAGES // CHUNK_PAGES

    def reader(start):
        fd = kernel.open(path)
        kernel.get_sleds(fd)  # exercise the SLED-build site
        for chunk in range(start, nchunks, READERS):
            yield from kernel.pread_async(
                fd, chunk * CHUNK_PAGES * PAGE_SIZE,
                CHUNK_PAGES * PAGE_SIZE)
        kernel.close(fd)

    return [Task(f"r{i}", reader(i)) for i in range(READERS)]


def test_profile_hotpaths_record():
    wall_start = time.perf_counter()

    machine = Machine.unix_utilities(cache_pages=4096, seed=SEED)
    machine.boot()
    for name in ("bench.dat", "storm.dat", "tele.dat"):
        machine.ext2.create_text_file(name, FILE_PAGES * PAGE_SIZE, seed=1)
    kernel = machine.kernel
    # attached before the engine: its loop and plugs are built after
    profiler = HotPathProfiler().attach()
    try:
        engine = kernel.attach_engine(
            block=BlockConfig(merge=True, plug=True))

        start = kernel.clock.now
        stats = EventScheduler(
            kernel, _striding_readers(kernel, "/mnt/ext2/bench.dat"),
            engine=engine).run()
        makespan = kernel.clock.now - start

        # phase 2: blocking sweep, telemetry-free — the run-batched
        # fault path
        fd = kernel.open("/mnt/ext2/storm.dat")
        offset = 0
        while offset < FILE_PAGES * PAGE_SIZE:
            kernel.pread(fd, offset, CHUNK_PAGES * PAGE_SIZE)
            offset += CHUNK_PAGES * PAGE_SIZE
        kernel.close(fd)

        # phase 3: striding readers with telemetry — the deferred
        # fan-in flush
        telemetry = Telemetry()
        telemetry.attach(kernel)
        EventScheduler(kernel,
                       _striding_readers(kernel, "/mnt/ext2/tele.dat"),
                       engine=engine).run()
    finally:
        profiler.detach()

    rows = profiler.rows(virtual_seconds=makespan)

    # every declared hot path must be exercised by this workload
    assert {row["site"] for row in rows} == set(SITES)
    assert all(row["calls"] > 0 for row in rows)
    assert profiler.total_wall_seconds > 0.0

    publish_bench("profile_hotpaths", {
        "benchmark": "profile_hotpaths",
        "description": ("hot-path profiler over striding concurrent "
                        "readers with merge+plug and SLED vectors, a "
                        "blocking vectorised-fault sweep, and a "
                        "telemetry replay: deterministic per-site call "
                        "counts gate; wall seconds recorded but exempt"),
        "file_pages": FILE_PAGES,
        "readers": READERS,
        "chunk_pages": CHUNK_PAGES,
        "makespan_virtual_s": makespan,
        "hard_faults": sum(s.hard_faults for s in stats.values()),
        "site_calls": {row["site"]: row["calls"] for row in rows},
        "wall_clock": {
            "total_wall_s": time.perf_counter() - wall_start,
            "instrumented_wall_s": profiler.total_wall_seconds,
            "sites": {
                row["site"]: {
                    "wall_seconds": row["wall_seconds"],
                    "wall_mean_us": row["wall_mean_us"],
                    "wall_max_us": row["wall_max_us"],
                    "wall_per_virtual_second":
                        row["wall_per_virtual_second"],
                }
                for row in rows
            },
        },
    })
