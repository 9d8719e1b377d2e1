"""Property test: the new observability layers are strictly zero-cost.

A run with the time-series recorder (buckets + exemplars), the SLO
tracker, the hot-path profiler, and the latency-forensics stack all
attached must be bit-identical — virtual clock, fault counters,
per-task stats — to the same run with none of them, across every
filesystem personality.  Telemetry observes; it never advances the
clock and never draws randomness.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.block.merge import BlockConfig
from repro.machine import Machine
from repro.obs import (HotPathProfiler, LatencyForensics, SloTracker,
                       Telemetry)
from repro.sim.tasks import EventScheduler, Task
from repro.sim.units import PAGE_SIZE

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


def _interleaved_readers(kernel, path, pages, readers=2, chunk_pages=2):
    nchunks = max(1, pages // chunk_pages)

    def reader(start):
        fd = kernel.open(path)
        kernel.get_sleds(fd)  # exercise the (profiled) SLED-build path
        for chunk in range(start, nchunks, readers):
            yield from kernel.pread_async(
                fd, chunk * chunk_pages * PAGE_SIZE, chunk_pages * PAGE_SIZE)
        kernel.close(fd)

    return [Task(f"r{i}", reader(i)) for i in range(readers)]


def _fingerprint(machine, stats):
    kernel = machine.kernel
    counters = kernel.counters
    return (
        kernel.clock.now,
        counters.hard_faults, counters.pages_read, counters.cache_hits,
        counters.readahead_pages, counters.evictions,
        tuple(sorted(
            (name, s.virtual_time, s.wait_time, s.hard_faults, s.io_waits,
             s.finished_at)
            for name, s in stats.items())),
    )


def _run(profile, seed, pages, observed: bool):
    machine, path = _setup(profile, seed, pages)
    kernel = machine.kernel
    forensics = profiler = None
    if observed:
        telemetry = Telemetry()
        telemetry.attach(kernel)
        forensics = LatencyForensics(kernel)
        telemetry.enable_timeseries(interval=0.001, sample_buckets=True,
                                    exemplars=forensics.reservoir)
        slo = SloTracker.for_classes(
            SLO_OBJECTIVES, registry=telemetry.registry,
            track_tenants=True).attach(telemetry)
        forensics.attach(telemetry, slo=slo)
        profiler = HotPathProfiler().attach()
    try:
        engine = kernel.attach_engine(block=MERGE_ALL)
        tasks = _interleaved_readers(kernel, path, pages)
        stats = EventScheduler(kernel, tasks, engine=engine).run()
    finally:
        if profiler is not None:
            profiler.detach()
    if observed:
        # exercise the analysis path too: blame every traced record and
        # fold the matrix — all post-hoc, none of it may have perturbed
        # the run (the fingerprint comparison below is the proof)
        forensics.analyze(top=3)
    return _fingerprint(machine, stats)


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 50), pages=st.integers(2, 40))
def test_observability_stack_is_zero_cost(seed, pages):
    for profile in PROFILES:
        bare = _run(profile, seed, pages, observed=False)
        observed = _run(profile, seed, pages, observed=True)
        assert bare == observed, (
            f"{profile}: attaching timeseries+SLO+profiler+forensics "
            f"changed simulated behaviour")
