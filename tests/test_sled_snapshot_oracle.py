"""Property test: the SLED accuracy snapshot ``FSLEDS_GET`` takes from the
builder's runs equals the reference path.

With telemetry attached, the kernel hands the runs its fold built the
vector from (kept with the vector in its stamp cache) to
``SledAccuracyTracker.record_runs``.  The reference is the second walk
it replaced (``tests/oracles/accuracy.py``): the queue split from the
filesystem's estimate runs over the whole file minus the cache's
resident runs (``queue_runs``), then the returned vector walked SLED by
SLED (``vector_runs``).  A reference tracker takes that snapshot at
every ``FSLEDS_GET`` and every fault, hit and drop the production
tracker takes.

Random programs run on the ext2 (flat and zone-aware), NFS (with and
without server SLEDs), CD-ROM and HSM worlds of
``tests/test_sled_incremental.py``, with an I/O engine whose device
queues hold queued and in-flight requests.  They ask for SLEDs twice in
a row (the second is a stamp hit, later on the clock), let the clock
run without touching the queues, and attach telemetry only partway
through, after vectors were cached.  After every step the two trackers
must hold the same predictions page by page, and give the same report,
dump and ``sled_abs_error_seconds`` lines.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fs.hsmfs import HsmFs
from repro.obs import Telemetry
from repro.obs.accuracy import SledAccuracyTracker
from repro.obs.metrics import MetricsRegistry
from repro.sim.units import PAGE_SIZE
from tests.oracles.accuracy import expand_predictions, queue_runs, vector_runs
from tests.test_sled_incremental import _WORLDS, FILE_PAGES

_ops = st.lists(
    st.tuples(st.sampled_from(["read", "write", "drop_page", "get",
                               "get_twice", "submit", "step", "tick",
                               "attach"]),
              st.integers(0, FILE_PAGES - 1),
              st.integers(1, 6)),
    min_size=1, max_size=16)


def _abs_error_lines(registry: MetricsRegistry) -> list[str]:
    return [line for line in registry.render_prometheus().splitlines()
            if "sled_abs_error_seconds" in line]


def _attach(kernel) -> tuple[Telemetry, SledAccuracyTracker,
                             MetricsRegistry]:
    """Attach telemetry, and a reference tracker (with its own registry)
    that takes the reference snapshot at every ``FSLEDS_GET`` and every
    other call the production tracker takes.

    The reference does not take the queue delays the kernel hands the
    snapshot: for a build it takes the delays the build read, and for a
    stamp hit it reads the delays now."""
    telemetry = Telemetry()
    telemetry.attach(kernel)
    registry = MetricsRegistry()
    reference = SledAccuracyTracker(registry=registry)
    accuracy = telemetry.accuracy

    def tee(ours, theirs):
        def both(*args, **kwargs):
            theirs(*args, **kwargs)
            return ours(*args, **kwargs)
        return both

    for name in ("record_fault", "record_hit", "drop"):
        setattr(accuracy, name,
                tee(getattr(accuracy, name), getattr(reference, name)))
    engine = kernel.engine
    read_delays = engine.queue_delays
    last = {"builds": kernel.counters.sleds_builds}

    def queue_delays(*args):
        last["read"] = read_delays(*args)
        return last["read"]

    engine.queue_delays = queue_delays
    on_sleds = telemetry.on_sleds

    def snapshot(inode_id, vector, runs, delays=None):
        of = next(of for of in kernel._fds.values()
                  if of.inode.id == inode_id)
        if kernel.counters.sleds_builds != last["builds"]:
            last["builds"] = kernel.counters.sleds_builds
            folded = last["read"]
        else:
            folded = read_delays(of.fs, kernel.clock.now,
                                 kernel.current_tenant)
        split = queue_runs(kernel, of.fs, of.inode, folded)
        reference.record_runs(inode_id, *vector_runs(vector, split))
        on_sleds(inode_id, vector, runs, delays)

    telemetry.on_sleds = snapshot
    return telemetry, reference, registry


def _check(telemetry, reference, registry) -> None:
    accuracy = telemetry.accuracy
    assert expand_predictions(accuracy) == expand_predictions(reference)
    assert accuracy.report().render() == reference.report().render()
    assert accuracy.to_dict() == reference.to_dict()
    assert (_abs_error_lines(telemetry.registry)
            == _abs_error_lines(registry))


class TestSnapshotMatchesReferencePath:
    @given(st.sampled_from(sorted(_WORLDS)), _ops)
    @settings(deadline=None)
    def test_one_walk_snapshot(self, world, ops):
        kernel, fs, path = _WORLDS[world]()
        engine = kernel.attach_engine()
        devices = [device for _, device
                   in sorted(fs.device_table().items())]
        fd = kernel.open(path, "r" if fs.read_only else "r+")
        inode = kernel._fd(fd).inode
        attached = None
        for op, slot, span in ops:
            if op == "read":
                kernel.pread(fd, slot * PAGE_SIZE, span * PAGE_SIZE)
            elif op == "write" and not fs.read_only:
                end = (slot + span) * PAGE_SIZE
                if isinstance(fs, HsmFs):
                    end = min(end, inode.size)
                if end > slot * PAGE_SIZE:
                    kernel.pwrite(fd, slot * PAGE_SIZE,
                                  b"x" * (end - slot * PAGE_SIZE))
            elif op == "drop_page":
                kernel.page_cache.invalidate((inode.id, slot))
            elif op == "get":
                kernel.get_sleds(fd)
            elif op == "get_twice":
                # the second is a stamp hit, a little later on the clock
                kernel.get_sleds(fd)
                kernel.get_sleds(fd)
            elif op == "submit":
                # the first request on an idle queue goes in flight, the
                # rest wait behind it
                device = devices[slot % len(devices)]
                engine.submit(device, slot * PAGE_SIZE, span * PAGE_SIZE,
                              is_write=False)
            elif op == "step":
                engine.loop.step()
            elif op == "tick":
                # the clock moves, the queues do not: the stamp holds
                kernel.charge_cpu(span * 1e-3)
            elif op == "attach" and attached is None:
                attached = _attach(kernel)
            if attached is not None:
                _check(*attached)
