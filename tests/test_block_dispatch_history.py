"""Tests for the DeviceQueue dispatch-history ring and plug hold records.

The forensic blame engine reconstructs queue-wait occupancy from the
dispatch history, so its invariants are load-bearing: entries appear at
dispatch time only (cancelled requests never show up, a coalesced group
appears exactly once as its union), service intervals never overlap on
one device, and the ring is bounded with an explicit drop counter.
"""

import numpy as np

from repro.block.merge import BlockConfig
from repro.block.scheduler import DeviceQueue, make_scheduler
from repro.devices.disk import DiskDevice
from repro.machine import Machine
from repro.sim.clock import VirtualClock
from repro.sim.events import EventLoop
from repro.sim.tasks import EventScheduler, Task
from repro.sim.units import PAGE_SIZE

MERGE_ALL = BlockConfig(merge=True, plug=True)


def _queue(history=4096, seed=7):
    disk = DiskDevice(rng=np.random.default_rng(seed))
    loop = EventLoop(VirtualClock())
    return DeviceQueue(disk, loop, make_scheduler("fcfs"),
                       history=history), loop


class TestDispatchHistory:
    def test_entries_carry_provenance(self):
        queue, loop = _queue()
        queue.submit(0, PAGE_SIZE, is_write=False, label="a",
                     tenant="t0", kind="fault")
        queue.submit(8 * PAGE_SIZE, 2 * PAGE_SIZE, is_write=True,
                     label="b", kind="writeback")
        loop.run_until_idle()
        hist = queue.recent_dispatches()
        assert [d.label for d in hist] == ["a", "b"]
        assert [d.kind for d in hist] == ["fault", "writeback"]
        assert [d.tenant for d in hist] == ["t0", None]
        assert [d.is_write for d in hist] == [False, True]
        assert [d.nbytes for d in hist] == [PAGE_SIZE, 2 * PAGE_SIZE]
        assert [d.rid for d in hist] == [0, 1]
        for d in hist:
            assert d.submit_time <= d.start < d.finish
            assert set(d.to_dict()) == {
                "rid", "kind", "label", "tenant", "is_write", "nbytes",
                "submit_time", "start", "finish"}

    def test_service_intervals_never_overlap(self):
        """A device queue dispatches serially — the occupancy windows
        the blame engine integrates over must be disjoint."""
        queue, loop = _queue()
        for i in range(12):
            queue.submit(i * 16 * PAGE_SIZE, PAGE_SIZE, is_write=False,
                         tenant=f"t{i % 3}")
        loop.run_until_idle()
        hist = queue.recent_dispatches()
        assert len(hist) == 12
        for prev, nxt in zip(hist, hist[1:]):
            assert prev.finish <= nxt.start

    def test_cancelled_requests_never_appear(self):
        queue, loop = _queue()
        kept = queue.submit(0, PAGE_SIZE, is_write=False, label="kept")
        doomed = queue.submit(4 * PAGE_SIZE, PAGE_SIZE, is_write=False,
                              label="doomed")
        assert queue.cancel(doomed)
        loop.run_until_idle()
        assert kept.value is not None
        assert doomed.value is None
        labels = [d.label for d in queue.recent_dispatches()]
        assert labels == ["kept"]

    def test_failed_requests_never_appear(self):
        """A dispatch that fails raises before any device time is
        charged — it occupied the head for zero seconds, so it must
        not show up as occupancy (the survivors do)."""
        queue, loop = _queue()
        queue.device.inject_failures(1)
        bad = queue.submit(0, PAGE_SIZE, is_write=False, label="bad")
        good = queue.submit(4 * PAGE_SIZE, PAGE_SIZE, is_write=False,
                            label="good")
        loop.run_until_idle()
        assert bad.exception is not None
        assert good.value is not None
        assert [d.label for d in queue.recent_dispatches()] == ["good"]

    def test_history_edges_never_decrease(self):
        """The blame engine bisects each history by service start and
        finish, which needs both to be non-decreasing with each finish
        at or before the next start — across a failed dispatch, a
        cancellation, arrivals while busy and after idling, and a
        synchronous access that pushes the device's own horizon past the
        queue's clock."""
        queue, loop = _queue()
        device = queue.device
        device.submit(64 * PAGE_SIZE, 8 * PAGE_SIZE, False, now=0.0)
        device.inject_failures(1)
        futures = [queue.submit(i * 16 * PAGE_SIZE, PAGE_SIZE,
                                is_write=False, label=f"a{i}",
                                tenant=f"t{i % 2}")
                   for i in range(5)]
        assert queue.cancel(futures[3])

        def arrive(label):
            queue.submit(3 * PAGE_SIZE, 2 * PAGE_SIZE, is_write=False,
                         label=label)

        loop.at(0.001, lambda: arrive("busy"))
        loop.at(5.0, lambda: arrive("idle"))
        loop.run_until_idle()
        hist = queue.recent_dispatches()
        assert futures[0].exception is not None
        assert [d.label for d in hist] == ["a1", "a2", "a4", "busy", "idle"]
        for prev, nxt in zip(hist, hist[1:]):
            assert prev.start <= nxt.start
            assert prev.finish <= nxt.finish
            assert prev.finish <= nxt.start
        assert all(d.start <= d.finish for d in hist)

    def test_ring_is_bounded_with_drop_counter(self):
        queue, loop = _queue(history=4)
        for i in range(10):
            queue.submit(i * 8 * PAGE_SIZE, PAGE_SIZE, is_write=False,
                         label=f"r{i}")
        loop.run_until_idle()
        hist = queue.recent_dispatches()
        assert len(hist) == 4
        assert [d.label for d in hist] == ["r6", "r7", "r8", "r9"]
        assert queue.history_dropped == 6

    def test_zero_history_disables_the_ring(self):
        queue, loop = _queue(history=0)
        queue.submit(0, PAGE_SIZE, is_write=False)
        loop.run_until_idle()
        assert queue.recent_dispatches() == ()


class TestMergedHistory:
    def _run_interleaved(self, pages=24, readers=2, chunk_pages=2):
        machine = Machine.unix_utilities(cache_pages=256, seed=9001)
        machine.boot()
        machine.ext2.create_text_file("f", pages * PAGE_SIZE, seed=1)
        kernel = machine.kernel
        engine = kernel.attach_engine(block=MERGE_ALL)
        nchunks = pages // chunk_pages

        def reader(start):
            fd = kernel.open("/mnt/ext2/f")
            for chunk in range(start, nchunks, readers):
                yield from kernel.pread_async(
                    fd, chunk * chunk_pages * PAGE_SIZE,
                    chunk_pages * PAGE_SIZE)
            kernel.close(fd)

        tasks = [Task(f"r{i}", reader(i), tenant=f"tenant{i}")
                 for i in range(readers)]
        EventScheduler(kernel, tasks, engine=engine).run()
        return machine, engine

    def test_coalesced_group_appears_once_as_union(self):
        machine, engine = self._run_interleaved()
        plug = engine.plugs()[0]
        assert plug.merged_requests > 0
        hist = engine.dispatch_histories()[machine.ext2.device.name]
        assert hist, "no dispatches recorded"
        # a coalesced group is ONE history entry (the union), so there
        # are strictly fewer dispatches than member faults
        faults = [d for d in hist if d.kind == "fault"]
        assert machine.kernel.counters.hard_faults > len(faults)
        merged = [d for d in faults if d.label.startswith("merged:")]
        assert merged, "expected union dispatch entries"
        assert all(d.nbytes > PAGE_SIZE for d in merged)
        for prev, nxt in zip(hist, hist[1:]):
            assert prev.finish <= nxt.start

    def test_hold_records_cover_dispatched_requests(self):
        machine, engine = self._run_interleaved()
        holds = engine.hold_histories()
        assert holds
        for key, hold in holds.items():
            assert hold.key == key
            assert hold.unplug_time >= hold.submit_time
            assert hold.held >= 0.0
            assert hold.members >= 1
        assert any(h.members > 1 for h in holds.values()), \
            "expected at least one coalesced hold group"

    def test_hold_keys_match_lifecycle_identity(self):
        """A hold record's key is exactly the identity of the lifecycle
        record the released request produced — that join is what blame
        attribution pivots on."""
        from repro.obs import Telemetry
        machine = Machine.unix_utilities(cache_pages=256, seed=9002)
        machine.boot()
        machine.ext2.create_text_file("f", 24 * PAGE_SIZE, seed=2)
        kernel = machine.kernel
        telemetry = Telemetry()
        telemetry.attach(kernel)
        engine = kernel.attach_engine(block=MERGE_ALL)
        nchunks = 12

        def reader(start):
            fd = kernel.open("/mnt/ext2/f")
            for chunk in range(start, nchunks, 2):
                yield from kernel.pread_async(
                    fd, chunk * 2 * PAGE_SIZE, 2 * PAGE_SIZE)
            kernel.close(fd)

        tasks = [Task(f"r{i}", reader(i)) for i in range(2)]
        EventScheduler(kernel, tasks, engine=engine).run()
        holds = engine.hold_histories()
        matched = 0
        for rec in telemetry.lifecycle.records:
            key = (rec.fs, rec.inode, rec.page, rec.cluster,
                   rec.submit_time)
            if key in holds:
                matched += 1
        assert matched == len(telemetry.lifecycle.records), \
            "every plugged fault's record should join a hold record"
