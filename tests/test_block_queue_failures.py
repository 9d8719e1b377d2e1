"""Failure-safe dispatch chain of the DeviceQueue under injected faults.

A device error must fail exactly the requests that hit it, keep servicing
the rest of the batch in elevator order, and leave the queue able to take
new work — no wedged futures, no lost completions, at any position in the
batch.  Cancellation (the prefetcher's withdrawal path) gets the same
treatment: a cancelled entry leaves the elevator without disturbing its
neighbours.
"""

import numpy as np
import pytest

from repro.block.scheduler import DeviceQueue, make_scheduler
from repro.devices.disk import DiskDevice
from repro.machine import Machine
from repro.sim.clock import VirtualClock
from repro.sim.errors import IoSimError
from repro.sim.events import EventLoop
from repro.sim.tasks import EventScheduler, Task
from repro.sim.units import PAGE_SIZE


def _queue(scheduler_name="fcfs", seed=21):
    disk = DiskDevice(rng=np.random.default_rng(seed))
    loop = EventLoop(VirtualClock())
    return DeviceQueue(disk, loop, make_scheduler(scheduler_name)), loop


class TestMidBatchFailures:
    @pytest.mark.parametrize("bad_index", [0, 2, 4])
    def test_defect_fails_only_the_overlapping_request(self, bad_index):
        """Five queued requests, a media defect under one of them: that
        future fails with EIO, the other four complete, in order."""
        queue, loop = _queue("fcfs")
        addrs = [i * 8 * PAGE_SIZE for i in range(5)]
        queue.device.mark_bad_range(addrs[bad_index], PAGE_SIZE)
        futures = [queue.submit(addr, PAGE_SIZE, is_write=False)
                   for addr in addrs]
        loop.run_until_idle()
        for i, future in enumerate(futures):
            if i == bad_index:
                assert isinstance(future.exception, IoSimError)
                assert future.exception.errno_name == "EIO"
            else:
                assert future.value.duration > 0.0
        # fcfs: the survivors still completed in submission order
        finishes = [f.value.finish_time for i, f in enumerate(futures)
                    if i != bad_index]
        assert finishes == sorted(finishes)
        assert queue.depth == 0

    def test_consecutive_failures_drain_recursively(self):
        """Head-of-queue failures dispatch the next entry immediately —
        three bad requests in a row must not stall the fourth."""
        queue, loop = _queue("fcfs")
        queue.device.inject_failures(3)
        futures = [queue.submit(i * 4 * PAGE_SIZE, PAGE_SIZE,
                                is_write=False) for i in range(4)]
        loop.run_until_idle()
        assert all(f.exception is not None for f in futures[:3])
        assert futures[3].value.duration > 0.0
        assert queue.depth == 0

    def test_long_failure_run_does_not_recurse(self):
        """1,500 reads queued behind one in service, 1,499 of them
        failing: the queue works through the failures in a loop, so the
        completion event neither overflows the stack nor strands a
        future."""
        queue, loop = _queue("fcfs")
        first = queue.submit(0, PAGE_SIZE, is_write=False)
        queue.device.inject_failures(1499)
        futures = [queue.submit((i + 1) * PAGE_SIZE, PAGE_SIZE,
                                is_write=False) for i in range(1500)]
        loop.run_until_idle()
        assert first.value.duration > 0.0
        assert all(f.exception is not None for f in futures[:1499])
        assert futures[-1].value.duration > 0.0
        assert queue.depth == 0

    def test_resubmit_from_failure_callback_keeps_one_in_service(self):
        """A failed request's done-callback that submits again (as the
        prefetcher's re-pump does) must not put a second request in
        service next to the one its submission started."""
        queue, loop = _queue("fcfs")
        in_flight = [0]
        most = [0]

        def dispatched(wait, depth):
            in_flight[0] += 1
            most[0] = max(most[0], in_flight[0])

        def completed(depth):
            in_flight[0] -= 1

        queue.on_dispatched = dispatched
        queue.on_completed = completed
        first = queue.submit(0, PAGE_SIZE, is_write=False)
        queue.device.inject_failures(1)
        bad = queue.submit(8 * PAGE_SIZE, PAGE_SIZE, is_write=False)
        queued = queue.submit(16 * PAGE_SIZE, PAGE_SIZE, is_write=False)
        retried = []
        bad.add_done_callback(lambda f: retried.append(
            queue.submit(24 * PAGE_SIZE, PAGE_SIZE, is_write=False)))
        loop.run_until_idle()
        assert bad.exception is not None
        assert first.value.duration > 0.0
        assert queued.value.duration > 0.0
        assert retried[0].value.duration > 0.0
        assert most[0] == 1
        # the dispatch history shows one service interval at a time
        records = queue.recent_dispatches()
        assert len(records) == 3
        for before, after in zip(records, records[1:]):
            assert after.start >= before.finish

    def test_resubmitting_failure_callbacks_do_not_recurse(self):
        """1,500 failures in a row, each failed request's callback
        submitting the next one: the dispatch loop starts each
        resubmission itself instead of nesting a dispatch per failure."""
        queue, loop = _queue("fcfs")
        first = queue.submit(0, PAGE_SIZE, is_write=False)
        queue.device.inject_failures(1500)
        futures = []

        def resubmit(future):
            if len(futures) < 1501:
                submit(len(futures) + 1)

        def submit(block):
            future = queue.submit(block * PAGE_SIZE, PAGE_SIZE,
                                  is_write=False)
            futures.append(future)
            future.add_done_callback(resubmit)

        submit(1)
        loop.run_until_idle()
        assert first.value.duration > 0.0
        assert len(futures) == 1501
        assert all(f.exception is not None for f in futures[:1500])
        assert futures[-1].value.duration > 0.0
        assert queue.depth == 0

    def test_queue_usable_after_failures(self):
        queue, loop = _queue()
        queue.device.inject_failures(1)
        bad = queue.submit(0, PAGE_SIZE, is_write=False)
        loop.run_until_idle()
        assert bad.exception is not None
        good = queue.submit(PAGE_SIZE, PAGE_SIZE, is_write=False)
        loop.run_until_idle()
        assert good.value.duration > 0.0

    def test_failing_service_thunk_mid_batch(self):
        """A service callable that raises (filesystem-level error) fails
        its own future and the dispatch chain continues."""
        queue, loop = _queue("fcfs")

        failure = RuntimeError("fs exploded mid-service")

        def boom():
            raise failure

        first = queue.submit(0, PAGE_SIZE, is_write=False)
        bad = queue.submit(8 * PAGE_SIZE, PAGE_SIZE, is_write=False,
                           service=boom)
        last = queue.submit(16 * PAGE_SIZE, PAGE_SIZE, is_write=False)
        loop.run_until_idle()
        assert first.value.duration > 0.0
        assert bad.exception is failure
        assert last.value.duration > 0.0


class TestCancellation:
    def test_cancel_pending_entry(self):
        queue, loop = _queue("fcfs")
        queue.submit(0, PAGE_SIZE, is_write=False)  # in service
        doomed = queue.submit(8 * PAGE_SIZE, PAGE_SIZE, is_write=False)
        survivor = queue.submit(16 * PAGE_SIZE, PAGE_SIZE, is_write=False)
        epoch = queue.congestion_epoch
        assert queue.cancel(doomed)
        assert doomed.done and doomed.value is None
        assert queue.congestion_epoch > epoch
        loop.run_until_idle()
        assert survivor.value.duration > 0.0

    def test_cancel_unknown_future_is_refused(self):
        queue, loop = _queue()
        from repro.sim.events import IoFuture
        assert not queue.cancel(IoFuture("stranger"))

    def test_cancel_dispatched_request_is_refused(self):
        """In-service requests are beyond recall — the platter is
        already spinning under the head."""
        queue, loop = _queue()
        inflight = queue.submit(0, PAGE_SIZE, is_write=False)
        assert not queue.cancel(inflight)
        loop.run_until_idle()
        assert inflight.value.duration > 0.0


class TestEngineLevelFaults:
    def test_async_reader_sees_eio_once_queue_recovers(self):
        """End to end: an injected fault during a concurrent async
        workload surfaces as EIO in exactly one task; the others
        finish their files."""
        machine = Machine.unix_utilities(cache_pages=512, seed=606)
        machine.boot()
        machine.ext2.create_text_file("f", 32 * PAGE_SIZE, seed=1)
        kernel = machine.kernel
        engine = kernel.attach_engine()
        machine.ext2.device.inject_failures(1)
        outcomes = {}

        def reader(name, start_page):
            fd = kernel.open("/mnt/ext2/f")
            try:
                for page in range(start_page, 32, 2):
                    yield from kernel.pread_async(
                        fd, page * PAGE_SIZE, PAGE_SIZE)
            except IoSimError:
                outcomes[name] = "eio"
            else:
                outcomes[name] = "ok"
            finally:
                kernel.close(fd)

        tasks = [Task(f"r{i}", reader(f"r{i}", i)) for i in range(2)]
        EventScheduler(kernel, tasks, engine=engine).run()
        assert sorted(outcomes.values()) == ["eio", "ok"]
        assert machine.ext2.device.stats.errors == 1
