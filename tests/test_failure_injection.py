"""Failure-injection tests: EIO propagation through the whole stack."""

import numpy as np
import pytest

from repro.apps.wc import wc
from repro.devices.disk import DiskDevice
from repro.machine import Machine
from repro.sim.errors import IoSimError
from repro.sim.tasks import EventScheduler, Task
from repro.sim.units import PAGE_SIZE


def _machine():
    machine = Machine.unix_utilities(cache_pages=64, seed=801)
    machine.boot()
    return machine


class TestDeviceLevel:
    def test_injected_failure_raises_once(self):
        disk = DiskDevice(rng=np.random.default_rng(1))
        disk.inject_failures(1)
        with pytest.raises(IoSimError) as excinfo:
            disk.read(0, PAGE_SIZE)
        assert excinfo.value.errno_name == "EIO"
        assert excinfo.value.device == "disk"
        # subsequent access succeeds
        assert disk.read(0, PAGE_SIZE) > 0
        assert disk.stats.errors == 1

    def test_injected_failure_counts(self):
        disk = DiskDevice(rng=np.random.default_rng(1))
        disk.inject_failures(3)
        for _ in range(3):
            with pytest.raises(IoSimError):
                disk.read(0, PAGE_SIZE)
        disk.read(0, PAGE_SIZE)
        assert disk.stats.errors == 3

    def test_bad_range_is_persistent(self):
        disk = DiskDevice(rng=np.random.default_rng(1))
        disk.mark_bad_range(10 * PAGE_SIZE, PAGE_SIZE)
        for _ in range(2):
            with pytest.raises(IoSimError):
                disk.read(10 * PAGE_SIZE, PAGE_SIZE)
        # non-overlapping access is fine
        disk.read(0, PAGE_SIZE)

    def test_overlap_detection(self):
        disk = DiskDevice(rng=np.random.default_rng(1))
        disk.mark_bad_range(10 * PAGE_SIZE, PAGE_SIZE)
        with pytest.raises(IoSimError):
            disk.read(9 * PAGE_SIZE, 2 * PAGE_SIZE)  # straddles the defect

    def test_clear_failures(self):
        disk = DiskDevice(rng=np.random.default_rng(1))
        disk.inject_failures(5)
        disk.mark_bad_range(0, PAGE_SIZE)
        disk.clear_failures()
        disk.read(0, PAGE_SIZE)

    def test_writes_fail_too(self):
        disk = DiskDevice(rng=np.random.default_rng(1))
        disk.inject_failures(1)
        with pytest.raises(IoSimError) as excinfo:
            disk.write(0, PAGE_SIZE)
        assert excinfo.value.is_write

    def test_invalid_injection(self):
        disk = DiskDevice(rng=np.random.default_rng(1))
        with pytest.raises(ValueError):
            disk.inject_failures(-1)
        with pytest.raises(ValueError):
            disk.mark_bad_range(0, 0)


class TestKernelPropagation:
    def test_read_surfaces_eio(self):
        machine = _machine()
        machine.ext2.create_text_file("f", 8 * PAGE_SIZE, seed=1)
        machine.ext2.device.inject_failures(1)
        k = machine.kernel
        fd = k.open("/mnt/ext2/f")
        with pytest.raises(IoSimError):
            k.read(fd, PAGE_SIZE)
        k.close(fd)

    def test_failed_cluster_not_cached(self):
        machine = _machine()
        machine.ext2.create_text_file("f", 8 * PAGE_SIZE, seed=1)
        machine.ext2.device.inject_failures(1)
        k = machine.kernel
        fd = k.open("/mnt/ext2/f")
        with pytest.raises(IoSimError):
            k.read(fd, PAGE_SIZE)
        inode = k.resolve("/mnt/ext2/f")[1]
        assert k.page_cache.resident_count(inode.id, 8) == 0
        # retry after the transient error succeeds and caches
        k.lseek(fd, 0)
        assert len(k.read(fd, PAGE_SIZE)) == PAGE_SIZE
        assert k.page_cache.resident_count(inode.id, 8) > 0
        k.close(fd)

    def test_application_surfaces_eio(self):
        machine = _machine()
        machine.ext2.create_text_file("f", 8 * PAGE_SIZE, seed=1)
        machine.ext2.device.inject_failures(1)
        with pytest.raises(IoSimError):
            wc(machine.kernel, "/mnt/ext2/f")

    def test_cached_reads_unaffected_by_device_failure(self):
        """The SLEDs story even applies to errors: cached data stays
        readable while the device is failing."""
        machine = _machine()
        machine.ext2.create_text_file("f", 8 * PAGE_SIZE, seed=1)
        k = machine.kernel
        k.warm_file("/mnt/ext2/f")
        machine.ext2.device.inject_failures(100)
        result = wc(k, "/mnt/ext2/f", use_sleds=True)
        assert result.chars == 8 * PAGE_SIZE
        machine.ext2.device.clear_failures()

    def test_writeback_surfaces_eio(self):
        machine = _machine()
        k = machine.kernel
        fd = k.open("/mnt/ext2/out.dat", "w")
        k.write(fd, b"x" * PAGE_SIZE)
        machine.ext2.device.inject_failures(1)
        with pytest.raises(IoSimError):
            k.fsync(fd)
        machine.ext2.device.clear_failures()
        k.close(fd)

    def test_dirty_state_survives_failed_flush(self):
        """A failed writeback keeps the pages dirty; a retry succeeds."""
        machine = _machine()
        k = machine.kernel
        fd = k.open("/mnt/ext2/retry.dat", "w")
        k.write(fd, b"y" * (2 * PAGE_SIZE))
        machine.ext2.device.inject_failures(1)
        with pytest.raises(IoSimError):
            k.fsync(fd)
        machine.ext2.device.clear_failures()
        before = k.counters.pages_written
        k.fsync(fd)  # the retry must actually write the data
        assert k.counters.pages_written == before + 2
        k.close(fd)


class TestWritebackFailures:
    """Failed flushes on every write path keep their pages dirty and
    count them written once, when a retry succeeds."""

    def test_failed_sync_keeps_later_filesystems_dirty(self):
        """A sync whose first filesystem fails leaves the files of the
        filesystems after it dirty as well; the retry writes both."""
        machine = _machine()
        k = machine.kernel
        local = k.open("/mnt/ext2/a.dat", "w")
        remote = k.open("/mnt/nfs/b.dat", "w")
        k.write(local, b"a" * PAGE_SIZE)
        k.write(remote, b"b" * PAGE_SIZE)
        machine.ext2.device.inject_failures(1)
        with pytest.raises(IoSimError):
            k.sync()
        assert sorted((fs.name, sorted(pages))
                      for fs, _, pages in k._dirty.values()) == [
            ("ext2", [0]), ("nfs", [0])]
        before = k.counters.pages_written
        k.sync()
        assert k.counters.pages_written == before + 2
        assert not k._dirty

    def test_failed_hsm_flush_counts_pages_once(self):
        """The blocking HSM flush writes run by run; a failing later run
        leaves every page dirty and none counted, so the retry counts
        each dirty page once."""
        machine = Machine.hsm(cache_pages=64, seed=801)
        machine.boot()
        fs = machine.hsmfs
        fs.create_tape_file("h.dat", 4 * PAGE_SIZE, "VOL000")
        k = machine.kernel
        fd = k.open("/mnt/hsm/h.dat", "r+")
        k.pwrite(fd, 0, b"h" * PAGE_SIZE)
        k.pwrite(fd, 2 * PAGE_SIZE, b"h" * PAGE_SIZE)
        inode = k._fd(fd).inode
        fs.device.mark_bad_range(inode.extent_map.addr_of(2), PAGE_SIZE)
        before = k.counters.pages_written
        with pytest.raises(IoSimError):
            k.fsync(fd)
        assert k.counters.pages_written == before
        assert sorted(k._dirty[inode.id][2]) == [0, 2]
        fs.device.clear_failures()
        k.fsync(fd)
        assert k.counters.pages_written == before + 2

    @pytest.mark.parametrize("profile", ["ext2", "hsm"])
    def test_failed_fsync_async_keeps_pages_dirty(self, profile):
        """Under the engine, a bad range under the second dirty page
        fails the task's flush: both pages stay dirty, none is counted,
        and the retry writes exactly two."""
        if profile == "hsm":
            machine = Machine.hsm(cache_pages=64, seed=801)
            machine.boot()
            machine.hsmfs.create_tape_file("f", 4 * PAGE_SIZE, "VOL000")
            path, mode = "/mnt/hsm/f", "r+"
        else:
            machine = _machine()
            path, mode = "/mnt/ext2/f", "w"
        k = machine.kernel
        engine = k.attach_engine()
        fd = k.open(path, mode)
        k.pwrite(fd, 0, b"e" * PAGE_SIZE)
        k.pwrite(fd, 2 * PAGE_SIZE, b"e" * PAGE_SIZE)
        of = k._fd(fd)
        of.fs.device.mark_bad_range(of.inode.extent_map.addr_of(2),
                                    PAGE_SIZE)
        errors = []

        def flusher():
            try:
                yield from k.fsync_async(fd)
            except IoSimError as exc:
                errors.append(exc)

        before = k.counters.pages_written
        EventScheduler(k, [Task("flush", flusher())], engine=engine).run()
        assert len(errors) == 1
        assert sorted(k._dirty[of.inode.id][2]) == [0, 2]
        assert k.counters.pages_written == before
        of.fs.device.clear_failures()
        EventScheduler(k, [Task("retry", flusher())], engine=engine).run()
        assert len(errors) == 1
        assert not k._dirty
        assert k.counters.pages_written == before + 2

    def test_failed_threshold_flush_moves_offset_keeps_pages_dirty(self):
        """``write`` moves its offset before the threshold flush: when
        that flush fails, the offset and size have still advanced and
        every page stays dirty."""
        machine = _machine()
        k = machine.kernel
        assert k.writeback_threshold_pages == 256
        fd = k.open("/mnt/ext2/big.dat", "w")
        k.write(fd, b"t" * (255 * PAGE_SIZE))
        machine.ext2.device.inject_failures(1)
        with pytest.raises(IoSimError):
            k.write(fd, b"t" * PAGE_SIZE)
        of = k._fd(fd)
        assert of.pos == of.inode.size == 1 << 20
        assert sorted(k._dirty[of.inode.id][2]) == list(range(256))
