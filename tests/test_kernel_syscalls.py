"""Unit tests for the simulated kernel's syscall surface."""

import pytest

from repro.fs.check import check_filesystem
from repro.kernel.kernel import SEEK_CUR, SEEK_END, SEEK_SET
from repro.sim.errors import (
    BadFileDescriptorError,
    FileNotFoundSimError,
    InvalidArgumentError,
    IsADirectorySimError,
    ReadOnlyFilesystemError,
)
from repro.sim.units import PAGE_SIZE


class TestOpenClose:
    def test_open_returns_distinct_fds(self, ext2_file):
        machine, path, _ = ext2_file
        k = machine.kernel
        fd1 = k.open(path)
        fd2 = k.open(path)
        assert fd1 != fd2
        k.close(fd1)
        k.close(fd2)

    def test_open_missing_file(self, kernel):
        with pytest.raises(FileNotFoundSimError):
            kernel.open("/mnt/ext2/nope.txt")

    def test_open_directory_rejected(self, ext2_file):
        machine, _, _ = ext2_file
        with pytest.raises(IsADirectorySimError):
            machine.kernel.open("/mnt/ext2/data")

    def test_open_bad_mode(self, ext2_file):
        machine, path, _ = ext2_file
        with pytest.raises(InvalidArgumentError):
            machine.kernel.open(path, "rb")

    def test_close_unknown_fd(self, kernel):
        with pytest.raises(BadFileDescriptorError):
            kernel.close(999)

    def test_open_w_creates(self, kernel):
        fd = kernel.open("/mnt/ext2/new.txt", "w")
        kernel.write(fd, b"hello")
        kernel.close(fd)
        assert kernel.stat("/mnt/ext2/new.txt").size == 5

    def test_open_w_truncates(self, kernel):
        fd = kernel.open("/mnt/ext2/t.txt", "w")
        kernel.write(fd, b"hello world")
        kernel.close(fd)
        fd = kernel.open("/mnt/ext2/t.txt", "w")
        kernel.close(fd)
        assert kernel.stat("/mnt/ext2/t.txt").size == 0

    def test_open_write_on_readonly_fs(self, unix_machine):
        unix_machine.cdrom.create_file("disc.dat", 100)
        with pytest.raises(ReadOnlyFilesystemError):
            unix_machine.kernel.open("/mnt/cdrom/disc.dat", "w")


class TestReadSeek:
    def test_read_whole_file(self, ext2_file):
        machine, path, size = ext2_file
        k = machine.kernel
        fd = k.open(path)
        data = b""
        while True:
            chunk = k.read(fd, 64 * 1024)
            if not chunk:
                break
            data += chunk
        k.close(fd)
        assert len(data) == size

    def test_read_clamps_at_eof(self, ext2_file):
        machine, path, size = ext2_file
        k = machine.kernel
        fd = k.open(path)
        k.lseek(fd, size - 10)
        assert len(k.read(fd, 100)) == 10
        assert k.read(fd, 100) == b""
        k.close(fd)

    def test_negative_read_rejected(self, ext2_file):
        machine, path, _ = ext2_file
        fd = machine.kernel.open(path)
        with pytest.raises(InvalidArgumentError):
            machine.kernel.read(fd, -1)

    def test_lseek_whences(self, ext2_file):
        machine, path, size = ext2_file
        k = machine.kernel
        fd = k.open(path)
        assert k.lseek(fd, 100, SEEK_SET) == 100
        assert k.lseek(fd, 50, SEEK_CUR) == 150
        assert k.lseek(fd, -10, SEEK_END) == size - 10
        k.close(fd)

    def test_lseek_negative_rejected(self, ext2_file):
        machine, path, _ = ext2_file
        fd = machine.kernel.open(path)
        with pytest.raises(InvalidArgumentError):
            machine.kernel.lseek(fd, -1)

    def test_lseek_bad_whence(self, ext2_file):
        machine, path, _ = ext2_file
        fd = machine.kernel.open(path)
        with pytest.raises(InvalidArgumentError):
            machine.kernel.lseek(fd, 0, 7)

    def test_pread_does_not_move_offset(self, ext2_file):
        machine, path, _ = ext2_file
        k = machine.kernel
        fd = k.open(path)
        k.lseek(fd, 500)
        k.pread(fd, 0, 100)
        assert k.lseek(fd, 0, SEEK_CUR) == 500
        k.close(fd)

    def test_read_matches_content(self, ext2_file):
        machine, path, _ = ext2_file
        k = machine.kernel
        fd = k.open(path)
        k.lseek(fd, 1234)
        via_read = k.read(fd, 100)
        via_pread = k.pread(fd, 1234, 100)
        assert via_read == via_pread


class TestWrite:
    def test_write_then_read_back(self, kernel):
        fd = kernel.open("/mnt/ext2/w.txt", "w")
        kernel.write(fd, b"abc" * 1000)
        kernel.lseek(fd, 0)
        assert kernel.read(fd, 6) == b"abcabc"
        kernel.close(fd)

    def test_append_mode(self, kernel):
        fd = kernel.open("/mnt/ext2/a.txt", "w")
        kernel.write(fd, b"one")
        kernel.close(fd)
        fd = kernel.open("/mnt/ext2/a.txt", "a")
        kernel.write(fd, b"two")
        kernel.close(fd)
        fd = kernel.open("/mnt/ext2/a.txt")
        assert kernel.read(fd, 10) == b"onetwo"

    def test_write_on_readonly_descriptor(self, ext2_file):
        machine, path, _ = ext2_file
        fd = machine.kernel.open(path)
        with pytest.raises(BadFileDescriptorError):
            machine.kernel.write(fd, b"x")

    def test_write_grows_file(self, kernel):
        fd = kernel.open("/mnt/ext2/g.txt", "w")
        kernel.write(fd, b"\0" * (2 * PAGE_SIZE + 5))
        assert kernel.stat("/mnt/ext2/g.txt").size == 2 * PAGE_SIZE + 5

    def test_fsync_flushes_dirty_pages(self, kernel):
        fd = kernel.open("/mnt/ext2/s.txt", "w")
        kernel.write(fd, b"x" * PAGE_SIZE)
        before = kernel.counters.pages_written
        kernel.fsync(fd)
        assert kernel.counters.pages_written > before
        kernel.fsync(fd)  # idempotent: nothing more to flush
        assert kernel.counters.pages_written == before + 1

    def test_writeback_threshold_triggers_flush(self, unix_machine):
        k = unix_machine.kernel
        k.writeback_threshold_pages = 4
        fd = k.open("/mnt/ext2/big.txt", "w")
        k.write(fd, b"\0" * (8 * PAGE_SIZE))
        assert k.counters.pages_written >= 4
        k.close(fd)


class TestNamespaceSyscalls:
    def test_stat(self, ext2_file):
        machine, path, size = ext2_file
        st = machine.kernel.stat(path)
        assert st.size == size
        assert not st.is_dir

    def test_listdir_includes_mounts(self, kernel):
        names = kernel.listdir("/mnt")
        assert {"ext2", "cdrom", "nfs"} <= set(names)

    def test_listdir_of_file_rejected(self, ext2_file):
        machine, path, _ = ext2_file
        with pytest.raises(InvalidArgumentError):
            machine.kernel.listdir(path)

    def test_unlink(self, ext2_file):
        machine, path, _ = ext2_file
        machine.kernel.unlink(path)
        with pytest.raises(FileNotFoundSimError):
            machine.kernel.stat(path)

    def test_unlink_drops_cached_pages(self, ext2_file):
        machine, path, _ = ext2_file
        k = machine.kernel
        k.warm_file(path)
        assert len(k.page_cache) > 0
        k.unlink(path)
        assert len(k.page_cache) == 0

    def test_no_mount_for_path(self, kernel):
        with pytest.raises(FileNotFoundSimError):
            kernel.resolve("/zzz/file")


class TestUnlinkFreesSpace:
    """``unlink`` hands a file's space back, on the last ``close`` if a
    descriptor still holds the file open."""

    def test_create_unlink_cycles_reuse_one_files_space(self, unix_machine):
        k = unix_machine.kernel
        allocator = unix_machine.ext2._allocator()
        start = allocator.cursor
        for _ in range(50):
            fd = k.open("/mnt/ext2/tmp.dat", "w")
            k.write(fd, b"x" * (8 * PAGE_SIZE))
            k.close(fd)
            k.unlink("/mnt/ext2/tmp.dat")
        assert allocator.cursor == start + 8 * PAGE_SIZE
        assert allocator.free_ranges == [(start, start + 8 * PAGE_SIZE)]
        assert check_filesystem(unix_machine.ext2) == []

    def test_unlinked_file_reads_until_last_close(self, unix_machine):
        k = unix_machine.kernel
        allocator = unix_machine.ext2._allocator()
        path = "/mnt/ext2/held.dat"
        data = bytes(range(256)) * (4 * PAGE_SIZE // 256)
        fd = k.open(path, "w")
        k.write(fd, data)
        k.close(fd)
        first = k.open(path)
        second = k.open(path)
        k.unlink(path)
        with pytest.raises(FileNotFoundSimError):
            k.stat(path)
        k.close(first)
        k.page_cache.clear()  # the next read faults from the device
        assert k.pread(second, 0, len(data)) == data
        assert allocator.free_ranges == []
        k.close(second)
        assert sum(end - start for start, end
                   in allocator.free_ranges) == len(data)
        assert len(k.page_cache) == 0

    def test_hsm_checks_clean_after_last_close(self, hsm_machine):
        k = hsm_machine.kernel
        hsm = hsm_machine.hsmfs
        hsm.create_tape_file("tape.dat", 16 * PAGE_SIZE, "VOL000")
        fd = k.open("/mnt/hsm/tape.dat")
        k.pread(fd, 0, 16 * PAGE_SIZE)
        inode = k._fd(fd).inode
        assert hsm.staged_count(inode) == 16
        k.unlink("/mnt/hsm/tape.dat")
        assert hsm.staged_count(inode) == 16  # still open: still staged
        k.close(fd)
        assert hsm.staged_count(inode) == 0
        assert check_filesystem(hsm) == []


class TestProcessAccounting:
    def test_elapsed_and_categories(self, ext2_file):
        machine, path, _ = ext2_file
        k = machine.kernel
        with k.process() as run:
            k.warm_file(path)
        assert run.elapsed > 0
        assert run.hard_faults > 0
        assert "disk" in run.by_category

    def test_nested_deltas_are_disjoint(self, ext2_file):
        machine, path, _ = ext2_file
        k = machine.kernel
        with k.process() as first:
            k.warm_file(path)
        with k.process() as second:
            pass
        assert second.elapsed == 0.0
        assert second.hard_faults == 0
        assert first.elapsed > 0

    def test_charge_cpu_is_visible(self, kernel):
        with kernel.process() as run:
            kernel.charge_cpu(0.25)
        assert run.cpu_time == pytest.approx(0.25)


class TestPwrite:
    def test_pwrite_does_not_move_offset(self, kernel):
        fd = kernel.open("/mnt/ext2/pw.dat", "w")
        kernel.write(fd, b"0123456789")
        kernel.lseek(fd, 3)
        kernel.pwrite(fd, 0, b"XX")
        assert kernel.lseek(fd, 0, SEEK_CUR) == 3
        kernel.lseek(fd, 0)
        assert kernel.read(fd, 10) == b"XX23456789"
        kernel.close(fd)

    def test_pwrite_grows_file(self, kernel):
        fd = kernel.open("/mnt/ext2/pw2.dat", "w")
        kernel.pwrite(fd, 2 * PAGE_SIZE, b"tail")
        assert kernel.stat("/mnt/ext2/pw2.dat").size == 2 * PAGE_SIZE + 4
        kernel.close(fd)

    def test_pwrite_on_readonly_fd(self, ext2_file):
        machine, path, _ = ext2_file
        fd = machine.kernel.open(path)
        with pytest.raises(BadFileDescriptorError):
            machine.kernel.pwrite(fd, 0, b"x")

    def test_pwrite_negative_offset(self, kernel):
        fd = kernel.open("/mnt/ext2/pw3.dat", "w")
        with pytest.raises(InvalidArgumentError):
            kernel.pwrite(fd, -1, b"x")
        kernel.close(fd)

    def test_pwrite_upgrades_synthetic_content(self, ext2_file):
        machine, path, _ = ext2_file
        k = machine.kernel
        fd = k.open(path, "r+")
        before = k.pread(fd, 100, 10)
        k.pwrite(fd, 100, b"Y" * 4)
        after = k.pread(fd, 100, 10)
        assert after[:4] == b"YYYY"
        assert after[4:] == before[4:]
        k.close(fd)
