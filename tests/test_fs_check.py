"""Tests for the filesystem consistency checker."""

import numpy as np

from repro.devices.disk import DiskDevice
from repro.fs.check import check_filesystem, check_machine
from repro.fs.filesystem import Ext2Like
from repro.fs.inode import Extent
from repro.machine import Machine
from repro.sim.units import PAGE_SIZE


def _fs():
    return Ext2Like(DiskDevice(rng=np.random.default_rng(1)))


class TestCleanFilesystems:
    def test_fresh_fs_clean(self):
        assert check_filesystem(_fs()) == []

    def test_populated_fs_clean(self):
        fs = _fs()
        for i in range(5):
            fs.create_text_file(f"d{i}/f{i}.txt", (i + 1) * PAGE_SIZE,
                                seed=i)
        assert check_filesystem(fs) == []

    def test_fragmented_fs_clean(self):
        fs = Ext2Like(DiskDevice(rng=np.random.default_rng(1)),
                      max_extent_pages=2, gap_pages=1)
        fs.create_text_file("frag.txt", 16 * PAGE_SIZE, seed=1)
        assert check_filesystem(fs) == []

    def test_machine_after_workload_clean(self):
        machine = Machine.unix_utilities(cache_pages=64, seed=1401)
        machine.boot()
        machine.ext2.create_text_file("a.txt", 8 * PAGE_SIZE, seed=1)
        k = machine.kernel
        fd = k.open("/mnt/ext2/b.txt", "w")
        k.write(fd, b"x" * (3 * PAGE_SIZE))
        k.close(fd)
        k.warm_file("/mnt/ext2/a.txt")
        report = check_machine(machine)
        assert all(problems == [] for problems in report.values())

    def test_hsm_after_staging_clean(self):
        machine = Machine.hsm(cache_pages=64, seed=1402)
        machine.boot()
        inode = machine.hsmfs.create_tape_file("t.dat", 8 * PAGE_SIZE,
                                               "VOL000")
        machine.hsmfs.read_pages(inode, 0, 8)
        assert check_filesystem(machine.hsmfs) == []


class TestTruncation:
    """``open(path, "w")`` on a non-empty file hands its extents back."""

    def _rewrite(self, machine, path, rounds, nbytes=3 * PAGE_SIZE):
        k = machine.kernel
        for _ in range(rounds):
            fd = k.open(path, "w")
            k.write(fd, b"x" * nbytes)
            k.close(fd)
        return machine.kernel.resolve(path)[1]

    def test_rewrite_cycles_stay_clean_and_bounded(self):
        machine = Machine.unix_utilities(cache_pages=64, seed=1403)
        machine.boot()
        inode = self._rewrite(machine, "/mnt/ext2/log", 3)
        assert all(problems == [] for problems in
                   check_machine(machine).values())
        cursor = machine.ext2._alloc.cursor
        inode = self._rewrite(machine, "/mnt/ext2/log", 20)
        assert len(inode.extent_map.extents) <= 3
        assert inode.extent_map.npages == 3
        # every rewrite lands on the space the truncation freed
        assert machine.ext2._alloc.cursor == cursor
        assert all(problems == [] for problems in
                   check_machine(machine).values())

    def test_hsm_truncation_drops_staged_pages(self):
        machine = Machine.hsm(cache_pages=64, seed=1404)
        machine.boot()
        hsm = machine.hsmfs
        inode = hsm.create_tape_file("t.dat", 8 * PAGE_SIZE, "VOL000")
        hsm.read_pages(inode, 0, 8)
        assert hsm.staged_count(inode) == 8
        self._rewrite(machine, "/mnt/hsm/t.dat", 2, nbytes=2 * PAGE_SIZE)
        assert hsm.staged_count(inode) == 2
        assert check_filesystem(hsm) == []

    def test_stale_stage_detected(self):
        machine = Machine.hsm(cache_pages=64, seed=1405)
        machine.boot()
        hsm = machine.hsmfs
        inode = hsm.create_tape_file("t.dat", 8 * PAGE_SIZE, "VOL000")
        hsm.read_pages(inode, 0, 8)
        inode.size = 2 * PAGE_SIZE
        assert any("HSM stage holds page" in p
                   for p in check_filesystem(hsm))


class TestCorruptionDetected:
    def test_overlapping_extents(self):
        fs = _fs()
        a = fs.create_file("a", 2 * PAGE_SIZE)
        fs.create_file("b", 2 * PAGE_SIZE)
        # force b's layout onto a's device range
        b = fs.resolve(["b"])
        b.extent_map.extents[0] = Extent(
            0, 2, a.extent_map.addr_of(0))
        problems = check_filesystem(fs)
        assert any("overlap" in p for p in problems)

    def test_size_extent_mismatch(self):
        fs = _fs()
        inode = fs.create_file("a", 2 * PAGE_SIZE)
        inode.size = 5 * PAGE_SIZE  # grew without layout
        problems = check_filesystem(fs)
        assert any("extent map covers" in p for p in problems)

    def test_extent_beyond_device(self):
        fs = _fs()
        inode = fs.create_file("a", PAGE_SIZE)
        inode.extent_map.extents[0] = Extent(
            0, 1, fs.device.capacity - 100)
        problems = check_filesystem(fs)
        assert any("beyond device" in p for p in problems)

    def test_directory_cycle(self):
        fs = _fs()
        d = fs.mkdir("loop")
        d.entries["back"] = fs.root
        problems = check_filesystem(fs)
        assert any("cycle" in p for p in problems)

    def test_hsm_unplaced_file(self):
        machine = Machine.hsm(cache_pages=64, seed=1403)
        machine.boot()
        machine.hsmfs.create_file("orphan.dat", PAGE_SIZE)  # no tape home
        problems = check_filesystem(machine.hsmfs)
        assert any("no tape placement" in p for p in problems)

    def test_bad_entry_name(self):
        fs = _fs()
        fs.root.entries[""] = fs.create_file("x", PAGE_SIZE)
        del fs.root.entries["x"]
        problems = check_filesystem(fs)
        assert any("bad entry name" in p for p in problems)
