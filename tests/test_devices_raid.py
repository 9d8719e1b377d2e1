"""Tests for the RAID composite devices under the unchanged SLEDs stack."""

import numpy as np
import pytest

from repro.devices.disk import DiskDevice
from repro.devices.raid import Raid0, Raid1, make_stripe
from repro.fs.filesystem import Ext2Like
from repro.kernel.kernel import Kernel
from repro.machine import Machine
from repro.sim.rng import RngStreams
from repro.sim.units import KB, MB, PAGE_SIZE


def _disks(n, seed=1):
    return [DiskDevice(name=f"d{i}", rng=np.random.default_rng(seed + i))
            for i in range(n)]


class TestRaid0:
    def test_needs_two_members(self):
        with pytest.raises(ValueError):
            Raid0(_disks(1))

    def test_capacity_is_width_times_smallest(self):
        members = _disks(2)
        assert Raid0(members).capacity == 2 * min(
            m.capacity for m in members)

    def test_split_round_robins_stripes(self):
        raid = Raid0(_disks(2), stripe_size=64 * KB)
        split = raid._split(0, 256 * KB)
        assert set(split) == {0, 1}
        assert sum(take for pieces in split.values()
                   for _, take in pieces) == 256 * KB
        # each member got alternating stripes packed contiguously
        assert split[0] == [(0, 64 * KB), (64 * KB, 64 * KB)]
        assert split[1] == [(0, 64 * KB), (64 * KB, 64 * KB)]

    def test_sequential_bandwidth_scales(self):
        single = DiskDevice(rng=np.random.default_rng(9))
        stripe = make_stripe(width=2, seed=9)
        nbytes = 8 * MB
        t_single = sum(single.read(off, 256 * KB)
                       for off in range(0, nbytes, 256 * KB))
        t_stripe = sum(stripe.read(off, 256 * KB)
                       for off in range(0, nbytes, 256 * KB))
        assert t_stripe < 0.7 * t_single

    def test_small_reads_hit_one_member(self):
        raid = Raid0(_disks(2), stripe_size=64 * KB)
        raid.read(0, 4 * KB)
        assert raid.members[0].stats.reads == 1
        assert raid.members[1].stats.reads == 0

    def test_writes_fan_out(self):
        raid = Raid0(_disks(2), stripe_size=64 * KB)
        raid.write(0, 128 * KB)
        assert raid.members[0].stats.writes == 1
        assert raid.members[1].stats.writes == 1


class TestRaid1:
    def test_reads_prefer_nearest_head(self):
        members = _disks(2, seed=3)
        raid = Raid1(members)
        members[0].head_pos = 0
        members[1].head_pos = members[1].capacity // 2
        raid.read(members[1].capacity // 2, PAGE_SIZE)
        assert members[1].stats.reads == 1
        assert members[0].stats.reads == 0

    def test_writes_hit_all_members(self):
        raid = Raid1(_disks(2, seed=4))
        raid.write(0, PAGE_SIZE)
        assert all(m.stats.writes == 1 for m in raid.members)

    def test_capacity_is_smallest_member(self):
        members = _disks(2)
        assert Raid1(members).capacity == min(m.capacity for m in members)


def _delta(device, before):
    return {key: total - before.get(key, 0.0)
            for key, total in device.component_totals.items()
            if total != before.get(key, 0.0)}


class TestComponentBooking:
    """An array request books the component split of the member that
    set its duration, not its whole duration as transfer."""

    @pytest.mark.parametrize("array", [
        lambda: Raid0(_disks(2, seed=5)),
        lambda: Raid1(_disks(2, seed=5)),
    ], ids=["stripe", "mirror"])
    @pytest.mark.parametrize("is_write", [False, True],
                             ids=["read", "write"])
    def test_array_books_the_deciding_members_split(self, array, is_write):
        raid = array()
        devices = [raid, *raid.members]
        rng = np.random.default_rng(5)
        for _ in range(4):
            addr = int(rng.integers(0, raid.capacity // (4 * KB) - 16)) \
                * 4 * KB
            before = [dict(device.component_totals) for device in devices]
            busy = [member.stats.busy_time for member in raid.members]
            if is_write:
                raid.write(addr, 64 * KB)
            else:
                raid.read(addr, 64 * KB)
            booked, *shares = [_delta(device, totals)
                               for device, totals in zip(devices, before)]
            # the member that served longest set the duration
            spent = [member.stats.busy_time - was if share else -1.0
                     for member, was, share in zip(raid.members, busy,
                                                   shares)]
            deciding = shares[spent.index(max(spent))]
            assert booked == pytest.approx(deciding, rel=1e-12)
            assert set(booked) - {"transfer", "write_transfer"}
            assert all(key.startswith("write_") == is_write
                       and not key.startswith("write_write_")
                       for key in booked)


class TestRaidUnderSleds:
    def _machine(self, device):
        rng = RngStreams(41)
        kernel = Kernel(cache_pages=128, rng=rng)
        machine = Machine(kernel=kernel)
        machine.mount("/", Ext2Like(DiskDevice(
            name="root", rng=rng.stream("root")), name="rootfs"))
        machine.mount("/mnt/ext2", Ext2Like(device, name="ext2"))
        machine.boot()
        return machine

    def test_boot_characterises_the_composite(self):
        machine = self._machine(make_stripe(width=2, seed=7))
        row = machine.kernel.sleds_table.lookup("ext2")
        single = self._machine(DiskDevice(
            rng=np.random.default_rng(7))).kernel.sleds_table.lookup("ext2")
        # the stripe's measured bandwidth clearly exceeds one disk's
        assert row.bandwidth > 1.5 * single.bandwidth

    def test_sleds_workload_on_raid(self):
        from repro.apps.wc import wc
        machine = self._machine(make_stripe(width=2, seed=8))
        machine.ext2.create_text_file("f", 64 * PAGE_SIZE, seed=1)
        k = machine.kernel
        k.warm_file("/mnt/ext2/f")
        plain = wc(k, "/mnt/ext2/f")
        sleds = wc(k, "/mnt/ext2/f", use_sleds=True)
        assert (plain.lines, plain.words, plain.chars) == \
            (sleds.lines, sleds.words, sleds.chars)
