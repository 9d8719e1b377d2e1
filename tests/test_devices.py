"""Unit tests for the memory, disk, CD-ROM, and NFS device models."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.devices.cdrom import CdromDevice
from repro.devices.disk import DiskDevice, Zone
from repro.devices.memory import MemoryDevice
from repro.devices.network import NfsDevice
from repro.sim.units import GB, KB, MB, PAGE_SIZE


def _rng():
    return np.random.default_rng(7)


class TestDeviceBase:
    def test_out_of_range_access_rejected(self):
        mem = MemoryDevice(capacity=1024)
        with pytest.raises(ValueError):
            mem.read(1000, 100)

    def test_negative_access_rejected(self):
        mem = MemoryDevice(capacity=1024)
        with pytest.raises(ValueError):
            mem.read(-1, 10)
        with pytest.raises(ValueError):
            mem.read(0, -10)

    def test_stats_accumulate(self):
        mem = MemoryDevice()
        mem.read(0, 100)
        mem.read(0, 100)
        mem.write(0, 50)
        assert mem.stats.reads == 2
        assert mem.stats.writes == 1
        assert mem.stats.bytes_read == 200
        assert mem.stats.bytes_written == 50
        assert mem.stats.busy_time > 0

    def test_describe_mentions_name(self):
        assert "memory" in MemoryDevice().describe()

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            MemoryDevice(capacity=0)


class TestMemoryDevice:
    def test_latency_plus_transfer(self):
        mem = MemoryDevice(latency=1e-6, bandwidth=1 * MB)
        assert mem.read(0, MB) == pytest.approx(1e-6 + 1.0)

    def test_write_same_cost_as_read(self):
        mem = MemoryDevice()
        assert mem.read(0, 4096) == pytest.approx(mem.write(0, 4096))

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            MemoryDevice(latency=-1)
        with pytest.raises(ValueError):
            MemoryDevice(bandwidth=0)


class TestDiskDevice:
    def test_sequential_cheaper_than_random(self):
        disk = DiskDevice(rng=_rng())
        disk.read(0, 64 * KB)
        sequential = disk.read(64 * KB, 64 * KB)
        random = disk.read(4 * GB, 64 * KB)
        assert sequential < random

    def test_seek_time_zero_for_same_address(self):
        disk = DiskDevice(rng=_rng())
        assert disk.seek_time(100, 100) == 0.0

    def test_seek_time_monotone_in_distance(self):
        disk = DiskDevice(rng=_rng())
        near = disk.seek_time(0, MB)
        far = disk.seek_time(0, 4 * GB)
        assert 0 < near < far <= disk.max_seek + 1e-9

    def test_outer_zone_faster(self):
        disk = DiskDevice(rng=_rng())
        assert disk.bandwidth_at(0) > disk.bandwidth_at(disk.capacity - 1)

    def test_zone_table_must_start_at_zero(self):
        with pytest.raises(ValueError):
            DiskDevice(zones=(Zone(0.1, 10 * MB),))

    def test_zone_fractions_must_increase(self):
        with pytest.raises(ValueError):
            DiskDevice(zones=(Zone(0.0, 10 * MB), Zone(0.0, 9 * MB)))

    @pytest.mark.parametrize("bandwidth", (0.0, -5e6))
    def test_zone_bandwidths_must_be_positive(self, bandwidth):
        with pytest.raises(ValueError):
            DiskDevice(zones=(Zone(0.0, bandwidth),))
        with pytest.raises(ValueError):
            DiskDevice(zones=(Zone(0.0, 10 * MB), Zone(0.5, bandwidth)))

    def test_controller_overhead_must_be_non_negative(self):
        with pytest.raises(ValueError):
            DiskDevice(controller_overhead=-0.01)

    def test_reset_state_forgets_position(self):
        disk = DiskDevice(rng=_rng())
        disk.read(GB, 4096)
        disk.reset_state()
        assert disk.head_pos == 0

    def test_nominal_latency_near_table2(self):
        disk = DiskDevice()
        assert 0.012 < disk.spec.latency < 0.025

    def test_seeks_counted_only_for_non_sequential(self):
        disk = DiskDevice(rng=_rng())
        disk.read(0, 4096)     # head parks at 0: sequential start
        disk.read(4096, 4096)  # sequential
        disk.read(GB, 4096)    # seek
        assert disk.stats.seeks == 1

    @given(st.integers(min_value=0, max_value=9 * GB - 1),
           st.integers(min_value=0, max_value=9 * GB - 1))
    def test_seek_time_symmetric_and_bounded(self, a, b):
        disk = DiskDevice(rng=_rng())
        t = disk.seek_time(a, b)
        assert t == disk.seek_time(b, a)
        assert 0 <= t <= disk.max_seek + 1e-12


class TestCdromDevice:
    def test_read_only(self):
        cd = CdromDevice(rng=_rng())
        with pytest.raises(ValueError):
            cd.write(0, 4096)

    def test_streaming_at_bandwidth(self):
        cd = CdromDevice(rng=_rng())
        cd.read(0, PAGE_SIZE)
        t = cd.read(PAGE_SIZE, MB)
        assert t == pytest.approx(MB / cd.spec.bandwidth)

    def test_random_access_pays_settle(self):
        cd = CdromDevice(rng=_rng())
        cd.read(0, PAGE_SIZE)
        t = cd.read(400 * MB, PAGE_SIZE)
        assert t > cd.base_settle

    def test_long_jump_pays_speed_change(self):
        cd = CdromDevice(rng=_rng())
        cd.read(0, PAGE_SIZE)
        short = cd.read(8 * MB, PAGE_SIZE)
        cd.reset_state()
        cd.read(0, PAGE_SIZE)
        long = cd.read(600 * MB, PAGE_SIZE)
        assert long > short

    def test_nominal_latency_near_table2(self):
        assert 0.10 < CdromDevice().spec.latency < 0.16


class TestNfsDevice:
    def test_sequential_skips_server_disk(self):
        nfs = NfsDevice(rng=_rng())
        nfs.read(0, 64 * KB)
        t = nfs.read(64 * KB, 64 * KB)
        expected = (nfs.rtt + nfs.request_overhead
                    + 64 * KB / nfs.link_bandwidth)
        assert t == pytest.approx(expected)

    def test_random_read_pays_server_penalty(self):
        nfs = NfsDevice(rng=_rng())
        nfs.read(0, 4096)
        t = nfs.read(GB, 4096)
        assert t > nfs.rtt + nfs.request_overhead + 4096 / nfs.link_bandwidth

    def test_bandwidth_capped_by_link(self):
        nfs = NfsDevice(rng=_rng())
        t = nfs.read(0, MB)
        assert MB / t <= nfs.link_bandwidth * 1.01

    def test_nominal_latency_near_table2(self):
        assert 0.2 < NfsDevice().spec.latency < 0.35

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            NfsDevice(rtt=-1)
        with pytest.raises(ValueError):
            NfsDevice(link_bandwidth=0)
