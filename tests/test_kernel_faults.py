"""Tests of fault accounting, readahead clustering, and cache behaviour
through the kernel read path."""

import pytest

from repro.machine import Machine
from repro.sim.units import PAGE_SIZE


def _machine(cache_pages=64):
    machine = Machine.unix_utilities(cache_pages=cache_pages, seed=9)
    machine.boot()
    return machine


class TestFaultAccounting:
    def test_cold_read_faults_then_warm_read_hits(self):
        machine = _machine(cache_pages=256)
        machine.ext2.create_text_file("f.txt", 64 * PAGE_SIZE, seed=1)
        k = machine.kernel
        with k.process() as cold:
            k.warm_file("/mnt/ext2/f.txt")
        with k.process() as warm:
            k.warm_file("/mnt/ext2/f.txt")
        assert cold.hard_faults > 0
        assert warm.hard_faults == 0

    def test_readahead_fetches_clusters(self):
        machine = _machine(cache_pages=256)
        machine.ext2.create_text_file("f.txt", 64 * PAGE_SIZE, seed=1)
        k = machine.kernel
        with k.process() as run:
            k.warm_file("/mnt/ext2/f.txt")
        # far fewer faulting pages than total pages, thanks to clustering
        assert run.hard_faults < 64
        assert run.counters.pages_read == 64
        assert run.counters.readahead_pages == 64 - run.hard_faults

    def test_random_access_defeats_readahead(self):
        machine = _machine(cache_pages=512)
        machine.ext2.create_text_file("f.txt", 256 * PAGE_SIZE, seed=1)
        k = machine.kernel
        fd = k.open("/mnt/ext2/f.txt")
        with k.process() as run:
            for page in range(0, 256, 32):  # stride defeats sequentiality
                k.lseek(fd, page * PAGE_SIZE)
                k.read(fd, 100)
        k.close(fd)
        assert run.hard_faults == 8

    def test_cluster_never_refetches_cached_pages(self):
        machine = _machine(cache_pages=256)
        machine.ext2.create_text_file("f.txt", 32 * PAGE_SIZE, seed=1)
        k = machine.kernel
        fd = k.open("/mnt/ext2/f.txt")
        # fault in page 8 first, alone
        k.lseek(fd, 8 * PAGE_SIZE)
        k.read(fd, 100)
        pages_before = k.counters.pages_read
        # now scan from 0; clusters must stop at already-cached page 8
        k.lseek(fd, 0)
        k.read(fd, 9 * PAGE_SIZE)
        k.close(fd)
        new_pages = k.counters.pages_read - pages_before
        assert new_pages <= 9

    def test_faults_capped_by_file_pages(self):
        machine = _machine(cache_pages=16)
        machine.ext2.create_text_file("f.txt", 32 * PAGE_SIZE, seed=1)
        k = machine.kernel
        with k.process() as run:
            k.warm_file("/mnt/ext2/f.txt")
        assert run.counters.pages_read == 32


class TestLruPathologyEndToEnd:
    def test_second_linear_pass_gains_nothing(self):
        """Figure 3 through the whole kernel: file 2x the cache."""
        machine = _machine(cache_pages=64)
        machine.ext2.create_text_file("f.txt", 128 * PAGE_SIZE, seed=1)
        k = machine.kernel
        with k.process() as first:
            k.warm_file("/mnt/ext2/f.txt")
        with k.process() as second:
            k.warm_file("/mnt/ext2/f.txt")
        assert second.counters.pages_read == first.counters.pages_read

    def test_small_file_fully_cached(self):
        machine = _machine(cache_pages=64)
        machine.ext2.create_text_file("f.txt", 32 * PAGE_SIZE, seed=1)
        k = machine.kernel
        k.warm_file("/mnt/ext2/f.txt")
        with k.process() as warm:
            k.warm_file("/mnt/ext2/f.txt")
        assert warm.counters.pages_read == 0
        assert warm.by_category.get("disk", 0.0) == 0.0


class TestNoise:
    def test_noise_perturbs_device_times(self):
        loud = Machine.unix_utilities(cache_pages=64, seed=9, noise=0.2)
        loud.boot()
        quiet = Machine.unix_utilities(cache_pages=64, seed=9, noise=0.0)
        quiet.boot()
        for machine in (loud, quiet):
            machine.ext2.create_text_file("f.txt", 64 * PAGE_SIZE, seed=1)
        times = {}
        for name, machine in (("loud", loud), ("quiet", quiet)):
            k = machine.kernel
            with k.process() as run:
                k.warm_file("/mnt/ext2/f.txt")
            times[name] = run.elapsed
        assert times["loud"] > times["quiet"]

    def test_negative_noise_rejected(self):
        from repro.kernel.kernel import Kernel
        from repro.sim.errors import InvalidArgumentError
        with pytest.raises(InvalidArgumentError):
            Kernel(noise=-0.1)

    def test_zero_noise_deterministic(self):
        runs = []
        for _ in range(2):
            machine = Machine.unix_utilities(cache_pages=64, seed=33)
            machine.boot()
            machine.ext2.create_text_file("f.txt", 64 * PAGE_SIZE, seed=1)
            k = machine.kernel
            with k.process() as run:
                k.warm_file("/mnt/ext2/f.txt")
            runs.append(run.elapsed)
        assert runs[0] == runs[1]
