"""Microbenchmarks of the core SLEDs machinery itself.

These are the throughput numbers a library adopter cares about: how fast
is FSLEDS_GET on a fragmented file, how much CPU does the pick loop add,
how expensive is record adjustment.
"""

import numpy as np

from repro.cache.page_cache import PageCache
from repro.core.builder import build_sled_vector
from repro.core.pick import (
    sleds_pick_finish,
    sleds_pick_init,
    sleds_pick_next_read,
)
from repro.core.records import adjust_to_records
from repro.core.sled_table import SledTable
from repro.devices.disk import DiskDevice
from repro.fs.filesystem import Ext2Like
from repro.machine import Machine
from repro.sim.units import MB, PAGE_SIZE


def _fragmented_setup(file_pages=2048, stride=3):
    fs = Ext2Like(DiskDevice(rng=np.random.default_rng(1)))
    inode = fs.create_file("f", file_pages * PAGE_SIZE)
    cache = PageCache(file_pages)
    for page in range(0, file_pages, stride):
        cache.insert((inode.id, page))
    table = SledTable()
    table.fill({"memory": (1e-7, 48 * MB), "ext2": (0.018, 9 * MB)})
    return fs, inode, cache, table


def test_build_sled_vector_fragmented(benchmark):
    """FSLEDS_GET on a worst-case fragmented 8 MB file (every 3rd page
    cached -> ~1365 SLEDs)."""
    fs, inode, cache, table = _fragmented_setup()
    vector, _ = benchmark(build_sled_vector, cache, fs, inode, table)
    assert len(vector) > 1000


def test_build_sled_vector_uniform(benchmark):
    """FSLEDS_GET on a fully cold 8 MB file (1 SLED)."""
    fs = Ext2Like(DiskDevice(rng=np.random.default_rng(1)))
    inode = fs.create_file("f", 2048 * PAGE_SIZE)
    cache = PageCache(64)
    table = SledTable()
    table.fill({"memory": (1e-7, 48 * MB), "ext2": (0.018, 9 * MB)})
    vector, _ = benchmark(build_sled_vector, cache, fs, inode, table)
    assert len(vector) == 1


def test_pick_session_throughput(benchmark):
    """Full pick loop over a warm 4 MB file, 64 KB chunks."""
    machine = Machine.unix_utilities(cache_pages=512, seed=1)
    machine.boot()
    machine.ext2.create_text_file("f", 4 * MB, seed=1)
    k = machine.kernel
    k.warm_file("/mnt/ext2/f")

    def pick_all():
        fd = k.open("/mnt/ext2/f")
        sleds_pick_init(k, fd, 64 * 1024)
        count = 0
        while sleds_pick_next_read(k, fd) is not None:
            count += 1
        sleds_pick_finish(k, fd)
        k.close(fd)
        return count

    count = benchmark(pick_all)
    assert count == 64


def test_record_adjustment_cost(benchmark):
    """Record-boundary adjustment on an interleaved-residency text file."""
    machine = Machine.unix_utilities(cache_pages=1024, seed=2)
    machine.boot()
    machine.ext2.create_text_file("f", 2 * MB, seed=2)
    k = machine.kernel
    inode = machine.ext2.resolve(["f"])
    for page in range(0, inode.npages, 7):
        k.page_cache.insert((inode.id, page))
    fd = k.open("/mnt/ext2/f")
    vector = k.get_sleds(fd)

    adjusted = benchmark(adjust_to_records, k, fd, vector)
    assert adjusted.file_size == 2 * MB


def test_page_cache_access_throughput(benchmark):
    """Hot-path cache access/insert mix."""
    cache = PageCache(4096)
    keys = [(1, i % 8192) for i in range(20_000)]

    def churn():
        hits = 0
        for key in keys:
            if cache.access(key):
                hits += 1
            else:
                cache.insert(key)
        return hits

    hits = benchmark(churn)
    assert hits > 0


def test_kernel_read_path_throughput(benchmark):
    """End-to-end syscall read path, warm cache, 64 KB reads of 4 MB."""
    machine = Machine.unix_utilities(cache_pages=2048, seed=3)
    machine.boot()
    machine.ext2.create_text_file("f", 4 * MB, seed=3)
    k = machine.kernel
    k.warm_file("/mnt/ext2/f")

    def scan():
        fd = k.open("/mnt/ext2/f")
        total = 0
        while True:
            blob = k.read(fd, 64 * 1024)
            if not blob:
                break
            total += len(blob)
        k.close(fd)
        return total

    total = benchmark(scan)
    assert total == 4 * MB


def test_regex_engine_throughput(benchmark):
    """Microbenchmark: NFA matching over a batch of lines."""
    from repro.apps.regex import compile_regex

    compiled = compile_regex(b"err(or)?-[0-9]+")
    lines = [b"a perfectly ordinary log line with nothing in it " * 2,
             b"warning: error-4091 detected in sector 7",
             b"err-17 transient",
             b"x" * 120] * 64

    def scan():
        return sum(1 for line in lines if compiled.matches(line))

    hits = benchmark(scan)
    assert hits == 128


def test_fsck_full_machine(benchmark):
    """Microbenchmark: consistency check of a populated filesystem."""
    from repro.fs.check import check_filesystem
    machine = Machine.unix_utilities(cache_pages=128, seed=5)
    machine.boot()
    for i in range(50):
        machine.ext2.create_text_file(f"tree/d{i % 7}/f{i}.txt",
                                      (1 + i % 5) * PAGE_SIZE, seed=i)

    problems = benchmark(check_filesystem, machine.ext2)
    assert problems == []


def test_fileset_reestimation(benchmark):
    """Microbenchmark: latency-ordering a 20-file set with re-estimation."""
    from repro.apps.filesets import iterate_by_latency
    machine = Machine.unix_utilities(cache_pages=256, seed=6)
    machine.boot()
    paths = []
    for i in range(20):
        machine.ext2.create_text_file(f"set/f{i}.txt", 4 * PAGE_SIZE,
                                      seed=i)
        paths.append(f"/mnt/ext2/set/f{i}.txt")
    machine.kernel.warm_file(paths[13])

    def order():
        return list(iterate_by_latency(machine.kernel, paths))

    ordered = benchmark(order)
    assert ordered[0] == paths[13]
