"""Hypothesis stateful model tests: the cache and the file syscalls are
compared against simple reference models under random operation
sequences."""

from collections import OrderedDict

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.cache.page_cache import PageCache
from repro.machine import Machine
from repro.sim.units import PAGE_SIZE

KEYS = [(1, page) for page in range(12)] + [(2, page) for page in range(6)]
CAPACITY = 6


class LruCacheModel(RuleBasedStateMachine):
    """PageCache(LRU) vs a reference OrderedDict LRU."""

    def __init__(self):
        super().__init__()
        self.cache = PageCache(CAPACITY, policy="lru")
        self.reference: OrderedDict = OrderedDict()
        self.pinned: set = set()

    @rule(key=st.sampled_from(KEYS))
    def access_or_insert(self, key):
        hit = self.cache.access(key)
        assert hit == (key in self.reference)
        if hit:
            self.reference.move_to_end(key)
        else:
            self.cache.insert(key)
            if (len(self.reference) >= CAPACITY
                    and key not in self.reference):
                # mirror _evict_one: pinned pages passed over get a fresh
                # lease (move to MRU); the first unpinned page is evicted
                for victim in list(self.reference):
                    if victim in self.pinned:
                        self.reference.move_to_end(victim)
                    else:
                        del self.reference[victim]
                        break
            self.reference[key] = None

    @rule(key=st.sampled_from(KEYS))
    def pin(self, key):
        took = self.cache.pin(key)
        if took:
            self.pinned.add(key)
        # pins only take on resident pages within budget
        assert not took or key in self.reference

    @rule(key=st.sampled_from(KEYS))
    def unpin(self, key):
        self.cache.unpin(key)
        self.pinned.discard(key)

    @rule(key=st.sampled_from(KEYS))
    def invalidate(self, key):
        dropped = self.cache.invalidate(key)
        assert dropped == (key in self.reference)
        self.reference.pop(key, None)
        self.pinned.discard(key)

    @rule(inode=st.sampled_from([1, 2]))
    def invalidate_inode(self, inode):
        count = self.cache.invalidate_inode(inode)
        victims = [k for k in self.reference if k[0] == inode]
        assert count == len(victims)
        for key in victims:
            del self.reference[key]
            self.pinned.discard(key)

    @invariant()
    def same_resident_set(self):
        assert len(self.cache) == len(self.reference)
        for key in self.reference:
            assert key in self.cache
        assert len(self.cache) <= CAPACITY

    @invariant()
    def pinned_pages_resident(self):
        for key in self.pinned:
            assert key in self.cache


TestLruCacheModel = LruCacheModel.TestCase
TestLruCacheModel.settings = settings(
    max_examples=40, stateful_step_count=60, deadline=None)


class FileSyscallModel(RuleBasedStateMachine):
    """Kernel file syscalls vs an in-memory bytearray reference."""

    @initialize()
    def setup(self):
        machine = Machine.unix_utilities(cache_pages=16, seed=1001)
        machine.boot()
        self.kernel = machine.kernel
        self.fd = self.kernel.open("/mnt/ext2/model.dat", "w")
        self.reference = bytearray()
        self.pos = 0

    @rule(data=st.binary(min_size=1, max_size=3 * PAGE_SIZE))
    def write(self, data):
        self.kernel.write(self.fd, data)
        end = self.pos + len(data)
        if end > len(self.reference):
            self.reference.extend(b"\0" * (end - len(self.reference)))
        self.reference[self.pos:end] = data
        self.pos = end

    @rule(offset=st.integers(0, 6 * PAGE_SIZE))
    def seek(self, offset):
        self.kernel.lseek(self.fd, offset)
        self.pos = min(offset, offset)
        self.pos = offset

    @rule(nbytes=st.integers(1, 2 * PAGE_SIZE))
    def read(self, nbytes):
        data = self.kernel.read(self.fd, nbytes)
        expected = bytes(self.reference[self.pos:self.pos + nbytes])
        assert data == expected
        self.pos += len(data)

    @rule(offset=st.integers(0, 6 * PAGE_SIZE),
          nbytes=st.integers(1, PAGE_SIZE))
    def pread(self, offset, nbytes):
        data = self.kernel.pread(self.fd, offset, nbytes)
        assert data == bytes(self.reference[offset:offset + nbytes])

    @rule()
    def fsync(self):
        self.kernel.fsync(self.fd)

    @rule()
    def reopen(self):
        """Close and reopen: size and contents must persist."""
        self.kernel.close(self.fd)
        self.fd = self.kernel.open("/mnt/ext2/model.dat", "r+")
        self.pos = 0

    @invariant()
    def size_matches(self):
        if hasattr(self, "kernel"):
            st_result = self.kernel.stat("/mnt/ext2/model.dat")
            assert st_result.size == len(self.reference)


TestFileSyscallModel = FileSyscallModel.TestCase
TestFileSyscallModel.settings = settings(
    max_examples=25, stateful_step_count=40, deadline=None)


class HsmStagingModel(RuleBasedStateMachine):
    """HSM staging invariants under random read/write/migrate sequences."""

    @initialize()
    def setup(self):
        import numpy as np
        from repro.devices.autochanger import Autochanger
        from repro.devices.disk import DiskDevice
        from repro.devices.tape import TapeCartridge, TapeDevice
        from repro.fs.hsmfs import HsmFs

        rng = np.random.default_rng(7)
        changer = Autochanger(
            [TapeDevice(name="t0", rng=rng)],
            [TapeCartridge("V0"), TapeCartridge("V1")], rng=rng)
        self.fs = HsmFs(changer, stage_device=DiskDevice(
            name="sd", rng=rng), stage_pages=8)
        self.inodes = []
        for i in range(3):
            inode = self.fs.create_tape_file(
                f"f{i}", 6 * PAGE_SIZE, "V0" if i % 2 == 0 else "V1")
            self.inodes.append(inode)

    @rule(file_index=st.integers(0, 2), start=st.integers(0, 5),
          npages=st.integers(1, 6))
    def read(self, file_index, start, npages):
        inode = self.inodes[file_index]
        npages = min(npages, 6 - start)
        if npages <= 0:
            return
        seconds = self.fs.read_pages(inode, start, npages)
        assert seconds >= 0
        for page in range(start, start + npages):
            # a just-read page is staged unless the stage immediately
            # evicted it under pressure from this very read
            pass

    @rule(file_index=st.integers(0, 2), start=st.integers(0, 5),
          npages=st.integers(1, 3))
    def write(self, file_index, start, npages):
        inode = self.inodes[file_index]
        npages = min(npages, 6 - start)
        if npages <= 0:
            return
        self.fs.write_pages(inode, start, npages)
        # written pages are always staged right afterwards (stage cap 8 >= 3)
        staged = sum(self.fs.is_staged(inode, p)
                     for p in range(start, start + npages))
        assert staged == npages

    @rule(file_index=st.integers(0, 2))
    def migrate(self, file_index):
        inode = self.inodes[file_index]
        self.fs.migrate_to_tape(inode)
        assert self.fs.staged_count(inode) == 0

    @invariant()
    def stage_capacity_respected(self):
        if hasattr(self, "fs"):
            total = sum(self.fs.staged_count(i) for i in self.inodes)
            assert total <= self.fs.stage_pages

    @invariant()
    def estimates_always_valid(self):
        if not hasattr(self, "fs"):
            return
        for inode in self.inodes:
            for page in range(6):
                estimate = self.fs.page_estimate(inode, page)
                if estimate.device_key == "hsm-disk":
                    assert self.fs.is_staged(inode, page)
                else:
                    assert not self.fs.is_staged(inode, page)
                    assert estimate.latency is not None
                    assert estimate.latency >= 0


TestHsmStagingModel = HsmStagingModel.TestCase
TestHsmStagingModel.settings = settings(
    max_examples=25, stateful_step_count=40, deadline=None)
