"""Property tests: the incremental, stamp-cached FSLEDS_GET path is
bit-identical to the paper's literal full-page walk.

For ext2- (flat and zone-aware), NFS- (with server SLEDs and a server
cache, and without), CD-ROM- and HSM-backed files, a randomized
interleaving of reads, writes, drops, migrations, and repeated
``get_sleds`` calls must never produce a vector
that differs from the full walk (``tests/oracles/builder.py``)
recomputed from scratch at the same instant — whether the kernel answered from its
generation-stamped cache or rebuilt via ``span_estimates``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices.autochanger import Autochanger
from repro.devices.cdrom import CdromDevice
from repro.devices.disk import DiskDevice, Zone
from repro.devices.network import NfsDevice
from repro.devices.tape import TapeCartridge, TapeDevice
from repro.fs.filesystem import Ext2Like, Iso9660Like
from repro.fs.hsmfs import HsmFs
from repro.fs.nfs import NfsLike
from repro.kernel.ioctl import FSLEDS_FILL
from repro.kernel.kernel import Kernel
from repro.sim.rng import RngStreams
from repro.sim.units import KB, MB, PAGE_SIZE

import numpy as np

from tests.oracles.builder import build_sled_vector_full_walk

FILE_PAGES = 24
FILE_SIZE = FILE_PAGES * PAGE_SIZE - 700  # last page partial


def _fill_table(kernel, fs) -> None:
    """Hand-rolled FSLEDS_FILL: one distinct row per device key so every
    level boundary is visible in the vector."""
    entries = {"memory": (1e-7, 48 * MB)}
    for i, key in enumerate(sorted(fs.device_table())):
        entries[key] = (0.004 * (i + 1), (9 - i) * MB)
    entries.update(fs.static_levels())
    kernel.ioctl(-1, FSLEDS_FILL, entries)


def _ext2_world(zone_aware: bool):
    rng = RngStreams(7)
    kernel = Kernel(cache_pages=10, rng=rng)
    zones = (Zone(0.0, 8.6 * MB), Zone(0.3, 7.0 * MB), Zone(0.7, 5.2 * MB))
    disk = DiskDevice(name="d", zones=zones, rng=np.random.default_rng(3))
    # gap_pages forces multi-extent layouts so extents_in() is exercised
    fs = Ext2Like(disk, name="ext2", zone_aware=zone_aware,
                  max_extent_pages=7, gap_pages=3)
    kernel.mount("/", fs)
    fs.create_file("f", FILE_SIZE)
    _fill_table(kernel, fs)
    return kernel, fs, "/f"


def _nfs_world(server_sleds: bool):
    rng = RngStreams(11)
    kernel = Kernel(cache_pages=10, rng=rng)
    device = NfsDevice(name="nfs", server_cache_bytes=512 * KB,
                       rng=np.random.default_rng(5))
    fs = NfsLike(device, name="nfs", server_sleds=server_sleds)
    kernel.mount("/", fs)
    fs.create_file("f", FILE_SIZE)
    _fill_table(kernel, fs)
    return kernel, fs, "/f"


def _cdrom_world():
    rng = RngStreams(17)
    kernel = Kernel(cache_pages=10, rng=rng)
    fs = Iso9660Like(CdromDevice(name="cd", rng=np.random.default_rng(6)),
                     name="iso9660")
    kernel.mount("/", fs)
    fs.create_file("f", FILE_SIZE)
    _fill_table(kernel, fs)
    return kernel, fs, "/f"


def _hsm_world():
    rng = RngStreams(13)
    kernel = Kernel(cache_pages=10, rng=rng)
    drives = [TapeDevice(name=f"t{i}", rng=np.random.default_rng(20 + i))
              for i in range(2)]
    carts = [TapeCartridge(label=f"V{i}") for i in range(3)]
    changer = Autochanger(drives, carts, rng=np.random.default_rng(9))
    fs = HsmFs(changer, stage_device=DiskDevice(name="stage"),
               stage_pages=12)
    kernel.mount("/", fs)
    fs.create_tape_file("f", FILE_SIZE, "V1")
    _fill_table(kernel, fs)
    return kernel, fs, "/f"


_WORLDS = {
    "ext2": lambda: _ext2_world(False),
    "ext2-zones": lambda: _ext2_world(True),
    "nfs": lambda: _nfs_world(True),
    "nfs-plain": lambda: _nfs_world(False),
    "cdrom": _cdrom_world,
    "hsm": _hsm_world,
}

# (op, page-granular offset slot, length slot); interpretation per op
_ops = st.lists(
    st.tuples(st.sampled_from(["read", "write", "drop_page",
                               "invalidate_inode", "get", "migrate"]),
              st.integers(0, FILE_PAGES - 1),
              st.integers(1, 6)),
    min_size=1, max_size=14)


def _check(kernel, fs, fd) -> None:
    of = kernel._fd(fd)
    got = kernel.get_sleds(fd)
    expected = build_sled_vector_full_walk(
        kernel.page_cache, fs, of.inode, kernel.sleds_table)
    assert got == expected
    assert got.file_size == expected.file_size


class TestIncrementalMatchesFullWalk:
    @given(st.sampled_from(sorted(_WORLDS)), _ops)
    @settings(deadline=None)
    def test_randomized_interleavings(self, world, ops):
        kernel, fs, path = _WORLDS[world]()
        fd = kernel.open(path, "r" if fs.read_only else "r+")
        inode = kernel._fd(fd).inode
        for op, slot, span in ops:
            if op == "read":
                kernel.pread(fd, slot * PAGE_SIZE, span * PAGE_SIZE)
            elif op == "write" and not fs.read_only:
                # stay within the file for HSM (tape homes are sized at
                # placement); let local/NFS files grow past the end
                end = (slot + span) * PAGE_SIZE
                if isinstance(fs, HsmFs):
                    end = min(end, inode.size)
                nbytes = end - slot * PAGE_SIZE
                if nbytes > 0:
                    kernel.pwrite(fd, slot * PAGE_SIZE, b"x" * nbytes)
            elif op == "drop_page":
                kernel.page_cache.invalidate((inode.id, slot))
            elif op == "invalidate_inode":
                kernel.page_cache.invalidate_inode(inode.id)
            elif op == "migrate" and isinstance(fs, HsmFs):
                kernel.sync()  # dirty pages must not outlive the stage
                fs.migrate_to_tape(inode)
            elif op == "get":
                kernel.get_sleds(fd)  # may be served from the stamp cache
            _check(kernel, fs, fd)
        # back-to-back fetches with no interleaving op: the second comes
        # from the stamp cache and must still match a from-scratch walk
        before = kernel.counters.sleds_cache_hits
        _check(kernel, fs, fd)
        _check(kernel, fs, fd)
        assert kernel.counters.sleds_cache_hits > before
