"""Pre-wired simulated machines matching the paper's two testbeds.

A :class:`Machine` bundles a kernel with mounted filesystems and knows how
to "boot": run the lmbench-style device characterisation and install the
results in the kernel sleds table via ``FSLEDS_FILL`` — the equivalent of
the paper's ``/etc/rc.d/init.d`` script.

Profiles:

* :meth:`Machine.unix_utilities` — the Table 2 box: 64 MB RAM
  (175 ns / 48 MB/s), a 9 MB/s disk with 18 ms access, a 2.8 MB/s CD-ROM
  at 130 ms, and a 1.0 MB/s NFS mount at 270 ms.  Mounts: ``/mnt/ext2``,
  ``/mnt/cdrom``, ``/mnt/nfs``, with a small root filesystem at ``/``.
* :meth:`Machine.lheasoft` — the Table 3 box: 210 ns / 87 MB/s memory and
  a 7 MB/s disk at 16.5 ms.
* :meth:`Machine.hsm` — the future-work platform: an HSM mount whose files
  live in a tape library with a disk staging cache (extension experiments).

The ``cache_pages`` argument sets the file-cache capacity.  The paper's
64 MB machine kept roughly two thirds of RAM available for file pages
("roughly three times" 42 MB ≈ the 128 MB upper bound); benchmarks usually
pass a scaled-down cache and scale file sizes to match (see DESIGN.md §2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.devices.autochanger import Autochanger
from repro.devices.cdrom import CdromDevice
from repro.devices.disk import DiskDevice, Zone
from repro.devices.memory import MemoryDevice
from repro.devices.network import NfsDevice
from repro.devices.tape import TapeCartridge, TapeDevice
from repro.fs.filesystem import Ext2Like, FileSystem, Iso9660Like
from repro.fs.hsmfs import HsmFs
from repro.fs.nfs import NfsLike
from repro.kernel.kernel import Kernel
from repro.sim.rng import RngStreams
from repro.sim.units import GB, MB, MSEC, NSEC

#: pages in the paper's ~42 MB usable file cache (full-scale experiments)
FULL_SCALE_CACHE_PAGES = (42 * MB) // (4 * 1024)


@dataclass(frozen=True)
class MachineConfig:
    """Multi-tenant knobs.

    At the defaults (one shard, no limits, fair elevator off) the machine
    is bit-identical to the single-tenant seed — property-tested in
    ``tests/test_multitenant_identity.py``:

    * ``shards`` — page-cache shard count (1 = the unsharded seed
      structure);
    * ``tenant_limits`` — ``{tenant: TenantMemoryLimit}`` soft/hard
      working-set caps (None = unlimited);
    * ``fair_elevator`` — replace the default C-LOOK elevator with the
      budget-based fair scheduler (``"fair"``: per-tenant DRR byte
      budgets over a C-LOOK position policy).
    """

    shards: int = 1
    tenant_limits: dict | None = None
    fair_elevator: bool = False


#: the default knobs (one shard, no tenant limits, C-LOOK elevator)
DEFAULT_CONFIG = MachineConfig()


def _make_kernel(config: MachineConfig | None, memory: MemoryDevice,
                 rng: RngStreams, cache_pages: int, policy: str,
                 noise: float, readahead_min_pages: int,
                 readahead_max_pages: int) -> Kernel:
    """The kernel every profile builds: its memory, cache and readahead
    arguments plus ``config``'s multi-tenant knobs."""
    config = config or DEFAULT_CONFIG
    return Kernel(cache_pages=cache_pages, policy=policy,
                  memory=memory, rng=rng, noise=noise,
                  readahead_min_pages=readahead_min_pages,
                  readahead_max_pages=readahead_max_pages,
                  io_scheduler="fair" if config.fair_elevator else "clook",
                  cache_shards=config.shards,
                  tenant_limits=config.tenant_limits)


@dataclass
class Machine:
    """A kernel plus its mounted filesystems."""

    kernel: Kernel
    filesystems: dict[str, FileSystem] = field(default_factory=dict)
    booted: bool = False

    def mount(self, path: str, fs: FileSystem) -> None:
        self.kernel.mount(path, fs)
        self.filesystems[path] = fs

    def fs(self, path: str) -> FileSystem:
        return self.filesystems[path]

    def boot(self) -> dict[str, tuple[float, float]]:
        """Characterise every mounted level and fill the sleds table.

        Returns the installed ``{device_key: (latency, bandwidth)}`` map
        (the FSLEDS_FILL payload), so callers can print Table 2/3.
        """
        from repro.bench.lmbench import boot_fill
        entries = boot_fill(self.kernel)
        self.booted = True
        return entries

    # -- profile constructors -----------------------------------------------

    @classmethod
    def unix_utilities(cls, cache_pages: int = FULL_SCALE_CACHE_PAGES,
                       seed: int = 20000101, noise: float = 0.0,
                       policy: str = "lru",
                       readahead_min_pages: int = 4,
                       readahead_max_pages: int = 16,
                       config: MachineConfig | None = None) -> "Machine":
        """The paper's Unix-utility testbed (Table 2)."""
        rng = RngStreams(seed)
        kernel = _make_kernel(
            config, MemoryDevice(latency=175 * NSEC, bandwidth=48 * MB),
            rng, cache_pages=cache_pages, policy=policy, noise=noise,
            readahead_min_pages=readahead_min_pages,
            readahead_max_pages=readahead_max_pages)
        machine = cls(kernel=kernel)
        root = Ext2Like(
            DiskDevice(name="root-disk", capacity=2 * GB,
                       rng=rng.stream("root-disk")),
            name="rootfs")
        machine.mount("/", root)
        machine.mount("/mnt/ext2", Ext2Like(
            DiskDevice(name="ext2-disk", rng=rng.stream("ext2-disk")),
            name="ext2"))
        machine.mount("/mnt/cdrom", Iso9660Like(
            CdromDevice(name="cdrom-drive", rng=rng.stream("cdrom")),
            name="iso9660"))
        machine.mount("/mnt/nfs", NfsLike(
            NfsDevice(name="nfs-server", rng=rng.stream("nfs")),
            name="nfs"))
        return machine

    @classmethod
    def lheasoft(cls, cache_pages: int = FULL_SCALE_CACHE_PAGES,
                 seed: int = 20000102, noise: float = 0.0,
                 policy: str = "lru",
                 readahead_min_pages: int = 4,
                 readahead_max_pages: int = 16,
                 config: MachineConfig | None = None) -> "Machine":
        """The paper's LHEASOFT testbed (Table 3)."""
        rng = RngStreams(seed)
        kernel = _make_kernel(
            config, MemoryDevice(latency=210 * NSEC, bandwidth=87 * MB),
            rng, cache_pages=cache_pages, policy=policy, noise=noise,
            readahead_min_pages=readahead_min_pages,
            readahead_max_pages=readahead_max_pages)
        machine = cls(kernel=kernel)
        disk = DiskDevice(
            name="lhea-disk",
            min_seek=2.0 * MSEC, max_seek=19.0 * MSEC,
            zones=(Zone(0.00, 8.6 * MB), Zone(0.40, 7.0 * MB),
                   Zone(0.75, 5.2 * MB)),
            rng=rng.stream("lhea-disk"))
        root = Ext2Like(
            DiskDevice(name="root-disk", capacity=2 * GB,
                       rng=rng.stream("root-disk")),
            name="rootfs")
        machine.mount("/", root)
        machine.mount("/mnt/ext2", Ext2Like(disk, name="ext2"))
        return machine

    @classmethod
    def hsm(cls, cache_pages: int = FULL_SCALE_CACHE_PAGES,
            stage_pages: int = 8192, drives: int = 2, cartridges: int = 8,
            seed: int = 20000103, noise: float = 0.0,
            policy: str = "lru",
            readahead_min_pages: int = 4,
            readahead_max_pages: int = 16,
            config: MachineConfig | None = None) -> "Machine":
        """An HSM machine: tape library + disk staging cache + local disk."""
        rng = RngStreams(seed)
        kernel = _make_kernel(
            config, MemoryDevice(latency=175 * NSEC, bandwidth=48 * MB),
            rng, cache_pages=cache_pages, policy=policy, noise=noise,
            readahead_min_pages=readahead_min_pages,
            readahead_max_pages=readahead_max_pages)
        machine = cls(kernel=kernel)
        root = Ext2Like(
            DiskDevice(name="root-disk", capacity=2 * GB,
                       rng=rng.stream("root-disk")),
            name="rootfs")
        machine.mount("/", root)
        machine.mount("/mnt/ext2", Ext2Like(
            DiskDevice(name="ext2-disk", rng=rng.stream("ext2-disk")),
            name="ext2"))
        tape_drives = [
            TapeDevice(name=f"tape{i}", rng=rng.stream(f"tape{i}"))
            for i in range(drives)
        ]
        carts = [TapeCartridge(label=f"VOL{i:03d}") for i in range(cartridges)]
        changer = Autochanger(tape_drives, carts,
                              rng=rng.stream("autochanger"))
        hsm_fs = HsmFs(
            autochanger=changer,
            stage_device=DiskDevice(name="hsm-stage-disk",
                                    rng=rng.stream("hsm-stage")),
            stage_pages=stage_pages)
        machine.mount("/mnt/hsm", hsm_fs)
        return machine

    # -- convenient accessors ---------------------------------------------------

    @property
    def ext2(self) -> FileSystem:
        return self.filesystems["/mnt/ext2"]

    @property
    def cdrom(self) -> FileSystem:
        return self.filesystems["/mnt/cdrom"]

    @property
    def nfs(self) -> FileSystem:
        return self.filesystems["/mnt/nfs"]

    @property
    def hsmfs(self) -> HsmFs:
        fs = self.filesystems["/mnt/hsm"]
        assert isinstance(fs, HsmFs)
        return fs
