"""Filesystem types: the VFS-facing interface plus local implementations.

A :class:`FileSystem` owns a namespace (directory tree of inodes), a device,
and a layout policy.  The kernel talks to it through a narrow interface:

* ``resolve`` / ``create_file`` / ``mkdir`` — namespace operations;
* ``read_pages`` / ``write_pages`` — move pages to/from the device,
  returning virtual seconds (contiguous extents are batched into single
  device accesses, so streaming runs at device bandwidth);
* ``page_estimate`` — the SLED builder's question: which *storage level*
  holds this page right now, and (for levels with dynamic state such as
  tape) what is the current latency estimate.

Workload-construction helpers (``create_file`` and friends) are not
simulated syscalls; they build the experimental world.  The ``read_only``
flag gates the *kernel* write path only, which is how an ISO9660 CD-ROM
refuses writes while still being populate-able when mastering the disc.
"""

from __future__ import annotations

from abc import ABC
from dataclasses import dataclass

from repro.devices.base import Device
from repro.devices.cdrom import CdromDevice
from repro.devices.disk import DiskDevice
from repro.fs.content import FileContent, SyntheticText, ZeroContent
from repro.fs.inode import (
    Allocator,
    Extent,
    Inode,
    InodeKind,
    make_directory,
    make_file,
)
from repro.sim.errors import (
    FileExistsSimError,
    FileNotFoundSimError,
    InvalidArgumentError,
    NotADirectorySimError,
)
from repro.sim.units import PAGE_SIZE


def split_path(path: str) -> list[str]:
    """Split a slash path into components, ignoring empties."""
    return [part for part in path.split("/") if part]


@dataclass(frozen=True)
class PageEstimate:
    """Where one page lives and how fast it can be delivered.

    ``device_key`` names a row of the kernel sleds table (e.g. ``"disk"``).
    ``latency``/``bandwidth`` are optional *dynamic* overrides; when None,
    the kernel uses the boot-time characterisation from the sleds table —
    exactly the paper's implementation, which "keeps only a single entry
    per device".  Filesystems with large dynamic state (HSM tape) override.
    The kernel adds the live per-device queue delay when an I/O engine is
    attached (see :func:`repro.core.builder.build_sled_vector`).
    """

    device_key: str
    latency: float | None = None
    bandwidth: float | None = None


class FileSystem(ABC):
    """Base class: directory tree + device-backed page I/O."""

    def __init__(self, name: str, device: Device,
                 read_only: bool = False) -> None:
        self.name = name
        self.device = device
        self.read_only = read_only
        self.root = make_directory()
        #: local contribution to :attr:`state_epoch`; bump via bump_epoch()
        self._epoch = 0
        #: the estimate of a page on the backing level, built once: an
        #: estimate is immutable, so every answer shares it
        self._device_estimate = PageEstimate(device_key=self.device_key())

    # -- state epoch -------------------------------------------------------

    @property
    def state_epoch(self) -> int:
        """Monotonic counter over every state change that can alter a
        ``page_estimate`` / ``span_estimates`` answer: layout growth,
        truncation, mounting, HSM staging/migration, server-cache churn.
        The kernel stamps cached SLED vectors with this (plus the page
        cache generation) and rebuilds only on mismatch."""
        return self._epoch + self._extra_epoch()

    def bump_epoch(self) -> None:
        """Record a state change that may alter delivery estimates."""
        self._epoch += 1

    def _extra_epoch(self) -> int:
        """Epoch contribution from external state (server caches, tape
        robotics); subclasses with such state override."""
        return 0

    # -- namespace -------------------------------------------------------

    def resolve(self, parts: list[str]) -> Inode:
        """Walk ``parts`` from the root; raises on missing components."""
        node = self.root
        for i, part in enumerate(parts):
            if not node.is_dir:
                raise NotADirectorySimError(
                    "/".join(parts[:i]) or "<root>")
            child = node.entries.get(part)
            if child is None:
                raise FileNotFoundSimError("/".join(parts[: i + 1]))
            node = child
        return node

    def _resolve_parent(self, parts: list[str],
                        create_dirs: bool) -> tuple[Inode, str]:
        if not parts:
            raise InvalidArgumentError("empty path")
        node = self.root
        for i, part in enumerate(parts[:-1]):
            if not node.is_dir:
                raise NotADirectorySimError("/".join(parts[: i + 1]))
            child = node.entries.get(part)
            if child is None:
                if not create_dirs:
                    raise FileNotFoundSimError("/".join(parts[: i + 1]))
                child = make_directory()
                node.entries[part] = child
            node = child
        if not node.is_dir:
            raise NotADirectorySimError("/".join(parts[:-1]))
        return node, parts[-1]

    def create_file(self, path: str | list[str], size: int,
                    content: FileContent | None = None,
                    create_dirs: bool = True) -> Inode:
        """Create (and lay out) a regular file; world-building API."""
        parts = split_path(path) if isinstance(path, str) else list(path)
        parent, name = self._resolve_parent(parts, create_dirs)
        if name in parent.entries:
            raise FileExistsSimError("/".join(parts))
        inode = make_file(size, content or ZeroContent(), self._allocator())
        parent.entries[name] = inode
        return inode

    def create_text_file(self, path: str, size: int, seed: int = 0,
                         plants: dict[int, bytes] | None = None) -> Inode:
        """Convenience: create a file of deterministic pseudo-text."""
        return self.create_file(
            path, size, SyntheticText(seed=seed, size=size, plants=plants))

    def mkdir(self, path: str | list[str]) -> Inode:
        parts = split_path(path) if isinstance(path, str) else list(path)
        parent, name = self._resolve_parent(parts, create_dirs=True)
        existing = parent.entries.get(name)
        if existing is not None:
            if existing.is_dir:
                return existing
            raise FileExistsSimError("/".join(parts))
        child = make_directory()
        parent.entries[name] = child
        return child

    # -- layout / I/O -------------------------------------------------------

    def _allocator(self) -> Allocator:
        """The allocator used for new files; subclasses share one."""
        raise NotImplementedError

    def grow_file(self, inode: Inode, new_size: int) -> None:
        """Extend a file's layout (used by the kernel append path)."""
        if new_size < inode.size:
            raise InvalidArgumentError(
                f"grow_file cannot shrink: {inode.size} -> {new_size}")
        extra_pages = ((new_size + PAGE_SIZE - 1) // PAGE_SIZE) - inode.npages
        if extra_pages > 0:
            page = inode.extent_map.npages
            for device_addr, npages in self._allocator().allocate(extra_pages):
                inode.extent_map.append(Extent(page, npages, device_addr))
                page += npages
        if new_size != inode.size:
            # even a sub-page growth changes the final SLED's length
            self.bump_epoch()
        inode.size = new_size

    def truncate_file(self, inode: Inode) -> None:
        """Cut a file to zero length, handing its extents back to the
        allocator (used by the kernel's ``open(..., "w")``)."""
        allocator = self._allocator()
        for extent in inode.extent_map.extents:
            allocator.free(extent.device_addr, extent.npages)
        inode.extent_map.extents.clear()
        inode.size = 0
        self.bump_epoch()  # the file's extent coverage changed

    def page_estimate(self, inode: Inode, page_index: int) -> PageEstimate:
        """Storage level of one non-resident page.  Default: the device."""
        return self._device_estimate

    def span_estimates(self, inode: Inode, start_page: int,
                       npages: int) -> list[tuple[int, PageEstimate]]:
        """Batched ``page_estimate``: ``[(run_pages, estimate), ...]``
        covering ``[start_page, start_page + npages)`` in order.

        Contract: runs are non-empty, their lengths sum to ``npages``, and
        every page inside a run has exactly the estimate the per-page
        :meth:`page_estimate` would report — the SLED builder relies on
        this to stay bit-identical with a full page walk.  Runs need not
        be maximal (the builder coalesces), so implementations are free to
        split at extent, zone, or server-block boundaries.

        The default walks page by page (correct for any third-party
        filesystem that only overrides ``page_estimate``) but costs
        O(npages); filesystems that know their layout override this to
        answer in O(runs) — see Ext2Like, NfsLike, and HsmFs.
        """
        runs: list[tuple[int, PageEstimate]] = []
        for idx in range(start_page, start_page + npages):
            estimate = self.page_estimate(inode, idx)
            if runs and runs[-1][1] == estimate:
                runs[-1] = (runs[-1][0] + 1, estimate)
            else:
                runs.append((1, estimate))
        return runs

    def device_key(self) -> str:
        """Sleds-table key for this filesystem's backing level (read once,
        when the filesystem is built, for its shared estimate)."""
        return self.name

    def device_table(self) -> dict[str, Device]:
        """Every characterisable level, keyed as ``page_estimate`` reports."""
        return {self.device_key(): self.device}

    def observable_devices(self) -> list[Device]:
        """Every device telemetry should observe (no dedup; callers do).

        The default is the backing device; filesystems that route I/O
        through additional hardware (HSM tape drives) extend this.
        """
        return [self.device]

    def characterization_jobs(self) -> dict[str, tuple[Device, int, int]]:
        """How the boot-time lmbench run should probe each level:
        ``{key: (device, probe_start, probe_end)}``.  The default probes
        the whole device; zone-aware filesystems narrow the range."""
        return {key: (device, 0, device.capacity)
                for key, device in self.device_table().items()}

    def static_levels(self) -> dict[str, tuple[float, float]]:
        """Levels whose (latency, bandwidth) are declared rather than
        probed — e.g. a remote server's cache, which the boot-time
        lmbench run cannot exercise deliberately."""
        return {}

    def read_pages(self, inode: Inode, start_page: int, npages: int) -> float:
        """Fetch pages from the device; returns virtual seconds.

        Device-contiguous runs become single accesses, so sequential scans
        stream at bandwidth while scattered fetches pay per-run latency.
        """
        if npages <= 0:
            return 0.0
        seconds = 0.0
        for addr, run in inode.extent_map.device_runs(start_page, npages):
            seconds += self.device.read(addr, run * PAGE_SIZE)
        return seconds

    def read_pages_merged(self, inode: Inode, start_page: int,
                          npages: int) -> float:
        """Fetch pages as *one* block-layer-merged device request.

        Same page walk as :meth:`read_pages`, but the extent runs are
        collected into a scatter list and submitted through
        :meth:`~repro.devices.base.Device.submit_spans`, so per-request
        device overheads are paid once for the whole union.  A single-run
        union is bit-identical to :meth:`read_pages`.  Only meaningful for
        filesystems whose read path is this class's plain ``read_pages``
        — the block layer never multi-merges stateful read paths (HSM
        staging).
        """
        if npages <= 0:
            return 0.0
        return self.device.read_spans(
            [(addr, run * PAGE_SIZE) for addr, run
             in inode.extent_map.device_runs(start_page, npages)])

    def write_pages(self, inode: Inode, start_page: int, npages: int) -> float:
        """Write pages back to the device; returns virtual seconds."""
        if npages <= 0:
            return 0.0
        seconds = 0.0
        for addr, run in inode.extent_map.device_runs(start_page, npages):
            seconds += self.device.write(addr, run * PAGE_SIZE)
        return seconds

    def stat_cost(self) -> float:
        """Virtual seconds charged per metadata operation (stat/lookup)."""
        return 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name!r} on {self.device.name!r}>"


class Ext2Like(FileSystem):
    """A local writable filesystem on a hard disk (the paper's ext2).

    ``zone_aware=True`` implements the paper's §4.1 future version:
    "entries which account for the different bandwidths of different disk
    zones will be added" [Van97] — each zone becomes its own sleds-table
    level (``ext2:z0``, ``ext2:z1``, ...), characterised separately at
    boot, so delivery estimates reflect where on the platter a file sits.
    """

    def __init__(self, device: DiskDevice | None = None, name: str = "ext2",
                 max_extent_pages: int = 1 << 20,
                 gap_pages: int = 0, zone_aware: bool = False) -> None:
        device = device or DiskDevice(name=f"{name}-disk")
        super().__init__(name=name, device=device, read_only=False)
        self.zone_aware = zone_aware
        self._zone_estimates = tuple(
            PageEstimate(device_key=f"{name}:z{i}")
            for i in range(len(device.zones) if zone_aware else 0))
        self._alloc = Allocator(capacity=device.capacity,
                                max_extent_pages=max_extent_pages,
                                gap_pages=gap_pages)

    def _allocator(self) -> Allocator:
        return self._alloc

    def _disk(self) -> DiskDevice:
        assert isinstance(self.device, DiskDevice)
        return self.device

    def page_estimate(self, inode: Inode, page_index: int) -> PageEstimate:
        if not self.zone_aware:
            return super().page_estimate(inode, page_index)
        addr = inode.extent_map.addr_of(page_index)
        return self._zone_estimates[self._disk().zone_index(addr)]

    def span_estimates(self, inode: Inode, start_page: int,
                       npages: int) -> list[tuple[int, PageEstimate]]:
        """O(extents + zone crossings): one run per whole span (flat), or
        one run per zone stretch of each extent (zone-aware)."""
        if npages <= 0:
            return []
        if not self.zone_aware:
            return [(npages, self._device_estimate)]
        disk = self._disk()
        runs: list[tuple[int, PageEstimate]] = []
        for _, piece_pages, addr in inode.extent_map.extents_in(
                start_page, npages):
            done = 0
            while done < piece_pages:
                cur = addr + done * PAGE_SIZE
                zone = disk.zone_index(cur)
                _, zone_end = disk.zone_range(zone)
                # pages whose *start* address is still inside this zone
                take = min(piece_pages - done,
                           (zone_end - cur + PAGE_SIZE - 1) // PAGE_SIZE)
                estimate = self._zone_estimates[zone]
                if runs and runs[-1][1] == estimate:
                    runs[-1] = (runs[-1][0] + take, estimate)
                else:
                    runs.append((take, estimate))
                done += take
        return runs

    def device_table(self) -> dict[str, Device]:
        if not self.zone_aware:
            return super().device_table()
        return {estimate.device_key: self.device
                for estimate in self._zone_estimates}

    def characterization_jobs(self) -> dict[str, tuple[Device, int, int]]:
        if not self.zone_aware:
            return super().characterization_jobs()
        disk = self._disk()
        return {estimate.device_key: (disk, *disk.zone_range(i))
                for i, estimate in enumerate(self._zone_estimates)}


class Iso9660Like(FileSystem):
    """A CD-ROM filesystem: contiguous layout, kernel-read-only."""

    def __init__(self, device: CdromDevice | None = None,
                 name: str = "iso9660") -> None:
        device = device or CdromDevice(name=f"{name}-drive")
        super().__init__(name=name, device=device, read_only=True)
        self._alloc = Allocator(capacity=device.capacity)

    def _allocator(self) -> Allocator:
        return self._alloc

    def span_estimates(self, inode: Inode, start_page: int,
                       npages: int) -> list[tuple[int, PageEstimate]]:
        """One run: every page of the disc is on the drive's one level."""
        return [(npages, self._device_estimate)] if npages > 0 else []
