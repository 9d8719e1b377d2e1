"""Hierarchical storage management filesystem.

Files live on tape cartridges in an :class:`~repro.devices.autochanger.Autochanger`;
recently used pages are *staged* onto a disk cache, analogous to the way a
conventional filesystem caches disk pages in RAM (the paper's Figure 3
explicitly notes the two-pass pathology "is similar whether the two levels
are memory and disk ... or disk and tape").  This is the platform for the
paper's claim that SLEDs gains "may be much greater with HSM systems"
(reproduced as extension experiment Ext. A).

Dynamic state exposed through ``page_estimate``:

* staged page → the ``hsm-disk`` level (static table entry);
* unstaged page on a *mounted* cartridge → a locate-time estimate from the
  drive's current position;
* unstaged page on a shelved cartridge → exchange + load + locate estimate.

The disk stage is a fixed number of pages managed LRU across all HSM files.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.devices.autochanger import Autochanger
from repro.devices.disk import DiskDevice
from repro.fs.filesystem import FileSystem, PageEstimate
from repro.fs.inode import Allocator, Inode
from repro.sim.errors import InvalidArgumentError, NoSpaceError
from repro.sim.units import PAGE_SIZE, bytes_to_pages


@dataclass
class HsmFileState:
    """Tape placement of one HSM file."""

    cartridge_label: str
    tape_addr: int


class HsmFs(FileSystem):
    """Tape-resident files with an LRU disk staging cache."""

    def __init__(self, autochanger: Autochanger,
                 stage_device: DiskDevice | None = None,
                 stage_pages: int = 4096,
                 name: str = "hsm") -> None:
        stage_device = stage_device or DiskDevice(name=f"{name}-stage-disk")
        super().__init__(name=name, device=stage_device, read_only=False)
        if stage_pages <= 0:
            raise InvalidArgumentError(
                f"stage capacity must be positive: {stage_pages}")
        self.autochanger = autochanger
        self.stage_pages = stage_pages
        self._alloc = Allocator(capacity=stage_device.capacity)
        self._tape_cursor: dict[str, int] = {
            label: 0 for label in autochanger.shelf}
        self._state: dict[int, HsmFileState] = {}
        #: LRU of staged (inode_id, page) -> inode  (most recent last)
        self._staged: OrderedDict[tuple[int, int], Inode] = OrderedDict()
        #: per-inode staging index mirroring ``_staged`` membership, so
        #: staged_count / evict_staged / span_estimates run in
        #: O(staged-in-inode) instead of O(total staged)
        self._staged_by_inode: dict[int, set[int]] = {}

    def _extra_epoch(self) -> int:
        # drive motion / robot activity changes tape locate estimates
        return self.autochanger.state_version

    # -- placement ---------------------------------------------------------

    def _allocator(self) -> Allocator:
        # Disk extents double as the staging addresses for each file.
        return self._alloc

    def place_on_tape(self, inode: Inode, cartridge_label: str) -> None:
        """Assign a tape home for ``inode`` (called after create_file)."""
        cart = self.autochanger.cartridge(cartridge_label)
        cursor = self._tape_cursor[cartridge_label]
        nbytes = bytes_to_pages(inode.size) * PAGE_SIZE
        if cursor + nbytes > cart.capacity:
            raise NoSpaceError(
                f"cartridge {cartridge_label!r} full "
                f"({cursor} + {nbytes} > {cart.capacity})")
        self._state[inode.id] = HsmFileState(cartridge_label, cursor)
        self._tape_cursor[cartridge_label] = cursor + nbytes
        self.bump_epoch()  # unstaged pages of this file became estimable

    def create_tape_file(self, path: str, size: int, cartridge_label: str,
                         content=None) -> Inode:
        """Create a file whose authoritative copy is on ``cartridge_label``."""
        inode = self.create_file(path, size, content)
        self.place_on_tape(inode, cartridge_label)
        return inode

    def state_of(self, inode: Inode) -> HsmFileState:
        try:
            return self._state[inode.id]
        except KeyError:
            raise InvalidArgumentError(
                f"inode #{inode.id} has no tape placement; "
                f"call place_on_tape first") from None

    # -- staging ------------------------------------------------------------

    def is_staged(self, inode: Inode, page_index: int) -> bool:
        return (inode.id, page_index) in self._staged

    def staged_count(self, inode: Inode) -> int:
        return len(self._staged_by_inode.get(inode.id, ()))

    def staged_set(self, inode_id: int) -> set[int] | frozenset[int]:
        """Staged page indices of one inode — read-only view, O(1)."""
        return self._staged_by_inode.get(inode_id, frozenset())

    def _touch_staged(self, inode: Inode, page_index: int) -> None:
        key = (inode.id, page_index)
        if key in self._staged:
            self._staged.move_to_end(key)

    def _index_drop(self, key: tuple[int, int]) -> None:
        pages = self._staged_by_inode.get(key[0])
        if pages is not None:
            pages.discard(key[1])
            if not pages:
                del self._staged_by_inode[key[0]]

    def _stage_in(self, inode: Inode, page_index: int) -> None:
        key = (inode.id, page_index)
        if key in self._staged:
            self._staged.move_to_end(key)
            return
        while len(self._staged) >= self.stage_pages:
            victim, _ = self._staged.popitem(last=False)
            self._index_drop(victim)
        self._staged[key] = inode
        self._staged_by_inode.setdefault(inode.id, set()).add(page_index)
        self.bump_epoch()

    def evict_staged(self, inode: Inode) -> int:
        """Drop every staged page of a file (stage-out); returns count.

        O(staged-in-inode) via the per-inode index."""
        pages = self._staged_by_inode.pop(inode.id, None)
        if not pages:
            return 0
        for page in pages:
            del self._staged[(inode.id, page)]
        self.bump_epoch()
        return len(pages)

    # -- SLED estimation ----------------------------------------------------------

    def device_key(self) -> str:
        return "hsm-disk"

    def page_estimate(self, inode: Inode, page_index: int) -> PageEstimate:
        """Storage level of one page.

        The latency override for tape-resident pages is the locate (or
        exchange + load + locate) estimate to the *file's tape home*, not
        to the individual page: a per-page estimate would differ on every
        page, preventing SLED coalescing and steering the pick library
        into page-by-page tape locates.  The paper's implementation
        likewise "keeps only a single entry per device"; per-page
        mechanical estimates are explicitly future work (§4.4).
        """
        if self.is_staged(inode, page_index):
            return self._device_estimate
        return self._tape_estimate(inode)

    def _tape_estimate(self, inode: Inode) -> PageEstimate:
        """The (shared) estimate for every unstaged page of a file: the
        locate / exchange+load+locate cost to the file's tape home."""
        state = self.state_of(inode)
        latency = self.autochanger.estimate_latency(
            state.cartridge_label, state.tape_addr)
        drive = (self.autochanger.drive_holding(state.cartridge_label)
                 or self.autochanger.drives[0])
        key = ("hsm-tape-mounted"
               if self.autochanger.drive_holding(state.cartridge_label)
               else "hsm-tape-shelved")
        return PageEstimate(device_key=key, latency=latency,
                            bandwidth=drive.spec.bandwidth)

    def span_estimates(self, inode: Inode, start_page: int,
                       npages: int) -> list[tuple[int, PageEstimate]]:
        """O(staged-in-range): staged pages come from the per-inode index
        and every unstaged page of a file shares one tape estimate, so
        there is no reason to ask page by page."""
        if npages <= 0:
            return []
        end = start_page + npages
        staged = sorted(p for p in self.staged_set(inode.id)
                        if start_page <= p < end)
        if not staged:
            return [(npages, self._tape_estimate(inode))]
        disk_est = self._device_estimate
        tape_est: PageEstimate | None = None  # computed only if needed
        runs: list[tuple[int, PageEstimate]] = []
        cursor = start_page
        i = 0
        while cursor < end:
            if i < len(staged) and staged[i] == cursor:
                run = 1
                while i + run < len(staged) and staged[i + run] == cursor + run:
                    run += 1
                runs.append((run, disk_est))
                cursor += run
                i += run
            else:
                gap_end = staged[i] if i < len(staged) else end
                if tape_est is None:
                    tape_est = self._tape_estimate(inode)
                runs.append((gap_end - cursor, tape_est))
                cursor = gap_end
        return runs

    def device_table(self):
        table = {"hsm-disk": self.device}
        if self.autochanger.drives:
            table["hsm-tape-mounted"] = self.autochanger.drives[0]
            table["hsm-tape-shelved"] = self.autochanger.drives[0]
        return table

    def observable_devices(self):
        """The stage disk plus every tape drive in the library."""
        return [self.device, *self.autochanger.drives]

    # -- I/O -----------------------------------------------------------------------

    def read_pages(self, inode: Inode, start_page: int, npages: int) -> float:
        """Read pages, staging tape-resident ones onto the disk cache."""
        if npages <= 0:
            return 0.0
        state = self.state_of(inode)
        seconds = 0.0
        page = start_page
        end = start_page + npages
        while page < end:
            staged = self.is_staged(inode, page)
            run = 1
            while page + run < end and self.is_staged(inode, page + run) == staged:
                run += 1
            if staged:
                seconds += self._read_staged_run(inode, page, run)
            else:
                seconds += self._read_tape_run(inode, state, page, run)
            page += run
        return seconds

    def _read_staged_run(self, inode: Inode, page: int, run: int) -> float:
        seconds = super().read_pages(inode, page, run)
        for idx in range(page, page + run):
            self._touch_staged(inode, idx)
        return seconds

    def _read_tape_run(self, inode: Inode, state: HsmFileState,
                       page: int, run: int) -> float:
        addr = state.tape_addr + page * PAGE_SIZE
        seconds = self.autochanger.access(
            state.cartridge_label, addr, run * PAGE_SIZE)
        # Stage-in: copy to the disk cache (write at disk bandwidth).
        seconds += super().write_pages(inode, page, run)
        for idx in range(page, page + run):
            self._stage_in(inode, idx)
        return seconds

    def truncate_file(self, inode: Inode) -> None:
        """Truncation also drops the file's staged pages: their disk
        addresses go back to the allocator with the extents."""
        self.evict_staged(inode)
        super().truncate_file(inode)

    def write_pages(self, inode: Inode, start_page: int, npages: int) -> float:
        """Writes land in the disk stage; migration to tape is explicit
        (see :mod:`repro.hsm.migration`)."""
        seconds = super().write_pages(inode, start_page, npages)
        for idx in range(start_page, start_page + npages):
            self._stage_in(inode, idx)
        return seconds

    def migrate_to_tape(self, inode: Inode) -> float:
        """Copy the whole file to its tape home and drop the stage."""
        state = self.state_of(inode)
        npages = inode.npages
        seconds = super().read_pages(inode, 0, npages)
        seconds += self.autochanger.access(
            state.cartridge_label, state.tape_addr,
            npages * PAGE_SIZE, is_write=True)
        self.evict_staged(inode)
        return seconds
