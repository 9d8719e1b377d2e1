"""Inodes and extent maps.

An :class:`Inode` is either a regular file or a directory.  Regular files
carry a :class:`FileContent` (the bytes) and an :class:`ExtentMap` (where
each file page lives on the filesystem's device).  Directories carry a
name → inode mapping.

The extent map is what the SLED builder walks: for each page it answers
"which device address holds this page?", which combined with cache
residency yields the SLED vector.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass, field
from enum import Enum

from repro.fs.content import FileContent, ZeroContent
from repro.sim.errors import InvalidArgumentError, NoSpaceError
from repro.sim.units import PAGE_SIZE, bytes_to_pages

_inode_ids = itertools.count(1)


class InodeKind(Enum):
    FILE = "file"
    DIRECTORY = "directory"


@dataclass(frozen=True)
class Extent:
    """``npages`` file pages starting at file page ``file_page`` living at
    device byte address ``device_addr`` (pages are device-contiguous)."""

    file_page: int
    npages: int
    device_addr: int

    def __post_init__(self) -> None:
        if self.file_page < 0 or self.npages <= 0 or self.device_addr < 0:
            raise InvalidArgumentError(f"invalid extent: {self}")

    @property
    def end_page(self) -> int:
        return self.file_page + self.npages

    def addr_of(self, page_index: int) -> int:
        if not self.file_page <= page_index < self.end_page:
            raise InvalidArgumentError(
                f"page {page_index} outside extent {self}")
        return self.device_addr + (page_index - self.file_page) * PAGE_SIZE


class ExtentMap:
    """Ordered, non-overlapping extents covering a file's pages."""

    def __init__(self, extents: list[Extent] | None = None) -> None:
        self.extents: list[Extent] = []
        for extent in extents or []:
            self.append(extent)

    def append(self, extent: Extent) -> None:
        if self.extents and extent.file_page != self.extents[-1].end_page:
            raise InvalidArgumentError(
                f"extent {extent} does not continue at page "
                f"{self.extents[-1].end_page}")
        if not self.extents and extent.file_page != 0:
            raise InvalidArgumentError(
                f"first extent must start at page 0: {extent}")
        self.extents.append(extent)

    @property
    def npages(self) -> int:
        return self.extents[-1].end_page if self.extents else 0

    def _index_of(self, page_index: int) -> int:
        """Index of the extent holding a file page (binary search)."""
        extents = self.extents
        lo, hi = 0, len(extents) - 1
        while lo <= hi:
            mid = (lo + hi) // 2
            extent = extents[mid]
            if page_index < extent.file_page:
                hi = mid - 1
            elif page_index >= extent.end_page:
                lo = mid + 1
            else:
                return mid
        raise InvalidArgumentError(
            f"page {page_index} not mapped (file has {self.npages} pages)")

    def addr_of(self, page_index: int) -> int:
        """Device byte address of a file page (binary search)."""
        extent = self.extents[self._index_of(page_index)]
        return extent.device_addr + (page_index - extent.file_page) * PAGE_SIZE

    def extents_in(self, start_page: int, npages: int):
        """Yield ``(file_page, npages, device_addr)`` pieces covering
        ``[start_page, start_page + npages)``, one per underlying extent.

        Addresses within one piece are device-contiguous, so batched
        estimators (``FileSystem.span_estimates``) can reason about whole
        runs instead of asking one page at a time.  O(log extents) to find
        the first piece, O(1) per piece after that.
        """
        if npages <= 0:
            return
        end = start_page + npages
        extents = self.extents
        for i in range(self._index_of(start_page), len(extents)):
            extent = extents[i]
            if extent.file_page >= end:
                break
            piece_start = max(start_page, extent.file_page)
            yield (piece_start, min(end, extent.end_page) - piece_start,
                   extent.device_addr
                   + (piece_start - extent.file_page) * PAGE_SIZE)

    def device_runs(self, start_page: int,
                    npages: int) -> list[tuple[int, int]]:
        """``(device_addr, npages)`` for the device-contiguous runs
        covering ``[start_page, start_page + npages)``, in order: the
        pieces of :meth:`extents_in`, with neighbours that continue each
        other on the device joined.  These are the filesystem's device
        requests for the span.  One search, then a walk by index."""
        end = start_page + npages
        if end > self.npages:
            raise InvalidArgumentError(
                f"page {max(start_page, self.npages)} not mapped "
                f"(file has {self.npages} pages)")
        if npages <= 0:
            return []
        extents = self.extents
        i = self._index_of(start_page)
        extent = extents[i]
        addr = extent.device_addr + (start_page - extent.file_page) * PAGE_SIZE
        pages = min(end, extent.end_page) - start_page
        runs = []
        while extent.end_page < end:
            i += 1
            extent = extents[i]
            take = min(end, extent.end_page) - extent.file_page
            if extent.device_addr == addr + pages * PAGE_SIZE:
                pages += take
            else:
                runs.append((addr, pages))
                addr, pages = extent.device_addr, take
        runs.append((addr, pages))
        return runs

    def contiguous_run(self, page_index: int, max_pages: int) -> int:
        """Pages starting at ``page_index`` that are device-contiguous,
        capped at ``max_pages``."""
        if max_pages <= 0:
            return 0
        return self.device_runs(
            page_index, max(1, min(max_pages, self.npages - page_index)))[0][1]


class Allocator:
    """Bump allocator with reuse and optional fragmentation for a
    device's space.

    Freed ranges are kept sorted and coalesced and are reused first,
    lowest address first; only then does the cursor move.
    ``max_extent_pages`` caps extent length; a fragmented filesystem uses a
    small cap plus an inter-extent gap so consecutive file pages land on
    discontiguous device addresses (aged-filesystem emulation for the seek
    ablations).
    """

    def __init__(self, capacity: int, start: int = 0,
                 max_extent_pages: int = 1 << 20,
                 gap_pages: int = 0) -> None:
        if capacity <= 0 or start < 0 or start >= capacity:
            raise InvalidArgumentError(
                f"bad allocator range: start={start}, capacity={capacity}")
        if max_extent_pages <= 0 or gap_pages < 0:
            raise InvalidArgumentError("bad allocator shape parameters")
        self.capacity = capacity
        self.cursor = start
        self.max_extent_pages = max_extent_pages
        self.gap_pages = gap_pages
        #: freed ``(start, end)`` byte ranges, sorted, none adjacent
        self.free_ranges: list[tuple[int, int]] = []

    def allocate(self, npages: int) -> list[tuple[int, int]]:
        """Allocate ``npages``; returns ``[(device_addr, npages), ...]``."""
        if npages < 0:
            raise InvalidArgumentError(f"negative allocation: {npages}")
        pieces: list[tuple[int, int]] = []
        remaining = npages
        free = self.free_ranges
        while remaining > 0 and free:
            start, end = free[0]
            take = min(remaining, (end - start) // PAGE_SIZE,
                       self.max_extent_pages)
            pieces.append((start, take))
            start += take * PAGE_SIZE
            if start == end:
                del free[0]
            else:
                free[0] = (start, end)
            remaining -= take
        while remaining > 0:
            take = min(remaining, self.max_extent_pages)
            nbytes = take * PAGE_SIZE
            if self.cursor + nbytes > self.capacity:
                raise NoSpaceError(
                    f"device full: need {nbytes} bytes at {self.cursor} "
                    f"of {self.capacity}")
            pieces.append((self.cursor, take))
            self.cursor += nbytes + self.gap_pages * PAGE_SIZE
            remaining -= take
        return pieces

    def free(self, addr: int, npages: int) -> None:
        """Hand ``npages`` at ``addr`` back for reuse."""
        start, end = addr, addr + npages * PAGE_SIZE
        free = self.free_ranges
        i = bisect.bisect(free, (start, end))
        if i < len(free) and free[i][0] == end:
            end = free.pop(i)[1]
        if i > 0 and free[i - 1][1] == start:
            i -= 1
            start = free.pop(i)[0]
        free.insert(i, (start, end))


@dataclass
class Inode:
    """A file or directory."""

    kind: InodeKind
    size: int = 0
    content: FileContent = field(default_factory=ZeroContent)
    extent_map: ExtentMap = field(default_factory=ExtentMap)
    entries: dict[str, "Inode"] = field(default_factory=dict)
    id: int = field(default_factory=lambda: next(_inode_ids))
    atime: float = 0.0
    mtime: float = 0.0

    @property
    def is_dir(self) -> bool:
        return self.kind is InodeKind.DIRECTORY

    @property
    def npages(self) -> int:
        return bytes_to_pages(self.size)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Inode #{self.id} {self.kind.value} size={self.size}>"


def make_file(size: int, content: FileContent,
              allocator: Allocator) -> Inode:
    """Create a file inode with ``size`` bytes laid out via ``allocator``."""
    inode = Inode(kind=InodeKind.FILE, size=size, content=content)
    page = 0
    for device_addr, npages in allocator.allocate(bytes_to_pages(size)):
        inode.extent_map.append(Extent(page, npages, device_addr))
        page += npages
    return inode


def make_directory() -> Inode:
    """Create an empty directory inode."""
    return Inode(kind=InodeKind.DIRECTORY)
