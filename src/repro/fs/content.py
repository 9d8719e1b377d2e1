"""File content stores.

The simulated kernel separates *residency* (page cache) and *timing*
(devices) from *bytes*.  Bytes are supplied by a per-inode content object.
Three kinds cover every workload in the paper:

* :class:`SyntheticText` — deterministic pseudo-text generated lazily from a
  seed, so a "128 MB" benchmark file costs no storage until read.  Supports
  *planted* byte strings at chosen offsets (the random single match of the
  paper's Figure 11 grep experiment).
* :class:`ByteStoreContent` — a sparse page store for writable files (the
  FITS images the LHEASOFT tools copy and append to).
* :class:`ZeroContent` — all-zero bytes for metadata-only workloads
  (``find`` trees) where nothing ever reads the data.
"""

from __future__ import annotations

import bisect
from abc import ABC, abstractmethod
from collections.abc import Mapping
from types import MappingProxyType

import numpy as np

from repro.sim.errors import InvalidArgumentError, ReadOnlyFilesystemError
from repro.sim.units import PAGE_SIZE

_VOCABULARY = (
    "the of and a to in is was he for it with as his on be at by had not "
    "are but from or have an they which one you were her all she there "
    "would their we him been has when who will more no if out so said what "
    "up its about into than them can only other new some could time these "
    "two may then do first any my now such like our over man me even most "
    "storage latency descriptor cache device kernel page fault tape disk "
    "seek estimate bandwidth system file read block offset mount stream"
).split()


def _build_corpus(seed: int, size: int) -> bytes:
    """A deterministic text corpus: words joined by spaces, newline every
    ~64 characters, built once and sliced per page."""
    rng = np.random.default_rng(seed)
    words = rng.choice(len(_VOCABULARY), size=size // 4)
    parts: list[str] = []
    line_len = 0
    for widx in words:
        word = _VOCABULARY[int(widx)]
        parts.append(word)
        line_len += len(word) + 1
        if line_len >= 64:
            parts.append("\n")
            line_len = 0
        else:
            parts.append(" ")
    blob = "".join(parts).encode("ascii")
    return blob[:size] if len(blob) >= size else blob.ljust(size, b" ")


_CORPUS_SEED = 0xC0FFEE
_CORPUS_SIZE = 1 << 20
_corpus_cache: bytes | None = None


def _corpus() -> bytes:
    global _corpus_cache
    if _corpus_cache is None:
        _corpus_cache = _build_corpus(_CORPUS_SEED, _CORPUS_SIZE)
    return _corpus_cache


class FileContent(ABC):
    """Byte supplier for one inode."""

    @abstractmethod
    def read(self, offset: int, nbytes: int) -> bytes:
        """Bytes in ``[offset, offset + nbytes)``; short reads are the
        caller's job to avoid (the kernel clamps to file size)."""

    def write(self, offset: int, data: bytes) -> None:
        """Store bytes.  Default: content is immutable."""
        raise ReadOnlyFilesystemError("content store is read-only")

    @staticmethod
    def _check(offset: int, nbytes: int) -> None:
        if offset < 0 or nbytes < 0:
            raise InvalidArgumentError(
                f"negative offset/length: {offset}, {nbytes}")


class ZeroContent(FileContent):
    """All-zero bytes; cheapest possible supplier."""

    def read(self, offset: int, nbytes: int) -> bytes:
        self._check(offset, nbytes)
        return bytes(nbytes)


class SyntheticText(FileContent):
    """Deterministic pseudo-text with optional planted strings.

    ``plants`` maps byte offset → planted bytes; planted regions override
    the corpus text, overlapping plants applied in ``plants`` order.  The
    same (seed, offset) always yields the same bytes, so repeated reads
    are consistent without storing the file.  Assigning ``plants`` again
    replaces them (the grep experiments move their needle between runs).
    """

    def __init__(self, seed: int, size: int,
                 plants: Mapping[int, bytes] | None = None) -> None:
        if size < 0:
            raise InvalidArgumentError(f"negative file size: {size}")
        self.seed = seed
        self.size = size
        self.plants = plants or {}

    @property
    def plants(self) -> Mapping[int, bytes]:
        """Read-only view: assign a new dict to change the plants."""
        return MappingProxyType(self._plants)

    @plants.setter
    def plants(self, plants: Mapping[int, bytes]) -> None:
        for offset, blob in plants.items():
            if offset < 0 or offset + len(blob) > self.size:
                raise InvalidArgumentError(
                    f"planted string at {offset} (+{len(blob)}) "
                    f"escapes file of size {self.size}")
        self._plants = dict(plants)
        #: (offset, plants order, bytes) sorted by offset, for bisecting
        self._by_offset = sorted(
            (offset, order, blob)
            for order, (offset, blob) in enumerate(self._plants.items()))
        self._offsets = [offset for offset, _, _ in self._by_offset]
        self._longest = max(map(len, self._plants.values()), default=0)

    def read(self, offset: int, nbytes: int) -> bytes:
        self._check(offset, nbytes)
        nbytes = max(0, min(nbytes, self.size - offset))
        if nbytes == 0:
            return b""
        first = offset // PAGE_SIZE
        last = (offset + nbytes - 1) // PAGE_SIZE
        skip = offset - first * PAGE_SIZE
        corpus = memoryview(_corpus())  # slices of a view copy nothing
        # a cheap multiplicative hash spreads pages across the corpus
        base = self.seed * 2654435761
        span = len(corpus) - PAGE_SIZE
        data = b"".join([corpus[start:start + PAGE_SIZE] for start in (
            (base + page * 40503) % span for page in range(first, last + 1))])
        data = data[skip:skip + nbytes]
        end = offset + nbytes
        # plants overlapping [offset, end) start in (offset - longest, end)
        lo = bisect.bisect_right(self._offsets, offset - self._longest)
        hi = bisect.bisect_left(self._offsets, end, lo)
        overlapping = [(order, pofs, pdata) for pofs, order, pdata
                       in self._by_offset[lo:hi] if pofs + len(pdata) > offset]
        if not overlapping:
            return data
        out = bytearray(data)
        for _, pofs, pdata in sorted(overlapping):
            lo = max(offset, pofs)
            hi = min(end, pofs + len(pdata))
            out[lo - offset:hi - offset] = pdata[lo - pofs:hi - pofs]
        return bytes(out)


class CowContent(FileContent):
    """Copy-on-write overlay: reads fall through to a base content object
    except where writes have materialised pages.

    The kernel upgrades an immutable content store (synthetic text, zeros)
    to this the first time a file is written through a descriptor, so
    read-modify-write works without materialising the whole file.
    """

    def __init__(self, base: FileContent) -> None:
        self.base = base
        self._overlay: dict[int, bytearray] = {}

    def read(self, offset: int, nbytes: int) -> bytes:
        self._check(offset, nbytes)
        if nbytes == 0:
            return b""
        out = bytearray(self.base.read(offset, nbytes).ljust(nbytes, b"\0"))
        pos = 0
        while pos < nbytes:
            abs_off = offset + pos
            pidx, poff = divmod(abs_off, PAGE_SIZE)
            take = min(PAGE_SIZE - poff, nbytes - pos)
            page = self._overlay.get(pidx)
            if page is not None:
                out[pos:pos + take] = page[poff:poff + take]
            pos += take
        return bytes(out)

    def write(self, offset: int, data: bytes) -> None:
        self._check(offset, len(data))
        pos = 0
        while pos < len(data):
            abs_off = offset + pos
            pidx, poff = divmod(abs_off, PAGE_SIZE)
            take = min(PAGE_SIZE - poff, len(data) - pos)
            page = self._overlay.get(pidx)
            if page is None:
                page = bytearray(
                    self.base.read(pidx * PAGE_SIZE,
                                   PAGE_SIZE).ljust(PAGE_SIZE, b"\0"))
                self._overlay[pidx] = page
            page[poff:poff + take] = data[pos:pos + take]
            pos += take


class ByteStoreContent(FileContent):
    """Sparse, writable page store (pages default to zero)."""

    def __init__(self, initial: bytes = b"") -> None:
        self._pages: dict[int, bytearray] = {}
        if initial:
            self.write(0, initial)

    def _page(self, page_index: int) -> bytearray:
        page = self._pages.get(page_index)
        if page is None:
            page = bytearray(PAGE_SIZE)
            self._pages[page_index] = page
        return page

    def read(self, offset: int, nbytes: int) -> bytes:
        self._check(offset, nbytes)
        if nbytes == 0:
            return b""
        out = bytearray(nbytes)
        pos = 0
        while pos < nbytes:
            abs_off = offset + pos
            pidx, poff = divmod(abs_off, PAGE_SIZE)
            take = min(PAGE_SIZE - poff, nbytes - pos)
            page = self._pages.get(pidx)
            if page is not None:
                out[pos:pos + take] = page[poff:poff + take]
            pos += take
        return bytes(out)

    def write(self, offset: int, data: bytes) -> None:
        self._check(offset, len(data))
        pos = 0
        while pos < len(data):
            abs_off = offset + pos
            pidx, poff = divmod(abs_off, PAGE_SIZE)
            take = min(PAGE_SIZE - poff, len(data) - pos)
            self._page(pidx)[poff:poff + take] = data[pos:pos + take]
            pos += take
