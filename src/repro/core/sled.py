"""The SLED structure and SLED vectors.

The paper's Figure 2 defines a SLED as::

    struct sled {
        long  offset;     /* into the file */
        long  length;     /* of the segment */
        float latency;    /* in seconds */
        float bandwidth;  /* in bytes/sec */
    };

A file's state is a vector of SLEDs: "moving from the beginning of the file
to the end, each discontinuity in storage media, latency, or bandwidth
results in another SLED in the representation."  :class:`SledVector`
enforces exactly that invariant — sorted, non-overlapping, gap-free
coverage of ``[0, file_size)`` with adjacent SLEDs differing in latency or
bandwidth.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, Sequence


class _SledFields(NamedTuple):
    offset: int
    length: int
    latency: float
    bandwidth: float


def check_sled(offset: int, length: int, latency: float,
               bandwidth: float) -> None:
    """Raise ``ValueError`` unless the four fields make a valid SLED.

    The one place a SLED's field rules and messages live: the
    constructor calls it, and so does the kernel's fold, which builds
    its SLED tuples without the constructor.
    """
    if offset < 0:
        raise ValueError(f"negative SLED offset: {offset}")
    if length <= 0:
        raise ValueError(f"non-positive SLED length: {length}")
    if latency < 0:
        raise ValueError(f"negative SLED latency: {latency}")
    if bandwidth <= 0:
        raise ValueError(f"non-positive SLED bandwidth: {bandwidth}")


class Sled(_SledFields):
    """Estimated retrieval characteristics of one contiguous file segment.

    A tuple, so it is cheap to build, immutable and hashable, and it
    compares equal to the tuple of its fields.  Every way of making one
    checks the fields: the constructor, ``_make`` and ``_replace`` (which
    goes through ``_make``), and unpickling and copying (which call the
    constructor).
    """

    __slots__ = ()

    def __new__(cls, offset: int, length: int, latency: float,
                bandwidth: float) -> "Sled":
        check_sled(offset, length, latency, bandwidth)
        return tuple.__new__(cls, (offset, length, latency, bandwidth))

    @classmethod
    def _make(cls, iterable: Iterable) -> "Sled":
        # the NamedTuple default builds the tuple without ``__new__``
        return cls(*iterable)

    @property
    def end(self) -> int:
        """First byte past this segment."""
        return self.offset + self.length

    def delivery_time(self) -> float:
        """Estimated seconds to deliver this whole segment in isolation."""
        return self.latency + self.length / self.bandwidth

    def same_level(self, other: "Sled") -> bool:
        """Whether two SLEDs describe the same storage level."""
        return (self.latency == other.latency
                and self.bandwidth == other.bandwidth)

    def split_at(self, offset: int) -> tuple["Sled", "Sled"]:
        """Split into two SLEDs at an interior absolute offset."""
        if not self.offset < offset < self.end:
            raise ValueError(
                f"split offset {offset} not inside ({self.offset}, {self.end})")
        left = Sled(self.offset, offset - self.offset,
                    self.latency, self.bandwidth)
        right = Sled(offset, self.end - offset, self.latency, self.bandwidth)
        return left, right


_offset_of = itemgetter(0)


class SledVector:
    """An ordered, validated sequence of SLEDs covering a file.

    By default the SLEDs may come in any order: they are sorted and
    same-level neighbours merged.  ``coalesce=False`` takes SLEDs already
    in file order, such as the kernel's fold emits, and keeps them as
    given: they are validated, not sorted or merged, so out-of-order
    input is refused.
    """

    def __init__(self, sleds: Iterable[Sled], file_size: int | None = None,
                 coalesce: bool = True) -> None:
        items = (self._coalesce(sorted(sleds, key=_offset_of)) if coalesce
                 else tuple(sleds))
        self._validate(items, file_size)
        self._sleds: tuple[Sled, ...] = tuple(items)
        self.file_size = (file_size if file_size is not None
                          else (items[-1].end if items else 0))

    @staticmethod
    def _coalesce(items: list[Sled]) -> list[Sled]:
        out: list[Sled] = []
        for sled in items:
            if out and out[-1].end == sled.offset and out[-1].same_level(sled):
                prev = out.pop()
                sled = Sled(prev.offset, prev.length + sled.length,
                            prev.latency, prev.bandwidth)
            out.append(sled)
        return out

    @staticmethod
    def _validate(items: Sequence[Sled], file_size: int | None) -> None:
        if not items:
            if file_size not in (None, 0):
                raise ValueError(
                    f"empty SLED vector for file of size {file_size}")
            return
        if items[0].offset != 0:
            raise ValueError(
                f"SLED vector must start at offset 0, got {items[0].offset}")
        end = 0
        for offset, length, _, _ in items:
            if offset != end:
                raise ValueError(
                    f"gap or overlap between SLEDs at {end} vs {offset}")
            end = offset + length
        if file_size is not None and end != file_size:
            raise ValueError(
                f"SLED vector covers {end} bytes of a "
                f"{file_size}-byte file")

    # -- sequence protocol ------------------------------------------------

    def __len__(self) -> int:
        return len(self._sleds)

    def __iter__(self) -> Iterator[Sled]:
        return iter(self._sleds)

    def __getitem__(self, index: int) -> Sled:
        return self._sleds[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SledVector):
            return NotImplemented
        return self._sleds == other._sleds

    # -- queries --------------------------------------------------------------

    def sled_at(self, offset: int) -> Sled:
        """The SLED containing byte ``offset`` (binary search)."""
        lo, hi = 0, len(self._sleds) - 1
        while lo <= hi:
            mid = (lo + hi) // 2
            sled = self._sleds[mid]
            if offset < sled.offset:
                hi = mid - 1
            elif offset >= sled.end:
                lo = mid + 1
            else:
                return sled
        raise ValueError(f"offset {offset} not covered by SLED vector")

    def levels(self) -> set[tuple[float, float]]:
        """Distinct (latency, bandwidth) levels present."""
        return {(s.latency, s.bandwidth) for s in self._sleds}

    def bytes_at_or_below_latency(self, latency: float) -> int:
        """How many bytes are estimated at most ``latency`` away."""
        return sum(s.length for s in self._sleds if s.latency <= latency)

    def min_latency(self) -> float:
        return min(s.latency for s in self._sleds)

    def max_latency(self) -> float:
        return max(s.latency for s in self._sleds)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SledVector({len(self._sleds)} sleds, {self.file_size} bytes)"
