"""Reference pick session: the heap of ordered dataclasses.

:class:`repro.core.pick.SledsPickSession` keeps its chunks as plain
``(latency key, offset, length, bandwidth)`` tuples, so a heap
comparison is a tuple comparison.  This is the session it replaced: each
chunk a ``_Chunk`` dataclass with ``order=True`` and a ``(latency,
offset)`` sort key, whose comparisons run the generated ``__lt__``.
``tests/test_core_pick.py`` drives the two on twin kernels and requires
the same advice, remaining counts, counters and clock at every step.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.core.pick import (
    _VALID_ORDERS,
    INIT_CPU_PER_SLED,
    PICK_CPU_PER_CHUNK,
    _clip_spans,
    _merge_spans,
)
from repro.core.records import adjust_to_records
from repro.core.sled import SledVector
from repro.sim.errors import InvalidArgumentError
from repro.sim.units import page_span

__all__ = ["DataclassHeapPickSession"]


@dataclass(order=True)
class _Chunk:
    sort_key: tuple[float, int] = field(init=False, repr=False)
    offset: int
    length: int
    latency: float
    bandwidth: float

    def __post_init__(self) -> None:
        self.sort_key = (self.latency, self.offset)


class DataclassHeapPickSession:
    """The pick session with a heap of ``_Chunk`` dataclasses."""

    def __init__(self, kernel, fd: int, preferred_bufsize: int,
                 record_mode: bool = False, separator: bytes = b"\n",
                 refresh_every: int = 0, order: str = "sleds",
                 pin_cached: bool = False, prefetcher=None,
                 prefetch_depth: int = 4) -> None:
        if preferred_bufsize <= 0:
            raise InvalidArgumentError(
                f"preferred buffer size must be positive: {preferred_bufsize}")
        if order not in _VALID_ORDERS:
            raise InvalidArgumentError(
                f"unknown pick order {order!r}; choose from {_VALID_ORDERS}")
        if refresh_every < 0:
            raise InvalidArgumentError(
                f"refresh_every must be >= 0: {refresh_every}")
        if prefetch_depth < 1:
            raise InvalidArgumentError(
                f"prefetch_depth must be >= 1: {prefetch_depth}")
        self.kernel = kernel
        self.fd = fd
        self.bufsize = preferred_bufsize
        self.record_mode = record_mode
        self.separator = separator
        self.refresh_every = refresh_every
        self.order = order
        self.pin_cached = pin_cached
        self.prefetcher = prefetcher
        self.prefetch_depth = prefetch_depth
        self.picks = 0
        self._heap: list[_Chunk] = []
        self._pinned: set = set()
        self._stamp = None
        self._load_vector()
        if pin_cached:
            self._pin_cached_chunks()
        self._feed_prefetcher()

    def _fetch_vector(self) -> SledVector:
        vector = self.kernel.get_sleds(self.fd)
        if self.record_mode:
            vector = adjust_to_records(
                self.kernel, self.fd, vector, self.separator)
        return vector

    def _load_vector(self) -> None:
        vector = self._fetch_vector()
        self._stamp = self.kernel.sleds_stamp(self.fd)
        self.kernel.charge_cpu(len(vector) * INIT_CPU_PER_SLED)
        self._heap = self._chunks_from(vector)
        heapq.heapify(self._heap)

    def _chunks_from(self, vector: SledVector,
                     within: list[tuple[int, int]] | None = None
                     ) -> list[_Chunk]:
        chunks: list[_Chunk] = []
        for sled in vector:
            spans = ([(sled.offset, sled.end)] if within is None
                     else _clip_spans(within, sled.offset, sled.end))
            for lo, hi in spans:
                pos = lo
                while pos < hi:
                    take = min(self.bufsize, hi - pos)
                    chunks.append(_Chunk(offset=pos, length=take,
                                         latency=self._order_latency(sled),
                                         bandwidth=sled.bandwidth))
                    pos += take
        return chunks

    def _order_latency(self, sled) -> float:
        if self.order == "sleds":
            return sled.latency
        if self.order == "linear":
            return 0.0
        return float((sled.offset * 2654435761) % 1000003)

    def _refresh(self) -> None:
        if self.kernel.sleds_stamp(self.fd) == self._stamp:
            self.kernel.counters.sleds_refetch_skips += 1
            return
        remaining = sorted((c.offset, c.offset + c.length)
                           for c in self._heap)
        vector = self._fetch_vector()
        self._stamp = self.kernel.sleds_stamp(self.fd)
        self.kernel.charge_cpu(len(vector) * INIT_CPU_PER_SLED)
        self._heap = self._chunks_from(vector, within=_merge_spans(remaining))
        heapq.heapify(self._heap)
        self._feed_prefetcher()

    def _feed_prefetcher(self) -> None:
        if self.prefetcher is None or not self._heap:
            return
        of = self.kernel._fd(self.fd)
        for chunk in heapq.nsmallest(self.prefetch_depth, self._heap):
            self.prefetcher.prefetch_span(
                of.fs, of.inode, chunk.offset, chunk.length)

    def _pin_cached_chunks(self) -> None:
        cache = self.kernel.page_cache
        inode_id = self.kernel._fd(self.fd).inode.id
        for chunk in self._heap:
            for page in page_span(chunk.offset, chunk.length):
                key = (inode_id, page)
                if cache.peek(key) and cache.pin(key):
                    self._pinned.add(key)

    def _unpin_chunk(self, chunk: _Chunk) -> None:
        if not self._pinned:
            return
        inode_id = self.kernel._fd(self.fd).inode.id
        for page in page_span(chunk.offset, chunk.length):
            key = (inode_id, page)
            if key in self._pinned:
                self.kernel.page_cache.unpin(key)
                self._pinned.discard(key)

    def release_pins(self) -> None:
        for key in self._pinned:
            self.kernel.page_cache.unpin(key)
        self._pinned.clear()

    def next_read(self) -> tuple[int, int] | None:
        if not self._heap:
            return None
        if (self.refresh_every and self.picks
                and self.picks % self.refresh_every == 0):
            self._refresh()
            if not self._heap:
                return None
        self.kernel.charge_cpu(PICK_CPU_PER_CHUNK)
        chunk = heapq.heappop(self._heap)
        self.picks += 1
        self._unpin_chunk(chunk)
        self._feed_prefetcher()
        return chunk.offset, chunk.length

    def remaining_chunks(self) -> int:
        return len(self._heap)

    def remaining_bytes(self) -> int:
        return sum(c.length for c in self._heap)
