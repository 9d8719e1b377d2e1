"""The SLEDs pick library (paper §4.2, Table 1).

Applications drive their reads through three routines::

    bufsize = sleds_pick_init(kernel, fd, preferred_bufsize)
    while True:
        nxt = sleds_pick_next_read(kernel, fd)
        if nxt is None:
            break
        offset, nbytes = nxt
        kernel.lseek(fd, offset)
        data = kernel.read(fd, nbytes)
        ...
    sleds_pick_finish(kernel, fd)

The library retrieves the SLED vector via the ``FSLEDS_GET`` ioctl at init
time, splits each SLED into chunks of at most the preferred buffer size,
and serves chunks lowest-latency-first, breaking ties by lowest file
offset — "in the simple case of a disk-based file system with a cold
cache, this algorithm will degenerate to linear access of the file."
Every byte of the file is returned exactly once.

``record_mode`` asks for record-oriented SLEDs (paper Figure 4): edges are
pulled in to record boundaries before chunking, at the cost of some
library I/O.  ``refresh_every`` re-fetches the SLED vector for the
*remaining* chunks every N picks — the paper notes the implementation
fetches only at init and that "refreshing the state of those SLEDs
occasionally would allow the library to take advantage of any changes in
state"; we implement both so the trade-off can be measured (Ext. C).

A session is keyed by ``(kernel id, fd)``, mirroring the C library's
per-descriptor hidden state.  An ``order`` argument exists purely for the
pick-order ablation (``"sleds"``, ``"linear"``, ``"random"``).
"""

from __future__ import annotations

import heapq

from repro.core.records import adjust_to_records
from repro.core.sled import SledVector
from repro.sim.errors import InvalidArgumentError
from repro.sim.units import USEC, page_span

#: CPU cost charged per pick decision — the paper attributes the small-file
#: slowdown of SLEDs grep to "the additional complexity of record
#: management ... and more data copying".
PICK_CPU_PER_CHUNK = 8.0 * USEC
INIT_CPU_PER_SLED = 2.0 * USEC

_VALID_ORDERS = ("sleds", "linear", "random")

#: a heap entry: ``(latency key, offset, length, bandwidth)``.  Offsets
#: are unique within a session, so entries order by (latency key, offset)
#: and the tuple comparison never reaches the length.
_Chunk = tuple[float, int, int, float]


class SledsPickSession:
    """Hidden per-descriptor state of the pick library."""

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
        #: kernel stamp of the last vector fetch; refreshes are skipped
        #: outright while it is unchanged (nothing the builder reads moved)
        self._stamp = None
        self._load_vector()
        if pin_cached:
            self._pin_cached_chunks()
        self._feed_prefetcher()

    # -- internals ------------------------------------------------------

    def _fetch_vector(self) -> SledVector:
        vector = self.kernel.get_sleds(self.fd)
        if self.record_mode:
            vector = adjust_to_records(
                self.kernel, self.fd, vector, self.separator)
        return vector

    def _load_vector(self) -> None:
        vector = self._fetch_vector()
        # stamped after the fetch: record_mode's boundary reads may
        # themselves change cache state, and the stamp must cover them
        self._stamp = self.kernel.sleds_stamp(self.fd)
        self.kernel.charge_cpu(len(vector) * INIT_CPU_PER_SLED)
        self._heap = self._chunks_from(vector)
        heapq.heapify(self._heap)

    def _chunks_from(self, vector: SledVector,
                     within: list[tuple[int, int]] | None = None) -> list[_Chunk]:
        """Split SLEDs into chunks <= bufsize, optionally clipped to the
        still-unread ``within`` spans."""
        chunks: list[_Chunk] = []
        bufsize = self.bufsize
        for sled in vector:
            key = self._order_latency(sled)
            spans = ([(sled.offset, sled.end)] if within is None
                     else _clip_spans(within, sled.offset, sled.end))
            for lo, hi in spans:
                for pos in range(lo, hi, bufsize):
                    chunks.append((key, pos, min(bufsize, hi - pos),
                                   sled.bandwidth))
        return chunks

    def _order_latency(self, sled) -> float:
        """Latency key under the configured pick order (ablation hook)."""
        if self.order == "sleds":
            return sled.latency
        if self.order == "linear":
            return 0.0  # all ties -> pure offset order
        # "random": a deterministic pseudo-random key per sled offset
        return float((sled.offset * 2654435761) % 1000003)

    def _refresh(self) -> None:
        if self.kernel.sleds_stamp(self.fd) == self._stamp:
            # nothing the SLED builder reads has moved since the last
            # fetch: the vector would come back identical, so don't ask
            self.kernel.counters.sleds_refetch_skips += 1
            return
        remaining = sorted((offset, offset + length)
                           for _, offset, length, _ in self._heap)
        vector = self._fetch_vector()
        self._stamp = self.kernel.sleds_stamp(self.fd)
        self.kernel.charge_cpu(len(vector) * INIT_CPU_PER_SLED)
        self._heap = self._chunks_from(vector, within=_merge_spans(remaining))
        heapq.heapify(self._heap)
        self._feed_prefetcher()

    def _feed_prefetcher(self) -> None:
        """Hand the next few picks to the attached prefetcher.

        The chunks the session will return soonest are exactly the spans
        worth speculating on: by the time ``next_read`` reaches them the
        pages are (ideally) resident and the pick costs a cache hit."""
        if self.prefetcher is None or not self._heap:
            return
        of = self.kernel._fd(self.fd)
        for _, offset, length, _ in heapq.nsmallest(self.prefetch_depth,
                                                    self._heap):
            self.prefetcher.prefetch_span(of.fs, of.inode, offset, length)

    # -- API -----------------------------------------------------------------

    def _pin_cached_chunks(self) -> None:
        """Lock every currently-cached page the session will return.

        This is the paper's §3.4 proposal — "adding a lock or reservation
        mechanism would improve the accuracy and lifetime of SLEDs by
        controlling access to the affected resources" — applied to the
        pick session: the pages whose low latency justified the pick order
        cannot be evicted out from under it.  Pins release chunk by chunk
        as chunks are delivered, and unconditionally at finish.
        """
        cache = self.kernel.page_cache
        inode_id = self.kernel._fd(self.fd).inode.id
        for _, offset, length, _ in self._heap:
            for page in page_span(offset, length):
                key = (inode_id, page)
                if cache.peek(key) and cache.pin(key):
                    self._pinned.add(key)

    def _unpin_chunk(self, offset: int, length: int) -> None:
        if not self._pinned:
            return
        inode_id = self.kernel._fd(self.fd).inode.id
        for page in page_span(offset, length):
            key = (inode_id, page)
            if key in self._pinned:
                self.kernel.page_cache.unpin(key)
                self._pinned.discard(key)

    def release_pins(self) -> None:
        """Drop every outstanding pin (called by sleds_pick_finish)."""
        for key in self._pinned:
            self.kernel.page_cache.unpin(key)
        self._pinned.clear()

    def next_read(self) -> tuple[int, int] | None:
        """The next (offset, nbytes) to read, or None when exhausted."""
        if not self._heap:
            return None
        if (self.refresh_every and self.picks
                and self.picks % self.refresh_every == 0):
            self._refresh()
            if not self._heap:
                return None
        self.kernel.charge_cpu(PICK_CPU_PER_CHUNK)
        _, offset, length, _ = heapq.heappop(self._heap)
        self.picks += 1
        self._unpin_chunk(offset, length)
        self._feed_prefetcher()
        return offset, length

    def remaining_chunks(self) -> int:
        return len(self._heap)

    def remaining_bytes(self) -> int:
        return sum(chunk[2] for chunk in self._heap)


def _merge_spans(spans: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Coalesce sorted, possibly-adjacent half-open spans."""
    merged: list[tuple[int, int]] = []
    for lo, hi in spans:
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(hi, merged[-1][1]))
        else:
            merged.append((lo, hi))
    return merged


def _clip_spans(spans: list[tuple[int, int]], lo: int,
                hi: int) -> list[tuple[int, int]]:
    """Intersect a span list with ``[lo, hi)``."""
    out = []
    for slo, shi in spans:
        clo, chi = max(slo, lo), min(shi, hi)
        if clo < chi:
            out.append((clo, chi))
    return out


# ---------------------------------------------------------------------------
# The C-style functional API (paper Table 1)
# ---------------------------------------------------------------------------

_sessions: dict[tuple[int, int], SledsPickSession] = {}


def _key(kernel, fd: int) -> tuple[int, int]:
    return (id(kernel), fd)


def sleds_pick_init(kernel, fd: int, preferred_bufsize: int,
                    record_mode: bool = False, separator: bytes = b"\n",
                    refresh_every: int = 0, order: str = "sleds",
                    pin_cached: bool = False, prefetcher=None,
                    prefetch_depth: int = 4) -> int:
    """Start a pick session on ``fd``; returns the buffer size to use."""
    key = _key(kernel, fd)
    if key in _sessions:
        raise InvalidArgumentError(
            f"fd {fd} already has an active pick session")
    session = SledsPickSession(
        kernel, fd, preferred_bufsize, record_mode=record_mode,
        separator=separator, refresh_every=refresh_every, order=order,
        pin_cached=pin_cached, prefetcher=prefetcher,
        prefetch_depth=prefetch_depth)
    _sessions[key] = session
    return session.bufsize


def sleds_pick_next_read(kernel, fd: int) -> tuple[int, int] | None:
    """Advise where to read next: (offset, nbytes), or None when done."""
    try:
        session = _sessions[_key(kernel, fd)]
    except KeyError:
        raise InvalidArgumentError(
            f"fd {fd} has no pick session; call sleds_pick_init first"
        ) from None
    return session.next_read()


def sleds_pick_finish(kernel, fd: int) -> None:
    """End the session, releasing library state and any page pins."""
    session = _sessions.pop(_key(kernel, fd), None)
    if session is not None:
        session.release_pins()


def active_session(kernel, fd: int) -> SledsPickSession | None:
    """Expose the session object (used by tests and the ff wrapper)."""
    return _sessions.get(_key(kernel, fd))
