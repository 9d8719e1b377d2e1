"""Element-granular SLEDs wrapper for the LHEASOFT ports (paper §5.3).

"We implemented an additional library for LHEASOFT that allows applications
to access SLEDs in units of data elements (usually floating point numbers),
rather than bytes; the calls are the same, with ``ff`` prepended."

A FITS data unit starts at a block-aligned ``data_offset`` and holds
``element_count`` fixed-size elements.  The wrapper runs a byte-granular
pick session under the hood and converts each advised byte chunk into an
element range, guaranteeing each element is delivered exactly once:

* a chunk is mapped to the elements whose *first byte* it contains;
* element ranges already delivered are subtracted (chunk edges can split
  an element between two chunks; the element follows its first byte, and
  the few bytes read twice are the "running over the edge" cost the byte
  library avoids for records — negligible at element granularity).
"""

from __future__ import annotations

from repro.core.pick import (
    SledsPickSession,
    _key,
    _sessions,
)
from repro.sim.errors import InvalidArgumentError


class FfSledsSession:
    """Per-descriptor element-oriented pick state."""

    def __init__(self, kernel, fd: int, data_offset: int, element_size: int,
                 element_count: int, preferred_elements: int,
                 order: str = "sleds") -> None:
        if element_size <= 0:
            raise InvalidArgumentError(
                f"element size must be positive: {element_size}")
        if element_count < 0 or data_offset < 0:
            raise InvalidArgumentError(
                f"bad data region: offset={data_offset}, n={element_count}")
        if preferred_elements <= 0:
            raise InvalidArgumentError(
                f"preferred element count must be positive: {preferred_elements}")
        self.kernel = kernel
        self.fd = fd
        self.data_offset = data_offset
        self.element_size = element_size
        self.element_count = element_count
        self._byte_session = SledsPickSession(
            kernel, fd, preferred_bufsize=preferred_elements * element_size,
            order=order)
        self._pending: list[tuple[int, int]] = []

    def _elements_of_chunk(self, offset: int, length: int) -> tuple[int, int]:
        """Half-open element range whose *first byte* lies inside the chunk
        ``[offset, offset + length)``.

        Element ``e`` starts at byte ``data_offset + e * element_size``;
        ceil division on both edges yields exactly the elements whose start
        falls inside the chunk.
        """
        size = self.element_size
        first = max(0, -(-(offset - self.data_offset) // size))
        last = max(0, -(-(offset + length - self.data_offset) // size))
        last = min(self.element_count, last)
        return first, max(first, last)

    def next_read(self) -> tuple[int, int] | None:
        """Next (element_index, element_count) to process, or None.

        Byte chunks from the underlying session partition the file, and an
        element is mapped to the unique chunk holding its first byte, so
        the element ranges produced here partition ``[0, element_count)``
        with no bookkeeping (property-tested in the test suite).
        """
        while True:
            if self._pending:
                return self._pending.pop(0)
            chunk = self._byte_session.next_read()
            if chunk is None:
                return None
            first, last = self._elements_of_chunk(*chunk)
            if last > first:
                self._pending.append((first, last - first))

    def byte_range(self, element_index: int, count: int) -> tuple[int, int]:
        """(file offset, nbytes) covering an element range."""
        offset = self.data_offset + element_index * self.element_size
        return offset, count * self.element_size


_ff_sessions: dict[tuple[int, int], FfSledsSession] = {}


def ffsleds_pick_init(kernel, fd: int, data_offset: int, element_size: int,
                      element_count: int, preferred_elements: int,
                      order: str = "sleds") -> int:
    """Start an element-oriented session; returns preferred element count."""
    key = _key(kernel, fd)
    if key in _ff_sessions or key in _sessions:
        raise InvalidArgumentError(
            f"fd {fd} already has an active pick session")
    session = FfSledsSession(kernel, fd, data_offset, element_size,
                             element_count, preferred_elements, order=order)
    _ff_sessions[key] = session
    return preferred_elements


def ffsleds_pick_next_read(kernel, fd: int) -> tuple[int, int] | None:
    """Next (element_index, element_count), or None when exhausted."""
    try:
        session = _ff_sessions[_key(kernel, fd)]
    except KeyError:
        raise InvalidArgumentError(
            f"fd {fd} has no ff pick session; call ffsleds_pick_init first"
        ) from None
    return session.next_read()


def ffsleds_pick_finish(kernel, fd: int) -> None:
    """End the element-oriented session."""
    _ff_sessions.pop(_key(kernel, fd), None)


def ff_active_session(kernel, fd: int) -> FfSledsSession | None:
    """Expose the session (tests and the LHEASOFT ports use this)."""
    return _ff_sessions.get(_key(kernel, fd))
