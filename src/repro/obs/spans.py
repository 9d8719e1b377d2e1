"""Span-based tracing layered on the flat event tracer.

:mod:`repro.sim.trace` records *point* events; this module adds the
hierarchy: a ``read()`` syscall span contains the page-fault spans it
triggered, and each fault span contains the device accesses that serviced
it.  Spans carry virtual start/end times, so the whole tree is
deterministic and replays identically run to run.

Exports:

* :func:`chrome_trace` — the Chrome trace-event JSON format (a dict ready
  for ``json.dump``), loadable in Perfetto / ``chrome://tracing``.  Virtual
  seconds become microsecond ``ts``/``dur`` fields of complete (``"X"``)
  events; the parent/child structure is preserved both by timestamp
  containment and an explicit ``args.span``/``args.parent`` pair.
* a completed span can be forwarded into a legacy
  :class:`~repro.sim.trace.Tracer`, so existing timeline rendering and
  event-sequence assertions keep working on top of span data.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import NamedTuple


class Span(NamedTuple):
    """One completed span of virtual time.

    A tuple, so it is cheap to build, immutable and hashable (when its
    attribute values are), and it compares equal to the tuple of its
    fields.
    """

    id: int
    parent_id: int | None
    kind: str            # "syscall" | "fault" | "device" | ...
    name: str            # e.g. "read", "disk", "ext2-disk"
    start: float         # virtual seconds
    end: float
    attrs: tuple = ()    # sorted (key, value) pairs

    @property
    def duration(self) -> float:
        return self.end - self.start

    def attr(self, key: str, default=None):
        for k, v in self.attrs:
            if k == key:
                return v
        return default


@dataclass
class OpenSpan:
    """A span that has begun but not ended (internal bookkeeping)."""

    id: int
    parent_id: int | None
    kind: str
    name: str
    start: float
    attrs: dict


class SpanRecorder:
    """Builds a span tree from begin/end calls and retroactive inserts.

    The recorder keeps a stack of open spans (the syscall currently
    executing); completed spans land in a bounded ring buffer, oldest
    dropped first, mirroring :class:`~repro.sim.trace.Tracer` semantics.
    """

    def __init__(self, capacity: int = 100_000, tracer=None) -> None:
        if capacity <= 0:
            raise ValueError(f"span capacity must be positive: {capacity}")
        self.capacity = capacity
        self.tracer = tracer
        self._spans: deque[Span] = deque(maxlen=capacity)
        self._stack: list[OpenSpan] = []
        self._next_id = 1
        self.dropped = 0

    # -- recording -------------------------------------------------------

    @property
    def open_depth(self) -> int:
        return len(self._stack)

    def current(self) -> OpenSpan | None:
        return self._stack[-1] if self._stack else None

    def begin(self, kind: str, name: str, t: float, **attrs) -> OpenSpan:
        parent = self._stack[-1].id if self._stack else None
        span = OpenSpan(id=self._next_id, parent_id=parent, kind=kind,
                        name=name, start=t, attrs=attrs)
        self._next_id += 1
        self._stack.append(span)
        return span

    def end(self, open_span: OpenSpan, t: float) -> Span:
        """Close ``open_span`` (and, defensively, anything opened inside
        it that was never closed)."""
        while self._stack:
            top = self._stack.pop()
            if top is open_span:
                break
        return self._record(open_span.id, open_span.parent_id,
                            open_span.kind, open_span.name,
                            open_span.start, t, open_span.attrs)

    def add(self, kind: str, name: str, start: float, end: float,
            parent_id: int | None = None, **attrs) -> Span:
        """Record a complete span; parent defaults to the open span."""
        if parent_id is None and self._stack:
            parent_id = self._stack[-1].id
        span_id = self._next_id
        self._next_id += 1
        return self._record(span_id, parent_id, kind, name, start, end,
                            attrs)

    def _record(self, span_id: int, parent_id: int | None, kind: str,
                name: str, start: float, end: float, attrs: dict) -> Span:
        if end < start:
            raise ValueError(f"span ends before it starts: {end} < {start}")
        span = Span(span_id, parent_id, kind, name, start, end,
                    tuple(sorted(attrs.items())))
        if len(self._spans) == self.capacity:
            self.dropped += 1
        self._spans.append(span)
        if self.tracer is not None:
            self.tracer.emit(start, kind, name, end - start, **attrs)
        return span

    # -- queries ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._spans)

    def spans(self, kind: str | None = None,
              name: str | None = None) -> list[Span]:
        return [s for s in self._spans
                if (kind is None or s.kind == kind)
                and (name is None or s.name == name)]

    def children_of(self, span: Span) -> list[Span]:
        return [s for s in self._spans if s.parent_id == span.id]

    def clear(self) -> None:
        self._spans.clear()
        self._stack.clear()
        self.dropped = 0


def chrome_trace(spans: list[Span] | SpanRecorder) -> dict:
    """Chrome trace-event JSON for a span list (or a whole recorder).

    Events are sorted by (start, -duration) so Perfetto's containment-based
    nesting matches the recorded parent links even when parent and child
    share a start timestamp.
    """
    items = spans.spans() if isinstance(spans, SpanRecorder) else list(spans)
    items.sort(key=lambda s: (s.start, -s.duration, s.id))
    events = [{
        "name": span.name,
        "cat": span.kind,
        "ph": "X",
        "ts": span.start * 1e6,
        "dur": span.duration * 1e6,
        "pid": 0,
        "tid": 0,
        "args": dict(span.attrs) | {
            "span": span.id,
            **({"parent": span.parent_id}
               if span.parent_id is not None else {}),
        },
    } for span in items]
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"clock": "virtual", "source": "repro.obs.spans"},
    }
