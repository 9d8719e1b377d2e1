"""Reference event loop: a plain list scanned for the earliest event.

:class:`repro.sim.events.EventLoop` keeps its events in a binary heap.
This loop keeps them in a list and scans it on every step for the live
event with the smallest ``(time, seq)`` — the ordering rule with nothing
in the way.  ``tests/test_sim_events_property.py`` runs random programs
on both and demands identical traces.
"""

from __future__ import annotations

from types import SimpleNamespace

from repro.sim.errors import InvalidArgumentError

__all__ = ["ReferenceEventLoop"]


class ReferenceEventLoop:
    """``at``/``cancel``/``step`` with a linear scan instead of a heap."""

    def __init__(self, clock) -> None:
        self.clock = clock
        self._events: list[SimpleNamespace] = []
        self._seq = 0
        self.fired = 0

    def at(self, time: float, callback, category: str = "wait"):
        if time < self.clock.now:
            raise InvalidArgumentError(
                f"cannot schedule event in the past: {time}")
        event = SimpleNamespace(time=time, seq=self._seq, callback=callback,
                                category=category, cancelled=False)
        self._seq += 1
        self._events.append(event)
        return event

    def cancel(self, event) -> None:
        event.cancelled = True

    def _live(self) -> list[SimpleNamespace]:
        return [e for e in self._events if not e.cancelled]

    @property
    def pending(self) -> int:
        return len(self._live())

    def peek_time(self) -> float | None:
        return min((e.time for e in self._live()), default=None)

    def step(self) -> bool:
        live = self._live()
        if not live:
            return False
        event = min(live, key=lambda e: (e.time, e.seq))
        self._events.remove(event)
        if event.time > self.clock.now:
            self.clock.advance_to(event.time, event.category)
        self.fired += 1
        event.callback()
        return True
