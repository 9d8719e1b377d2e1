"""Discrete-event core: a deterministic event loop over the virtual clock.

The synchronous substrate charges every device access to one global clock,
so no request ever queues and no task's CPU overlaps another task's I/O.
This module supplies the missing time model:

* :class:`EventLoop` — one binary heap of ``(time, seq)``-ordered events
  layered on :class:`~repro.sim.clock.VirtualClock`.  Popping an event
  whose timestamp lies in the future advances the clock to it (charged to
  the event's category); events at equal timestamps fire in FIFO
  submission order, which is what makes concurrent runs reproducible bit
  for bit.
* :class:`IoFuture` — the completion handle tasks block on.  A future is
  resolved (or failed) from inside an event callback; registered waiters
  are notified in registration order.

Nothing here reads wall-clock time or draws randomness: given the same
submission sequence, two runs replay the identical event order.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable

from repro.sim.clock import VirtualClock
from repro.sim.errors import InvalidArgumentError


class Event:
    """One scheduled callback; compare by ``(time, seq)`` for heap order."""

    __slots__ = ("time", "seq", "callback", "category", "cancelled")

    def __init__(self, time: float, seq: int, callback: Callable[[], None],
                 category: str) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.category = category
        self.cancelled = False

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time:.6f} seq={self.seq} {state}>"


class EventLoop:
    """A deterministic event loop driving one virtual clock.

    Determinism rules (relied on by the concurrency tests):

    1. events fire in nondecreasing time order;
    2. events at the *same* time fire in submission (FIFO) order — the
       tie-break is a monotonically increasing sequence number, never
       object identity or hash order;
    3. the clock only moves forward, to the timestamp of the event being
       fired, charged to that event's category (device completions charge
       their device's category, so a solo run's per-category totals are
       identical to the synchronous path's).

    Cancellation is lazy: a cancelled event stays in the heap until a pop
    reaches it, and ``pending`` counts the live ones.
    """

    def __init__(self, clock: VirtualClock) -> None:
        self.clock = clock
        self._heap: list[Event] = []
        self._seq = itertools.count()
        self._fired = 0

    def at(self, time: float, callback: Callable[[], None],
           category: str = "wait") -> Event:
        """Schedule ``callback`` to fire when virtual time reaches ``time``.

        ``time`` may equal the current time (fires on the next ``step``)
        but never lie in the past — the clock is monotonic.
        """
        if time < self.clock.now:
            raise InvalidArgumentError(
                f"cannot schedule event in the past: {time} < "
                f"{self.clock.now}")
        event = Event(time, next(self._seq), callback, category)
        heapq.heappush(self._heap, event)
        return event

    def after(self, delay: float, callback: Callable[[], None],
              category: str = "wait") -> Event:
        """Schedule ``callback`` ``delay`` seconds from now."""
        if delay < 0:
            raise InvalidArgumentError(f"negative delay: {delay}")
        return self.at(self.clock.now + delay, callback, category)

    def cancel(self, event: Event) -> None:
        """Drop a scheduled event (safe if already fired or cancelled)."""
        event.cancelled = True

    @property
    def pending(self) -> int:
        """Number of events still scheduled (cancelled ones excluded)."""
        return sum(1 for e in self._heap if not e.cancelled)

    @property
    def fired(self) -> int:
        """Total events fired so far (monitoring / tests)."""
        return self._fired

    def peek_time(self) -> float | None:
        """Timestamp of the next live event, or None when idle."""
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0].time if self._heap else None

    def step(self) -> bool:
        """Fire the next event, advancing the clock to it.

        Returns False when no live events remain.
        """
        while self._heap:
            event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            if event.time > self.clock.now:
                # advance_to lands bit-exactly on the timestamp; a
                # subtract-then-add round trip can drift an ulp
                self.clock.advance_to(event.time, event.category)
            self._fired += 1
            event.callback()
            return True
        return False

    def run_until_idle(self, max_events: int = 10_000_000) -> int:
        """Fire events until the queue drains; returns the count fired."""
        fired = 0
        while self.step():
            fired += 1
            if fired > max_events:
                raise RuntimeError(
                    f"event loop exceeded {max_events} events; "
                    f"likely a rescheduling cycle")
        return fired

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"EventLoop(now={self.clock.now:.6f}, pending={self.pending})"


class IoFuture:
    """Completion handle for one in-flight I/O request.

    Resolved exactly once, from inside an event callback.  Tasks yield the
    future to their scheduler, which parks them until resolution; waiters
    registered with :meth:`add_done_callback` run synchronously inside the
    resolving event, in registration order.
    """

    __slots__ = ("_done", "_value", "_exception", "_callbacks", "label")

    def __init__(self, label: str = "") -> None:
        self._done = False
        self._value = None
        self._exception: BaseException | None = None
        self._callbacks: list[Callable[["IoFuture"], None]] = []
        self.label = label

    @property
    def done(self) -> bool:
        return self._done

    @property
    def value(self):
        """The completion payload; raises the stored exception if failed."""
        if not self._done:
            raise InvalidArgumentError(
                f"future {self.label!r} is not resolved yet")
        if self._exception is not None:
            raise self._exception
        return self._value

    @property
    def exception(self) -> BaseException | None:
        return self._exception if self._done else None

    def resolve(self, value=None) -> None:
        self._settle(value, None)

    def fail(self, exception: BaseException) -> None:
        self._settle(None, exception)

    def _settle(self, value, exception) -> None:
        if self._done:
            raise InvalidArgumentError(
                f"future {self.label!r} is already resolved")
        self._done = True
        self._value = value
        self._exception = exception
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)

    def add_done_callback(self,
                          callback: Callable[["IoFuture"], None]) -> None:
        """Run ``callback(self)`` on resolution (immediately if done)."""
        if self._done:
            callback(self)
        else:
            self._callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if self._done else "pending"
        return f"<IoFuture {self.label!r} {state}>"
