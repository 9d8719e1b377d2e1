"""Cooperative multiprogramming over the simulated kernel.

The paper argues SLEDs make an application "a better citizen by reducing
system load" — a claim about *concurrent* workloads sharing the cache and
devices.  This module provides the machinery to run several application
loops interleaved against one kernel:

* a :class:`Task` wraps a generator that yields between I/O steps;
* :class:`EventScheduler` is the discrete-event scheduler: tasks that
  yield an :class:`~repro.sim.events.IoFuture` block until the device
  completes, while runnable tasks execute during the device service —
  CPU overlaps I/O, and per-device queues (see :mod:`repro.sim.engine`)
  order contending requests with an online elevator;
* :class:`RoundRobin` is the original lockstep scheduler, kept as a
  compatibility shim (it never overlaps anything: every kernel call
  blocks inline, exactly the pre-engine behaviour);
* :func:`wc_task` / :func:`grep_task` / :func:`reader_task` adapt the
  standard applications into steppable generators;
  :func:`reader_task_async` / :func:`wc_task_async` are their
  engine-aware forms that block on completions instead of the clock.

Scheduling is cooperative and deterministic — runnable tasks run FIFO,
blocked tasks wake in event order (time, then submission sequence) — so
two runs of the same workload are bit-identical.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Generator, Iterator

from repro.sim.errors import InvalidArgumentError

#: what task generators yield between steps: None (cooperative yield) or
#: an IoFuture / list of IoFutures to block on
Step = Generator[object, object, object]

#: sentinel distinguishing "task finished" from any yielded value
_DONE = object()


@dataclass
class TaskStats:
    """Per-task accounting, filled in by the scheduler.

    ``finished_at`` is the *absolute* scheduler virtual time at which the
    task completed (directly comparable to ``kernel.clock.now``);
    ``elapsed`` is the relative form — seconds from scheduler start to
    finish.  ``virtual_time`` counts only time that advanced while this
    task was executing (its CPU, memory and blocking I/O charges);
    ``wait_time`` counts time the task spent parked on completions while
    other tasks ran or the clock jumped to a device completion.
    """

    steps: int = 0
    virtual_time: float = 0.0
    hard_faults: int = 0
    started_at: float | None = None  # absolute virtual time of first step
    finished_at: float | None = None  # absolute virtual time at finish
    elapsed: float | None = None  # finished_at minus scheduler start
    wait_time: float = 0.0  # time spent blocked on I/O completions
    io_waits: int = 0  # completions this task blocked on
    result: object = None
    tenant: str | None = None  # owning tenant (QoS / accounting identity)


class Task:
    """One cooperative task: a generator plus its accounting.

    ``tenant`` names the QoS/accounting identity the task runs under;
    while the task executes, the kernel's ``current_tenant`` is set so
    faults, cache insertions, and block requests are attributed to it.
    Untenanted tasks (the default) leave every tenant path dormant.
    """

    def __init__(self, name: str, step_gen: Step,
                 tenant: str | None = None) -> None:
        self.name = name
        self._gen = step_gen
        self.tenant = tenant
        self.stats = TaskStats(tenant=tenant)
        self.done = False

    def step(self, kernel) -> bool:
        """Run one step; returns True while the task has more work.

        The lockstep entry point used by :class:`RoundRobin`: any yielded
        value is ignored, so tasks that yield futures must run under
        :class:`EventScheduler` instead.
        """
        return self.resume(kernel) is not _DONE

    def resume(self, kernel, value: object = None,
               exception: BaseException | None = None) -> object:
        """Advance the generator one step and account the slice.

        ``value`` is sent into the generator (the completion a blocked
        task was waiting for); ``exception`` is thrown into it instead
        (failed I/O).  Returns whatever the generator yields, or the
        ``_DONE`` sentinel once it finishes.
        """
        if self.done:
            return _DONE
        if self.stats.started_at is None:
            self.stats.started_at = kernel.clock.now
        clock_before = kernel.clock.now
        faults_before = kernel.counters.hard_faults
        # attribution for observability (lifecycle records name the task
        # whose slice issued each request); never read by the time model
        previous_task = getattr(kernel, "current_task", None)
        previous_tenant = getattr(kernel, "current_tenant", None)
        kernel.current_task = self.name
        kernel.current_tenant = self.tenant
        try:
            if exception is not None:
                yielded = self._gen.throw(exception)
            else:
                yielded = self._gen.send(value)
        except StopIteration as stop:
            self.stats.result = stop.value
            self.done = True
            yielded = _DONE
        finally:
            kernel.current_task = previous_task
            kernel.current_tenant = previous_tenant
            self.stats.steps += 1
            self.stats.virtual_time += kernel.clock.now - clock_before
            self.stats.hard_faults += (kernel.counters.hard_faults
                                       - faults_before)
        return yielded


class RoundRobin:
    """Deterministic lockstep round-robin scheduler over one kernel.

    Compatibility shim: every kernel call a task makes blocks inline
    (device time is charged synchronously), so nothing overlaps — the
    pre-event-engine behaviour.  Use :class:`EventScheduler` with the
    ``*_async`` task adapters to overlap CPU with device service.
    """

    def __init__(self, kernel, tasks: list[Task]) -> None:
        if not tasks:
            raise InvalidArgumentError("need at least one task")
        names = [t.name for t in tasks]
        if len(set(names)) != len(names):
            raise InvalidArgumentError(f"duplicate task names: {names}")
        self.kernel = kernel
        self.tasks = list(tasks)

    def run(self, max_rounds: int = 1_000_000) -> dict[str, TaskStats]:
        """Interleave all tasks to completion; returns stats by name."""
        start = self.kernel.clock.now
        pending = list(self.tasks)
        rounds = 0
        while pending:
            rounds += 1
            if rounds > max_rounds:
                raise RuntimeError(
                    f"round-robin exceeded {max_rounds} rounds; "
                    f"still pending: {[t.name for t in pending]}")
            still = []
            for task in pending:
                if task.step(self.kernel):
                    still.append(task)
                else:
                    task.stats.finished_at = self.kernel.clock.now
                    task.stats.elapsed = self.kernel.clock.now - start
            pending = still
        return {task.name: task.stats for task in self.tasks}


class EventScheduler:
    """Discrete-event task scheduler: CPU overlaps device service.

    Tasks are the same generators :class:`RoundRobin` runs, with one
    extension: yielding an :class:`~repro.sim.events.IoFuture` (or a list
    of them) parks the task until the I/O completes.  While a task is
    parked, other runnable tasks execute — their CPU and cache hits
    advance the clock during the blocked task's device service.  When
    every task is parked, the event loop jumps the clock to the earliest
    completion (charged to that device's category, so a solo run's
    per-category totals match the synchronous path bit for bit).

    Determinism: runnable tasks run FIFO; completions fire in event order
    (time, then submission sequence); a task woken by a completion goes to
    the back of the runnable queue.  No wall clock, no hashing, no
    randomness — identical workloads replay identically.
    """

    def __init__(self, kernel, tasks: list[Task],
                 engine=None) -> None:
        if not tasks:
            raise InvalidArgumentError("need at least one task")
        names = [t.name for t in tasks]
        if len(set(names)) != len(names):
            raise InvalidArgumentError(f"duplicate task names: {names}")
        self.kernel = kernel
        self.tasks = list(tasks)
        self.engine = engine

    def run(self, max_steps: int = 10_000_000) -> dict[str, TaskStats]:
        """Run all tasks to completion; returns stats by name."""
        from repro.sim.engine import IoEngine
        from repro.sim.events import IoFuture

        kernel = self.kernel
        engine = self.engine
        owns_engine = False
        if engine is None:
            engine = kernel.engine
            if engine is None:
                engine = IoEngine(kernel).attach()
                owns_engine = True
        elif kernel.engine is None:
            engine.attach()
            owns_engine = True

        start = kernel.clock.now
        runnable: deque[tuple[Task, object, BaseException | None]] = deque(
            (task, None, None) for task in self.tasks)
        counters = {"blocked": 0}
        steps = 0

        def park(task: Task, futures: list) -> None:
            """Wake ``task`` once every future resolves; deliver the last
            completion (or the first exception) back into the generator."""
            state = {"remaining": len(futures), "exc": None, "value": None,
                     "blocked_at": kernel.clock.now}
            counters["blocked"] += 1
            task.stats.io_waits += len(futures)

            def settle(future) -> None:
                state["remaining"] -= 1
                if future.exception is not None and state["exc"] is None:
                    state["exc"] = future.exception
                elif future.exception is None:
                    state["value"] = future.value
                if state["remaining"] == 0:
                    task.stats.wait_time += (kernel.clock.now
                                             - state["blocked_at"])
                    counters["blocked"] -= 1
                    runnable.append((task, state["value"], state["exc"]))

            for future in futures:
                future.add_done_callback(settle)

        try:
            while runnable or counters["blocked"]:
                steps += 1
                if steps > max_steps:
                    raise RuntimeError(
                        f"event scheduler exceeded {max_steps} steps")
                if not runnable:
                    if not engine.loop.step():
                        parked = [t.name for t in self.tasks if not t.done]
                        raise RuntimeError(
                            f"deadlock: tasks {parked} blocked with no "
                            f"pending events")
                    continue
                task, value, exception = runnable.popleft()
                yielded = task.resume(kernel, value, exception)
                if yielded is _DONE:
                    task.stats.finished_at = kernel.clock.now
                    task.stats.elapsed = kernel.clock.now - start
                    continue
                if yielded is None:
                    runnable.append((task, None, None))
                    continue
                futures = (list(yielded)
                           if isinstance(yielded, (list, tuple))
                           else [yielded])
                if not all(isinstance(f, IoFuture) for f in futures):
                    raise InvalidArgumentError(
                        f"task {task.name!r} yielded "
                        f"{yielded!r}; expected None or IoFuture(s)")
                park(task, futures)
            return {task.name: task.stats for task in self.tasks}
        finally:
            if owns_engine:
                engine.detach()


# ---------------------------------------------------------------------------
# application adapters
# ---------------------------------------------------------------------------

def reader_task(kernel, path: str, bufsize: int = 64 * 1024) -> Step:
    """A plain linear reader (the classic cache-hostile scan)."""
    fd = kernel.open(path)
    try:
        while True:
            data = kernel.read(fd, bufsize)
            if not data:
                return None
            yield
    finally:
        kernel.close(fd)


def wc_task(kernel, path: str, use_sleds: bool = False,
            bufsize: int = 64 * 1024) -> Step:
    """wc as a cooperative task; returns the (lines, words, chars) tuple."""
    from repro.apps.common import (
        SCAN_CPU_PER_BYTE,
        SLEDS_EXTRA_CPU_PER_BYTE,
        read_linear,
        read_sleds_order,
    )

    fd = kernel.open(path)
    try:
        lines = words = chars = 0
        prev_in_word = False
        reader = (read_sleds_order(kernel, fd, bufsize) if use_sleds
                  else read_linear(kernel, fd, bufsize))
        tax = SLEDS_EXTRA_CPU_PER_BYTE if use_sleds else 0.0
        edges = []
        for offset, data in reader:
            kernel.charge_cpu(len(data) * (SCAN_CPU_PER_BYTE + tax))
            lines += data.count(b"\n")
            words += len(data.split())
            chars += len(data)
            if data:
                edges.append((offset, offset + len(data),
                              data[:1] not in b" \t\n\r\v\f",
                              data[-1:] not in b" \t\n\r\v\f"))
            yield
        edges.sort()
        for (_, prev_end, _, prev_ends), (start, _, starts, _) in zip(
                edges, edges[1:]):
            if prev_end == start and prev_ends and starts:
                words -= 1
        return (lines, words, chars)
    finally:
        kernel.close(fd)


def grep_task(kernel, path: str, pattern: bytes,
              use_sleds: bool = False,
              bufsize: int = 64 * 1024) -> Step:
    """First-match grep as a cooperative task; returns the match offset
    or None."""
    from repro.apps.common import read_linear, read_sleds_order

    fd = kernel.open(path)
    try:
        reader = (read_sleds_order(kernel, fd, bufsize, record_mode=True)
                  if use_sleds else read_linear(kernel, fd, bufsize))
        carry = b""
        carry_end: int | None = None
        overlap = max(0, len(pattern) - 1)
        for offset, data in reader:
            if carry_end == offset:
                blob, base = carry + data, offset - len(carry)
            else:
                blob, base = data, offset
            index = blob.find(pattern)
            if index >= 0:
                return base + index
            carry = blob[-overlap:] if overlap else b""
            carry_end = base + len(blob)
            yield
        return None
    finally:
        kernel.close(fd)


def reader_task_async(kernel, path: str, bufsize: int = 64 * 1024,
                      cpu_per_byte: float = 0.0) -> Step:
    """Engine-aware linear reader: faults block on device completions
    (so other tasks run during the seek) instead of charging the clock
    inline.  ``cpu_per_byte`` charges per-byte CPU after each buffer —
    that CPU is what overlaps other tasks' device service."""
    fd = kernel.open(path)
    try:
        while True:
            data = yield from kernel.read_async(fd, bufsize)
            if not data:
                return None
            if cpu_per_byte:
                kernel.charge_cpu(len(data) * cpu_per_byte)
            yield
    finally:
        kernel.close(fd)


def wc_task_async(kernel, path: str, bufsize: int = 64 * 1024) -> Step:
    """Linear wc over the async read path; returns (lines, words, chars).

    Counting CPU is charged after each buffer arrives, so under the
    :class:`EventScheduler` one task's counting overlaps another task's
    device service."""
    from repro.apps.common import SCAN_CPU_PER_BYTE

    fd = kernel.open(path)
    try:
        lines = words = chars = 0
        pending = False  # last chunk ended mid-word
        while True:
            data = yield from kernel.read_async(fd, bufsize)
            if not data:
                return (lines, words, chars)
            kernel.charge_cpu(len(data) * SCAN_CPU_PER_BYTE)
            lines += data.count(b"\n")
            pieces = len(data.split())
            words += pieces
            if (pending and pieces
                    and data[:1] not in b" \t\n\r\v\f"):
                words -= 1  # continuation of the previous chunk's word
            pending = bool(pieces) and data[-1:] not in b" \t\n\r\v\f"
            chars += len(data)
            yield
    finally:
        kernel.close(fd)


def make_task(name: str, factory: Callable[[], Step]) -> Task:
    """Convenience: build a named Task from a generator factory."""
    return Task(name, factory())
