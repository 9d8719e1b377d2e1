"""Timing primitives shared by the workloads.

Every end-to-end timing is taken from outside the simulator, around its
public syscalls: :class:`TimedKernel` stands in for the kernel handed to
applications and tasks, forwards every attribute, and times the calls the
metrics cover.  Generator syscalls (``read_async`` and friends) are timed
by their *own slices* only — the host time spent inside the generator
between resumptions — so time other tasks run while one is parked on a
completion is never charged to it.

Every host time is then scaled to a reference host speed by
:class:`HostSpeed`, which times a fixed pure-Python loop every few
milliseconds of the run.
"""

from __future__ import annotations

import hashlib
import resource
import statistics
from time import perf_counter_ns

PAGE = 4096
#: the timed syscall families, one latency distribution each
KINDS = ("read", "pread", "sleds_get", "write")
#: the tail percentile every timing reports; it needs at least ten
#: samples beyond it, so a timing wants >= 1000 samples per run
TAIL = 99
#: iterations of the reference loop one probe runs (0.5-1 ms)
REFERENCE_LOOPS = 2000
#: the reference loop's time at the reference speed: every host time is
#: reported as if each probe around it had taken this long
REFERENCE_NS = 500_000
#: host time between probes; the host's speed changes by a few percent
#: from one such interval to the next
PROBE_EVERY_NS = 10_000_000


class Recorder:
    """Per-run accumulators: latency samples (ns) per syscall family, bytes
    delivered, pages touched by reads, and op/failure counts."""

    def __init__(self) -> None:
        self.ns: dict[str, list[int]] = {kind: [] for kind in KINDS}
        self.bytes = 0
        self.pages_touched = 0
        self.failed = 0
        self.errors: list[str] = []

    @property
    def ops(self) -> int:
        return sum(len(samples) for samples in self.ns.values())

    def fail(self, what: str) -> None:
        """Count one failed op; keep the first few reasons for the log."""
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(what)

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.fail(what)


def _pages(offset: int, nbytes: int) -> int:
    if nbytes <= 0:
        return 0
    return (offset + nbytes - 1) // PAGE - offset // PAGE + 1


def slices(gen, before, after):
    """Drive ``gen`` to completion, calling ``before()`` and ``after()``
    around each of its resumptions; values and exceptions pass through
    untouched."""
    value = None
    error = None
    while True:
        before()
        try:
            item = gen.send(value) if error is None else gen.throw(error)
        except StopIteration as stop:
            after()
            return stop.value
        except BaseException:
            after()
            raise
        after()
        try:
            value = yield item
            error = None
        except GeneratorExit:
            gen.close()
            raise
        except Exception as exc:  # delivered to the syscall, as unwrapped
            value = None
            error = exc


def own_slices(gen, sink: list):
    """Drive ``gen`` to completion and append the host ns spent inside its
    own slices to ``sink``."""
    total = start = 0

    def before() -> None:
        nonlocal start
        start = perf_counter_ns()

    def after() -> None:
        nonlocal total
        total += perf_counter_ns() - start

    value = yield from slices(gen, before, after)
    sink.append(total)
    return value


def reference_ns() -> int:
    """Host ns of a fixed pure-Python loop doing the kinds of interpreter
    work the simulator does: dict updates, small tuples, list growth and
    integer arithmetic.  It never touches the simulator, so a change to
    the program cannot change it."""
    start = perf_counter_ns()
    table: dict[int, int] = {}
    items = []
    acc = 0
    for i in range(REFERENCE_LOOPS):
        key = i & 255
        table[key] = table.get(key, 0) + i
        items.append((key, i))
        if len(items) > 64:
            items.clear()
        acc = (acc + i * i) % 1_000_003
    return perf_counter_ns() - start


def scale(host_ns: float, before: int, after: int) -> float:
    """``host_ns`` at the reference speed, given the reference loop's time
    just before and just after it."""
    return host_ns * 2 * REFERENCE_NS / (before + after)


class HostSpeed:
    """Scales a measured phase's host times to the reference speed.

    A shared host's speed swings by up to 2x within seconds, as other
    machines' work comes and goes, but changes by only a few percent
    from one 10 ms to the next.  So the phase runs :func:`reference_ns`
    every ``PROBE_EVERY_NS``, between timed syscalls, and each stretch of
    work between two probes is scaled by the mean of the two.  Probe time
    is excluded from the phase.
    """

    def __init__(self, recorder: Recorder) -> None:
        self._rec = recorder
        #: (start ns, end ns, reference ns, sample count per kind)
        self.probes: list[tuple[int, int, int, tuple[int, ...]]] = []
        #: host ns at which the next probe is due (never, until started)
        self.due = float("inf")

    def probe(self) -> None:
        start = perf_counter_ns()
        took = reference_ns()
        end = perf_counter_ns()
        self.probes.append((start, end, took, tuple(
            len(samples) for samples in self._rec.ns.values())))
        self.due = end + PROBE_EVERY_NS

    def tick(self) -> None:
        if perf_counter_ns() >= self.due:
            self.probe()

    def stop(self) -> None:
        self.probe()
        self.due = float("inf")

    def segments(self):
        """``(work ns, reference ns either side, sample range per kind)``
        for each stretch between two probes."""
        for (_, end, before, lo), (start, _, after, hi) in zip(
                self.probes, self.probes[1:]):
            yield start - end, (before, after), tuple(zip(lo, hi))

    def phase(self) -> tuple[int, float]:
        """The phase's (host ns, ns at the reference speed), probes
        excluded."""
        host = scaled = 0.0
        for work, around, _ in self.segments():
            host += work
            scaled += scale(work, *around)
        return int(host), scaled

    def samples(self) -> dict[str, list[float]]:
        """Every latency sample at the reference speed, per kind."""
        out: dict[str, list[float]] = {kind: [] for kind in KINDS}
        for _, around, ranges in self.segments():
            for kind, (lo, hi) in zip(KINDS, ranges):
                out[kind] += [scale(ns, *around)
                              for ns in self._rec.ns[kind][lo:hi]]
        return out

    def reference_median_ns(self) -> float:
        return statistics.median(took for _, _, took, _ in self.probes)


class TimedKernel:
    """A kernel stand-in that times the syscalls behind the end-to-end
    latency metrics and counts the bytes and pages they move.  Before each
    timed call it gives ``speed`` the chance to probe the host."""

    def __init__(self, kernel, recorder: Recorder, speed: HostSpeed) -> None:
        self._kernel = kernel
        self._rec = recorder
        self._tick = speed.tick
        self._read = recorder.ns["read"]
        self._pread = recorder.ns["pread"]
        self._sleds = recorder.ns["sleds_get"]
        self._write = recorder.ns["write"]

    def __getattr__(self, name):
        return getattr(self._kernel, name)

    def _delivered(self, offset: int, data: bytes) -> None:
        self._rec.bytes += len(data)
        self._rec.pages_touched += _pages(offset, len(data))

    def read(self, fd: int, nbytes: int) -> bytes:
        self._tick()
        offset = self._kernel._fd(fd).pos
        start = perf_counter_ns()
        data = self._kernel.read(fd, nbytes)
        self._read.append(perf_counter_ns() - start)
        self._delivered(offset, data)
        return data

    def pread(self, fd: int, offset: int, nbytes: int) -> bytes:
        self._tick()
        start = perf_counter_ns()
        data = self._kernel.pread(fd, offset, nbytes)
        self._pread.append(perf_counter_ns() - start)
        self._delivered(offset, data)
        return data

    def get_sleds(self, fd: int):
        self._tick()
        start = perf_counter_ns()
        vector = self._kernel.get_sleds(fd)
        self._sleds.append(perf_counter_ns() - start)
        return vector

    def write(self, fd: int, data: bytes) -> int:
        self._tick()
        start = perf_counter_ns()
        written = self._kernel.write(fd, data)
        self._write.append(perf_counter_ns() - start)
        self._rec.bytes += written
        return written

    def fsync(self, fd: int) -> None:
        self._tick()
        start = perf_counter_ns()
        self._kernel.fsync(fd)
        self._write.append(perf_counter_ns() - start)

    def read_async(self, fd: int, nbytes: int):
        self._tick()
        offset = self._kernel._fd(fd).pos
        data = yield from own_slices(
            self._kernel.read_async(fd, nbytes), self._read)
        self._delivered(offset, data)
        return data

    def pread_async(self, fd: int, offset: int, nbytes: int):
        self._tick()
        data = yield from own_slices(
            self._kernel.pread_async(fd, offset, nbytes), self._pread)
        self._delivered(offset, data)
        return data

    def fsync_async(self, fd: int):
        self._tick()
        yield from own_slices(self._kernel.fsync_async(fd), self._write)


# -- statistics --------------------------------------------------------------

def _rank(count: int, pct: int) -> int:
    return max(1, (pct * count + 99) // 100)


def percentile(ordered: list, pct: int):
    """Nearest-rank ``pct``-th percentile of an ascending list."""
    return ordered[_rank(len(ordered), pct) - 1] if ordered else 0


def block_size(pct: int) -> int:
    """Fewest samples whose ``pct``-th percentile has 10 beyond it."""
    return -(-1000 // (100 - pct))


# -- host facts --------------------------------------------------------------

def peak_rss_mb() -> float:
    """Peak resident set of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- virtual outcome ---------------------------------------------------------

def devices_of(kernel) -> list:
    """Every device the kernel can reach, each once."""
    devices = {id(kernel.memory): kernel.memory}
    for _, fs in kernel.mounts():
        for device in fs.observable_devices():
            devices.setdefault(id(device), device)
    return list(devices.values())


def kernel_state(kernel) -> tuple:
    """The virtual outcome a digest covers: clock, every kernel counter,
    and each device's statistics."""
    stats = sorted(
        (device.name, device.stats.reads, device.stats.writes,
         device.stats.bytes_read, device.stats.bytes_written,
         device.stats.busy_time, device.stats.queue_wait_time,
         device.stats.queued_requests)
        for device in devices_of(kernel))
    counters = sorted((name, repr(value)) for name, value
                      in vars(kernel.counters).items())
    return (kernel.clock.now, sorted(kernel.clock.categories().items()),
            counters, stats)


class Digest:
    """A running hash of a run's virtual outcome, fed once per round."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def update(self, *parts) -> None:
        self._hash.update(repr(parts).encode())

    def hexdigest(self, kernel) -> str:
        final = self._hash.copy()
        final.update(repr(kernel_state(kernel)).encode())
        return final.hexdigest()[:16]
