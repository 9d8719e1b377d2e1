"""Device model base classes.

A :class:`Device` turns an access request (address, byte count) into a
duration in virtual seconds, updating its own dynamic state (head position,
mounted tape, ...) as a side effect.  Devices never touch the clock
themselves — the kernel charges the returned duration — and they never hold
data; file content lives in the filesystem layer.  This mirrors the paper's
observation that in current systems "the storage devices are purely passive,
although their characteristics are measured and presented by proxy".

Every device also carries a :class:`DeviceSpec` with the *nominal*
latency/bandwidth, which is what the paper's boot-time lmbench run would
measure and feed into the kernel sleds table (our
:mod:`repro.bench.lmbench` does the measuring for real, against these
models).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.sim.errors import IoSimError


@dataclass(frozen=True)
class DeviceSpec:
    """Nominal characteristics of a device, for reports and sanity checks.

    ``latency`` is the expected time-to-first-byte of an isolated random
    access in seconds; ``bandwidth`` the sustained sequential transfer rate
    in bytes/second.  These correspond to the rows of the paper's Tables 2
    and 3.
    """

    name: str
    kind: str
    latency: float
    bandwidth: float


@dataclass
class DeviceStats:
    """Cumulative access statistics, used by tests and benchmark reports."""

    reads: int = 0
    writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    busy_time: float = 0.0
    seeks: int = 0
    errors: int = 0
    #: time requests spent waiting behind the busy horizon (event engine)
    queue_wait_time: float = 0.0
    #: requests that had to wait (submitted while the device was busy)
    queued_requests: int = 0

    def reset(self) -> None:
        self.reads = 0
        self.writes = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self.busy_time = 0.0
        self.seeks = 0
        self.errors = 0
        self.queue_wait_time = 0.0
        self.queued_requests = 0


class Completion:
    """The outcome of one :meth:`Device.submit` call.

    ``submit_time`` is when the request arrived, ``start_time`` when the
    device actually began service (``max(submit_time, busy_until)``), and
    ``duration`` the service time alone — so ``queue_wait`` is pure
    head-of-line blocking, never transfer time.

    A slotted record of a request whose outcome outlives the call: the
    block layer builds one per queued request, directly or through
    :meth:`Device.submit`, and its future and the lifecycle log own it.
    The blocking :meth:`Device.read` and :meth:`Device.write` build none;
    they return the duration alone.
    """

    __slots__ = ("device_name", "addr", "nbytes", "is_write", "submit_time",
                 "start_time", "duration", "merged", "merged_from")

    def __init__(self, device_name: str, addr: int, nbytes: int,
                 is_write: bool, submit_time: float, start_time: float,
                 duration: float, merged: bool = False,
                 merged_from: tuple = ()) -> None:
        self.device_name = device_name
        self.addr = addr
        self.nbytes = nbytes
        self.is_write = is_write
        self.submit_time = submit_time
        self.start_time = start_time
        self.duration = duration
        #: True when this completion belongs to a request that was
        #: coalesced with others by the block layer's merge stage
        self.merged = merged
        #: provenance of a coalesced request — ``(inode, page, cluster)``
        #: per member, non-empty only on the *primary* member's completion
        #: (the one that records the union in the lifecycle log)
        self.merged_from = merged_from

    def replace(self, **changes) -> "Completion":
        """A copy with ``changes`` applied — the ``dataclasses.replace``
        equivalent for this slotted class."""
        fields = {
            "device_name": self.device_name, "addr": self.addr,
            "nbytes": self.nbytes, "is_write": self.is_write,
            "submit_time": self.submit_time, "start_time": self.start_time,
            "duration": self.duration, "merged": self.merged,
            "merged_from": self.merged_from,
        }
        fields.update(changes)
        return Completion(**fields)

    @property
    def finish_time(self) -> float:
        """Virtual time at which the request's data is available."""
        return self.start_time + self.duration

    @property
    def queue_wait(self) -> float:
        """Seconds the request waited behind earlier requests."""
        return self.start_time - self.submit_time

    def _key(self) -> tuple:
        return (self.device_name, self.addr, self.nbytes, self.is_write,
                self.submit_time, self.start_time, self.duration,
                self.merged, self.merged_from)

    def __eq__(self, other) -> bool:
        if isinstance(other, Completion):
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "write" if self.is_write else "read"
        return (f"<Completion {self.device_name!r} {kind} addr={self.addr} "
                f"nbytes={self.nbytes} t=[{self.submit_time:.6f}, "
                f"{self.finish_time:.6f}]>")


class Device(ABC):
    """Abstract storage device with dynamic positional state.

    Subclasses implement :meth:`_access_time`; the public :meth:`read` and
    :meth:`write` wrappers validate arguments and keep statistics.  Those
    whose sequential continuations cost arithmetic alone state that cost
    once, in ``_continuation``, which :meth:`read_run` also prices runs
    with.
    """

    #: category name used when charging this device's time to the clock
    time_category = "device"

    #: component names charged once per *request* rather than once per
    #: scatter segment — continuation spans of a merged request waive them
    #: (a real controller pays its per-command overhead once, an NFS server
    #: answers one RPC).  Positioning is never waived; a fragmented span
    #: that forces a seek still pays for it.
    _merge_overhead_components: tuple[str, ...] = ()

    #: largest forward address gap (bytes) a merged read services by
    #: reading *through* the gap instead of repositioning.  The gap bytes
    #: cost transfer time but are discarded: they are not counted in
    #: ``bytes_read`` or the completion's ``nbytes``.  0 disables
    #: read-through (seek-capable devices reposition instead).
    _gap_read_through_bytes: int = 0

    #: where the next access continues the last one without repositioning
    #: (no seek, no rng draw): a disk's or CD-ROM's head, an NFS server's
    #: read-ahead.  None where every access continues (flash, memory) and
    #: on devices without a continuation model.
    head_pos: int | None = None

    #: ``_continuation(addr, nbytes)`` prices a continuation access of
    #: ``nbytes`` at ``addr`` and moves no state.  It returns ``(duration,
    #: components, end)``: the duration as ``_access_time`` computes it,
    #: the nonzero components in ``_access_time``'s order, and the address
    #: up to which every continuation costs the same (a disk zone's end,
    #: otherwise the capacity).  ``_access_time`` prices continuations
    #: with it and :meth:`read_run` whole runs.  None on devices without a
    #: continuation model (tape, RAID, autochanger).
    _continuation = None

    def __init__(self, spec: DeviceSpec, capacity: int,
                 rng: np.random.Generator | None = None) -> None:
        if capacity <= 0:
            raise ValueError(f"device capacity must be positive: {capacity}")
        self.spec = spec
        self.capacity = capacity
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.stats = DeviceStats()
        #: optional telemetry observer (see repro.obs.telemetry); the hook
        #: must be purely observational — it gets the computed duration and
        #: may not influence device state or timing
        self.observer = None
        #: component breakdown of the access currently being computed;
        #: ``_access_time`` implementations fill it from :meth:`_components`
        #: so the lifecycle layer can attribute where a duration went
        self._last_components: dict[str, float] | None = None
        #: cumulative virtual seconds per component ("positioning",
        #: "transfer", ...; writes prefixed ``write_``).  Monotonic, so
        #: observers can diff two snapshots to attribute one service call.
        self.component_totals: dict[str, float] = {}
        self._pending_failures = 0
        self._bad_ranges: list[tuple[int, int]] = []
        #: virtual time until which the device is servicing earlier
        #: requests; a request submitted before this horizon queues
        self.busy_until = 0.0

    # -- public API ----------------------------------------------------

    @property
    def name(self) -> str:
        return self.spec.name

    def submit(self, addr: int, nbytes: int, is_write: bool,
               now: float | None = None) -> Completion:
        """Submit one request; returns its :class:`Completion`.

        ``now`` is the submitter's virtual time.  A request arriving while
        the device is busy (``now < busy_until``) starts service at the
        busy horizon and records the difference as queue wait.  When
        ``now`` is omitted the request is treated as arriving exactly when
        the device frees up — the never-queueing regime of the blocking
        :meth:`read`/:meth:`write`, which leave the same state behind and
        return this completion's ``duration`` without building it.
        """
        return self._place(addr, nbytes, is_write, now,
                           self._serve(addr, nbytes, is_write))

    def _serve(self, addr: int, nbytes: int, is_write: bool) -> float:
        """Check, price and account one request; returns its duration.

        The step every single-span request takes, submitted or blocking:
        the bounds, armed-failure and bad-range checks, then
        :meth:`_access_time`, then the component totals, stats and busy
        time.  It moves neither the busy horizon nor the observer; the
        caller places the request in time.
        """
        self._check(addr, nbytes)
        self._maybe_fail(addr, nbytes, is_write)
        self._last_components = None
        duration = self._access_time(addr, nbytes, is_write)
        components = self._last_components
        if components is None:
            components = {"transfer": duration}
        self._last_components = None
        self._account(components, nbytes, duration, is_write)
        return duration

    def _account(self, components: dict[str, float], nbytes: int,
                 duration: float, is_write: bool) -> None:
        """Add one priced request to the component totals (writes under
        ``write_`` names), the request and byte counts and the busy
        time."""
        prefix = "write_" if is_write else ""
        totals = self.component_totals
        for part, seconds in components.items():
            key = prefix + part
            totals[key] = totals.get(key, 0.0) + seconds
        stats = self.stats
        if is_write:
            stats.writes += 1
            stats.bytes_written += nbytes
        else:
            stats.reads += 1
            stats.bytes_read += nbytes
        stats.busy_time += duration

    def _place(self, addr: int, nbytes: int, is_write: bool,
               now: float | None, duration: float) -> Completion:
        """Place a priced request in time and return its completion: it
        arrives at ``now`` (default: the busy horizon), starts at the
        later of that and the horizon, waits for the difference and
        moves the horizon past its service."""
        busy = self.busy_until
        submit_time = busy if now is None else now
        start = max(submit_time, busy)
        wait = start - submit_time
        if wait > 0.0:
            self.stats.queue_wait_time += wait
            self.stats.queued_requests += 1
        self.busy_until = start + duration
        if self.observer is not None:
            self.observer.on_device_access(self, addr, nbytes, duration,
                                           is_write=is_write)
        return Completion(self.name, addr, nbytes, is_write, submit_time,
                          start, duration)

    @staticmethod
    def _components(**parts: float) -> dict[str, float]:
        """The component breakdown of one access: ``parts`` without the
        zero-valued ones, in the order given.

        Purely observational: ``_access_time`` implementations keep their
        original duration arithmetic (order of float additions included —
        the timings are regression anchors) and store this alongside it
        in ``_last_components`` (or return it from ``_continuation``), so
        every charged second is attributable to a named component.  Any
        rounding daylight between the sum of parts and the returned
        duration is attributed to the residual by the lifecycle layer.
        """
        if 0.0 in parts.values():
            return {name: seconds for name, seconds in parts.items()
                    if seconds != 0.0}
        return parts

    def submit_spans(self, spans, is_write: bool = False,
                     now: float | None = None) -> Completion:
        """Submit one *merged* request covering several extent spans.

        ``spans`` is a sequence of ``(addr, nbytes)`` pairs in address
        order, the scatter list of a request the block layer coalesced.
        The device services them as one command: per-request overhead
        components (:attr:`_merge_overhead_components`) are charged on the
        first span only, and small forward gaps between spans (up to
        :attr:`_gap_read_through_bytes`) are read through sequentially
        instead of repositioning.  A single span is bit-identical to
        :meth:`submit`.

        One request for statistics purposes: ``stats.reads`` (or writes)
        increments once, the observer fires once, and the returned
        :class:`Completion` carries the first span's address and the *sum*
        of the span byte counts (gap bytes excluded — they are transferred
        and discarded, never delivered).
        """
        spans = list(spans)
        if not spans:
            raise ValueError("submit_spans needs at least one span")
        if len(spans) == 1:
            addr, nbytes = spans[0]
            return self.submit(addr, nbytes, is_write, now=now)
        for addr, nbytes in spans:
            self._check(addr, nbytes)
        self._maybe_fail(*spans[0], is_write)
        for addr, nbytes in spans[1:]:
            self._check_bad_ranges(addr, nbytes, is_write)
        duration = 0.0
        payload = 0
        components: dict[str, float] = {}

        def charge(addr: int, nbytes: int, is_write: bool,
                   waive: tuple[str, ...]) -> float:
            self._last_components = None
            seconds = self._access_time(addr, nbytes, is_write)
            parts = self._last_components
            if parts is None:
                parts = {"transfer": seconds}
            self._last_components = None
            for part in waive:
                seconds -= parts.pop(part, 0.0)
            for part, value in parts.items():
                components[part] = components.get(part, 0.0) + value
            return seconds

        expected = None
        for index, (addr, nbytes) in enumerate(spans):
            if index > 0:
                gap = addr - expected
                if not is_write and 0 < gap <= self._gap_read_through_bytes:
                    duration += charge(expected, gap, False,
                                       self._merge_overhead_components)
            waive = self._merge_overhead_components if index > 0 else ()
            duration += charge(addr, nbytes, is_write, waive)
            payload += nbytes
            expected = addr + nbytes

        self._account(components, payload, duration, is_write)
        return self._place(spans[0][0], payload, is_write, now, duration)

    def read_spans(self, spans) -> float:
        """Blocking multi-span read: the duration of one merged request
        (the never-queueing regime, like :meth:`read`).  A single span is
        a :meth:`read`; several go through :meth:`submit_spans`."""
        spans = list(spans)
        if len(spans) == 1:
            addr, nbytes = spans[0]
            return self.read(addr, nbytes)
        return self.submit_spans(spans).duration

    def read(self, addr: int, nbytes: int) -> float:
        """Time in seconds to read ``nbytes`` starting at ``addr``.

        The blocking request: it arrives the instant the device frees up,
        so it never queues, and it leaves the same state behind as
        ``submit(addr, nbytes, False)`` and returns that completion's
        ``duration``, bit for bit, without building the completion.
        """
        duration = self._serve(addr, nbytes, False)
        self.busy_until += duration
        if self.observer is not None:
            self.observer.on_device_access(self, addr, nbytes, duration,
                                           is_write=False)
        return duration

    def read_run(self, addr: int, npages: int, page_bytes: int):
        """Read ``npages`` consecutive pages from ``addr`` in one call.

        Equal, bit for bit, to the scalar loop::

            [self.read(addr + i * page_bytes, page_bytes)
             for i in range(npages)]

        in the durations it returns and in the stats, busy horizon,
        component totals, position and rng draws it leaves behind.  A
        first page that does not continue the device's position goes
        through :meth:`read` (it seeks, and may draw from the rng); every
        page after it continues its predecessor.  :meth:`_continuation`
        prices those once per stretch of equal cost, and each stretch
        adds its duration and components once per page, in page order,
        with ``+=`` — ``sum()`` and ``math.fsum`` would round differently
        from the scalar chain of additions.

        Returns the durations as a list, or ``None`` before any state
        moves when the run cannot be priced this way: the device has no
        continuation model, its reads fill a cache it models, an observer
        is attached, or failures or bad ranges are armed.  The caller then
        reads page by page.
        """
        if (npages <= 0 or self._continuation is None or self._caches_reads()
                or self.observer is not None or self._pending_failures > 0
                or self._bad_ranges):
            return None
        self._check(addr, npages * page_bytes)
        end = addr + npages * page_bytes
        head = self.head_pos
        durations = []
        if head is not None and addr != head:
            durations.append(self.read(addr, page_bytes))
            addr += page_bytes
        stats = self.stats
        totals = self.component_totals
        busy = stats.busy_time
        horizon = self.busy_until
        stats.reads += (end - addr) // page_bytes
        stats.bytes_read += end - addr
        while addr < end:
            duration, parts, limit = self._continuation(addr, page_bytes)
            count = min(end - addr,
                        limit - addr + page_bytes - 1) // page_bytes
            durations += [duration] * count
            for _ in range(count):
                busy += duration
                horizon += duration
            for part, seconds in parts.items():
                total = totals.get(part, 0.0)
                for _ in range(count):
                    total += seconds
                totals[part] = total
            addr += count * page_bytes
        stats.busy_time = busy
        # blocking reads never queue: each starts at the busy horizon
        self.busy_until = horizon
        if head is not None:
            self.head_pos = end
        return durations

    def _caches_reads(self) -> bool:
        """Whether reads also fill a cache this device models (an NFS
        server's), which :meth:`read_run` does not update."""
        return False

    def write(self, addr: int, nbytes: int) -> float:
        """Time in seconds to write ``nbytes`` starting at ``addr``: the
        blocking request of :meth:`read`, for a write."""
        duration = self._serve(addr, nbytes, True)
        self.busy_until += duration
        if self.observer is not None:
            self.observer.on_device_access(self, addr, nbytes, duration,
                                           is_write=True)
        return duration

    def queue_delay(self, now: float) -> float:
        """Seconds a request submitted at ``now`` would wait before
        service begins (0.0 when the device is idle)."""
        return max(0.0, self.busy_until - now)

    def clamp_horizon(self, now: float) -> None:
        """Pull the busy horizon back to ``now`` at the latest.

        Off-clock accesses (boot-time lmbench probes run the device
        without charging the kernel clock) push ``busy_until`` past the
        clock; the event engine clamps every device when it attaches so
        stale horizons never masquerade as congestion.
        """
        if self.busy_until > now:
            self.busy_until = now

    def head_position(self) -> int:
        """Current positioning state for I/O-scheduler decisions.

        This is the explicit protocol the block layer consults between
        requests: devices with mechanical position (disk heads, CD pickup)
        override it; positionless devices (memory, network) report address
        0, where every elevator sweep starts.
        """
        return 0

    def reset_state(self) -> None:
        """Forget positional state (as if freshly powered on)."""
        self.busy_until = 0.0

    # -- failure injection ------------------------------------------------

    def inject_failures(self, count: int = 1) -> None:
        """Make the next ``count`` accesses fail with EIO (testing aid)."""
        if count < 0:
            raise ValueError(f"failure count must be >= 0: {count}")
        self._pending_failures += count

    def mark_bad_range(self, addr: int, nbytes: int) -> None:
        """Permanently fail any access overlapping ``[addr, addr+nbytes)``
        — a grown media defect."""
        if addr < 0 or nbytes <= 0:
            raise ValueError(f"bad defect range: {addr}, {nbytes}")
        self._bad_ranges.append((addr, addr + nbytes))

    def clear_failures(self) -> None:
        """Drop injected failures and media defects."""
        self._pending_failures = 0
        self._bad_ranges.clear()

    def _maybe_fail(self, addr: int, nbytes: int, is_write: bool) -> None:
        if self._pending_failures > 0:
            self._pending_failures -= 1
            self.stats.errors += 1
            raise IoSimError(self.name, addr, is_write)
        if self._bad_ranges:
            self._check_bad_ranges(addr, nbytes, is_write)

    def _check_bad_ranges(self, addr: int, nbytes: int,
                          is_write: bool) -> None:
        for lo, hi in self._bad_ranges:
            if addr < hi and addr + nbytes > lo:
                self.stats.errors += 1
                raise IoSimError(self.name, addr, is_write)

    # -- hooks -----------------------------------------------------------

    @abstractmethod
    def _access_time(self, addr: int, nbytes: int, is_write: bool) -> float:
        """Duration of one access; may update positional state."""

    # -- helpers ---------------------------------------------------------

    def _check(self, addr: int, nbytes: int) -> None:
        if addr < 0 or nbytes < 0:
            raise ValueError(f"negative address/length: {addr}, {nbytes}")
        if addr + nbytes > self.capacity:
            raise ValueError(
                f"access [{addr}, {addr + nbytes}) beyond capacity "
                f"{self.capacity} of device {self.name!r}"
            )

    def describe(self) -> str:
        """One-line human description used by reports."""
        return (
            f"{self.name} ({self.spec.kind}): "
            f"latency {self.spec.latency * 1e3:.3f} ms, "
            f"bandwidth {self.spec.bandwidth / (1 << 20):.1f} MB/s"
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name!r}>"
