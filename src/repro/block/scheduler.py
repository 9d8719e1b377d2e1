"""Block-layer I/O request scheduling.

The paper points at disk-scheduling work (Worthington et al. [WGP94]) as a
way to "enhance the accuracy of SLEDs"; our substrate uses a scheduler
wherever the kernel has a *batch* of requests in hand — most importantly
the writeback path, where dirty pages from many files flush together.  A
good order turns a scattered batch into few long sweeps; FCFS turns it
into a seek storm.

Schedulers order a batch given the device's current head position;
execution stays in the device models (which charge seek/rotation per the
resulting address sequence).

* :class:`FcfsScheduler` — submission order (the null scheduler).
* :class:`SstfScheduler` — greedy shortest-seek-first from the head.
* :class:`ClookScheduler` — circular LOOK: ascending addresses starting
  at the head position, wrapping once (Linux-style elevator behaviour).
* :class:`FairScheduler` — CFQ-style per-tenant service budgets (deficit
  round robin by bytes) layered over any position policy, so one
  streaming tenant cannot starve everyone else's queue.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass

from repro.devices.base import Completion
from repro.sim.errors import InvalidArgumentError
from repro.sim.events import IoFuture


@dataclass(frozen=True, slots=True)
class DispatchRecord:
    """One entry of a device queue's bounded dispatch history.

    The forensic substrate (:mod:`repro.obs.forensics`) reconstructs a
    request's queue-wait window from these: who occupied the device
    between another request's submission and its service start, and for
    how long.  ``rid`` is the queue-local submission sequence number;
    ``kind`` is the request's provenance (``fault`` / ``prefetch`` /
    ``writeback`` / ``io``); ``start``/``finish`` bound the service
    interval in virtual seconds.  Entries are appended at dispatch time,
    so cancelled requests never appear and a coalesced group appears
    once (the union request, under the primary member's kind/tenant).
    """

    rid: int
    kind: str
    label: str
    tenant: str | None
    is_write: bool
    nbytes: int
    submit_time: float
    start: float
    finish: float

    def to_dict(self) -> dict:
        return {
            "rid": self.rid, "kind": self.kind, "label": self.label,
            "tenant": self.tenant, "is_write": self.is_write,
            "nbytes": self.nbytes, "submit_time": self.submit_time,
            "start": self.start, "finish": self.finish,
        }


@dataclass(frozen=True, eq=False)
class IoRequest:
    """One block-layer request; requests compare by identity."""

    addr: int
    nbytes: int
    is_write: bool = False
    tag: object = None  # opaque caller context (inode, page range, ...)
    #: owning tenant for QoS accounting; None = untenanted (the default)
    tenant: str | None = None

    def __post_init__(self) -> None:
        if self.addr < 0 or self.nbytes <= 0:
            raise InvalidArgumentError(
                f"bad request: addr={self.addr}, nbytes={self.nbytes}")

    @property
    def end(self) -> int:
        return self.addr + self.nbytes


class IoScheduler(ABC):
    """Order a batch of requests for one device.

    Two entry points: :meth:`order` ranks a whole batch against one head
    position (legacy / analysis), while :meth:`take_next` removes and
    returns the single best request given the *live* head — the online
    form both the batch executor and the event-driven
    :class:`DeviceQueue` use, re-consulting the device between requests.
    Position policies implement :meth:`pick`, the same choice without
    the removal.
    """

    name = "abstract"
    #: True when each DeviceQueue needs its own instance (stateful
    #: schedulers); stateless position policies are safely shared
    per_device = False
    #: True when the scheduler differentiates by request tenant — the
    #: kernel folds the current tenant into SLED stamps only then, and a
    #: DeviceQueue hands it a per-tenant index (``take_indexed``)
    tenant_aware = False

    def clone(self) -> IoScheduler:
        """A per-device instance; stateless schedulers return self."""
        return self

    @abstractmethod
    def order(self, requests: list[IoRequest],
              head_pos: int) -> list[IoRequest]:
        """Return the requests in service order (a permutation)."""

    def take_next(self, pending: list[IoRequest],
                  head_pos: int) -> IoRequest:
        """Remove and return the next request to service from
        ``pending`` (non-empty)."""
        request = self.pick(pending, head_pos)
        pending.remove(request)
        return request

    def pick(self, pending: list[IoRequest], head_pos: int) -> IoRequest:
        """The next request to service from ``pending`` (non-empty),
        left in place.  The default defers to :meth:`order`; concrete
        schedulers override with an O(n) selection."""
        return self.order(pending, head_pos)[0]


class FcfsScheduler(IoScheduler):
    """First come, first served."""

    name = "fcfs"

    def order(self, requests: list[IoRequest],
              head_pos: int) -> list[IoRequest]:
        return list(requests)

    def pick(self, pending: list[IoRequest], head_pos: int) -> IoRequest:
        return pending[0]


class SstfScheduler(IoScheduler):
    """Greedy shortest seek time first.

    Ties (two requests equidistant from the head) break toward the lower
    address, so service order is a pure function of (pending set, head) —
    never of list construction order — and repeated runs are bit-identical.
    """

    name = "sstf"

    @staticmethod
    def _key(head_pos: int):
        return lambda r: (abs(r.addr - head_pos), r.addr)

    def order(self, requests: list[IoRequest],
              head_pos: int) -> list[IoRequest]:
        remaining = list(requests)
        out: list[IoRequest] = []
        pos = head_pos
        while remaining:
            nearest = min(remaining, key=self._key(pos))
            remaining.remove(nearest)
            out.append(nearest)
            pos = nearest.end
        return out

    def pick(self, pending: list[IoRequest], head_pos: int) -> IoRequest:
        return min(pending, key=self._key(head_pos))


class ClookScheduler(IoScheduler):
    """Circular LOOK: sweep upward from the head, wrap to the lowest."""

    name = "clook"

    def order(self, requests: list[IoRequest],
              head_pos: int) -> list[IoRequest]:
        ahead = sorted((r for r in requests if r.addr >= head_pos),
                       key=lambda r: r.addr)
        behind = sorted((r for r in requests if r.addr < head_pos),
                        key=lambda r: r.addr)
        return ahead + behind

    def pick(self, pending: list[IoRequest], head_pos: int) -> IoRequest:
        ahead = [r for r in pending if r.addr >= head_pos]
        pool = ahead if ahead else pending  # wrap to the lowest address
        return min(pool, key=lambda r: r.addr)


def by_tenant(requests) -> dict[str | None, list[IoRequest]]:
    """``requests`` bucketed by tenant: each bucket in ``requests``
    order, buckets in order of their first request — the index
    :meth:`FairScheduler.take_indexed` selects from."""
    buckets: dict[str | None, list[IoRequest]] = {}
    for request in requests:
        buckets.setdefault(request.tenant, []).append(request)
    return buckets


class FairScheduler(IoScheduler):
    """Budget-based fair queueing across tenants (deficit round robin).

    Tenants take turns in first-arrival order; each visit to a tenant
    grants it ``quantum_bytes`` of service credit, and the tenant's
    position-best request (chosen by the ``inner`` elevator — clook by
    default) is served while its accumulated deficit covers the request
    size.  Large recalls therefore cost their owner several turns instead
    of monopolising the device: the max/min per-tenant service share over
    any backlogged interval is bounded, CFQ-style.  Untenanted requests
    share one ring slot, keyed ``None``; every named tenant has its own.

    The scheduler is *stateful* (deficits, round-robin cursor), so each
    :class:`DeviceQueue` clones its own instance (``per_device``).  When
    every pending request is untenanted — or a single tenant has the
    device to itself — selection delegates straight to the inner policy,
    which makes the untenanted fast path bit-identical to running the
    inner elevator alone.
    """

    name = "fair"
    per_device = True
    tenant_aware = True

    def __init__(self, inner: str | IoScheduler = "clook",
                 quantum_bytes: int = 256 * 1024) -> None:
        if quantum_bytes <= 0:
            raise InvalidArgumentError(
                f"quantum_bytes must be positive: {quantum_bytes}")
        self.inner = (make_scheduler(inner) if isinstance(inner, str)
                      else inner)
        if self.inner.per_device:  # pragma: no cover - defensive
            raise InvalidArgumentError(
                f"inner policy {self.inner.name!r} is stateful; "
                "layer fair over a position policy (fcfs/sstf/clook)")
        self.quantum_bytes = quantum_bytes
        self._deficits: dict[str | None, float] = {}
        self._ring: list[str | None] = []
        self._cursor = 0
        #: cumulative bytes served per tenant (observability / tests)
        self.served_bytes: dict[str, int] = {}

    def clone(self) -> FairScheduler:
        return type(self)(inner=self.inner, quantum_bytes=self.quantum_bytes)

    def order(self, requests: list[IoRequest],
              head_pos: int) -> list[IoRequest]:
        # simulate a full drain on a fresh clone so analysis-order calls
        # never disturb the live deficits
        sim = self.clone()
        pending = list(requests)
        out: list[IoRequest] = []
        pos = head_pos
        while pending:
            request = sim.take_next(pending, pos)
            out.append(request)
            pos = request.end
        return out

    def take_next(self, pending: list[IoRequest],
                  head_pos: int) -> IoRequest:
        request = self.take_indexed(by_tenant(pending), head_pos)
        pending.remove(request)
        return request

    def take_indexed(self, buckets: dict[str | None, list[IoRequest]],
                     head_pos: int) -> IoRequest:
        """Remove and return the next request from ``buckets`` (the
        pending requests by tenant, as :func:`by_tenant` builds them); a
        bucket left empty is deleted.  The one selection routine:
        :meth:`take_next` builds the index from a list, a
        :class:`DeviceQueue` keeps its own up to date."""
        pick = self.inner.pick
        if len(buckets) == 1:
            # untenanted or single-tenant: pure position policy; drop any
            # stale DRR state so the next contended period starts fresh
            if self._ring:
                self._ring.clear()
                self._deficits.clear()
                self._cursor = 0
            tenant, mine = next(iter(buckets.items()))
            request = pick(mine, head_pos)
        else:
            deficits = self._deficits
            ring = self._ring
            for key in buckets:  # ring membership in first-arrival order
                if key not in deficits:
                    deficits[key] = 0.0
                    ring.append(key)
            while True:
                if self._cursor >= len(ring):
                    self._cursor = 0
                tenant = ring[self._cursor]
                mine = buckets.get(tenant)
                if mine is None:
                    # drained tenant: leave the ring, deficit resets (DRR)
                    ring.pop(self._cursor)
                    del deficits[tenant]
                    continue
                request = pick(mine, head_pos)
                if deficits[tenant] >= request.nbytes:
                    deficits[tenant] -= request.nbytes
                    break
                deficits[tenant] += self.quantum_bytes
                self._cursor += 1
        mine.remove(request)
        if not mine:
            del buckets[tenant]
        if tenant is not None:
            self.served_bytes[tenant] = (
                self.served_bytes.get(tenant, 0) + request.nbytes)
        return request


SCHEDULERS = {
    "fcfs": FcfsScheduler,
    "sstf": SstfScheduler,
    "clook": ClookScheduler,
    "fair": FairScheduler,
}


def make_scheduler(name: str) -> IoScheduler:
    """Build a scheduler by name (``fcfs``, ``sstf``, ``clook``,
    ``fair``, or ``fair:<inner>`` to pick the fair elevator's position
    policy, e.g. ``fair:sstf``)."""
    lowered = name.lower()
    if lowered.startswith("fair:"):
        return FairScheduler(inner=lowered.partition(":")[2])
    try:
        factory = SCHEDULERS[lowered]
    except KeyError:
        raise InvalidArgumentError(
            f"unknown I/O scheduler {name!r}; "
            f"choose from {sorted(SCHEDULERS)}") from None
    return factory()


def submit_batch(device, requests: list[IoRequest],
                 scheduler: IoScheduler) -> float:
    """Service a batch in scheduler order; returns total virtual seconds.

    The next request is chosen against the device's *live* head position
    (the :meth:`~repro.devices.base.Device.head_position` protocol, not a
    one-shot snapshot), so schedulers see exactly the seek they are about
    to cause — writes that park the head elsewhere, or devices whose
    position moves differently than ``request.end``, no longer desync the
    plan from the hardware.  The device's own model charges each access,
    so scheduler quality shows up directly as seek/rotation time.
    """
    total = 0.0
    pending = list(requests)
    while pending:
        request = scheduler.take_next(pending, device.head_position())
        if request.is_write:
            total += device.write(request.addr, request.nbytes)
        else:
            total += device.read(request.addr, request.nbytes)
    return total


class DeviceQueue:
    """An online per-device elevator driven by the event loop.

    Requests arrive over virtual time from concurrently running tasks;
    whenever the device frees up the queue picks the next request against
    the live head position using its :class:`IoScheduler` — the same
    elevator the batch writeback path uses, now applied *between* tasks
    instead of within one batch.

    Two service forms coexist:

    * plain requests (``service=None``) are executed via
      :meth:`Device.submit` at dispatch time;
    * requests with a ``service`` thunk (filesystem-mediated clusters:
      HSM staging, NFS server caches) call the thunk at dispatch time —
      it returns the service duration after mutating whatever filesystem
      state the synchronous path would have mutated, so custom read paths
      keep their exact semantics and RNG draw order.

    ``congestion_epoch`` increments on every arrival and completion; the
    kernel folds it into the SLED cache stamp so queue churn invalidates
    queue-aware delivery estimates.

    Under a tenant-aware elevator the queue also keeps its pending
    requests bucketed by tenant (:func:`by_tenant`'s shape, kept up to
    date on arrival, dispatch and cancellation), so neither selection
    nor the per-tenant :meth:`estimated_delay` rescans the queue.

    ``history`` bounds the dispatch-history ring: every dispatched
    request leaves a :class:`DispatchRecord` (who held the device, when,
    for whom) that :meth:`recent_dispatches` exposes to the forensic
    blame engine.  Pure bookkeeping — appending never touches the clock
    or RNG, so runs stay bit-identical whether anyone reads it or not.
    """

    def __init__(self, device, loop, scheduler: IoScheduler,
                 history: int = 4096) -> None:
        self.device = device
        self.loop = loop
        # stateful schedulers (the fair elevator) get one instance per
        # device so deficits never leak across devices
        self.scheduler = scheduler.clone() if scheduler.per_device else scheduler
        self._pending: list[IoRequest] = []
        #: the pending requests by tenant, under a tenant-aware elevator
        self._by_tenant: dict | None = (
            {} if self.scheduler.tenant_aware else None)
        self._entries: dict[object, tuple] = {}
        self._seq = 0
        self._busy = False
        #: True while :meth:`_dispatch`'s loop runs (callbacks that
        #: submit leave the next start to it)
        self._dispatching = False
        self._inflight_finish = 0.0
        #: monotonic counter over queue-state changes (submit/complete)
        self.congestion_epoch = 0
        self.depth_high_water = 0
        self.total_queue_wait = 0.0
        self.dispatched = 0
        #: bounded ring of DispatchRecords, oldest evicted first
        self._history: deque[DispatchRecord] = deque(maxlen=max(0, history))
        #: dispatch-history entries evicted by the ring bound
        self.history_dropped = 0
        #: optional hooks: on_queued(depth), on_dispatched(wait, depth),
        #: on_completed(depth)
        self.on_queued = None
        self.on_dispatched = None
        self.on_completed = None

    @property
    def depth(self) -> int:
        """Outstanding requests (queued + in service)."""
        return len(self._pending) + (1 if self._busy else 0)

    def submit(self, addr: int, nbytes: int, is_write: bool,
               service=None, label: str = "",
               submit_time: float | None = None,
               tenant: str | None = None, kind: str = "io"):
        """Enqueue one request; returns an IoFuture resolving to its
        :class:`~repro.devices.base.Completion`.

        ``submit_time`` backdates the request's arrival (default: now) —
        the plug/merge stage passes the original arrival time of a held
        request so the time spent plugged shows up as queue wait, keeping
        the lifecycle latency identity exact.  ``tenant`` attributes the
        request to a QoS class for tenant-aware schedulers.  ``kind``
        names the request's provenance in the dispatch history (``fault``
        / ``prefetch`` / ``writeback``; default ``io`` for raw submits).
        """
        now = self.loop.clock.now
        if submit_time is None:
            submit_time = now
        future = IoFuture(label or f"{self.device.name}@{addr}")
        tag = self._seq
        self._seq += 1
        request = IoRequest(addr=addr, nbytes=nbytes, is_write=is_write,
                            tag=tag, tenant=tenant)
        self._entries[tag] = (future, submit_time, service, kind, label)
        self._pending.append(request)
        if self._by_tenant is not None:
            self._by_tenant.setdefault(tenant, []).append(request)
        self.congestion_epoch += 1
        self.depth_high_water = max(self.depth_high_water, self.depth)
        if self.on_queued is not None:
            self.on_queued(self.depth)
        if not self._busy:
            self._dispatch()
        return future

    def cancel(self, future) -> bool:
        """Withdraw a queued-but-not-dispatched request.

        Finds the pending request whose waiter is ``future``; removes it
        and resolves the future with ``None`` (so waiters wake rather than
        wedge — the prefetcher reads a ``None`` completion as "cancelled").
        Returns False when the request already dispatched, completed, or
        was never here; in-service requests always run to completion.
        """
        for tag, entry in self._entries.items():
            if entry[0] is future:
                break
        else:
            return False
        del self._entries[tag]
        self._pending = [r for r in self._pending if r.tag != tag]
        if self._by_tenant is not None:
            # rebuilt, not patched: a bucket whose first request left
            # must move behind buckets that now start earlier
            self._by_tenant = by_tenant(self._pending)
        self.congestion_epoch += 1
        future.resolve(None)
        return True

    def estimated_delay(self, now: float, tenant: str | None = None) -> float:
        """Seconds a request arriving now would wait before service:
        the in-flight remainder plus a nominal-spec estimate of every
        queued request — the queue-aware term SLEDs fold into latency.

        Under a tenant-aware scheduler a tenant's request does *not* wait
        behind other tenants' whole backlogs — only behind its own queue
        plus roughly one service quantum per competing tenant — so the
        per-class prediction reflects the fair elevator's isolation.
        """
        delay = max(0.0, self._inflight_finish - now) if self._busy else 0.0
        spec = self.device.spec
        buckets = self._by_tenant
        if tenant is None or buckets is None:
            for request in self._pending:
                delay += spec.latency + request.nbytes / spec.bandwidth
            return delay
        quantum = getattr(self.scheduler, "quantum_bytes", 256 * 1024)
        for request in buckets.get(tenant, ()):
            delay += spec.latency + request.nbytes / spec.bandwidth
        others = len(buckets) - (tenant in buckets)
        delay += others * (spec.latency + quantum / spec.bandwidth)
        return delay

    def recent_dispatches(self) -> tuple[DispatchRecord, ...]:
        """The bounded dispatch history, oldest first.  Cancelled
        requests never dispatched, so they are absent; a merged group
        appears as its one union request."""
        return tuple(self._history)

    def _dispatch(self) -> None:
        """Start requests while any is pending and none is in service.

        A request whose service raises fails its own future and the loop
        starts the next one, so a run of failures never recurses.  A
        done-callback that submits while the loop runs only queues its
        request; the loop starts it (or whatever the elevator prefers)
        next, so at most one request is ever in service."""
        if self._dispatching:
            return
        self._dispatching = True
        try:
            while self._pending and not self._busy:
                head = self.device.head_position()
                if self._by_tenant is None:
                    request = self.scheduler.take_next(self._pending, head)
                else:
                    request = self.scheduler.take_indexed(self._by_tenant,
                                                          head)
                    self._pending.remove(request)
                future, submit_time, service, kind, label = \
                    self._entries.pop(request.tag)
                now = self.loop.clock.now
                wait = now - submit_time
                self.total_queue_wait += wait
                if wait > 0.0:
                    self.device.stats.queue_wait_time += wait
                    self.device.stats.queued_requests += 1
                try:
                    if service is not None:
                        duration = service()
                        completion = Completion(
                            self.device.name, request.addr, request.nbytes,
                            request.is_write, submit_time, now, duration)
                    else:
                        # freshly built and solely owned: backdate in place
                        # rather than allocating a copy
                        completion = self.device.submit(
                            request.addr, request.nbytes, request.is_write,
                            now=now)
                        completion.submit_time = submit_time
                except Exception as exc:
                    # a failed request must not wedge the queue: report it to
                    # the waiter and keep servicing (real controllers do the
                    # same)
                    self.congestion_epoch += 1
                    future.fail(exc)
                    continue
                self._busy = True
                self._inflight_finish = completion.finish_time
                self.dispatched += 1
                if self._history.maxlen:
                    if len(self._history) == self._history.maxlen:
                        self.history_dropped += 1
                    self._history.append(DispatchRecord(
                        rid=request.tag, kind=kind, label=label,
                        tenant=request.tenant, is_write=request.is_write,
                        nbytes=request.nbytes, submit_time=submit_time,
                        start=now, finish=completion.finish_time))
                if self.on_dispatched is not None:
                    self.on_dispatched(wait, self.depth)
                self.loop.at(completion.finish_time,
                             lambda future=future, completion=completion:
                             self._complete(future, completion),
                             category=self.device.time_category)
        finally:
            self._dispatching = False

    def _complete(self, future, completion) -> None:
        self._busy = False
        self.congestion_epoch += 1
        if self.on_completed is not None:
            self.on_completed(self.depth)
        future.resolve(completion)
        if self._pending:
            self._dispatch()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<DeviceQueue {self.device.name!r} depth={self.depth} "
                f"epoch={self.congestion_epoch}>")
