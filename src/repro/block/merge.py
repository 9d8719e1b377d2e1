"""Block-layer request coalescing and plugged batch dispatch.

The engine's per-device queues (PR 3) gave us an online elevator, but
every fault cluster still went to the device as its own request — adjacent
faults, whether from one ``pread`` loop or from concurrent tasks walking
the same file, each paid the per-request controller / RPC / positioning
overhead a real block layer would merge away.  This module adds the two
classic mechanisms between the kernel fault path and the
:class:`~repro.block.scheduler.DeviceQueue`:

* **coalescing** — pending requests on the same device whose page runs
  are adjacent or overlapping merge into one multi-page transfer,
  serviced as a single device command
  (:meth:`~repro.devices.base.Device.submit_spans`), with per-class merge
  windows: aggressive for tape/CD-ROM (huge positioning costs justify
  reading through page gaps), bounded for disk, off for memory;
* **plugging** — a :class:`PlugQueue` holds arriving requests for a short
  virtual-time window (or until a depth/byte threshold) before flushing
  the batch to the elevator, so concurrent tasks' faults actually meet
  and merge.  With plugging off but merging on, the window is zero: the
  plug flushes at the next event-loop step, which still batches requests
  submitted within one scheduler slice (Linux's unplug-on-schedule).

Both default **off** (:class:`BlockConfig`); an all-default config keeps
the engine bit-identical to one with no block stage at all.  Time spent
plugged is passed to the elevator as a backdated ``submit_time``, so it
appears as queue wait and the lifecycle identity
``fsum([queue_wait, *components]) == latency`` stays exact.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.sim.events import IoFuture
from repro.sim.units import KB, MB, MSEC, PAGE_SIZE


@dataclass(frozen=True)
class MergeClassPolicy:
    """Per-device-class merge window.

    ``max_bytes`` caps the merged union (0 disables merging for the
    class); ``max_gap_pages`` is the largest forward page gap two runs may
    bridge — the union reads through the gap, trading transfer time for a
    saved positioning, which only pays on devices where positioning
    dwarfs streaming (CD-ROM settle, tape locate).
    """

    max_bytes: int
    max_gap_pages: int = 0

    def __post_init__(self) -> None:
        if self.max_bytes < 0:
            raise ValueError(f"negative max_bytes: {self.max_bytes}")
        if self.max_gap_pages < 0:
            raise ValueError(f"negative max_gap_pages: {self.max_gap_pages}")


#: Default merge windows per ``Device.time_category``.  Unlisted classes
#: (memory, flash) do not merge.
DEFAULT_MERGE_POLICIES = {
    "disk": MergeClassPolicy(max_bytes=512 * KB, max_gap_pages=0),
    "nfs": MergeClassPolicy(max_bytes=1 * MB, max_gap_pages=0),
    "cdrom": MergeClassPolicy(max_bytes=4 * MB, max_gap_pages=32),
    "tape": MergeClassPolicy(max_bytes=32 * MB, max_gap_pages=1024),
}

#: Sentinel policy for classes with no entry: merging off.
_NO_MERGE = MergeClassPolicy(max_bytes=0, max_gap_pages=0)


@dataclass(frozen=True)
class BlockConfig:
    """Block-layer front-end configuration (everything defaults off).

    ``merge`` enables request coalescing, ``plug`` enables the virtual-
    time accumulation window.  ``plug_window`` is how long a plug holds
    its first request before flushing; ``plug_max_requests`` /
    ``plug_max_bytes`` flush early when the batch is already worth
    dispatching.  ``merge_policies`` maps ``Device.time_category`` to a
    :class:`MergeClassPolicy`.
    """

    merge: bool = False
    plug: bool = False
    plug_window: float = 0.3 * MSEC
    plug_max_requests: int = 32
    plug_max_bytes: int = 2 * MB
    merge_policies: dict = field(
        default_factory=lambda: dict(DEFAULT_MERGE_POLICIES))

    @property
    def active(self) -> bool:
        """Whether the block front-end intercepts fault submissions at
        all; False routes faults straight to the device queues."""
        return self.merge or self.plug

    def policy_for(self, device) -> MergeClassPolicy:
        """The merge window for ``device``'s class (off when unlisted)."""
        return self.merge_policies.get(device.time_category, _NO_MERGE)


@dataclass(slots=True)
class FaultRun:
    """One fault cluster held in a plug, waiting to be batched."""

    fs: object
    inode: object
    page: int
    cluster: int
    addr: int
    nbytes: int
    future: IoFuture
    submit_time: float
    seq: int
    #: owning tenant; merge groups never span tenants, so one tenant's
    #: QoS class can't smuggle bytes through another's merged request
    tenant: str | None = None
    #: True for prefetcher-issued runs — the dispatch history records
    #: them as ``prefetch`` so blame can name speculative interference
    speculative: bool = False

    @property
    def end_page(self) -> int:
        return self.page + self.cluster


@dataclass(frozen=True, slots=True)
class HoldRecord:
    """Hold-time provenance for one request that passed through a plug.

    Recorded when the plug releases the request to the elevator:
    ``unplug_time - submit_time`` is the plug/merge-induced hold, the
    slice of the request's queue wait during which it had not even
    reached the device queue.  For a coalesced group one record covers
    the union request (``page``/``cluster`` are the union run,
    ``submit_time`` the primary member's arrival, ``members`` the group
    size); the forensic blame engine keys on
    ``(fs, inode, page, cluster, submit_time)`` to match the lifecycle
    record the union produced.
    """

    fs: str
    inode: int
    page: int
    cluster: int
    tenant: str | None
    submit_time: float
    unplug_time: float
    members: int

    @property
    def key(self) -> tuple:
        return (self.fs, self.inode, self.page, self.cluster,
                self.submit_time)

    @property
    def held(self) -> float:
        return self.unplug_time - self.submit_time


def plain_read_path(fs) -> bool:
    """Whether ``fs`` reads through the stock ``FileSystem.read_pages``.

    Stateful read paths (HSM staging picks drives, mounts cartridges and
    stages to disk per run) cannot be collapsed into one device command —
    such filesystems still plug, but never multi-merge.
    """
    from repro.fs.filesystem import FileSystem

    return type(fs).read_pages is FileSystem.read_pages


class PlugQueue:
    """The plug in front of one device's elevator.

    Fault clusters arrive via :meth:`submit` and are held until the plug
    flushes — on the virtual-time window expiring, or a depth/byte
    threshold, or an explicit :meth:`flush`.  The flush coalesces the
    batch into merge groups and submits each group to the underlying
    :class:`~repro.block.scheduler.DeviceQueue` with the *earliest*
    member's arrival time, so plugged time surfaces as ordinary queue
    wait.

    ``service_factory(fs, inode, page, cluster, merged)`` builds the
    dispatch-time service thunk (the engine supplies its traced
    ``read_pages`` / ``read_pages_merged`` wrapper).
    """

    def __init__(self, device, queue, loop, config: BlockConfig,
                 service_factory) -> None:
        self.device = device
        self.queue = queue
        self.loop = loop
        self.config = config
        self.policy = config.policy_for(device)
        self._service_factory = service_factory
        self._plugged: list[FaultRun] = []
        self._plugged_bytes = 0
        self._timer = None
        self._seq = 0
        #: requests eliminated by merging (members beyond each primary)
        self.merged_requests = 0
        #: union bytes submitted by multi-member groups
        self.merged_bytes = 0
        self.flushes = 0
        self.plug_wait_total = 0.0
        #: bounded ring of HoldRecords (hold-time provenance for blame)
        self._holds: deque[HoldRecord] = deque(maxlen=4096)
        #: per-tenant intake accounting (requests / bytes through the plug)
        self.tenant_requests: dict[str, int] = {}
        self.tenant_bytes: dict[str, int] = {}
        #: optional hooks: on_merge(members, nbytes), on_plug(wait, batch)
        self.on_merge = None
        self.on_plug = None

    @property
    def depth(self) -> int:
        """Requests currently held in the plug."""
        return len(self._plugged)

    # -- intake ----------------------------------------------------------

    def submit(self, fs, inode, runs, tenant: str | None = None,
               speculative: bool = False) -> list[IoFuture]:
        """Hold the ``(page, cluster)`` fault clusters ``runs`` of one
        inode, in order; returns one future per cluster, each the one
        its task blocks on.  Each cluster is its own :class:`FaultRun`
        with its own sequence number, and the plug's depth and byte
        thresholds are checked after each one, so a batch flushes at
        the same cluster a run of single submissions would."""
        config = self.config
        max_requests = config.plug_max_requests
        max_bytes = config.plug_max_bytes
        window = config.plug_window if config.plug else 0.0
        queue = self.queue
        addr_of = inode.extent_map.addr_of
        clock = self.loop.clock
        futures = []
        for page, cluster in runs:
            future = IoFuture(f"plug:{fs.name}:{inode.id}:{page}+{cluster}")
            nbytes = cluster * PAGE_SIZE
            self._plugged.append(FaultRun(
                fs=fs, inode=inode, page=page, cluster=cluster,
                addr=addr_of(page), nbytes=nbytes, future=future,
                submit_time=clock.now, seq=self._seq, tenant=tenant,
                speculative=speculative))
            self._seq += 1
            if tenant is not None:
                self.tenant_requests[tenant] = (
                    self.tenant_requests.get(tenant, 0) + 1)
                self.tenant_bytes[tenant] = (
                    self.tenant_bytes.get(tenant, 0) + nbytes)
            self._plugged_bytes += nbytes
            # plug churn invalidates queue-aware SLED estimates, same as
            # elevator churn
            queue.congestion_epoch += 1
            if (len(self._plugged) >= max_requests
                    or self._plugged_bytes >= max_bytes):
                self.flush()
            elif self._timer is None:
                self._timer = self.loop.after(window, self.flush)
            futures.append(future)
        return futures

    def cancel(self, future: IoFuture) -> bool:
        """Withdraw a still-plugged request; resolves its future with
        ``None`` (the cancelled sentinel).  False if not held here."""
        for index, run in enumerate(self._plugged):
            if run.future is future:
                del self._plugged[index]
                self._plugged_bytes -= run.nbytes
                self.queue.congestion_epoch += 1
                future.resolve(None)
                return True
        return False

    def estimated_delay(self) -> float:
        """Nominal-spec service estimate of everything still plugged —
        the term queue-aware SLEDs add on top of the elevator's."""
        spec = self.device.spec
        return sum(spec.latency + run.nbytes / spec.bandwidth
                   for run in self._plugged)

    # -- flush -----------------------------------------------------------

    def flush(self) -> None:
        """Coalesce the held batch and hand it to the elevator."""
        if self._timer is not None:
            self.loop.cancel(self._timer)
            self._timer = None
        if not self._plugged:
            return
        batch = self._plugged
        self._plugged = []
        self._plugged_bytes = 0
        self.flushes += 1
        now = self.loop.clock.now
        for run in batch:
            wait = now - run.submit_time
            self.plug_wait_total += wait
            if self.on_plug is not None:
                self.on_plug(wait, len(batch))
        for group in self._coalesce(batch):
            self._dispatch_group(group)

    def _coalesce(self, batch: list[FaultRun]) -> list[list[FaultRun]]:
        """Partition a flushed batch into merge groups.

        Grouping is per (inode, tenant) — merging across files would
        interleave unrelated extents, and merging across tenants would
        let one QoS class ride (and bill) another's request; keys are
        visited in first-appearance order and runs page-sorted with the
        submission sequence as tie-break, so the grouping is a pure
        function of the batch — deterministic across runs.
        """
        if not self.config.merge or self.policy.max_bytes <= 0:
            return [[run] for run in batch]
        by_inode: dict[tuple, list[FaultRun]] = {}
        order: list[tuple] = []
        for run in batch:
            key = (run.inode.id, run.tenant)
            if key not in by_inode:
                by_inode[key] = []
                order.append(key)
            by_inode[key].append(run)
        groups: list[list[FaultRun]] = []
        for key in order:
            runs = sorted(by_inode[key], key=lambda r: (r.page, r.seq))
            if not plain_read_path(runs[0].fs):
                groups.extend([run] for run in runs)
                continue
            group = [runs[0]]
            union_start, union_end = runs[0].page, runs[0].end_page
            for run in runs[1:]:
                new_end = max(union_end, run.end_page)
                union_bytes = (new_end - union_start) * PAGE_SIZE
                if (run.page <= union_end + self.policy.max_gap_pages
                        and union_bytes <= self.policy.max_bytes):
                    group.append(run)
                    union_end = new_end
                else:
                    groups.append(group)
                    group = [run]
                    union_start, union_end = run.page, run.end_page
            groups.append(group)
        return groups

    def recent_dispatched_holds(self) -> tuple[HoldRecord, ...]:
        """Hold-time provenance of requests already released to the
        elevator, oldest first (bounded)."""
        return tuple(self._holds)

    def _record_hold(self, fs, inode, page: int, cluster: int,
                     tenant: str | None, submit_time: float,
                     members: int) -> None:
        self._holds.append(HoldRecord(
            fs=fs.name, inode=inode.id, page=page, cluster=cluster,
            tenant=tenant, submit_time=submit_time,
            unplug_time=self.loop.clock.now, members=members))

    def _dispatch_group(self, group: list[FaultRun]) -> None:
        if len(group) == 1:
            run = group[0]
            service = self._service_factory(run.fs, run.inode, run.page,
                                            run.cluster, False)
            self._record_hold(run.fs, run.inode, run.page, run.cluster,
                              run.tenant, run.submit_time, 1)
            inner = self.queue.submit(
                run.addr, run.nbytes, is_write=False, service=service,
                label=(f"fault:{run.fs.name}:{run.inode.id}:"
                       f"{run.page}+{run.cluster}"),
                submit_time=run.submit_time, tenant=run.tenant,
                kind="prefetch" if run.speculative else "fault")
            inner.add_done_callback(
                lambda f, r=run: self._settle_single(f, r))
            return
        # primary member: earliest arrival — the union request inherits
        # its submit time, and its completion carries the provenance
        members = sorted(group, key=lambda r: (r.submit_time, r.page,
                                               r.seq))
        primary = members[0]
        union_start = min(run.page for run in group)
        union_end = max(run.end_page for run in group)
        union_pages = union_end - union_start
        nbytes = union_pages * PAGE_SIZE
        fs, inode = primary.fs, primary.inode
        service = self._service_factory(fs, inode, union_start,
                                        union_pages, True)
        self.merged_requests += len(group) - 1
        self.merged_bytes += nbytes
        if self.on_merge is not None:
            self.on_merge(len(group), nbytes)
        self._record_hold(fs, inode, union_start, union_pages,
                          primary.tenant, primary.submit_time, len(group))
        inner = self.queue.submit(
            inode.extent_map.addr_of(union_start), nbytes, is_write=False,
            service=service,
            label=(f"merged:{fs.name}:{inode.id}:"
                   f"{union_start}+{union_pages}x{len(group)}"),
            submit_time=primary.submit_time, tenant=primary.tenant,
            kind="prefetch" if primary.speculative else "fault")
        merged_from = tuple((run.inode.id, run.page, run.cluster)
                            for run in sorted(group, key=lambda r: r.seq))
        inner.add_done_callback(
            lambda f: self._settle_group(f, members, merged_from))

    # -- settlement ------------------------------------------------------

    @staticmethod
    def _settle_single(inner: IoFuture, run: FaultRun) -> None:
        if inner.exception is not None:
            run.future.fail(inner.exception)
        else:
            # the inner value is the Completion, or None when the queued
            # request was cancelled — forward either verbatim
            run.future.resolve(inner._value)

    @staticmethod
    def _settle_group(inner: IoFuture, members: list[FaultRun],
                      merged_from: tuple) -> None:
        settle_order = sorted(members, key=lambda r: r.seq)
        if inner.exception is not None:
            for run in settle_order:
                run.future.fail(inner.exception)
            return
        completion = inner._value
        if completion is None:  # inner request cancelled
            for run in settle_order:
                run.future.resolve(None)
            return
        primary = members[0]
        for run in settle_order:
            if run is primary:
                run.future.resolve(completion.replace(
                    merged=True, merged_from=merged_from))
            else:
                run.future.resolve(completion.replace(
                    submit_time=run.submit_time, merged=True))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<PlugQueue {self.device.name!r} depth={self.depth} "
                f"merged={self.merged_requests}>")
