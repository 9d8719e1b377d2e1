"""The I/O engine: per-device queues wired to one kernel and event loop.

An :class:`IoEngine` is what turns the kernel's blocking time model into a
discrete-event one.  While attached (``kernel.engine is self``):

* hard faults taken through the kernel's ``*_async`` syscalls are
  *submitted* to a per-device :class:`~repro.block.scheduler.DeviceQueue`
  (online elevator, live head position) and the faulting task blocks on
  the returned future while other runnable tasks execute — CPU overlaps
  device service, and requests from different tasks contend for the same
  device queue;
* SLED vectors served by ``FSLEDS_GET`` gain a queue-delay latency term
  fed by each device's busy horizon and queue depth, and the kernel's
  SLED cache stamp folds in each queue's congestion epoch so queue churn
  invalidates cached estimates;
* queue depth and per-request queue wait are exported through the
  telemetry gauges when a :class:`~repro.obs.telemetry.Telemetry` is
  attached.

Detached (the default), nothing here runs and the kernel's synchronous
path is bit-identical to the pre-engine substrate — the paper figures are
regression anchors and must not move.

Service runs through the filesystem's own ``read_pages`` at *dispatch*
time (as a thunk), so stateful read paths — HSM staging, NFS server
caches, zone-dependent disk transfer — mutate their state and draw their
randomness in exactly the order the synchronous path would have, which is
what makes a solo run under the engine bit-identical to the blocking one.
"""

from __future__ import annotations

from repro.block.merge import BlockConfig, PlugQueue
from repro.block.scheduler import DeviceQueue, IoScheduler
from repro.sim.errors import InvalidArgumentError
from repro.sim.events import EventLoop, IoFuture
from repro.sim.units import PAGE_SIZE


class IoEngine:
    """Per-device event-driven request queues over one kernel."""

    def __init__(self, kernel, scheduler: IoScheduler | None = None,
                 block: BlockConfig | None = None) -> None:
        self.kernel = kernel
        self.loop = EventLoop(kernel.clock)
        self.scheduler = scheduler if scheduler is not None \
            else kernel.io_scheduler
        #: block-layer front-end config; None (or an all-off config)
        #: routes fault clusters straight to the device queues
        self.block = block
        self._queues: dict[int, DeviceQueue] = {}
        self._plugs: dict[int, PlugQueue] = {}
        #: per filesystem, ``(device key, device, queue)`` in key order
        self._bound: dict[object, tuple] = {}
        self._attached = False

    @property
    def block_active(self) -> bool:
        """Whether fault submissions go through the merge/plug stage."""
        return self.block is not None and self.block.active

    # -- lifecycle -------------------------------------------------------

    def attach(self) -> "IoEngine":
        """Install on the kernel; clamps stale device busy horizons
        (boot-time probes run devices off-clock) to the current time."""
        if self.kernel.engine is not None:
            raise InvalidArgumentError(
                "kernel already has an engine attached")
        now = self.kernel.clock.now
        seen: set[int] = set()
        for device in self._reachable_devices():
            if id(device) not in seen:
                seen.add(id(device))
                device.clamp_horizon(now)
        self.kernel.engine = self
        self._attached = True
        return self

    def detach(self) -> None:
        if self.kernel.engine is self:
            self.kernel.engine = None
        self._attached = False

    def _reachable_devices(self):
        yield self.kernel.memory
        for _, fs in self.kernel.mounts():
            yield from fs.observable_devices()

    # -- queues ----------------------------------------------------------

    def queue_for(self, device) -> DeviceQueue:
        """The (lazily created) online elevator for ``device``."""
        queue = self._queues.get(id(device))
        if queue is None:
            queue = DeviceQueue(device, self.loop, self.scheduler)
            queue.on_queued = (
                lambda depth, d=device: self._on_queued(d, depth))
            queue.on_dispatched = (
                lambda wait, depth, d=device:
                self._on_dispatched(d, wait, depth))
            queue.on_completed = (
                lambda depth, d=device: self._on_completed(d, depth))
            self._queues[id(device)] = queue
        return queue

    def queues(self) -> list[DeviceQueue]:
        """Every queue created so far (reporting / tests)."""
        return list(self._queues.values())

    def submit(self, device, addr: int, nbytes: int, is_write: bool,
               service=None, label: str = "") -> IoFuture:
        """Enqueue one raw request on ``device``'s queue."""
        return self.queue_for(device).submit(addr, nbytes, is_write,
                                             service=service, label=label)

    def plug_for(self, device) -> PlugQueue:
        """The (lazily created) merge/plug stage for ``device``."""
        plug = self._plugs.get(id(device))
        if plug is None:
            plug = PlugQueue(device, self.queue_for(device), self.loop,
                             self.block, self._fault_service)
            plug.on_merge = (
                lambda members, nbytes, d=device:
                self._on_merge(d, members, nbytes))
            plug.on_plug = (
                lambda wait, batch, d=device:
                self._on_plug(d, wait, batch))
            self._plugs[id(device)] = plug
        return plug

    def plugs(self) -> list[PlugQueue]:
        """Every plug created so far (reporting / tests)."""
        return list(self._plugs.values())

    _CURRENT_TENANT = object()  # sentinel: "whoever is faulting now"

    def submit_cluster(self, fs, inode, page: int, cluster: int,
                       tenant=_CURRENT_TENANT,
                       speculative: bool = False) -> IoFuture:
        """Enqueue one fault cluster, serviced through ``fs.read_pages``
        at dispatch time (noise applied as the synchronous path would).

        With an active block config, the cluster goes through the
        device's merge/plug stage instead of straight to the elevator
        (the kernel hands a plug a whole span's clusters at once, with
        :meth:`PlugQueue.submit`).  ``tenant`` defaults to the kernel's
        current tenant; callers that submit on another task's behalf
        (the prefetcher, whose pump runs in completion callbacks) pass
        the owning tenant explicitly.  ``speculative`` marks
        prefetcher-issued clusters in the dispatch history so blame
        attribution can name prefetch interference."""
        if tenant is IoEngine._CURRENT_TENANT:
            tenant = getattr(self.kernel, "current_tenant", None)
        if self.block_active:
            return self.plug_for(fs.device).submit(
                fs, inode, ((page, cluster),), tenant=tenant,
                speculative=speculative)[0]
        addr = inode.extent_map.addr_of(page)
        service = self._fault_service(fs, inode, page, cluster, False)
        return self.queue_for(fs.device).submit(
            addr, cluster * PAGE_SIZE, is_write=False, service=service,
            label=f"fault:{fs.name}:{inode.id}:{page}+{cluster}",
            tenant=tenant, kind="prefetch" if speculative else "fault")

    def _fault_service(self, fs, inode, page: int, cluster: int,
                       merged: bool):
        """Dispatch-time service thunk for one fault (or merged union):
        the filesystem read path wrapped in the kernel's noise + lifecycle
        component tracing."""
        if merged:
            raw = lambda: fs.read_pages_merged(inode, page, cluster)  # noqa: E731
        else:
            raw = lambda: fs.read_pages(inode, page, cluster)  # noqa: E731
        return self.kernel._traced_service(
            fs, ("fault", inode.id, page, cluster), raw)

    def cancel_request(self, device, future: IoFuture) -> bool:
        """Withdraw a not-yet-dispatched request from ``device``'s plug
        or elevator; the future resolves with ``None`` on success."""
        plug = self._plugs.get(id(device))
        if plug is not None and plug.cancel(future):
            return True
        queue = self._queues.get(id(device))
        return queue.cancel(future) if queue is not None else False

    # -- queue-aware SLED inputs ----------------------------------------

    def queue_delays(self, fs, now: float,
                     tenant: str | None = None) -> dict[str, float]:
        """Per-device-key extra latency from queue state right now —
        the term ``FSLEDS_GET`` adds to non-resident SLED latencies.
        ``tenant`` scopes the estimate under tenant-aware schedulers."""
        delays: dict[str, float] = {}
        for key, device, queue in self._device_queues(fs):
            delay = queue.estimated_delay(now, tenant)
            plug = self._plugs.get(id(device))
            if plug is not None:
                delay += plug.estimated_delay()
            delay = max(delay, device.queue_delay(now))
            if delay > 0.0:
                delays[key] = delay
        return delays

    def congestion_stamp(self, fs) -> tuple:
        """Per-device congestion epochs, folded into the SLED cache stamp
        so any queue-state change invalidates cached vectors."""
        return tuple(queue.congestion_epoch
                     for _, _, queue in self._device_queues(fs))

    def _device_queues(self, fs) -> tuple:
        """``fs``'s levels bound to their queues once: a filesystem's
        device table is fixed when it is built."""
        bound = self._bound.get(fs)
        if bound is None:
            bound = self._bound[fs] = tuple(
                (key, device, self.queue_for(device))
                for key, device in sorted(fs.device_table().items()))
        return bound

    # -- forensic provenance ---------------------------------------------

    def dispatch_histories(self) -> dict[str, tuple]:
        """Per device name: the bounded dispatch-history ring (see
        :meth:`~repro.block.scheduler.DeviceQueue.recent_dispatches`) —
        the raw material the blame engine reconstructs queue-wait
        occupancy from."""
        return {queue.device.name: queue.recent_dispatches()
                for queue in self._queues.values()}

    def hold_histories(self) -> dict[tuple, object]:
        """Plug hold-time provenance across every plug stage, keyed by
        ``(fs, inode, page, cluster, submit_time)`` — the identity of
        the lifecycle record the released request produced."""
        holds: dict[tuple, object] = {}
        for plug in self._plugs.values():
            for hold in plug.recent_dispatched_holds():
                holds[hold.key] = hold
        return holds

    # -- observability ---------------------------------------------------

    def _on_queued(self, device, depth: int) -> None:
        telemetry = self.kernel.telemetry
        if telemetry is not None:
            telemetry.on_io_queued(device, depth)

    def _on_dispatched(self, device, wait: float, depth: int) -> None:
        telemetry = self.kernel.telemetry
        if telemetry is not None:
            telemetry.on_io_dispatched(device, wait, depth)

    def _on_completed(self, device, depth: int) -> None:
        telemetry = self.kernel.telemetry
        if telemetry is not None:
            telemetry.on_io_completed(device, depth)

    def _on_merge(self, device, members: int, nbytes: int) -> None:
        telemetry = self.kernel.telemetry
        if telemetry is not None:
            telemetry.on_merge(device, members, nbytes)

    def _on_plug(self, device, wait: float, batch: int) -> None:
        telemetry = self.kernel.telemetry
        if telemetry is not None:
            telemetry.on_plug(device, wait, batch)

    def queue_report(self) -> dict[str, dict]:
        """Summary per device queue (benchmarks and examples print this).

        Merge/plug keys appear only for devices that actually have a plug
        stage, so reports from engines without a block front keep their
        exact historical shape."""
        report: dict[str, dict] = {}
        for queue in self._queues.values():
            report[queue.device.name] = {
                "dispatched": queue.dispatched,
                "depth_high_water": queue.depth_high_water,
                "total_queue_wait_s": queue.total_queue_wait,
                "congestion_epoch": queue.congestion_epoch,
            }
        for plug in self._plugs.values():
            report[plug.device.name].update({
                "merged_requests": plug.merged_requests,
                "merged_bytes": plug.merged_bytes,
                "plug_flushes": plug.flushes,
                "plug_wait_s": plug.plug_wait_total,
            })
        return report

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "attached" if self._attached else "detached"
        return f"<IoEngine {state} queues={len(self._queues)}>"
