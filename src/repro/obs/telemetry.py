"""The telemetry facade: one object wiring metrics + spans + accuracy.

A :class:`Telemetry` instance bundles the three observability pillars —
the :class:`~repro.obs.metrics.MetricsRegistry`, the
:class:`~repro.obs.spans.SpanRecorder` and the
:class:`~repro.obs.accuracy.SledAccuracyTracker` — and knows how to attach
itself to a simulated kernel::

    telemetry = Telemetry()
    telemetry.attach(machine.kernel)
    with machine.kernel.process() as run:
        wc(machine.kernel, "/mnt/ext2/big.txt", use_sleds=True)
    telemetry.detach()
    print(telemetry.accuracy.report().render())
    print(telemetry.render_prometheus())

Attachment installs observers on the page cache and on every reachable
device, and sets ``kernel.telemetry`` so the kernel's inline hooks fire.
Everything recorded is *derived from virtual time*: telemetry never
advances the clock, never draws from the RNG streams, and therefore never
changes a single simulated timing — runs are bit-identical with telemetry
attached, detached, or never constructed (asserted by tests).
"""

from __future__ import annotations

from repro.obs.accuracy import SledAccuracyTracker
from repro.obs.lifecycle import LifecycleTracker
from repro.obs.metrics import DEPTH_BUCKETS, MetricsRegistry
from repro.obs.spans import SpanRecorder, chrome_trace
from repro.sim.units import PAGE_SIZE


class Telemetry:
    """Metrics registry + span recorder + SLED accuracy tracker +
    per-request lifecycle tracker."""

    def __init__(self, span_capacity: int = 100_000,
                 namespace: str = "repro") -> None:
        self.registry = MetricsRegistry(namespace=namespace)
        self.spans = SpanRecorder(capacity=span_capacity)
        self.accuracy = SledAccuracyTracker(registry=self.registry)
        self.lifecycle = LifecycleTracker(registry=self.registry)
        #: optional time-series recorder (repro.obs.timeseries); None =
        #: off.  Ticked from the hooks below with the virtual time each
        #: hook already carries — sampling never reads the clock itself.
        self.timeseries = None
        self._kernel = None
        self._policy_name = "none"
        #: readahead-inserted pages that have not been read yet
        self._pending_ra: set = set()
        #: device accesses awaiting a parent span: (t, name, dur, bytes, op)
        self._pending_dev: list[tuple[float, str, float, int, str]] = []
        self._observed_devices: list = []

        r = self.registry
        self.syscalls = r.counter(
            "syscalls_total", "Syscalls served", labels=("name",))
        self.syscall_latency = r.histogram(
            "syscall_latency_seconds", "Virtual latency per syscall",
            labels=("name",))
        self.faults = r.counter(
            "faults_total", "Hard page faults", labels=("device",))
        self.fault_latency = r.histogram(
            "fault_latency_seconds", "Virtual latency per hard fault",
            labels=("device",))
        self.fault_cluster = r.histogram(
            "fault_cluster_pages", "Pages fetched per hard fault",
            labels=("device",), buckets=DEPTH_BUCKETS)
        self.device_access = r.counter(
            "device_access_total", "Accesses per device",
            labels=("device", "op"))
        self.device_bytes = r.counter(
            "device_bytes_total", "Bytes moved per device",
            labels=("device", "op"))
        self.device_latency = r.histogram(
            "device_access_seconds", "Virtual latency per device access",
            labels=("device",))
        self.device_busy = r.gauge(
            "device_busy_seconds", "Cumulative busy time per device",
            labels=("device",))
        self.queue_depth = r.histogram(
            "device_queue_depth", "Requests per writeback batch",
            labels=("device",), buckets=DEPTH_BUCKETS)
        self.queue_depth_now = r.gauge(
            "device_queue_depth_now",
            "Outstanding requests on the device's event queue",
            labels=("device",))
        self.queue_wait = r.histogram(
            "device_queue_wait_seconds",
            "Virtual seconds a request waited in queue before service",
            labels=("device",))
        self.cache_hits = r.counter(
            "cache_hits_total", "Page-cache hits", labels=("policy",))
        self.cache_misses = r.counter(
            "cache_misses_total", "Page-cache misses", labels=("policy",))
        self.cache_evictions = r.counter(
            "cache_evictions_total", "Page-cache evictions",
            labels=("policy", "forced"))
        self.cache_insertions = r.counter(
            "cache_insertions_total", "Page-cache insertions",
            labels=("policy",))
        self.cache_resident = r.gauge(
            "cache_resident_pages", "Pages currently resident")
        self.readahead_issued = r.counter(
            "readahead_issued_pages_total",
            "Pages speculatively fetched beyond the demand page")
        self.readahead_used = r.counter(
            "readahead_used_pages_total",
            "Speculatively fetched pages later hit by a read")
        self.readahead_window = r.gauge(
            "readahead_window_pages", "Readahead window at the last fault")
        self.metadata_latency = r.histogram(
            "metadata_latency_seconds",
            "Virtual latency of metadata operations (stat/lookup)",
            labels=("fs",))
        self.remote_metadata_ops = r.gauge(
            "remote_metadata_ops", "Metadata round trips per remote mount",
            labels=("fs",))
        self.sleds_requests = r.counter(
            "sleds_get_total", "FSLEDS_GET requests served")
        self.sleds_vector_sleds = r.histogram(
            "sleds_vector_sleds", "SLEDs per returned vector",
            buckets=DEPTH_BUCKETS)
        self.migration_seconds = r.histogram(
            "hsm_migration_seconds", "Virtual seconds per HSM migration")
        self.migrated_files = r.counter(
            "hsm_migrated_files_total", "Files migrated to tape")
        self.merged_requests = r.counter(
            "block_merged_requests_total",
            "Requests eliminated by block-layer coalescing",
            labels=("device",))
        self.merge_members = r.histogram(
            "block_merge_members", "Member requests per merged dispatch",
            labels=("device",), buckets=DEPTH_BUCKETS)
        self.merged_bytes = r.counter(
            "block_merged_bytes_total",
            "Union bytes submitted by merged requests", labels=("device",))
        self.plug_latency = r.histogram(
            "block_plug_latency_seconds",
            "Virtual seconds a request spent held in the plug",
            labels=("device",))
        self.plug_batch = r.histogram(
            "block_plug_batch_requests", "Requests per plug flush",
            labels=("device",), buckets=DEPTH_BUCKETS)
        self.prefetch_issued = r.counter(
            "prefetch_issued_pages_total",
            "Pages speculatively fetched by the SLED prefetcher")
        self.prefetch_used = r.counter(
            "prefetch_used_pages_total",
            "Prefetched pages later hit by a read")
        self.prefetch_cancelled = r.counter(
            "prefetch_cancelled_requests_total",
            "Prefetch requests withdrawn before dispatch")
        self.virtual_time = r.gauge(
            "virtual_time_seconds", "Virtual clock per charge category",
            labels=("category",))
        self.kernel_counter = r.gauge(
            "kernel_counter", "Cumulative kernel counters",
            labels=("name",))
        self.kernel_counter_tenant = r.gauge(
            "kernel_counter_tenant",
            "Cumulative per-tenant kernel counters",
            labels=("name", "tenant"))

    # ------------------------------------------------------------------
    # attachment
    # ------------------------------------------------------------------

    def attach(self, kernel) -> None:
        """Install this telemetry on ``kernel`` (attach after mounting)."""
        if self._kernel is not None:
            raise ValueError("telemetry is already attached to a kernel")
        self._kernel = kernel
        kernel.telemetry = self
        self._policy_name = getattr(
            kernel.page_cache.policy, "name",
            type(kernel.page_cache.policy).__name__.lower())
        kernel.page_cache.observer = self
        seen: set[int] = set()
        for device in self._reachable_devices(kernel):
            if id(device) in seen:
                continue
            seen.add(id(device))
            device.observer = self
            self._observed_devices.append(device)

    def detach(self) -> None:
        """Stop observing; recorded data stays readable."""
        kernel = self._kernel
        if kernel is None:
            return
        kernel.telemetry = None
        kernel.page_cache.observer = None
        for device in self._observed_devices:
            device.observer = None
        self._observed_devices.clear()
        self._pending_dev.clear()
        self._kernel = None

    @staticmethod
    def _reachable_devices(kernel):
        yield kernel.memory
        for _, fs in kernel.mounts():
            yield from fs.observable_devices()

    # ------------------------------------------------------------------
    # time-series sampling
    # ------------------------------------------------------------------

    def enable_timeseries(self, interval: float = 0.005,
                          capacity: int = 4096,
                          families: tuple[str, ...] | None = None,
                          sample_buckets: bool = False,
                          exemplars=None):
        """Start sampling the registry every ``interval`` virtual seconds
        (see :mod:`repro.obs.timeseries`); returns the recorder.
        ``sample_buckets`` adds per-histogram bucket rows so the
        OpenMetrics export emits real histogram families; ``exemplars``
        (an :class:`~repro.obs.forensics.ExemplarReservoir`) annotates
        those bucket lines with captured exemplars."""
        from repro.obs.timeseries import TimeSeriesRecorder
        if self.timeseries is not None:
            raise ValueError("a time-series recorder is already enabled")
        self.timeseries = TimeSeriesRecorder(
            self.registry, interval=interval, capacity=capacity,
            families=families, snapshot_hook=self.snapshot,
            sample_buckets=sample_buckets, exemplars=exemplars)
        return self.timeseries

    def disable_timeseries(self) -> None:
        """Stop sampling; recorded samples stay readable."""
        self.timeseries = None

    def _tick(self, now: float) -> None:
        timeseries = self.timeseries
        if timeseries is not None:
            timeseries.tick(now)

    # ------------------------------------------------------------------
    # kernel hooks (called only while attached)
    # ------------------------------------------------------------------

    def syscall_begin(self, name: str, t: float):
        return self.spans.begin("syscall", name, t)

    def syscall_end(self, open_span, t: float) -> None:
        self._drain_pending(parent_id=open_span.id, floor=open_span.start)
        self.spans.end(open_span, t)
        name = open_span.name
        self.syscalls.child[name].inc()
        self.syscall_latency.child[name].observe(t - open_span.start)
        self._tick(t)

    def on_fault(self, device, inode_id: int, page: int, cluster: int,
                 seconds: float, now: float, window: int,
                 fs=None, completion=None, components=None) -> None:
        cls = device.time_category
        self.faults.child[cls].inc()
        self.fault_latency.child[cls].observe(seconds)
        self.fault_cluster.child[cls].observe(cluster)
        self.readahead_window.set(window)
        if cluster > 1:
            self.readahead_issued.inc(cluster - 1)
        self._tick(now)
        # span attrs keep the *request's own* page run; the lifecycle
        # record below may widen to the merged union
        span_attrs: dict = {"page": page, "cluster": cluster,
                            "inode": inode_id}
        queue_wait = completion.queue_wait if completion is not None else 0.0
        prediction = self.accuracy.record_fault(
            inode_id, page, cluster, seconds, cls, queue_wait=queue_wait)
        rec = None
        skip_record = fs is None
        merged_from = ()
        if not skip_record and completion is not None and completion.merged:
            merged_from = completion.merged_from
            if not merged_from:
                # secondary member of a coalesced request: the primary
                # member records the union once, with provenance —
                # recording every member would multiply-count the one
                # device service the union paid for
                skip_record = True
            else:
                # the primary records the union run, not its own cluster
                page = min(p for _, p, _ in merged_from)
                cluster = max(p + c for _, p, c in merged_from) - page
        if not skip_record:
            # lifecycle record: event-engine faults hand the dispatch-time
            # component capture over via the stash; synchronous faults
            # pass the delta inline
            if components is None:
                components = self.lifecycle.pop_stash(
                    ("fault", inode_id, page, cluster)) or {}
            if completion is not None:
                submit, start, finish = (completion.submit_time,
                                         completion.start_time,
                                         completion.finish_time)
            else:
                submit = start = now - seconds
                finish = now
            predicted_latency, predicted_queue = (
                prediction if prediction is not None else (None, None))
            rec = self.lifecycle.record(
                kind="fault",
                task=getattr(self._kernel, "current_task", None),
                fs=fs.name, device_class=cls, inode=inode_id, page=page,
                cluster=cluster, nbytes=cluster * PAGE_SIZE,
                submit_time=submit, start_time=start, finish_time=finish,
                components=components,
                predicted_latency=predicted_latency,
                predicted_queue=predicted_queue,
                merged_from=merged_from,
                tenant=getattr(self._kernel, "current_tenant", None))
        if rec is not None:
            # carry the closed breakdown + provenance into the trace so
            # chrome://tracing shows where this request's latency went
            span_attrs["queue_wait"] = rec.queue_wait
            span_attrs["components"] = dict(rec.components)
            if rec.merged_from:
                span_attrs["merged_from"] = [list(member)
                                             for member in rec.merged_from]
        span = self.spans.add("fault", cls, now - seconds, now,
                              **span_attrs)
        self._drain_pending(parent_id=span.id, floor=span.start)

    def on_writeback(self, fs, inode, completion, components=None) -> None:
        """One event-engine writeback request completed."""
        cls = fs.device.time_category
        self._tick(completion.finish_time)
        if components is None:
            components = self.lifecycle.pop_stash(
                ("writeback", inode.id, completion.addr)) or {}
        self.lifecycle.record(
            kind="writeback",
            task=getattr(self._kernel, "current_task", None),
            fs=fs.name, device_class=cls, inode=inode.id, page=-1,
            cluster=completion.nbytes // PAGE_SIZE,
            nbytes=completion.nbytes,
            submit_time=completion.submit_time,
            start_time=completion.start_time,
            finish_time=completion.finish_time,
            components=components,
            tenant=getattr(self._kernel, "current_tenant", None))

    def on_hit(self, inode_id: int, page: int, pages: int = 1) -> None:
        """A read found ``pages`` pages from ``page`` on resident; settle
        any SLED predictions they had."""
        kernel = self._kernel
        if kernel is None:
            return
        spec = kernel.memory.spec
        actual = spec.latency + PAGE_SIZE / spec.bandwidth
        self.accuracy.record_hit(inode_id, page, actual, pages=pages)

    def on_truncate(self, inode_id: int) -> None:
        """A file lost its bytes; its SLED predictions describe bytes
        that no longer exist."""
        self.accuracy.drop(inode_id)

    def on_readahead_insert(self, key) -> None:
        self._pending_ra.add(key)

    def on_metadata(self, fs_name: str, seconds: float) -> None:
        self.metadata_latency.child[fs_name].observe(seconds)

    def on_queue_depth(self, device, depth: int) -> None:
        self.queue_depth.child[device.name].observe(depth)

    def on_io_queued(self, device, depth: int) -> None:
        """A request entered the device's event queue (engine attached)."""
        self.queue_depth_now.child[device.name].set(depth)

    def on_io_dispatched(self, device, wait: float, depth: int) -> None:
        """A queued request started service after ``wait`` virtual
        seconds; ``depth`` counts it plus whatever is still waiting."""
        name = device.name
        self.queue_wait.child[name].observe(wait)
        self.queue_depth_now.child[name].set(depth)

    def on_io_completed(self, device, depth: int) -> None:
        """A request finished service; ``depth`` is what is still
        queued (0 when the device goes idle)."""
        self.queue_depth_now.child[device.name].set(depth)

    def on_merge(self, device, members: int, nbytes: int) -> None:
        """The block layer coalesced ``members`` requests into one
        ``nbytes`` union dispatch."""
        name = device.name
        self.merged_requests.child[name].inc(members - 1)
        self.merge_members.child[name].observe(members)
        self.merged_bytes.child[name].inc(nbytes)

    def on_plug(self, device, wait: float, batch: int) -> None:
        """One plugged request was released after ``wait`` virtual
        seconds, in a flush of ``batch`` requests."""
        name = device.name
        self.plug_latency.child[name].observe(wait)
        self.plug_batch.child[name].observe(batch)

    def on_prefetch_issued(self, pages: int) -> None:
        self.prefetch_issued.inc(pages)

    def on_prefetch_used(self, pages: int = 1) -> None:
        self.prefetch_used.inc(pages)

    def on_prefetch_cancelled(self) -> None:
        self.prefetch_cancelled.inc()

    def on_prefetch_complete(self, fs, inode_id: int, page: int,
                             cluster: int, completion,
                             tenant: str | None = None) -> None:
        """A speculative read finished; record its lifecycle.  Same
        merged-member protocol as :meth:`on_fault`: a secondary member of
        a coalesced request records nothing, a primary records the union
        with provenance.  ``tenant`` is the plan-time owner — completion
        callbacks run outside any task, so the kernel's current tenant
        is gone by the time this fires."""
        self._tick(completion.finish_time)
        merged_from = ()
        if completion.merged:
            merged_from = completion.merged_from
            if not merged_from:
                return
            page = min(p for _, p, _ in merged_from)
            cluster = max(p + c for _, p, c in merged_from) - page
        components = self.lifecycle.pop_stash(
            ("fault", inode_id, page, cluster)) or {}
        self.lifecycle.record(
            kind="prefetch",
            task=getattr(self._kernel, "current_task", None),
            fs=fs.name, device_class=fs.device.time_category,
            inode=inode_id, page=page, cluster=cluster,
            nbytes=cluster * PAGE_SIZE,
            submit_time=completion.submit_time,
            start_time=completion.start_time,
            finish_time=completion.finish_time,
            components=components, merged_from=merged_from,
            tenant=tenant)

    def on_sleds(self, inode_id: int, vector, runs,
                 queue_delays=None) -> None:
        """``FSLEDS_GET`` served ``vector``, folded from ``runs``; the
        accuracy snapshot takes each run's queue term from
        ``queue_delays`` (see :meth:`SledAccuracyTracker.record_runs`)."""
        self.sleds_requests.inc()
        self.sleds_vector_sleds.observe(len(vector))
        self.accuracy.record_runs(inode_id, runs, queue_delays)

    def on_migration(self, files: int, seconds: float) -> None:
        self.migrated_files.inc(files)
        self.migration_seconds.observe(seconds)

    # ------------------------------------------------------------------
    # device observer (installed on every reachable Device)
    # ------------------------------------------------------------------

    def on_device_access(self, device, addr: int, nbytes: int,
                         seconds: float, is_write: bool) -> None:
        op = "write" if is_write else "read"
        name = device.name
        self.device_access.child[(name, op)].inc()
        self.device_bytes.child[(name, op)].inc(nbytes)
        self.device_latency.child[name].observe(seconds)
        if self.spans.open_depth > 0 and self._kernel is not None:
            self._pending_dev.append(
                (self._kernel.clock.now, name, seconds, nbytes, op))

    def _drain_pending(self, parent_id: int, floor: float) -> None:
        """Lay buffered device accesses out sequentially under a parent."""
        if not self._pending_dev:
            return
        cursor = floor
        for t, name, seconds, nbytes, op in self._pending_dev:
            start = max(t, cursor)
            self.spans.add("device", name, start, start + seconds,
                           parent_id=parent_id, bytes=nbytes, op=op)
            cursor = start + seconds
        self._pending_dev.clear()

    # ------------------------------------------------------------------
    # page-cache observer
    # ------------------------------------------------------------------

    def on_cache_access(self, key, hit: bool) -> None:
        if hit:
            self.cache_hits.child[self._policy_name].inc()
            if key in self._pending_ra:
                self._pending_ra.discard(key)
                self.readahead_used.inc()
        else:
            self.cache_misses.child[self._policy_name].inc()

    def on_cache_insert(self, key) -> None:
        self.cache_insertions.child[self._policy_name].inc()

    def on_cache_evict(self, key, forced: bool) -> None:
        self.cache_evictions.child[
            (self._policy_name, "true" if forced else "false")].inc()
        self._pending_ra.discard(key)

    def on_cache_remove(self, key) -> None:
        self._pending_ra.discard(key)

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------

    def snapshot(self) -> None:
        """Refresh point-in-time gauges from the attached kernel."""
        kernel = self._kernel
        if kernel is None:
            return
        virtual_time = self.virtual_time.child
        for category, seconds in sorted(kernel.clock.categories().items()):
            virtual_time[category].set(seconds)
        virtual_time["total"].set(kernel.clock.now)
        self.cache_resident.set(len(kernel.page_cache))
        kernel_counter = self.kernel_counter.child
        for name, value in sorted(vars(kernel.counters).items()):
            if isinstance(value, dict):
                # per-tenant dict counters export as their own labeled
                # family; a flat gauge can't hold a dict
                for tenant in sorted(value):
                    self.kernel_counter_tenant.child[(name, tenant)].set(
                        value[tenant])
                continue
            kernel_counter[name].set(value)
        for device in self._observed_devices:
            self.device_busy.child[device.name].set(device.stats.busy_time)
        for _, fs in kernel.mounts():
            ops = getattr(fs, "metadata_ops", None)
            if ops is not None:
                self.remote_metadata_ops.child[fs.name].set(ops)

    def render_prometheus(self) -> str:
        """Prometheus text exposition (refreshes snapshot gauges first)."""
        self.snapshot()
        return self.registry.render_prometheus()

    def to_dict(self) -> dict:
        """JSON-ready dump: metrics + accuracy + span statistics."""
        self.snapshot()
        return {
            "metrics": self.registry.to_dict(),
            "accuracy": self.accuracy.to_dict(),
            "spans": {"recorded": len(self.spans),
                      "dropped": self.spans.dropped},
            "lifecycle": {"recorded": len(self.lifecycle),
                          "dropped": self.lifecycle.dropped},
        }

    def chrome_trace(self) -> dict:
        """Chrome trace-event JSON of every recorded span."""
        return chrome_trace(self.spans)


class TelemetryBatch:
    """Deferred :meth:`Telemetry.on_fault` fan-in for a run batch.

    The engine's completion step (``Kernel._complete_runs``) walks the
    completions of the miss runs a task parked on, under either parking
    rule (after each cluster, or once per span through a merge/plug
    front), then inserts them.  Instead of the full ``on_fault`` fan-out
    per run from inside that walk, :meth:`add` captures the call's
    arguments, and :meth:`flush` replays them *in the original order*
    once the inserts are done.

    Replay order is the only thing that moves: ``on_fault`` neither reads
    nor writes anything the interleaved cache inserts touch, *except* the
    time-series sampler (``_tick``), whose samples would observe insert
    counters from later runs — so the kernel only routes through a batch
    when ``telemetry.timeseries is None``.  Readahead-insert set-adds and
    all cache-observer callbacks stay live and in place.  Metric totals,
    span order, lifecycle records, and accuracy bookkeeping are exactly
    those of the undeferred path.
    """

    __slots__ = ("_telemetry", "_events")

    def __init__(self, telemetry: Telemetry) -> None:
        self._telemetry = telemetry
        self._events: list = []

    @property
    def telemetry(self) -> Telemetry:
        return self._telemetry

    def add(self, device, inode_id: int, page: int, cluster: int,
            seconds: float, now: float, window: int, fs,
            completion) -> None:
        """Capture one deferred ``on_fault`` (arguments, not effects)."""
        self._events.append((device, inode_id, page, cluster, seconds,
                             now, window, fs, completion))

    def flush(self) -> None:
        """Replay the captured calls in order, then clear the batch."""
        events = self._events
        if not events:
            return
        on_fault = self._telemetry.on_fault
        for (device, inode_id, page, cluster, seconds,
             now, window, fs, completion) in events:
            on_fault(device, inode_id, page, cluster, seconds,
                     now=now, window=window, fs=fs, completion=completion)
        events.clear()
