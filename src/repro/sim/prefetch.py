"""SLED-driven asynchronous prefetching.

The pick library (paper §4.2) *reorders* an application's reads so the
cheap bytes come first; this module goes one step further and moves the
cheap bytes **before the application asks**, using the same SLED vector as
the cost oracle.  A :class:`Prefetcher` takes an open file's vector,
ranks the non-resident spans cheapest-first, and speculatively submits
page runs through the attached :class:`~repro.sim.engine.IoEngine` — the
requests ride the same plug/merge/elevator pipeline as demand faults, so
device service overlaps the task's compute and adjacent speculation
coalesces with demand misses.

Safety valves:

* **in-flight cap** — at most ``max_inflight_bytes`` of speculation is
  outstanding; the rest of the plan trickles out as completions land;
* **cache-pressure cancellation** — when free page-cache capacity drops
  below what is in flight, the newest not-yet-dispatched speculative
  requests are withdrawn (plug or elevator cancellation; their futures
  resolve with ``None``), so speculation never evicts the working set it
  was meant to serve.

Strictly an overlay: a kernel with no prefetcher attached is bit-identical
to one that never imported this module (``kernel.prefetcher`` is a plain
attribute check on the hit path).
"""

from __future__ import annotations

from collections import deque

from repro.sim.errors import InvalidArgumentError
from repro.sim.units import MB, PAGE_SIZE, page_span


class Prefetcher:
    """Speculative SLED-guided reader over one kernel's engine."""

    def __init__(self, kernel, engine=None,
                 max_inflight_bytes: int = 2 * MB,
                 max_run_pages: int = 16) -> None:
        if engine is None:
            engine = kernel.engine
        if engine is None:
            raise InvalidArgumentError(
                "prefetching needs an attached I/O engine")
        if max_inflight_bytes < PAGE_SIZE:
            raise InvalidArgumentError(
                f"max_inflight_bytes below one page: {max_inflight_bytes}")
        if max_run_pages < 1:
            raise InvalidArgumentError(
                f"max_run_pages must be >= 1: {max_run_pages}")
        self.kernel = kernel
        self.engine = engine
        self.max_inflight_bytes = max_inflight_bytes
        self.max_run_pages = max_run_pages
        #: future -> (fs, inode, page, cluster, tenant) for submitted
        #: speculation; the tenant is captured at *plan* time (the pump
        #: runs in completion callbacks, outside any task)
        self._inflight: dict = {}
        self._inflight_bytes = 0
        self._inflight_pages: set = set()
        #: planned-but-not-submitted runs, drained under the in-flight cap
        self._plan: deque = deque()
        self._planned_pages: set = set()
        #: page key -> owning tenant for pages fetched speculatively and
        #: not yet read by anyone
        self._prefetched: dict = {}
        self._cancelling = False
        self.issued_pages = 0
        self.used_pages = 0
        self.completed_requests = 0
        self.cancelled_requests = 0
        self.failed_requests = 0
        #: per-tenant speculation accounting (empty for untenanted runs)
        self.tenant_issued_pages: dict = {}
        self.tenant_used_pages: dict = {}

    # -- lifecycle -------------------------------------------------------

    def attach(self) -> "Prefetcher":
        """Install on the kernel so cache hits report back usage."""
        self.kernel.prefetcher = self
        return self

    def detach(self) -> None:
        if self.kernel.prefetcher is self:
            self.kernel.prefetcher = None

    @property
    def inflight_bytes(self) -> int:
        return self._inflight_bytes

    @property
    def planned_runs(self) -> int:
        return len(self._plan)

    # -- the kernel's hit-path callback ----------------------------------

    def note_access(self, key) -> None:
        """A cache hit landed on ``key``; count it if we prefetched it."""
        if key in self._prefetched:
            tenant = self._prefetched.pop(key)
            self.used_pages += 1
            if tenant is not None:
                self.tenant_used_pages[tenant] = (
                    self.tenant_used_pages.get(tenant, 0) + 1)
            telemetry = self.kernel.telemetry
            if telemetry is not None:
                telemetry.on_prefetch_used()

    # -- planning --------------------------------------------------------

    def prefetch_fd(self, fd: int, budget_bytes: int | None = None) -> int:
        """Fetch ``fd``'s SLED vector (full ``FSLEDS_GET`` cost) and plan
        speculation over it; returns the bytes planned."""
        of = self.kernel._fd(fd)
        vector = self.kernel.get_sleds(fd)
        return self.prefetch_vector(of.fs, of.inode, vector, budget_bytes)

    def prefetch_vector(self, fs, inode, vector,
                        budget_bytes: int | None = None) -> int:
        """Plan speculation over a SLED vector, cheapest latency first
        (ties toward the lower offset, like the pick library); returns
        the bytes planned.  ``budget_bytes`` bounds the planning, not the
        in-flight cap."""
        remaining = budget_bytes
        planned = 0
        for sled in sorted(vector, key=lambda s: (s.latency, s.offset)):
            if remaining is not None and remaining <= 0:
                break
            length = sled.end - sled.offset
            if remaining is not None:
                length = min(length, remaining)
            got = self._plan_span(fs, inode, sled.offset, length)
            planned += got
            if remaining is not None:
                remaining -= got
        self._pump()
        return planned

    def prefetch_span(self, fs, inode, offset: int, length: int) -> int:
        """Plan speculation over one byte span (the pick session feeds
        its upcoming chunks here); returns the bytes planned."""
        planned = self._plan_span(fs, inode, offset, length)
        self._pump()
        return planned

    def _plan_span(self, fs, inode, offset: int, length: int) -> int:
        if length <= 0:
            return 0
        cache = self.kernel.page_cache
        npages = inode.npages
        # capture the owner now: planning runs inside the requesting
        # task, the pump that submits may run in a completion callback
        # where current_tenant is None — charging the speculation there
        # would leak it across tenants
        tenant = getattr(self.kernel, "current_tenant", None)
        run_start, run_len = None, 0
        planned_pages = 0

        def flush_run(start: int, count: int) -> None:
            self._plan.append((fs, inode, start, count, tenant))
            for p in range(start, start + count):
                self._planned_pages.add((inode.id, p))

        for page in page_span(offset, length):
            if page >= npages:
                break
            key = (inode.id, page)
            wanted = (not cache.peek(key)
                      and key not in self._inflight_pages
                      and key not in self._planned_pages)
            if (wanted and run_start is not None
                    and page == run_start + run_len
                    and run_len < self.max_run_pages):
                run_len += 1
            elif wanted:
                if run_start is not None:
                    flush_run(run_start, run_len)
                run_start, run_len = page, 1
            elif run_start is not None:
                flush_run(run_start, run_len)
                run_start, run_len = None, 0
            if wanted:
                planned_pages += 1
        if run_start is not None:
            flush_run(run_start, run_len)
        return planned_pages * PAGE_SIZE

    # -- submission / completion ----------------------------------------

    def _pump(self) -> None:
        """Submit planned runs up to the in-flight byte cap."""
        if self._cancelling:
            return
        cache = self.kernel.page_cache
        while self._plan and self._inflight_bytes < self.max_inflight_bytes:
            fs, inode, page, cluster, tenant = self._plan.popleft()
            keys = [(inode.id, p) for p in range(page, page + cluster)]
            for key in keys:
                self._planned_pages.discard(key)
            if all(cache.peek(key) for key in keys):
                continue  # a demand fault beat us to the whole run
            future = self.engine.submit_cluster(fs, inode, page, cluster,
                                                tenant=tenant,
                                                speculative=True)
            self._inflight[future] = (fs, inode, page, cluster, tenant)
            self._inflight_bytes += cluster * PAGE_SIZE
            self._inflight_pages.update(keys)
            self.issued_pages += cluster
            if tenant is not None:
                self.tenant_issued_pages[tenant] = (
                    self.tenant_issued_pages.get(tenant, 0) + cluster)
            telemetry = self.kernel.telemetry
            if telemetry is not None:
                telemetry.on_prefetch_issued(cluster)
            future.add_done_callback(self._on_done)

    def _on_done(self, future) -> None:
        entry = self._inflight.pop(future, None)
        if entry is None:
            return
        fs, inode, page, cluster, tenant = entry
        self._inflight_bytes -= cluster * PAGE_SIZE
        keys = [(inode.id, p) for p in range(page, page + cluster)]
        for key in keys:
            self._inflight_pages.discard(key)
        telemetry = self.kernel.telemetry
        if future.exception is not None:
            # speculation must never surface device errors to anyone;
            # the page simply stays non-resident for the demand path
            self.failed_requests += 1
        elif future.value is None:
            self.cancelled_requests += 1
            if telemetry is not None:
                telemetry.on_prefetch_cancelled()
        else:
            completion = future.value
            self.completed_requests += 1
            cache = self.kernel.page_cache
            for key in keys:
                if not cache.peek(key):
                    cache.insert(key, tenant)
                    self._prefetched[key] = tenant
            if telemetry is not None:
                telemetry.on_prefetch_complete(fs, inode.id, page, cluster,
                                               completion, tenant=tenant)
        self._check_pressure()
        self._pump()

    def _check_pressure(self) -> None:
        """Withdraw the newest not-yet-dispatched speculation while free
        cache capacity is below what is in flight."""
        if self._cancelling:
            return
        cache = self.kernel.page_cache
        free = cache.capacity_pages - len(cache)
        inflight_pages = sum(entry[3] for entry in self._inflight.values())
        if free >= inflight_pages:
            return
        self._cancelling = True
        try:
            for future in reversed(list(self._inflight)):
                if free >= inflight_pages:
                    break
                fs, _, _, cluster, _ = self._inflight[future]
                if self.engine.cancel_request(fs.device, future):
                    # resolution with None re-enters _on_done, which
                    # pops the entry and counts the cancellation
                    inflight_pages -= cluster
        finally:
            self._cancelling = False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Prefetcher inflight={self._inflight_bytes}B "
                f"plan={len(self._plan)} issued={self.issued_pages}p "
                f"used={self.used_pages}p>")
