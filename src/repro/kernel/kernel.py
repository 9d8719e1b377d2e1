"""The simulated kernel: VFS, syscalls, page cache, fault accounting.

This module stands in for the paper's modified Linux 2.2 kernel.  It owns

* a mount table (``/`` plus any number of ext2/ISO9660/NFS/HSM mounts);
* the global page cache and per-open-file readahead state;
* the syscall surface the applications use: ``open``, ``read``, ``write``,
  ``lseek``, ``close``, ``stat``, ``listdir``, ``unlink``, ``fsync``,
  ``ioctl``;
* the two SLEDs ioctls (``FSLEDS_FILL``, ``FSLEDS_GET``);
* accounting: hard page faults, per-category virtual time, and the
  :meth:`process` measurement window used by every experiment.

Timing model
------------
* A page-cache **hit** costs memory copy time (the paper's Table 2 memory
  row: lmbench latency + bcopy bandwidth).
* A **miss** is a hard fault: the kernel reads a readahead *cluster* of
  device-contiguous pages in one device access, so linear scans stream at
  device bandwidth while random access pays per-access latency.
* Syscalls cost a fixed CPU overhead; applications charge their own
  processing CPU through :meth:`charge_cpu`.
* An optional multiplicative noise model (seeded, deterministic) perturbs
  device times to emulate "the somewhat random nature of page replacement
  algorithms and background system activity" the paper averages over.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial, wraps
from typing import Iterator

from repro.block.scheduler import (IoRequest, IoScheduler, make_scheduler,
                                   submit_batch)
from repro.cache.page_cache import PageCache
from repro.cache.readahead import ReadaheadWindow
from repro.core.builder import build_sled_vector
from repro.core.sled import SledVector
from repro.core.sled_table import SledTable
from repro.devices.memory import MemoryDevice
from repro.fs.content import ByteStoreContent
from repro.fs.filesystem import FileSystem, split_path
from repro.fs.inode import Inode
from repro.kernel.ioctl import (COMMAND_NAMES, FSLEDS_FILL, FSLEDS_GET,
                                UnknownIoctlError)
from repro.kernel.stats import KernelCounters, ProcessRun
from repro.obs.lifecycle import component_delta, snapshot_components
from repro.sim.clock import VirtualClock
from repro.sim.errors import (
    BadFileDescriptorError,
    FileNotFoundSimError,
    InvalidArgumentError,
    IsADirectorySimError,
    ReadOnlyFilesystemError,
)
from repro.sim.rng import RngStreams
from repro.sim.units import PAGE_SIZE, USEC, page_span

SEEK_SET = 0
SEEK_CUR = 1
SEEK_END = 2


def _syscall_span(name: str):
    """Wrap a syscall method in a telemetry span covering its full
    virtual duration (a no-op when no telemetry is attached)."""
    def deco(fn):
        @wraps(fn)
        def wrapper(self, *args, **kwargs):
            tele = self.telemetry
            if tele is None:
                return fn(self, *args, **kwargs)
            span = tele.syscall_begin(name, self.clock.now)
            try:
                return fn(self, *args, **kwargs)
            finally:
                tele.syscall_end(span, self.clock.now)
        return wrapper
    return deco


@dataclass
class OpenFile:
    """Kernel state for one open descriptor."""

    fd: int
    path: str
    fs: FileSystem
    inode: Inode
    pos: int = 0
    writable: bool = False
    append: bool = False
    readahead: ReadaheadWindow = field(default_factory=ReadaheadWindow)


@dataclass(frozen=True)
class StatResult:
    """What ``stat`` returns."""

    path: str
    size: int
    is_dir: bool
    inode_id: int


class Kernel:
    """A single simulated machine: devices + cache + namespace + clock."""

    def __init__(self, cache_pages: int = 16 * 1024,
                 policy: str = "lru",
                 memory: MemoryDevice | None = None,
                 rng: RngStreams | None = None,
                 noise: float = 0.0,
                 syscall_overhead: float = 2.0 * USEC,
                 readahead_min_pages: int = 4,
                 readahead_max_pages: int = 16,
                 writeback_threshold_pages: int = 256,
                 io_scheduler="clook",
                 cache_shards: int = 1,
                 tenant_limits=None) -> None:
        if noise < 0:
            raise InvalidArgumentError(f"noise must be >= 0: {noise}")
        if readahead_min_pages < 1:
            raise InvalidArgumentError(
                f"readahead_min_pages must be >= 1: {readahead_min_pages}")
        self.clock = VirtualClock()
        self.memory = memory or MemoryDevice()
        self.page_cache = PageCache(cache_pages, policy,
                                    shards=cache_shards,
                                    tenant_limits=tenant_limits)
        self.sleds_table = SledTable()
        self.counters = KernelCounters()
        # the cache reports every eviction it performs, with its owner
        self.page_cache.eviction_sink = self.counters
        self.rng = rng or RngStreams()
        self.noise = noise
        self.syscall_overhead = syscall_overhead
        self.readahead_min_pages = readahead_min_pages
        self.readahead_max_pages = readahead_max_pages
        self.writeback_threshold_pages = writeback_threshold_pages
        self.io_scheduler = (io_scheduler
                             if isinstance(io_scheduler, IoScheduler)
                             else make_scheduler(io_scheduler))
        self._mounts: list[tuple[tuple[str, ...], FileSystem]] = []
        self._fds: dict[int, OpenFile] = {}
        self._next_fd = 3
        #: ids of unlinked inodes a descriptor still holds open; the last
        #: close frees them
        self._unlinked: set[int] = set()
        #: inode.id -> (fs, inode, set of dirty page indices)
        self._dirty: dict[int, tuple[FileSystem, Inode, set[int]]] = {}
        #: inode.id -> (stamp, vector, runs): FSLEDS_GET results, with the
        #: runs the builder folded them from, cached until the stamp —
        #: (cache generation, fs state epoch, sleds-table version, and,
        #: with an engine attached, the per-device congestion epochs) —
        #: moves, making refetch O(changed-state) instead of O(file-pages)
        self._sled_cache: dict[int, tuple[tuple, SledVector, list]] = {}
        #: optional telemetry facade (see repro.obs.telemetry); None = off.
        #: Every telemetry hook below is purely observational: attached or
        #: not, virtual timings are bit-identical.
        self.telemetry = None
        #: optional discrete-event I/O engine (see repro.sim.engine);
        #: None = the synchronous time model, bit-identical to the
        #: pre-engine substrate.  Set via attach_engine()/IoEngine.attach().
        self.engine = None
        #: name of the task currently executing under a scheduler
        #: (repro.sim.tasks sets it around each slice).  Observability
        #: attribution only; never consulted by the timing model.
        self.current_task = None
        #: tenant of the task currently executing (set alongside
        #: current_task).  Drives per-tenant accounting, cache ownership,
        #: and QoS classes; None (untenanted) leaves every tenant path
        #: dormant and the timing model only sees it through explicitly
        #: tenant-aware schedulers.
        self.current_tenant = None
        #: optional SLED-driven prefetcher (see repro.sim.prefetch);
        #: None = off.  When set, cache hits notify it so it can count
        #: speculative fetches that actually got used.
        self.prefetcher = None
        #: lazily-built TelemetryBatch for the engine's batched fault
        #: path (repro.obs.telemetry); rebuilt if telemetry is swapped.
        #: Never allocated while telemetry is detached (zero-cost rule).
        self._telemetry_batch = None

    # ------------------------------------------------------------------
    # mounts and path resolution
    # ------------------------------------------------------------------

    def mount(self, path: str, fs: FileSystem) -> None:
        """Attach ``fs`` at ``path`` (longest-prefix match wins).

        The mount-point directory is created in the covering filesystem,
        as ``mkdir /mnt/ext2`` would precede ``mount`` on a real system.
        """
        prefix = tuple(split_path(path))
        if any(p == prefix for p, _ in self._mounts):
            raise InvalidArgumentError(f"mount point {path!r} already in use")
        covering = None
        for existing_prefix, existing_fs in self._mounts:
            if (len(existing_prefix) < len(prefix)
                    and prefix[: len(existing_prefix)] == existing_prefix
                    and (covering is None
                         or len(existing_prefix) > len(covering[0]))):
                covering = (existing_prefix, existing_fs)
        if covering is not None:
            rel = list(prefix[len(covering[0]):])
            covering[1].mkdir(rel)
        self._mounts.append((prefix, fs))
        self._mounts.sort(key=lambda entry: len(entry[0]), reverse=True)
        # (re)mounting changes what paths resolve to; stale vectors built
        # against a previous attachment of this fs must not survive
        fs.bump_epoch()

    def mounts(self) -> list[tuple[str, FileSystem]]:
        """(mount path, fs) pairs, most specific first."""
        return [("/" + "/".join(prefix), fs) for prefix, fs in self._mounts]

    def resolve(self, path: str) -> tuple[FileSystem, Inode, list[str]]:
        """(fs, inode, fs-relative parts) for an absolute path."""
        parts = split_path(path)
        for prefix, fs in self._mounts:
            if tuple(parts[: len(prefix)]) == prefix:
                rel = parts[len(prefix):]
                return fs, fs.resolve(rel), rel
        raise FileNotFoundSimError(f"{path!r}: no filesystem mounted")

    def fs_of(self, path: str) -> FileSystem:
        """The filesystem an absolute path lives on."""
        parts = split_path(path)
        for prefix, fs in self._mounts:
            if tuple(parts[: len(prefix)]) == prefix:
                return fs
        raise FileNotFoundSimError(f"{path!r}: no filesystem mounted")

    # ------------------------------------------------------------------
    # accounting helpers
    # ------------------------------------------------------------------

    def attach_telemetry(self, telemetry) -> None:
        """Attach a :class:`repro.obs.telemetry.Telemetry` (after mounting,
        so it can observe every filesystem's devices)."""
        telemetry.attach(self)

    def detach_telemetry(self) -> None:
        if self.telemetry is not None:
            self.telemetry.detach()

    def attach_engine(self, engine=None, block=None):
        """Attach (and return) a discrete-event I/O engine.

        With an engine attached, the ``*_async`` syscalls queue requests on
        per-device elevators and block on completions, and ``FSLEDS_GET``
        folds live queue state into its latency estimates.  The plain
        blocking syscalls keep working either way.  ``block`` (a
        :class:`~repro.block.merge.BlockConfig`) enables the merge/plug
        front-end; only consulted when ``engine`` is None.
        """
        from repro.sim.engine import IoEngine
        if engine is None:
            engine = IoEngine(self, block=block)
        engine.attach()
        return engine

    def detach_engine(self) -> None:
        if self.engine is not None:
            self.engine.detach()

    def charge_cpu(self, seconds: float) -> None:
        """Applications charge their processing time here."""
        self.clock.advance(seconds, "cpu")

    def _syscall(self) -> None:
        self.counters.syscalls += 1
        self.clock.advance(self.syscall_overhead, "cpu")

    def _charge_memory(self, nbytes: int) -> None:
        self.clock.advance(self.memory.read(0, nbytes), "memory")

    def _noisy(self, seconds: float) -> float:
        if self.noise <= 0.0 or seconds <= 0.0:
            return seconds
        factor = 1.0 + self.noise * float(
            self.rng.stream("kernel-noise").exponential(1.0))
        return seconds * factor

    def _traced_service(self, fs, key: tuple, raw_thunk):
        """Wrap a device-service thunk for the event engine so that,
        with telemetry attached at dispatch time, the per-component
        seconds the devices charge are stashed for the lifecycle record
        under ``key``.  With telemetry detached the wrapper adds nothing
        but an attribute read — timings are bit-identical either way.
        """
        def service() -> float:
            telemetry = self.telemetry
            if telemetry is None:
                return self._noisy(raw_thunk())
            before = snapshot_components(fs)
            seconds = self._noisy(raw_thunk())
            telemetry.lifecycle.stash(key, component_delta(before))
            return seconds

        return service

    def _fd(self, fd: int) -> OpenFile:
        try:
            return self._fds[fd]
        except KeyError:
            raise BadFileDescriptorError(f"fd {fd} is not open") from None

    def _charge_metadata(self, fs: FileSystem) -> None:
        """Charge one metadata operation (stat/lookup) on ``fs``."""
        cost = fs.stat_cost()
        self.clock.advance(cost, fs.device.time_category)
        if self.telemetry is not None:
            self.telemetry.on_metadata(fs.name, cost)

    # ------------------------------------------------------------------
    # namespace syscalls
    # ------------------------------------------------------------------

    @_syscall_span("open")
    def open(self, path: str, mode: str = "r") -> int:
        """Open ``path``; modes ``r``, ``r+``, ``w``, ``a``."""
        self._syscall()
        if mode not in ("r", "r+", "w", "a"):
            raise InvalidArgumentError(f"unsupported open mode {mode!r}")
        writable = mode != "r"
        fs = self.fs_of(path)
        if writable and fs.read_only:
            raise ReadOnlyFilesystemError(
                f"{path!r}: filesystem {fs.name!r} is read-only")
        self._charge_metadata(fs)
        parts = split_path(path)
        rel = parts[len(self._mount_prefix_of(fs)):]
        try:
            inode = fs.resolve(rel)
        except FileNotFoundSimError:
            if mode not in ("w", "a"):
                raise
            inode = fs.create_file(rel, size=0, content=ByteStoreContent())
        if inode.is_dir:
            raise IsADirectorySimError(path)
        if mode == "w" and inode.size > 0:
            self._truncate(fs, inode)
        window = ReadaheadWindow(
            min_pages=min(self.readahead_min_pages,
                          self.readahead_max_pages),
            max_pages=self.readahead_max_pages)
        of = OpenFile(
            fd=self._next_fd, path=path, fs=fs, inode=inode,
            writable=writable, append=(mode == "a"), readahead=window)
        if mode == "a":
            of.pos = inode.size
        self._fds[of.fd] = of
        self._next_fd += 1
        inode.atime = self.clock.now
        return of.fd

    def _mount_prefix_of(self, fs: FileSystem) -> tuple[str, ...]:
        for prefix, mounted in self._mounts:
            if mounted is fs:
                return prefix
        raise InvalidArgumentError(f"filesystem {fs.name!r} is not mounted")

    def _truncate(self, fs: FileSystem, inode: Inode) -> None:
        self.page_cache.invalidate_inode(inode.id)
        self._dirty.pop(inode.id, None)
        self._sled_cache.pop(inode.id, None)
        if self.telemetry is not None:
            self.telemetry.on_truncate(inode.id)
        fs.truncate_file(inode)
        if not isinstance(inode.content, ByteStoreContent):
            inode.content = ByteStoreContent()

    @_syscall_span("close")
    def close(self, fd: int) -> None:
        self._syscall()
        of = self._fd(fd)
        inode = of.inode
        last_of_unlinked = inode.id in self._unlinked and sum(
            other.inode is inode for other in self._fds.values()) == 1
        if not last_of_unlinked:
            self._flush((inode.id,))
        del self._fds[fd]
        if last_of_unlinked:
            # the file's dirty pages die with it; its space goes back
            self._unlinked.discard(inode.id)
            self._truncate(of.fs, inode)

    @_syscall_span("unlink")
    def unlink(self, path: str) -> None:
        """Remove a file's directory entry.  Its cached pages, dirty state
        and space go with it, or on the last ``close`` while a descriptor
        still has it open (its bytes stay readable until then)."""
        self._syscall()
        fs, inode, rel = self.resolve(path)
        if inode.is_dir:
            raise IsADirectorySimError(path)
        parent = fs.resolve(rel[:-1])
        del parent.entries[rel[-1]]
        if any(of.inode is inode for of in self._fds.values()):
            self._unlinked.add(inode.id)
        else:
            self._truncate(fs, inode)

    @_syscall_span("stat")
    def stat(self, path: str) -> StatResult:
        self._syscall()
        fs, inode, _ = self.resolve(path)
        self._charge_metadata(fs)
        return StatResult(path=path, size=inode.size,
                          is_dir=inode.is_dir, inode_id=inode.id)

    @_syscall_span("listdir")
    def listdir(self, path: str) -> list[str]:
        """Names in a directory, including any mount points grafted there."""
        self._syscall()
        fs, inode, _ = self.resolve(path)
        self._charge_metadata(fs)
        if not inode.is_dir:
            raise InvalidArgumentError(f"{path!r} is not a directory")
        names = set(inode.entries)
        here = tuple(split_path(path))
        for prefix, _ in self._mounts:
            if len(prefix) == len(here) + 1 and prefix[: len(here)] == here:
                names.add(prefix[-1])
        return sorted(names)

    # ------------------------------------------------------------------
    # data syscalls
    # ------------------------------------------------------------------

    @_syscall_span("lseek")
    def lseek(self, fd: int, offset: int, whence: int = SEEK_SET) -> int:
        self._syscall()
        of = self._fd(fd)
        if whence == SEEK_SET:
            new = offset
        elif whence == SEEK_CUR:
            new = of.pos + offset
        elif whence == SEEK_END:
            new = of.inode.size + offset
        else:
            raise InvalidArgumentError(f"bad whence: {whence}")
        if new < 0:
            raise InvalidArgumentError(f"seek to negative offset: {new}")
        if new != of.pos:
            of.readahead.reset()
        of.pos = new
        return new

    @_syscall_span("read")
    def read(self, fd: int, nbytes: int) -> bytes:
        """Read up to ``nbytes`` at the current position."""
        self._syscall()
        if nbytes < 0:
            raise InvalidArgumentError(f"negative read length: {nbytes}")
        of = self._fd(fd)
        inode = of.inode
        nbytes = min(nbytes, max(0, inode.size - of.pos))
        if nbytes == 0:
            return b""
        self._fault_in(of, of.pos, nbytes)
        data = inode.content.read(of.pos, nbytes)
        self._charge_memory(nbytes)
        of.pos += nbytes
        self.counters.bytes_read += nbytes
        return data

    @_syscall_span("pread")
    def pread(self, fd: int, offset: int, nbytes: int) -> bytes:
        """Positional read; does not move the file offset or readahead."""
        self._syscall()
        if offset < 0 or nbytes < 0:
            raise InvalidArgumentError(
                f"negative offset/length: {offset}, {nbytes}")
        of = self._fd(fd)
        inode = of.inode
        nbytes = min(nbytes, max(0, inode.size - offset))
        if nbytes == 0:
            return b""
        self._fault_in(of, offset, nbytes, use_readahead=False)
        data = inode.content.read(offset, nbytes)
        self._charge_memory(nbytes)
        self.counters.bytes_read += nbytes
        return data

    def _fault_in(self, of: OpenFile, offset: int, length: int,
                  use_readahead: bool = True) -> None:
        """Make ``[offset, offset + length)`` resident for a blocking read:
        the one run-granular fault pipeline.  *Plan* by runs: a resident
        run is charged in one step (:meth:`PageCache.hit_run`,
        :meth:`ReadaheadWindow.advise_run`); a miss opens a cluster
        (:meth:`_fault_cluster`).  *Service* by cluster: one
        ``fs.read_pages`` call through the noise model or, for runs of
        one-page clusters no per-fault hook watches, ``Device.read_run`` +
        ``advance_run`` (:meth:`_fault_run`).  *Complete* by cluster:
        one ``insert_run``.

        Virtual outcomes, every hook's calls and the counters each call
        sees equal the per-page loop's in ``tests/oracles/kernel.py``.
        """
        inode_id = of.inode.id
        cache = self.page_cache
        telemetry = self.telemetry
        readahead = of.readahead if use_readahead else None
        index = cache.residency
        # the only dispatch left: whether a run of one-page clusters may
        # be serviced as a batch, which no per-fault hook may watch
        batch = ((readahead is None or readahead.max_pages == 1)
                 and self.noise <= 0.0 and telemetry is None
                 and cache.observer is None
                 and type(of.fs).read_pages is FileSystem.read_pages)
        page = offset // PAGE_SIZE
        end = (offset + length - 1) // PAGE_SIZE + 1
        while page < end:
            stop = page + 1
            if index.contains(inode_id, page):
                stop = self._hit_resident(inode_id, page, end, readahead)
            elif batch:
                stop = index.next_resident(inode_id, stop, end)
                if readahead is not None:
                    readahead.advise_run(page, stop - page)
                self._fault_run(of, page, stop - page)
            else:
                self._fault_cluster(
                    of, page,
                    readahead.advise(page) if readahead is not None else 1)
            page = stop

    def _hit_resident(self, inode_id: int, page: int, end: int,
                      readahead: ReadaheadWindow | None) -> int:
        """Charge the resident run that starts at ``page`` (and ends at
        the first non-resident page or ``end``) as cache hits, in one
        step: :meth:`PageCache.hit_run`, :meth:`ReadaheadWindow.advise_run`
        and the hit counters.  Returns the run's end."""
        cache = self.page_cache
        stop = min(cache.residency.run_end(inode_id, page), end)
        n = stop - page
        if readahead is not None:
            readahead.advise_run(page, n)
        cache.hit_run(inode_id, page, n)
        self.counters.cache_hits += n
        tenant = self.current_tenant
        if tenant is not None:
            self.counters.note_tenant_hit(tenant, n)
        prefetcher = self.prefetcher
        if prefetcher is not None:
            for hit in range(page, stop):
                prefetcher.note_access((inode_id, hit))
        if self.telemetry is not None:
            self.telemetry.on_hit(inode_id, page, n)
        return stop

    def _fault_cluster(self, of: OpenFile, page: int, window: int) -> None:
        """Fault at non-resident ``page``: read a cluster of up to
        ``window`` pages, ending at the first resident one, with one
        ``fs.read_pages`` call, and insert it."""
        inode = of.inode
        inode_id = inode.id
        fs = of.fs
        cache = self.page_cache
        counters = self.counters
        clock = self.clock
        telemetry = self.telemetry
        tenant = self.current_tenant
        cache.access((inode_id, page))
        counters.cache_misses += 1
        counters.hard_faults += 1
        if tenant is not None:
            counters.note_tenant_miss(tenant)
        cluster = cache.residency.next_resident(
            inode_id, page + 1, page + min(window, inode.npages - page)) - page
        if telemetry is not None:
            before = snapshot_components(fs)
        seconds = self._noisy(fs.read_pages(inode, page, cluster))
        category = fs.device.time_category
        clock.advance(seconds, category)
        counters.pages_read += cluster
        counters.readahead_pages += cluster - 1
        if telemetry is not None:
            telemetry.on_fault(
                fs.device, inode_id, page, cluster, seconds,
                now=clock.now, window=window, fs=fs,
                components=component_delta(before))
        self._insert_clusters(inode_id, ((page, cluster, window),), tenant)

    def _fault_run(self, of: OpenFile, start: int, n: int) -> None:
        """Fault ``n`` consecutive non-resident pages from ``start`` as
        one-page clusters, batched: per device-contiguous piece, one
        ``Device.read_run``, one ``advance_run`` and one insert.  A piece
        the device declines to batch is faulted page by page."""
        inode = of.inode
        device = of.fs.device
        cache = self.page_cache
        counters = self.counters
        tenant = self.current_tenant
        for file_page, pages, addr in inode.extent_map.extents_in(start, n):
            durations = device.read_run(addr, pages, PAGE_SIZE)
            if durations is None:
                for page in range(file_page, file_page + pages):
                    self._fault_cluster(of, page, 1)
                continue
            self.clock.advance_run(durations, device.time_category)
            cache.stats.misses += pages
            counters.cache_misses += pages
            counters.hard_faults += pages
            counters.pages_read += pages
            if tenant is not None:
                counters.note_tenant_miss(tenant, pages)
            cache.insert_run(inode.id, file_page, pages, tenant)

    def _insert_clusters(self, inode_id: int, clusters,
                         tenant: str | None) -> None:
        """Make just-read ``(page, n, window)`` clusters of one inode
        resident, in order, with one ``insert_run`` per contiguous span
        of them; then mark to telemetry, as readahead, each page after a
        cluster's first that is still resident.  Telemetry observes the
        cache, so a page a later insert evicted would have lost its mark
        to that eviction had it been marked right after its own insert."""
        cache = self.page_cache
        insert_run = cache.insert_run
        start = end = None
        for page, n, _ in clusters:
            if page != end:
                if start is not None:
                    insert_run(inode_id, start, end - start, tenant)
                start = page
            end = page + n
        insert_run(inode_id, start, end - start, tenant)
        telemetry = self.telemetry
        if telemetry is not None:
            index = cache.residency
            for page, n, _ in clusters:
                extra, stop = page + 1, page + n
                while extra < stop:
                    extra = index.next_resident(inode_id, extra, stop)
                    run_end = min(index.run_end(inode_id, extra), stop)
                    for marked in range(extra, run_end):
                        telemetry.on_readahead_insert((inode_id, marked))
                    extra = run_end

    # -- the event-driven read path ------------------------------------

    def read_async(self, fd: int, nbytes: int):
        """``read`` as a generator: hard faults *submit* to the attached
        engine's per-device queue and ``yield`` the completion future —
        the scheduler runs other tasks while the device services the
        request.  Drive with ``data = yield from kernel.read_async(...)``
        inside a task under :class:`~repro.sim.tasks.EventScheduler`.

        Accounting (hits, faults, readahead clusters, bytes) matches the
        blocking ``read`` exactly; only *who waits* differs.
        """
        self._syscall()
        if nbytes < 0:
            raise InvalidArgumentError(f"negative read length: {nbytes}")
        of = self._fd(fd)
        inode = of.inode
        nbytes = min(nbytes, max(0, inode.size - of.pos))
        if nbytes == 0:
            return b""
        yield from self._fault_in_async(of, of.pos, nbytes)
        data = inode.content.read(of.pos, nbytes)
        self._charge_memory(nbytes)
        of.pos += nbytes
        self.counters.bytes_read += nbytes
        return data

    def pread_async(self, fd: int, offset: int, nbytes: int):
        """Positional ``read_async``; no offset motion, no readahead."""
        self._syscall()
        if offset < 0 or nbytes < 0:
            raise InvalidArgumentError(
                f"negative offset/length: {offset}, {nbytes}")
        of = self._fd(fd)
        inode = of.inode
        nbytes = min(nbytes, max(0, inode.size - offset))
        if nbytes == 0:
            return b""
        yield from self._fault_in_async(of, offset, nbytes,
                                        use_readahead=False)
        data = inode.content.read(offset, nbytes)
        self._charge_memory(nbytes)
        self.counters.bytes_read += nbytes
        return data

    def _fault_in_async(self, of: OpenFile, offset: int, length: int,
                        use_readahead: bool = True):
        """The engine's fault path: :meth:`_fault_in`'s run planner with
        a submit/wait split.

        *Plan* by runs, as the blocking pipeline does: a resident run is
        charged in one step (:meth:`_hit_resident`); a miss is counted
        and opens a cluster of up to the readahead window, ending at the
        first resident page.  *Submit* each cluster to the engine as one
        fault request and park on its future.  *Complete* with
        :meth:`_complete_runs`.

        The two engine configurations differ only in when the task
        parks.  Straight to the device queues (no block front), it parks
        after each cluster and plans on from the page after its first,
        so the cluster's other pages are looked up again once resident.
        Through an active merge/plug front, it plans the whole span
        first, submits every cluster in one call — they meet in the plug,
        where adjacent ones coalesce into one device request — and parks
        once; the pages a cluster covers then count as cache hits (the
        serial rule would hit them after the cluster's insert) without a
        cache lookup.  The parking rules give different virtual outcomes
        under concurrency, so both stay; each matches the per-page loops
        in ``tests/oracles/kernel.py`` exactly.
        """
        engine = self.engine
        if engine is None:
            raise InvalidArgumentError(
                "no I/O engine attached; use the blocking read path or "
                "kernel.attach_engine()")
        park_per_cluster = not engine.block_active
        inode = of.inode
        inode_id = inode.id
        fs = of.fs
        cache = self.page_cache
        counters = self.counters
        index = cache.residency
        npages = inode.npages
        tenant = self.current_tenant
        readahead = of.readahead if use_readahead else None
        runs: list[tuple[int, int, int]] = []  # (page, cluster, window)
        page = offset // PAGE_SIZE
        end = (offset + length - 1) // PAGE_SIZE + 1
        while page < end:
            if index.contains(inode_id, page):
                page = self._hit_resident(inode_id, page, end, readahead)
                continue
            window = readahead.advise(page) if readahead is not None else 1
            cache.access((inode_id, page))
            counters.cache_misses += 1
            counters.hard_faults += 1
            if tenant is not None:
                counters.note_tenant_miss(tenant)
            cluster = index.next_resident(
                inode_id, page + 1, page + min(window, npages - page)) - page
            if park_per_cluster:
                future = engine.submit_cluster(fs, inode, page, cluster,
                                               tenant=tenant)
                yield future
                self._complete_runs(of, ((page, cluster, window),),
                                    (future,), tenant)
                page += 1
                continue
            runs.append((page, cluster, window))
            stop = min(page + cluster, end)
            covered = stop - page - 1
            if covered:
                if readahead is not None:
                    readahead.advise_run(page + 1, covered)
                counters.cache_hits += covered
                if tenant is not None:
                    counters.note_tenant_hit(tenant, covered)
                if self.telemetry is not None:
                    self.telemetry.on_hit(inode_id, page + 1, covered)
            page = stop
        if runs:
            futures = engine.plug_for(fs.device).submit(
                fs, inode, [(page, cluster) for page, cluster, _ in runs],
                tenant=tenant)
            yield futures
            self._complete_runs(of, runs, futures, tenant)

    def _complete_runs(self, of: OpenFile, runs, futures,
                       tenant: str | None) -> None:
        """Finish serviced ``(page, cluster, window)`` runs whose
        ``futures`` resolved: per run, in order, the read counters and
        telemetry's ``on_fault``; then the inserts, one ``insert_run``
        per contiguous span.

        ``on_fault`` reads nothing the inserts change, except that its
        time-series tick samples the counters; every tick after the
        first at one virtual time is a no-op, and the first sees the
        counters and cache the per-run interleaving would have shown it.
        Without a time series, the fan-out waits in a
        :class:`~repro.obs.telemetry.TelemetryBatch` until the inserts
        are done.
        """
        inode_id = of.inode.id
        fs = of.fs
        device = fs.device
        counters = self.counters
        telemetry = self.telemetry
        now = self.clock.now
        tele_batch = None
        if telemetry is not None and telemetry.timeseries is None:
            tele_batch = self._telemetry_batch
            if tele_batch is None or tele_batch.telemetry is not telemetry:
                from repro.obs.telemetry import TelemetryBatch
                tele_batch = self._telemetry_batch = TelemetryBatch(telemetry)
        for (page, cluster, window), future in zip(runs, futures):
            counters.pages_read += cluster
            counters.readahead_pages += cluster - 1
            if telemetry is None:
                continue
            completion = future.value
            seconds = completion.duration
            if tele_batch is not None:
                tele_batch.add(device, inode_id, page, cluster, seconds,
                               now, window, fs, completion)
            else:
                telemetry.on_fault(
                    device, inode_id, page, cluster, seconds,
                    now=now, window=window, fs=fs, completion=completion)
        self._insert_clusters(inode_id, runs, tenant)
        if tele_batch is not None:
            tele_batch.flush()

    def mmap(self, fd: int) -> "MappedRegion":
        """Map an open file; reads through the mapping skip the
        copy-to-user cost of ``read()``.

        The paper's §5.2 notes its grep/wc ports "used read(), rather
        than mmap(), which does not copy the data to meet application
        alignment criteria.  An mmap-friendly SLEDs library is feasible,
        which should reduce the CPU penalty."  This is that path: touched
        pages fault in exactly like ``read()`` (same clusters, same
        accounting), but delivering bytes costs only a per-page touch
        rather than a bcopy of every byte.
        """
        self._syscall()
        of = self._fd(fd)
        return MappedRegion(self, of)

    def _writable(self, fd: int) -> OpenFile:
        """The open file behind ``fd``, open for writing on a writable
        filesystem."""
        of = self._fd(fd)
        if not of.writable:
            raise BadFileDescriptorError(f"fd {fd} not open for writing")
        if of.fs.read_only:
            raise ReadOnlyFilesystemError(
                f"filesystem {of.fs.name!r} is read-only")
        return of

    @_syscall_span("write")
    def write(self, fd: int, data: bytes) -> int:
        """Write at the offset (in append mode, the end of the file) and
        move it past the bytes before any threshold flush."""
        self._syscall()
        of = self._writable(fd)
        if not data:
            return 0
        if of.append:
            of.pos = of.inode.size
        flush = self._write_span(of, of.pos, data)
        of.pos += len(data)
        if flush:
            self._flush((of.inode.id,))
        return len(data)

    @_syscall_span("pwrite")
    def pwrite(self, fd: int, offset: int, data: bytes) -> int:
        """Positional write; does not move the file offset."""
        self._syscall()
        of = self._writable(fd)
        if offset < 0:
            raise InvalidArgumentError(f"negative offset: {offset}")
        if not data:
            return 0
        if self._write_span(of, offset, data):
            self._flush((of.inode.id,))
        return len(data)

    def _write_span(self, of: OpenFile, offset: int, data: bytes) -> bool:
        """Write ``data`` at ``offset``, the span step both write syscalls
        share: store the bytes (growing the file), charge the copy, make
        the span's pages resident with one ``insert_run`` and mark them
        dirty.  Returns whether the inode's dirty pages reached the
        writeback threshold."""
        inode = of.inode
        end = offset + len(data)
        if end > inode.size:
            of.fs.grow_file(inode, end)
        try:
            inode.content.write(offset, data)
        except ReadOnlyFilesystemError:
            # immutable content store (synthetic text, zeros): upgrade to
            # a copy-on-write overlay the first time the file is written
            from repro.fs.content import CowContent
            inode.content = CowContent(inode.content)
            inode.content.write(offset, data)
        self._charge_memory(len(data))
        first = offset // PAGE_SIZE
        n = (end - 1) // PAGE_SIZE + 1 - first
        self.page_cache.insert_run(inode.id, first, n, self.current_tenant)
        entry = self._dirty.get(inode.id)
        if entry is None:
            entry = self._dirty[inode.id] = (of.fs, inode, set())
        dirty = entry[2]
        dirty.update(range(first, first + n))
        self.counters.bytes_written += len(data)
        inode.mtime = self.clock.now
        return len(dirty) >= self.writeback_threshold_pages

    @_syscall_span("fsync")
    def fsync(self, fd: int) -> None:
        self._syscall()
        self._flush((self._fd(fd).inode.id,))

    def sync(self) -> None:
        """Flush every dirty page in the system: one :meth:`_flush` per
        filesystem, in the order their files first became dirty.  A
        failed flush raises and leaves its own files and those of every
        filesystem after it dirty."""
        by_fs: dict[int, list[int]] = {}
        for inode_id, (fs, _, _) in self._dirty.items():
            by_fs.setdefault(id(fs), []).append(inode_id)
        for inode_ids in by_fs.values():
            self._flush(inode_ids)

    def _flush(self, inode_ids) -> None:
        """The blocking flush of the dirty pages of ``inode_ids``, files
        of one filesystem: take them out of the dirty table and service
        their :meth:`_writeback_plan`.  A plain filesystem's batch goes
        through the I/O scheduler in one ``submit_batch`` (an elevator
        sweep across files) with one noise draw and clock advance; one
        with its own write path takes them unit by unit, in page order.
        The pages count as written once all are done."""
        dirty = self._dirty
        files = [dirty.pop(inode_id) for inode_id in inode_ids
                 if inode_id in dirty]
        if not files:
            return
        device = files[0][0].device
        category = device.time_category
        try:
            plain, units = self._writeback_plan(files)
            if plain:
                if self.telemetry is not None:
                    self.telemetry.on_queue_depth(device, len(units))
                seconds = submit_batch(
                    device, [IoRequest(addr=addr, nbytes=nbytes,
                                       is_write=True)
                             for addr, nbytes, _, _ in units],
                    self.io_scheduler)
                self.clock.advance(self._noisy(seconds), category)
            else:
                for _, _, _, write in units:
                    self.clock.advance(self._noisy(write()), category)
        except Exception:
            self._redirty(files)
            raise
        self.counters.pages_written += sum(len(p) for _, _, p in files)

    def _writeback_plan(self, files) -> tuple[bool, list]:
        """Whether the filesystem of dirty ``(fs, inode, pages)`` files
        is plain, and their ordered ``(addr, nbytes, label, write)``
        units, where ``write()`` services one and returns its seconds:
        per device-contiguous piece of each dirty run on a plain
        filesystem, else (HSM staging) one ``fs.write_pages`` per run."""
        fs = files[0][0]
        plain = type(fs).write_pages is FileSystem.write_pages
        units = []
        for _, inode, pages in files:
            label = f"writeback:{fs.name}:{inode.id}"
            for start, run in _contiguous_runs(sorted(pages)):
                if not plain:
                    units.append((inode.extent_map.addr_of(start),
                                  run * PAGE_SIZE, f"{label}:{start}+{run}",
                                  partial(fs.write_pages, inode, start, run)))
                    continue
                for addr, npages in inode.extent_map.device_runs(start, run):
                    nbytes = npages * PAGE_SIZE
                    units.append((addr, nbytes, label,
                                  partial(fs.device.write, addr, nbytes)))
        return plain, units

    def _redirty(self, files) -> None:
        """Put the pages of a failed flush's ``(fs, inode, pages)`` files
        back in the dirty table, so a retry (or the next sync) writes
        them."""
        for fs, inode, pages in files:
            self._dirty.setdefault(
                inode.id, (fs, inode, set()))[2].update(pages)

    def fsync_async(self, fd: int):
        """``fsync`` as a generator: each unit of the inode's
        :meth:`_writeback_plan` is *submitted* to the engine's device
        queue (not a plug), where it contends with other tasks' reads,
        and the caller blocks on the completions.  Drive with ``yield
        from kernel.fsync_async(fd)``."""
        self._syscall()
        of = self._fd(fd)
        engine = self.engine
        if engine is None:
            raise InvalidArgumentError(
                "no I/O engine attached; use the blocking fsync() or "
                "kernel.attach_engine()")
        entry = self._dirty.pop(of.inode.id, None)
        if entry is None:
            return
        fs, inode, pages = entry
        queue = engine.queue_for(fs.device)
        plain, units = self._writeback_plan([entry])
        if plain and self.telemetry is not None:
            self.telemetry.on_queue_depth(fs.device, len(units))
        futures = [queue.submit(addr, nbytes, is_write=True,
                                service=self._traced_service(
                                    fs, ("writeback", inode.id, addr), write),
                                label=label, kind="writeback")
                   for addr, nbytes, label, write in units]
        try:
            yield futures
        except Exception:
            self._redirty([entry])
            raise
        self.counters.pages_written += len(pages)
        if self.telemetry is not None:
            for future in futures:
                if future.value is not None:
                    self.telemetry.on_writeback(fs, inode, future.value)

    # ------------------------------------------------------------------
    # ioctl (the SLEDs kernel interface)
    # ------------------------------------------------------------------

    def ioctl(self, fd: int, cmd: int, arg=None):
        """Dispatch ``FSLEDS_FILL`` / ``FSLEDS_GET``.

        ``FSLEDS_FILL`` ignores ``fd`` (the boot script uses any handle);
        ``FSLEDS_GET`` returns a :class:`~repro.core.sled.SledVector` and
        charges the kernel page-walk CPU cost.
        """
        tele = self.telemetry
        span = (tele.syscall_begin(
                    COMMAND_NAMES.get(cmd) or f"ioctl:0x{cmd:04x}",
                    self.clock.now)
                if tele is not None else None)
        try:
            self._syscall()
            if cmd == FSLEDS_FILL:
                if not isinstance(arg, dict):
                    raise InvalidArgumentError(
                        "FSLEDS_FILL needs {device_key: (latency, bandwidth)}")
                self.sleds_table.fill(arg)
                return None
            if cmd == FSLEDS_GET:
                of = self._fd(fd)
                inode_id = of.inode.id
                stamp = self._sled_stamp(of)
                cached = self._sled_cache.get(inode_id)
                queue_delays = None
                if cached is not None and cached[0] == stamp:
                    self.counters.sleds_cache_hits += 1
                    # stamp comparison only: flat cost, no page walk
                    self.charge_cpu(0.2 * USEC)
                    _, vector, runs = cached
                    if tele is not None and self.engine is not None:
                        # the snapshot's queue terms are the delays read
                        # now, for attribution only (no clock, no RNG)
                        queue_delays = self.engine.queue_delays(
                            of.fs, self.clock.now, self.current_tenant)
                else:
                    queue_delays = (
                        self.engine.queue_delays(of.fs, self.clock.now,
                                                 self.current_tenant)
                        if self.engine is not None else None)
                    vector, runs = build_sled_vector(
                        self.page_cache, of.fs, of.inode, self.sleds_table,
                        queue_delays=queue_delays)
                    # kernel walks the file's state: charge ~0.2 us per page
                    self.charge_cpu(of.inode.npages * 0.2 * USEC)
                    self.counters.sleds_builds += 1
                    self._sled_cache[inode_id] = (stamp, vector, runs)
                if tele is not None:
                    tele.on_sleds(inode_id, vector, runs, queue_delays)
                return vector
            raise UnknownIoctlError(cmd)
        finally:
            if span is not None:
                tele.syscall_end(span, self.clock.now)

    def _sled_stamp(self, of: OpenFile) -> tuple:
        """The validity stamp of a cached SLED vector: moves whenever the
        layout inputs of the builder can have changed for this inode —
        residency, filesystem state, the sleds table.

        With an I/O engine attached the stamp also folds in each device
        queue's congestion epoch — queue churn changes the queue-delay
        term ``FSLEDS_GET`` adds to non-resident latencies, so cached
        vectors built under different congestion must not be reused.
        The stamp does not cover the clock, yet that term also reads
        ``now`` (an in-flight request's remainder, a device's busy
        horizon), so a stamp hit can return queue terms that a build at
        the same instant would price differently.
        """
        base = (self.page_cache.generation(of.inode.id),
                of.fs.state_epoch,
                self.sleds_table.version)
        if self.engine is None:
            return base
        stamp = base + (self.engine.congestion_stamp(of.fs),)
        if self.engine.scheduler.tenant_aware:
            # tenant-aware elevators give different tenants different
            # queue-delay estimates for the same congestion state — a
            # cached vector is only valid for the tenant that built it
            stamp += (self.current_tenant,)
        return stamp

    def sleds_stamp(self, fd: int):
        """Current SLED-vector stamp for an open file — a vDSO-style read.

        Costs no virtual time and no syscall: it is a handful of counter
        loads (three, plus one congestion epoch per device when an engine
        is attached), the moral equivalent of reading a seqlock generation
        from a shared page.  The pick library and progress bars compare
        this against the stamp of their last fetch and skip the FSLEDS_GET
        entirely when unchanged.
        """
        return self._sled_stamp(self._fd(fd))

    def get_sleds(self, fd: int) -> SledVector:
        """Convenience wrapper over ``ioctl(fd, FSLEDS_GET)``."""
        return self.ioctl(fd, FSLEDS_GET)

    # ------------------------------------------------------------------
    # measurement
    # ------------------------------------------------------------------

    @contextmanager
    def process(self) -> Iterator[ProcessRun]:
        """Measure one application run (elapsed time, faults, categories)."""
        run = ProcessRun(
            _kernel=self,
            _start_counters=self.counters.copy(),
            _start_clock=self.clock.snapshot(),
        )
        try:
            yield run
        finally:
            run.finalize(self)

    # ------------------------------------------------------------------
    # world-building helpers (not syscalls)
    # ------------------------------------------------------------------

    def warm_file(self, path: str, chunk: int = 64 * PAGE_SIZE) -> None:
        """Read a file once linearly to warm the cache (setup helper)."""
        fd = self.open(path)
        while self.read(fd, chunk):
            pass
        self.close(fd)

    def drop_caches(self) -> None:
        """Cold-cache reset, like ``echo 3 > /proc/sys/vm/drop_caches``."""
        self.sync()
        self.page_cache.clear()


class MappedRegion:
    """A memory mapping of one open file (see :meth:`Kernel.mmap`).

    ``read(offset, nbytes)`` returns bytes like ``pread`` but charges only
    page-touch time (memory latency per newly touched page), not a full
    copy — the mmap path's whole point.  The region stays valid until the
    descriptor is closed; there is no separate ``munmap`` state to manage.
    """

    def __init__(self, kernel: Kernel, of: OpenFile) -> None:
        self._kernel = kernel
        self._of = of
        self._touched: set[int] = set()

    @property
    def size(self) -> int:
        return self._of.inode.size

    def read(self, offset: int, nbytes: int) -> bytes:
        """Access mapped bytes, faulting pages in as needed."""
        if offset < 0 or nbytes < 0:
            raise InvalidArgumentError(
                f"negative offset/length: {offset}, {nbytes}")
        kernel = self._kernel
        inode = self._of.inode
        nbytes = min(nbytes, max(0, inode.size - offset))
        if nbytes == 0:
            return b""
        kernel._fault_in(self._of, offset, nbytes)
        fresh = [p for p in page_span(offset, nbytes)
                 if p not in self._touched]
        if fresh:
            # first touch of a mapped page costs a TLB/minor-fault latency
            kernel.clock.advance(
                len(fresh) * kernel.memory.spec.latency * 10, "memory")
            self._touched.update(fresh)
        kernel.counters.bytes_read += nbytes
        return inode.content.read(offset, nbytes)


def _contiguous_runs(sorted_pages: list[int]) -> Iterator[tuple[int, int]]:
    """Group sorted page indices into (start, run_length) spans."""
    start = None
    prev = None
    for page in sorted_pages:
        if start is None:
            start = prev = page
            continue
        if page == prev + 1:
            prev = page
            continue
        yield start, prev - start + 1
        start = prev = page
    if start is not None:
        yield start, prev - start + 1
