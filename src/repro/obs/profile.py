"""Wall-clock profiling of the simulator's hot paths.

Reports call counts, cumulative wall seconds and wall-per-virtual-second
ratios for each site in :data:`SITES`: event dispatch, SLED builds,
page-cache residency updates and resident-run queries, block-layer
merge/flush, the blocking fault span, whole-run device pricing and the
deferred telemetry fan-in.

The hot paths carry no profiler hook.  :meth:`HotPathProfiler.attach`
replaces each function a site names with a timing wrapper on the class
or module that defines it, and :meth:`~HotPathProfiler.detach` puts the
originals back.  So the wrappers are process-wide while attached (they
also time the engine loops and plugs built after ``attach()``), one
profiler can be attached at a time, and every ``attach()`` needs a
``detach()`` in a ``finally``.  A site's time is inclusive of the whole
call, nested sites included.  A call made while its site is already open
(``insert_run``'s one-page case calls ``insert``) is part of the open
call, and a call that raises is not counted.

The profiler reads wall time only, so virtual-time results are
bit-identical with it attached or not (``tests/test_obs_zero_cost.py``).

Typical use (or ``sleds-run profile`` from the shell)::

    prof = HotPathProfiler().attach()
    try:
        ...  # run a workload
    finally:
        prof.detach()
    print(prof.render(virtual_seconds=machine.clock.now))
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter

__all__ = ["HotPathProfiler", "SITES", "resolve"]

#: site name -> the functions it times, as ``module:function`` or
#: ``module:Class.method`` specs (``kernel.sled_build``: the kernel
#: module's binding of the builder only)
SITES = {
    "event_loop.dispatch": ("repro.sim.events:EventLoop.step",),
    "kernel.sled_build": ("repro.kernel.kernel:build_sled_vector",),
    "cache.residency": ("repro.cache.page_cache:PageCache.insert",
                        "repro.cache.page_cache:PageCache.insert_run"),
    "cache.resident_runs": (
        "repro.cache.page_cache:PageCache.resident_runs",),
    "block.merge_flush": ("repro.block.merge:PlugQueue.flush",),
    "kernel.fault_batch": ("repro.kernel.kernel:Kernel._fault_in",),
    "device.batch_math": ("repro.devices.base:Device.read_run",),
    "obs.telemetry_flush": ("repro.obs.telemetry:TelemetryBatch.flush",),
}

#: the profiler whose wrappers are installed, if any
_attached: HotPathProfiler | None = None


def resolve(spec: str) -> tuple[object, str]:
    """The ``(class or module, attribute name)`` a spec names."""
    module_name, _, path = spec.partition(":")
    owner = importlib.import_module(module_name)
    *classes, name = path.split(".")
    for class_name in classes:
        owner = getattr(owner, class_name)
    return owner, name


class _Site:
    """Accumulated wall time at one site, and whether a call is open."""

    __slots__ = ("calls", "seconds", "max_seconds", "open")

    def __init__(self) -> None:
        self.open = False
        self.clear()

    def clear(self) -> None:
        self.calls = 0
        self.seconds = 0.0
        self.max_seconds = 0.0

    def timed(self, fn):
        """``fn`` wrapped to time each outermost call into this site."""
        site = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if site.open:
                return fn(*args, **kwargs)
            site.open = True
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                site.open = False
            elapsed = perf_counter() - t0
            site.calls += 1
            site.seconds += elapsed
            if elapsed > site.max_seconds:
                site.max_seconds = elapsed
            return result
        return timed


class HotPathProfiler:
    """Wall-clock timers wrapped around the simulator's hot paths."""

    def __init__(self) -> None:
        self._sites = {site: _Site() for site in SITES}
        #: ``(owner, name, original)`` of every installed wrapper
        self._originals: list[tuple[object, str, object]] = []

    # -- wiring -----------------------------------------------------------

    def attach(self) -> "HotPathProfiler":
        """Install a timing wrapper on every function :data:`SITES`
        names.  Raises if a profiler is already attached."""
        global _attached
        if _attached is not None:
            raise RuntimeError("a HotPathProfiler is already attached")
        _attached = self
        for site, specs in SITES.items():
            for spec in specs:
                owner, name = resolve(spec)
                original = vars(owner)[name]
                self._originals.append((owner, name, original))
                setattr(owner, name, self._sites[site].timed(original))
        return self

    def detach(self) -> None:
        """Put back every original function; a no-op unless this
        profiler is the attached one."""
        global _attached
        if _attached is not self:
            return
        while self._originals:
            owner, name, original = self._originals.pop()
            setattr(owner, name, original)
        _attached = None

    # -- reporting --------------------------------------------------------

    def rows(self, virtual_seconds: float | None = None) -> list[dict]:
        """Per-site stats of the sites hit, largest cumulative wall time
        first."""
        out = []
        hit = sorted((kv for kv in self._sites.items() if kv[1].calls),
                     key=lambda kv: (-kv[1].seconds, kv[0]))
        for site, slot in hit:
            row = {
                "site": site,
                "where": ", ".join(SITES[site]),
                "calls": slot.calls,
                "wall_seconds": slot.seconds,
                "wall_mean_us": slot.seconds / slot.calls * 1e6,
                "wall_max_us": slot.max_seconds * 1e6,
            }
            if virtual_seconds is not None and virtual_seconds > 0.0:
                row["wall_per_virtual_second"] = (
                    slot.seconds / virtual_seconds)
            out.append(row)
        return out

    @property
    def total_wall_seconds(self) -> float:
        return sum(slot.seconds for slot in self._sites.values())

    def calls(self, site: str) -> int:
        slot = self._sites.get(site)
        return slot.calls if slot is not None else 0

    def render(self, virtual_seconds: float | None = None) -> str:
        rows = self.rows(virtual_seconds)
        lines = ["hot-path profile (wall clock):"]
        if not rows:
            lines.append("  (no instrumented site was hit)")
            return "\n".join(lines)
        for row in rows:
            extra = ""
            if "wall_per_virtual_second" in row:
                extra = (f"  wall/vsec={row['wall_per_virtual_second']:.3e}")
            lines.append(
                f"  {row['site']:<22} calls={row['calls']:<8d} "
                f"wall={row['wall_seconds']:.6f}s "
                f"mean={row['wall_mean_us']:8.2f}us "
                f"max={row['wall_max_us']:8.2f}us{extra}")
        if virtual_seconds is not None and virtual_seconds > 0.0:
            lines.append(
                f"  total instrumented wall "
                f"{self.total_wall_seconds:.6f}s over "
                f"{virtual_seconds:.6f} virtual seconds")
        return "\n".join(lines)

    def to_dict(self, virtual_seconds: float | None = None) -> dict:
        return {
            "sites": self.rows(virtual_seconds),
            "total_wall_seconds": self.total_wall_seconds,
            "virtual_seconds": virtual_seconds,
        }

    def clear(self) -> None:
        for slot in self._sites.values():
            slot.clear()
