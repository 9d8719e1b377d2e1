"""Wall-clock profiling of the simulator's hot paths.

The ROADMAP's "hardware-fast core" item budgets ≥ 1M faults per *wall*
second; to spend that budget well we need to know where host CPU time
goes.  This module adds scoped wall-clock timers to the sites that
dominate a run — :class:`~repro.sim.events.EventLoop` dispatch, SLED
vector builds in the kernel ioctl path, page-cache residency updates,
and block-layer merge/flush — and reports per-site call counts,
cumulative wall seconds, and wall-per-virtual-second ratios.

The profiler measures *wall* time only.  It never reads or advances the
virtual clock, draws no randomness, and mutates no simulated state, so
virtual-time results are bit-identical with it attached or detached
(property-tested in ``tests/test_obs_zero_cost.py``).  Instrumented
sites guard with ``if profiler is not None`` so the detached hot path
pays a single attribute load and branch.

Typical use::

    prof = HotPathProfiler().attach(machine.kernel)
    ...  # run a workload
    print(prof.render(virtual_seconds=machine.clock.now))

or via the CLI: ``sleds-run profile``.
"""

from __future__ import annotations

from time import perf_counter

__all__ = ["HotPathProfiler", "SITES"]

#: the hot-path sites wired into the core (site name -> where it lives)
SITES = {
    "event_loop.dispatch": "EventLoop.step: pop + fire one event",
    "kernel.sled_build": "Kernel ioctl FSLEDS_GET: build_sled_vector",
    "cache.residency": "PageCache.insert: residency update + eviction",
    "cache.resident_runs": "build_sled_vector: resident interval-run query",
    "block.merge_flush": "PlugQueue.flush: coalesce + dispatch",
    "kernel.fault_batch": "Kernel._fault_in: one blocking read's fault span",
    "device.batch_math": "Device.read_run: one run of page reads priced",
    "obs.telemetry_flush": "TelemetryBatch.flush: deferred on_fault fan-in",
}


class _Site:
    """Accumulated wall time at one instrumented site."""

    __slots__ = ("calls", "seconds", "max_seconds")

    def __init__(self) -> None:
        self.calls = 0
        self.seconds = 0.0
        self.max_seconds = 0.0

    def add(self, seconds: float) -> None:
        self.calls += 1
        self.seconds += seconds
        if seconds > self.max_seconds:
            self.max_seconds = seconds


class HotPathProfiler:
    """Scoped wall-clock timers for the simulator core.

    Instrumented code calls :meth:`begin` / :meth:`add` directly (cheaper
    than a context manager in a hot loop); ad-hoc measurements can use
    the :meth:`scope` context manager.  :meth:`attach` pushes the
    profiler onto a kernel and everything reachable from it — the page
    cache and, when an engine is attached now or later, its event loop.
    """

    def __init__(self) -> None:
        self._sites: dict[str, _Site] = {}
        self.started_at = perf_counter()

    # -- measurement ------------------------------------------------------

    @staticmethod
    def begin() -> float:
        return perf_counter()

    def add(self, site: str, t0: float) -> None:
        """Account ``perf_counter() - t0`` wall seconds to ``site``."""
        elapsed = perf_counter() - t0
        slot = self._sites.get(site)
        if slot is None:
            slot = self._sites[site] = _Site()
        slot.add(elapsed)

    class _Scope:
        __slots__ = ("profiler", "site", "t0")

        def __init__(self, profiler: "HotPathProfiler", site: str) -> None:
            self.profiler = profiler
            self.site = site

        def __enter__(self) -> "HotPathProfiler._Scope":
            self.t0 = perf_counter()
            return self

        def __exit__(self, *exc) -> None:
            self.profiler.add(self.site, self.t0)

    def scope(self, site: str) -> "HotPathProfiler._Scope":
        return self._Scope(self, site)

    # -- wiring -----------------------------------------------------------

    def attach(self, kernel) -> "HotPathProfiler":
        """Instrument ``kernel``, its page cache, and (if present) the
        attached engine's event loop.  ``IoEngine.attach`` keeps the
        loop instrumented when the engine arrives later."""
        kernel.profiler = self
        kernel.page_cache.profiler = self
        engine = getattr(kernel, "engine", None)
        if engine is not None:
            engine.loop.profiler = self
        return self

    def detach(self, kernel) -> None:
        kernel.profiler = None
        kernel.page_cache.profiler = None
        engine = getattr(kernel, "engine", None)
        if engine is not None:
            engine.loop.profiler = None

    # -- reporting --------------------------------------------------------

    def rows(self, virtual_seconds: float | None = None) -> list[dict]:
        """Per-site stats, largest cumulative wall time first."""
        out = []
        for site, slot in sorted(self._sites.items(),
                                 key=lambda kv: (-kv[1].seconds, kv[0])):
            row = {
                "site": site,
                "where": SITES.get(site, ""),
                "calls": slot.calls,
                "wall_seconds": slot.seconds,
                "wall_mean_us": (slot.seconds / slot.calls * 1e6
                                 if slot.calls else 0.0),
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
        self._sites.clear()
        self.started_at = perf_counter()
