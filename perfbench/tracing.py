"""Exclusive per-layer host time for the traced run.

The traced run wraps the public entry points of each ``repro`` layer from
the benchmark's side: class attributes are replaced on the class that
defines them (and on every subclass that overrides them), functions are
rebound in every ``repro`` module that imported them.  A span stack
subtracts child time from the parent, so each layer's *self* time is
exclusive and ``sum(self) + unattributed == wall`` holds exactly in
integer nanoseconds.

Generator entry points (``read_async``, ``read_sleds_order``, ...) are
timed slice by slice: a span opens each time the generator is resumed
and closes when it yields, so a parked task is charged nothing.

Patching the *class* keeps identity guards intact: the kernel takes its
vectorised fault path only while ``type(fs).read_pages is
FileSystem.read_pages``, which stays true when both names resolve to the
same wrapper.  Wrapping ``read_pages`` on a subclass instead would flip
that guard and change the path under measurement.
"""

from __future__ import annotations

import fnmatch
import functools
import importlib
import inspect
import json
import sys
from pathlib import Path
from time import perf_counter_ns

from harness import slices

LAYERS = ("apps", "core", "kernel", "cache", "block", "devices", "fs",
          "sim", "obs")
#: pseudo-layer for benchmark code reached from inside a layer (task
#: bodies run inside ``Task.resume``); its time counts as unattributed
BENCH = len(LAYERS)

_KERNEL_CALLS = ("open", "close", "read", "pread", "write", "pwrite",
                 "lseek", "fsync", "stat", "ioctl", "get_sleds",
                 "sleds_stamp", "charge_cpu", "read_async", "pread_async",
                 "fsync_async")

#: layer -> ``module:function`` or ``module:Class.method-glob`` specs
ENTRY_POINTS = {
    "apps": ("repro.apps.wc:wc", "repro.apps.common:read_linear",
             "repro.apps.common:read_sleds_order"),
    "core": ("repro.core.builder:build_sled_vector",
             "repro.core.records:adjust_to_records",
             "repro.core.pick:SledsPickSession.__init__",
             "repro.core.pick:SledsPickSession.next_read"),
    "kernel": tuple(f"repro.kernel.kernel:Kernel.{name}"
                    for name in _KERNEL_CALLS),
    "cache": ("repro.cache.page_cache:PageCache.access",
              "repro.cache.page_cache:PageCache.insert",
              "repro.cache.page_cache:PageCache.insert_run",
              "repro.cache.page_cache:PageCache.peek",
              "repro.cache.page_cache:PageCache.resident_runs",
              "repro.cache.readahead:ReadaheadWindow.advise"),
    "block": ("repro.block.merge:PlugQueue.submit",
              "repro.block.merge:PlugQueue.flush",
              "repro.block.scheduler:DeviceQueue.submit",
              "repro.block.scheduler:DeviceQueue._dispatch",
              "repro.block.scheduler:DeviceQueue._complete",
              "repro.block.scheduler:IoScheduler.take_next",
              "repro.block.scheduler:submit_batch"),
    "devices": ("repro.devices.base:Device.read",
                "repro.devices.base:Device.read_run",
                "repro.devices.base:Device.submit",
                "repro.devices.base:Device.submit_spans",
                "repro.devices.base:Device.write"),
    "fs": ("repro.fs.filesystem:FileSystem.read_pages",
           "repro.fs.filesystem:FileSystem.read_pages_merged",
           "repro.fs.filesystem:FileSystem.write_pages",
           "repro.fs.filesystem:FileSystem.span_estimates",
           "repro.fs.content:FileContent.read",
           "repro.fs.content:FileContent.write"),
    "sim": ("repro.sim.tasks:EventScheduler.run",
            "repro.sim.tasks:Task.resume",
            "repro.sim.events:EventLoop.step",
            "repro.sim.events:EventLoop.at",
            "repro.sim.engine:IoEngine.submit_cluster",
            "repro.sim.engine:IoEngine.queue_delays"),
    "obs": ("repro.obs.telemetry:Telemetry.on_*",
            "repro.obs.telemetry:Telemetry.syscall_*",
            "repro.obs.telemetry:TelemetryBatch.flush",
            "repro.obs.lifecycle:LifecycleTracker.record",
            "repro.obs.metrics:Family.labels",
            "repro.obs.timeseries:TimeSeriesRecorder.tick",
            "repro.obs.forensics:BlameEngine.blame",
            "repro.obs.forensics:LatencyForensics.analyze"),
}

#: spans kept in memory for the dump; later ones are only counted
SPAN_CAP = 100_000

#: the registry label lookup behind ``obs.metric_lookups_per_fault``
LABEL_LOOKUP = "repro.obs.metrics:Family.labels"


class Patches:
    """Attribute replacements, undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, owner, name: str, value) -> None:
        original = (owner.__dict__[name] if inspect.isclass(owner)
                    else getattr(owner, name))
        self._undo.append((owner, name, original))
        setattr(owner, name, value)

    def undo(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


def _subclasses(cls) -> list:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(c for c in _subclasses(sub) if c not in found)
    return found


def targets(spec: str) -> list[tuple[object, str, object]]:
    """``(owner, attribute, function)`` for every binding ``spec`` names:
    each class in the hierarchy that defines a matching method, or each
    ``repro`` module that holds the function."""
    module_name, _, path = spec.partition(":")
    module = importlib.import_module(module_name)
    if "." not in path:
        fn = getattr(module, path)
        return [(mod, name, fn)
                for mod_name, mod in sorted(sys.modules.items())
                if mod_name.split(".")[0] == "repro" and mod is not None
                for name, value in sorted(vars(mod).items()) if value is fn]
    class_name, pattern = path.split(".", 1)
    found = []
    for cls in _subclasses(getattr(module, class_name)):
        for name, value in cls.__dict__.items():
            if (fnmatch.fnmatchcase(name, pattern)
                    and inspect.isfunction(value)
                    and not getattr(value, "__isabstractmethod__", False)):
                found.append((cls, name, value))
    return found


class LayerTracer:
    """Span stack over the wrapped entry points; spans kept in memory."""

    def __init__(self) -> None:
        self.self_ns = [0] * (len(LAYERS) + 1)
        self.root_ns = 0
        self.wall_ns = 0
        self.spans: list[tuple[int, int, int, int, int]] = []
        self.dropped = 0
        #: per wrapped binding: (owner name, attribute, layer, spec)
        self.entries: list[tuple[str, str, int, str]] = []
        self.entry_calls: list[int] = []
        self._stack: list[list[int]] = []
        self._next_id = 0
        self._patches = Patches()
        self._started = 0

    # -- spans ------------------------------------------------------------

    def enter(self, layer: int) -> None:
        self._stack.append([layer, perf_counter_ns(), 0, self._next_id])
        self._next_id += 1

    def exit(self) -> None:
        end = perf_counter_ns()
        layer, start, child, span_id = self._stack.pop()
        duration = end - start
        self.self_ns[layer] += duration - child
        if self._stack:
            parent = self._stack[-1]
            parent[2] += duration
            parent_id = parent[3]
        else:
            self.root_ns += duration
            parent_id = -1
        if len(self.spans) < SPAN_CAP:
            self.spans.append((layer, start, end, span_id, parent_id))
        else:
            self.dropped += 1

    def slices(self, gen, layer: int):
        """Drive ``gen``, one span per resumption."""
        return slices(gen, functools.partial(self.enter, layer), self.exit)

    def bench(self, gen):
        """Mark a task body as benchmark code (counted as unattributed)."""
        return self.slices(gen, BENCH)

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, layer: int, index: int):
        calls = self.entry_calls
        if inspect.isgeneratorfunction(fn):
            slices = self.slices

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                calls[index] += 1
                return slices(fn(*args, **kwargs), layer)
            return traced_gen
        enter = self.enter
        exit_ = self.exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[index] += 1
            enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()
        return traced

    def install(self) -> None:
        for layer, specs in enumerate(ENTRY_POINTS.values()):
            for spec in specs:
                for owner, name, fn in targets(spec):
                    index = len(self.entries)
                    self.entries.append((owner.__name__, name, layer, spec))
                    self.entry_calls.append(0)
                    self._patches.replace(owner, name,
                                          self._wrap(fn, layer, index))
        self._started = perf_counter_ns()

    def uninstall(self) -> None:
        self.wall_ns = perf_counter_ns() - self._started
        self._patches.undo()

    # -- results ----------------------------------------------------------

    def calls(self, layer: int) -> int:
        return sum(count for (_, _, entry_layer, _), count
                   in zip(self.entries, self.entry_calls)
                   if entry_layer == layer)

    def spec_calls(self, spec: str) -> int:
        return sum(count for (_, _, _, entry_spec), count
                   in zip(self.entries, self.entry_calls)
                   if entry_spec == spec)

    @property
    def unattributed_ns(self) -> int:
        return self.wall_ns - sum(self.self_ns[:BENCH])

    def closure_errors(self) -> list[str]:
        """Why the split does not close (empty when it does)."""
        errors = []
        if self._stack:
            errors.append(f"{len(self._stack)} spans still open")
        if sum(self.self_ns) != self.root_ns:
            errors.append("self times do not sum to the root spans")
        if not 0 <= self.root_ns <= self.wall_ns:
            errors.append("root spans exceed the traced wall")
        if min(self.self_ns) < 0:
            errors.append("negative self time")
        return errors

    def write_spans(self, path: Path) -> None:
        """Dump the kept spans (times relative to the traced start)."""
        base = self._started
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "layers": list(LAYERS) + ["bench"],
            "fields": ["layer", "start_ns", "end_ns", "id", "parent"],
            "dropped": self.dropped,
            "spans": [(layer, start - base, end - base, span_id, parent)
                      for layer, start, end, span_id, parent in self.spans],
        }))


class BatchedPages:
    """Counts pages serviced by ``Device.read_run`` calls that returned
    arrays (the vectorised device path), without timing anything."""

    SPEC = "repro.devices.base:Device.read_run"

    def __init__(self) -> None:
        self.pages = 0
        self._patches = Patches()

    def install(self) -> None:
        for owner, name, fn in targets(self.SPEC):
            self._patches.replace(owner, name, self._wrap(fn))

    def _wrap(self, fn):
        counter = self

        @functools.wraps(fn)
        def counted(device, addr, npages, page_bytes):
            durations = fn(device, addr, npages, page_bytes)
            if durations is not None:
                counter.pages += npages
            return durations
        return counted

    def uninstall(self) -> None:
        self._patches.undo()
