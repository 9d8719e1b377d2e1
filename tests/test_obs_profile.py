"""Tests for the hot-path wall-clock profiler (repro.obs.profile).

The profiler wraps the functions :data:`SITES` names from outside, on
the class or module that defines them, so every test here detaches in a
fixture teardown: a leaked wrapper would time every later test.
"""

import importlib
import pkgutil
import time

import pytest

import repro
from repro.block import BlockConfig
from repro.cache.page_cache import PageCache
from repro.machine import Machine
from repro.obs import HotPathProfiler
from repro.obs.profile import SITES, resolve
from repro.sim.clock import VirtualClock
from repro.sim.events import EventLoop
from repro.sim.tasks import EventScheduler, Task, reader_task_async
from repro.sim.units import MB


def _bindings() -> dict[str, object]:
    """What each spec in :data:`SITES` is bound to right now."""
    out = {}
    for specs in SITES.values():
        for spec in specs:
            owner, name = resolve(spec)
            out[spec] = vars(owner)[name]
    return out


ORIGINALS = _bindings()


@pytest.fixture
def prof():
    profiler = HotPathProfiler().attach()
    try:
        yield profiler
    finally:
        profiler.detach()
    assert _bindings() == ORIGINALS


def _dispatch(loop: EventLoop, sleep: float = 0.0) -> None:
    """Fire one event whose callback sleeps ``sleep`` wall seconds."""
    loop.after(0.001, lambda: time.sleep(sleep))
    assert loop.step()


class TestAccounting:
    def test_calls_accumulate(self, prof):
        loop = EventLoop(VirtualClock())
        _dispatch(loop)
        _dispatch(loop)
        site = prof.rows()[0]
        assert site["site"] == "event_loop.dispatch"
        assert site["where"] == "repro.sim.events:EventLoop.step"
        assert site["calls"] == 2
        assert site["wall_seconds"] >= 0.0
        assert prof.calls("event_loop.dispatch") == 2
        assert prof.calls("never.hit") == 0

    def test_times_the_whole_call(self, prof):
        _dispatch(EventLoop(VirtualClock()), sleep=0.001)
        row = prof.rows()[0]
        assert row["calls"] == 1
        assert row["wall_seconds"] >= 0.001
        assert row["wall_max_us"] >= 1000.0

    def test_rows_sorted_by_wall_time(self, prof):
        PageCache(16).resident_runs(1, 4)
        _dispatch(EventLoop(VirtualClock()), sleep=0.002)
        assert [r["site"] for r in prof.rows()] == [
            "event_loop.dispatch", "cache.resident_runs"]

    def test_wall_per_virtual_second(self, prof):
        _dispatch(EventLoop(VirtualClock()), sleep=0.001)
        row = prof.rows(virtual_seconds=2.0)[0]
        assert row["wall_per_virtual_second"] == (
            row["wall_seconds"] / 2.0)
        # no ratio without a virtual duration
        assert "wall_per_virtual_second" not in prof.rows()[0]

    def test_render_and_to_dict(self, prof):
        assert "no instrumented site was hit" in prof.render()
        _dispatch(EventLoop(VirtualClock()))
        text = prof.render(virtual_seconds=1.0)
        assert "event_loop.dispatch" in text and "wall/vsec" in text
        dump = prof.to_dict(virtual_seconds=1.0)
        assert dump["virtual_seconds"] == 1.0
        assert dump["total_wall_seconds"] == prof.total_wall_seconds
        assert [row["site"] for row in dump["sites"]] == [
            "event_loop.dispatch"]

    def test_clear(self, prof):
        loop = EventLoop(VirtualClock())
        _dispatch(loop)
        prof.clear()
        assert prof.rows() == [] and prof.total_wall_seconds == 0.0
        _dispatch(loop)  # still attached after a clear
        assert prof.calls("event_loop.dispatch") == 1

    def test_one_page_insert_run_is_one_call(self, prof):
        # insert_run's one-page case calls insert: one call to the site
        cache = PageCache(16)
        cache.insert_run(1, 0, 1)
        assert prof.calls("cache.residency") == 1
        cache.insert_run(1, 4, 3)
        cache.insert((1, 9))
        assert prof.calls("cache.residency") == 3


class TestWiring:
    def _machine(self):
        machine = Machine.unix_utilities(cache_pages=256, seed=123)
        machine.boot()
        machine.ext2.create_text_file("data/f.txt", MB // 2, seed=7)
        return machine

    def _read(self, machine) -> None:
        path = "/mnt/ext2/data/f.txt"
        EventScheduler(machine.kernel,
                       [Task("reader",
                             reader_task_async(machine.kernel, path))]).run()

    def test_attach_wraps_the_defining_class(self, prof):
        wrapped = _bindings()
        for spec, original in ORIGINALS.items():
            assert wrapped[spec] is not original
            assert wrapped[spec].__wrapped__ is original
        kernel = self._machine().kernel
        assert not hasattr(kernel, "profiler")
        assert not hasattr(kernel.page_cache, "profiler")

    def test_attach_before_engine(self, prof):
        machine = self._machine()
        engine = machine.kernel.attach_engine()
        # an engine arriving later runs the wrapped loop
        assert not hasattr(engine.loop, "profiler")
        self._read(machine)
        assert prof.calls("event_loop.dispatch") == engine.loop.fired > 0

    def test_attach_after_engine(self):
        machine = self._machine()
        engine = machine.kernel.attach_engine()
        profiler = HotPathProfiler().attach()
        try:
            self._read(machine)
        finally:
            profiler.detach()
        assert profiler.calls("event_loop.dispatch") == engine.loop.fired > 0

    def test_real_run_covers_core_sites(self, prof):
        machine = self._machine()
        machine.kernel.attach_engine(
            block=BlockConfig(merge=True, plug=True))
        path = "/mnt/ext2/data/f.txt"
        fd = machine.kernel.open(path)
        machine.kernel.get_sleds(fd)  # exercise the SLED-build site
        machine.kernel.close(fd)
        self._read(machine)
        hit = {row["site"] for row in prof.rows()}
        # the acceptance bar: at least dispatch + SLED builds, and every
        # site name reported is a declared one
        assert "event_loop.dispatch" in hit
        assert "kernel.sled_build" in hit
        assert "cache.residency" in hit
        assert "block.merge_flush" in hit
        assert hit <= set(SITES)
        assert prof.calls("event_loop.dispatch") > 0

    def test_detached_engine_loop_is_not_timed(self):
        # the engine's loop outlives both detaches; nothing may still
        # count its events
        machine = self._machine()
        profiler = HotPathProfiler().attach()
        try:
            engine = machine.kernel.attach_engine()
            machine.kernel.detach_engine()
        finally:
            profiler.detach()
        before = profiler.calls("event_loop.dispatch")
        _dispatch(engine.loop)
        assert profiler.calls("event_loop.dispatch") == before

    def test_detach_restores_after_a_raising_call(self):
        profiler = HotPathProfiler().attach()
        try:
            loop = EventLoop(VirtualClock())

            def boom():
                raise ValueError("boom")

            loop.after(0.0, boom)
            with pytest.raises(ValueError):
                loop.step()
            # a raising call is not counted and leaves the site closed
            assert profiler.calls("event_loop.dispatch") == 0
            _dispatch(loop)
            assert profiler.calls("event_loop.dispatch") == 1
        finally:
            profiler.detach()
        assert _bindings() == ORIGINALS
        profiler.detach()  # a second detach is a no-op
        assert _bindings() == ORIGINALS

    def test_one_profiler_at_a_time(self, prof):
        wrapped = _bindings()
        second = HotPathProfiler()
        with pytest.raises(RuntimeError):
            second.attach()
        second.detach()  # not attached: leaves the first's wrappers
        assert _bindings() == wrapped
        _dispatch(EventLoop(VirtualClock()))
        assert prof.calls("event_loop.dispatch") == 1
        assert second.calls("event_loop.dispatch") == 0


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_no_repro_subclass_overrides_a_site():
    """A wrapper sits on the defining class only, so an override in a
    subclass would drop out of the profile without any error."""
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if not module.name.endswith("__main__"):
            importlib.import_module(module.name)
    for specs in SITES.values():
        for spec in specs:
            owner, name = resolve(spec)
            if not isinstance(owner, type):
                continue  # a module binding
            overrides = [sub.__qualname__ for sub in _subclasses(owner)
                         if sub.__module__.startswith("repro.")
                         and name in vars(sub)]
            assert overrides == [], f"{spec} is overridden by {overrides}"
