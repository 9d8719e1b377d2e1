"""No import statement runs per device request or per syscall.

An ``import`` inside a function runs on every call, even when the module
is long loaded: on CPython 3.11 a ``from repro.sim.errors import
IoSimError`` costs ~1-1.4 us, several times the price of the 4 KiB
memory copy every read and write charges.  This test disassembles every
function and method of the modules on the request, syscall and SLED
paths (the telemetry hooks and the SLED accuracy snapshot among them),
nested code objects included, and fails on any ``IMPORT_NAME`` outside
``ALLOWED``: cold functions and one import cycle, each with its reason.
"""

from __future__ import annotations

import dis
import importlib
import inspect
import pkgutil
import types

import pytest

import repro.cache
import repro.devices

MODULES = sorted(
    [f"{package.__name__}.{info.name}"
     for package in (repro.devices, repro.cache)
     for info in pkgutil.iter_modules(package.__path__)]
    + ["repro.core.builder", "repro.core.pick", "repro.core.sled",
       "repro.fs.filesystem", "repro.fs.nfs", "repro.fs.hsmfs",
       "repro.kernel.kernel", "repro.block.scheduler", "repro.block.merge",
       "repro.sim.clock", "repro.sim.events", "repro.sim.engine",
       "repro.obs.accuracy", "repro.obs.telemetry"])

#: (module, function) -> why an import may run inside it
ALLOWED = {
    ("repro.kernel.kernel", "Kernel.attach_engine"):
        "cold: runs once per engine attached",
    ("repro.kernel.kernel", "Kernel._write_span"):
        "the one-time CowContent upgrade of immutable content, on the "
        "file's first write",
    ("repro.kernel.kernel", "Kernel._complete_runs"):
        "builds the TelemetryBatch once per telemetry attached",
    ("repro.block.merge", "plain_read_path"):
        "import cycle: repro.sim -> sim.engine -> block.merge -> repro.fs",
    ("repro.obs.telemetry", "Telemetry.enable_timeseries"):
        "cold: runs once per time-series recorder enabled",
}


def _imports(code: types.CodeType, prefix: str = "",
             owner: str | None = None):
    """``(function, imported module)`` for every import that runs when a
    function in ``code`` is called.  ``function`` is the qualified name
    of the outermost function holding it; module and class bodies run
    once, at import, and are not counted."""
    if code.co_flags & inspect.CO_OPTIMIZED:
        owner = owner or prefix + code.co_name
        for instruction in dis.get_instructions(code):
            if instruction.opname == "IMPORT_NAME":
                yield owner, instruction.argval
    elif code.co_name != "<module>":
        prefix += code.co_name + "."
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _imports(const, prefix, owner)


def _module_imports(name: str) -> list[tuple[str, str]]:
    module = importlib.import_module(name)
    with open(module.__file__, encoding="utf-8") as source:
        code = compile(source.read(), module.__file__, "exec")
    return list(_imports(code))


@pytest.mark.parametrize("name", MODULES)
def test_no_import_runs_per_call(name):
    found = [(function, imported)
             for function, imported in _module_imports(name)
             if (name, function) not in ALLOWED]
    assert not found, (
        f"{name}: imports run on every call of {found}; import at module "
        "level, or list the function in ALLOWED with its reason")


def test_allowlist_is_current():
    """Every allowed function still imports at call time: an entry whose
    import moved to module level goes."""
    stale = [(name, function) for name, function in ALLOWED
             if not any(owner == function
                        for owner, _ in _module_imports(name))]
    assert not stale
