"""Simulation substrate: virtual time, deterministic randomness, errors.

Everything in the reproduction runs against a :class:`~repro.sim.clock.VirtualClock`
rather than wall-clock time, so experiments are deterministic, fast, and
independent of the host machine.
"""

from repro.sim.clock import VirtualClock
from repro.sim.errors import (
    SimulationError,
    BadFileDescriptorError,
    FileExistsSimError,
    FileNotFoundSimError,
    InvalidArgumentError,
    IsADirectorySimError,
    NotADirectorySimError,
    ReadOnlyFilesystemError,
)
from repro.sim.engine import IoEngine
from repro.sim.events import EventLoop, IoFuture
from repro.sim.rng import RngStreams
from repro.sim.units import (
    KB,
    MB,
    GB,
    PAGE_SIZE,
    MSEC,
    USEC,
    NSEC,
    bytes_to_pages,
    page_span,
)

__all__ = [
    "VirtualClock",
    "EventLoop",
    "IoFuture",
    "IoEngine",
    "RngStreams",
    "SimulationError",
    "BadFileDescriptorError",
    "FileNotFoundSimError",
    "FileExistsSimError",
    "InvalidArgumentError",
    "IsADirectorySimError",
    "NotADirectorySimError",
    "ReadOnlyFilesystemError",
    "KB",
    "MB",
    "GB",
    "PAGE_SIZE",
    "MSEC",
    "USEC",
    "NSEC",
    "bytes_to_pages",
    "page_span",
]
