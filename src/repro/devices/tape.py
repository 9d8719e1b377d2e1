"""Serpentine tape-drive model (DLT-class).

Follows the spirit of Hillyer & Silberschatz's DLT model [HS96a] as
simplified by Sandstå & Midstraum [SM99]: the medium is a set of serpentine
*wraps*; a locate operation costs a fixed startup plus a longitudinal wind
proportional to the distance the tape must move, plus a small wrap-switch
(head reposition) cost.  Reading is streaming at the drive's native rate
once positioned.

A tape must be *loaded* in the drive before any access; loading (performed
by the :class:`~repro.devices.autochanger.Autochanger` or manually) costs
tens of seconds, which is what gives HSM systems their eleven orders of
magnitude of latency dynamic range (microseconds for cached pages up to
hundreds of seconds for an unmounted tape).
"""

from __future__ import annotations

import numpy as np

from repro.devices.base import Device, DeviceSpec
from repro.sim.units import GB, MB


class TapeNotLoadedError(RuntimeError):
    """Access attempted with no tape (or the wrong tape) in the drive."""


class TapeCartridge:
    """A passive cartridge: identity, capacity, and remembered position."""

    def __init__(self, label: str, capacity: int = 35 * GB) -> None:
        if capacity <= 0:
            raise ValueError(f"tape capacity must be positive: {capacity}")
        self.label = label
        self.capacity = capacity
        #: longitudinal position remembered across unload/load cycles
        self.position = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<TapeCartridge {self.label!r}>"


class TapeDevice(Device):
    """A tape drive.  Addresses are byte offsets along the serpentine path
    of the currently loaded cartridge."""

    time_category = "tape"

    #: a locate is seconds-to-minutes; a merged read streams through gaps
    #: up to several megabytes rather than winding the transport
    _gap_read_through_bytes = 4 * MB

    def __init__(self, name: str = "tape0",
                 bandwidth: float = 5.0 * MB,
                 locate_startup: float = 4.0,
                 full_wind_time: float = 90.0,
                 wrap_switch_time: float = 1.0,
                 wraps: int = 64,
                 load_time: float = 40.0,
                 unload_time: float = 25.0,
                 rng: np.random.Generator | None = None) -> None:
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive: {bandwidth}")
        if min(locate_startup, full_wind_time, wrap_switch_time,
               load_time, unload_time) < 0:
            raise ValueError("tape timing parameters must be non-negative")
        if wraps <= 0:
            raise ValueError(f"wrap count must be positive: {wraps}")
        self.locate_startup = locate_startup
        self.full_wind_time = full_wind_time
        self.wrap_switch_time = wrap_switch_time
        self.wraps = wraps
        self.load_time = load_time
        self.unload_time = unload_time
        # Nominal latency: a random locate averages ~1/3 of a full wind of
        # longitudinal distance (see locate_time) plus startup.
        nominal_latency = locate_startup + full_wind_time / 3 + wrap_switch_time
        spec = DeviceSpec(name=name, kind="tape", latency=nominal_latency,
                          bandwidth=bandwidth)
        # Capacity of the *drive* address space = largest supported cartridge.
        super().__init__(spec, capacity=35 * GB, rng=rng)
        self.loaded: TapeCartridge | None = None
        self._next_sequential: int | None = None

    # -- cartridge handling ------------------------------------------------

    def load(self, cartridge: TapeCartridge) -> float:
        """Load ``cartridge``; returns the load duration in seconds."""
        if self.loaded is not None:
            raise TapeNotLoadedError(
                f"drive {self.name!r} already holds {self.loaded.label!r}")
        self.loaded = cartridge
        self._next_sequential = None
        return self.load_time

    def unload(self) -> float:
        """Rewind and eject; returns the unload duration in seconds."""
        if self.loaded is None:
            raise TapeNotLoadedError(f"drive {self.name!r} is empty")
        self.loaded.position = 0
        self.loaded = None
        self._next_sequential = None
        return self.unload_time

    # -- positioning ---------------------------------------------------------

    def _wrap_of(self, addr: int) -> tuple[int, int]:
        """(wrap index, longitudinal position) of a serpentine address."""
        assert self.loaded is not None
        wrap_len = max(1, self.loaded.capacity // self.wraps)
        wrap = min(addr // wrap_len, self.wraps - 1)
        along = addr - wrap * wrap_len
        # odd wraps run backwards
        longitudinal = along if wrap % 2 == 0 else wrap_len - along
        return wrap, longitudinal

    def locate_time(self, from_addr: int, to_addr: int) -> float:
        """Duration of a locate between two serpentine addresses."""
        if self.loaded is None:
            raise TapeNotLoadedError(f"drive {self.name!r} is empty")
        if from_addr == to_addr:
            return 0.0
        from_wrap, from_long = self._wrap_of(from_addr)
        to_wrap, to_long = self._wrap_of(to_addr)
        wrap_len = max(1, self.loaded.capacity // self.wraps)
        wind_frac = abs(to_long - from_long) / wrap_len
        duration = self.locate_startup + wind_frac * self.full_wind_time
        if to_wrap != from_wrap:
            duration += self.wrap_switch_time
        return duration

    def estimate_latency(self, addr: int) -> float:
        """Expected time-to-first-byte for ``addr`` given current state.

        Used by the SLEDs machinery: accounts for the loaded tape's current
        position but performs no motion.
        """
        if self.loaded is None:
            return self.load_time + self.locate_startup + self.full_wind_time / 3
        return self.locate_time(self.loaded.position, addr)

    # -- access ----------------------------------------------------------------

    def _access_time(self, addr: int, nbytes: int, is_write: bool) -> float:
        if self.loaded is None:
            raise TapeNotLoadedError(f"drive {self.name!r} is empty")
        if addr + nbytes > self.loaded.capacity:
            raise ValueError(
                f"access beyond cartridge {self.loaded.label!r} capacity")
        duration = 0.0
        if addr != self._next_sequential:
            duration += self.locate_time(self.loaded.position, addr)
            self.stats.seeks += 1
        transfer = nbytes / self.spec.bandwidth
        positioning = duration
        duration += transfer
        self.loaded.position = addr + nbytes
        self._next_sequential = addr + nbytes
        self._last_components = self._components(
            positioning=positioning, transfer=transfer)
        return duration

    def reset_state(self) -> None:
        super().reset_state()
        if self.loaded is not None:
            self.loaded.position = 0
        self._next_sequential = None
