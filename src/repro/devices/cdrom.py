"""CD-ROM drive model.

CD-ROM drives of the paper's era read a constant-linear-velocity (or partial
CAV) spiral; random access requires a coarse sled move, a spindle speed
adjustment, and re-synchronisation — which is why Table 2 charges a CD-ROM
access 130 ms of latency against only 18 ms for the hard disk.  Sequential
streaming, on the other hand, runs at the (modest) medium rate.

The model: non-sequential accesses pay a base settle time plus a component
proportional to the square root of the travel distance plus a spin-up term
when the jump crosses a large fraction of the disc; sequential continuations
pay nothing but transfer time.  Bandwidth rises slightly toward the outer
edge of the disc (CLV read-out at fixed data density spins slower but many
drives of that era were CAV at the rim; we keep a gentle two-zone profile).
"""

from __future__ import annotations

import math

import numpy as np

from repro.devices.base import Device, DeviceSpec
from repro.sim.units import KB, MB, MSEC


class CdromDevice(Device):
    """A CD-ROM drive: very high random-access latency, low bandwidth."""

    time_category = "cdrom"

    #: pickup repositioning is so expensive (settle + travel + spin-up)
    #: that a merged read streams through small inter-span gaps instead
    _gap_read_through_bytes = 128 * KB

    #: upper bound of a seek's re-sync jitter: one sector window
    resync_jitter = 10.0 * MSEC

    def __init__(self, name: str = "cdrom", capacity: int = 650 * MB,
                 base_settle: float = 60.0 * MSEC,
                 max_travel: float = 80.0 * MSEC,
                 speed_change: float = 40.0 * MSEC,
                 bandwidth: float = 2.8 * MB,
                 rng: np.random.Generator | None = None) -> None:
        if base_settle < 0 or max_travel < 0 or speed_change < 0:
            raise ValueError("CD-ROM timing parameters must be non-negative")
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive: {bandwidth}")
        self.base_settle = base_settle
        self.max_travel = max_travel
        self.speed_change = speed_change
        # Nominal latency: settle + average travel (E[sqrt(d)] = 8/15) +
        # expected speed change on half of random jumps.
        nominal_latency = (base_settle + max_travel * (8.0 / 15.0)
                           + speed_change / 2)
        spec = DeviceSpec(name=name, kind="cdrom", latency=nominal_latency,
                          bandwidth=bandwidth)
        super().__init__(spec, capacity=capacity, rng=rng)
        self.head_pos = 0

    def _continuation(self, addr: int, nbytes: int):
        # streaming: no settle, no travel, no rng — transfer time alone
        transfer = nbytes / self.spec.bandwidth
        return transfer, self._components(transfer=transfer), self.capacity

    def _access_time(self, addr: int, nbytes: int, is_write: bool) -> float:
        if is_write:
            raise ValueError(f"CD-ROM {self.name!r} is read-only")
        if addr == self.head_pos:
            duration, self._last_components, _ = self._continuation(
                addr, nbytes)
        else:
            frac = abs(addr - self.head_pos) / self.capacity
            duration = self.base_settle + self.max_travel * math.sqrt(frac)
            if frac > 0.25:
                duration += self.speed_change
            duration += self.resync_jitter * self.rng.random()
            self.stats.seeks += 1
            transfer = nbytes / self.spec.bandwidth
            positioning = duration
            duration += transfer
            self._last_components = self._components(
                positioning=positioning, transfer=transfer)
        self.head_pos = addr + nbytes
        return duration

    def head_position(self) -> int:
        return self.head_pos

    def reset_state(self) -> None:
        super().reset_state()
        self.head_pos = 0
