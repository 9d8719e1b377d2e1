"""Primary-memory (buffer cache) device model.

The paper's Table 2 characterises memory at 175 ns latency and 48 MB/s copy
bandwidth on the Unix-utility machine (Table 3: 210 ns / 87 MB/s on the
LHEASOFT machine).  Those are lmbench ``lat_mem_rd`` / ``bcopy`` style
numbers, which is what a cached page read costs once the kernel copies it to
user space.
"""

from __future__ import annotations

import numpy as np

from repro.devices.base import Device, DeviceSpec
from repro.sim.units import GB, MB, NSEC


class MemoryDevice(Device):
    """RAM: constant latency, constant bandwidth, no positional state."""

    time_category = "memory"

    def __init__(self, name: str = "memory", latency: float = 175 * NSEC,
                 bandwidth: float = 48 * MB, capacity: int = 4 * GB,
                 rng: np.random.Generator | None = None) -> None:
        if latency < 0 or bandwidth <= 0:
            raise ValueError("memory latency must be >= 0 and bandwidth > 0")
        spec = DeviceSpec(name=name, kind="memory",
                          latency=latency, bandwidth=bandwidth)
        super().__init__(spec, capacity=capacity, rng=rng)

    def _continuation(self, addr: int, nbytes: int):
        # no positional state: every access is latency + transfer
        transfer = nbytes / self.spec.bandwidth
        return (self.spec.latency + transfer,
                self._components(overhead=self.spec.latency,
                                 transfer=transfer),
                self.capacity)

    def _access_time(self, addr: int, nbytes: int, is_write: bool) -> float:
        duration, self._last_components, _ = self._continuation(addr, nbytes)
        return duration
