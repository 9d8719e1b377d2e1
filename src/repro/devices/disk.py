"""Hard-disk model: seek curve, rotational latency, zoned transfer rates.

The model follows Ruemmler & Wilkes' introduction to disk drive modeling
[RW94] at the level of detail SLEDs needs:

* **Seek** — a square-root curve ``t(d) = t_min + (t_max - t_min) * sqrt(d)``
  where ``d`` is the fraction of the total capacity the head must travel.
  Track-to-track moves cost ``t_min``; a full-stroke seek costs ``t_max``.
  A zero-distance access (sequential continuation) costs no seek at all.
* **Rotation** — a random rotational delay uniform in one revolution for any
  non-sequential access; sequential continuations ride the same track and
  pay none.
* **Zones** — outer cylinders hold more sectors per track and therefore
  transfer faster.  The zone table maps a starting fraction of capacity to a
  bandwidth, reproducing the multi-zone behaviour of [Van97].  The *nominal*
  bandwidth reported in the spec is the capacity-weighted mean.

The defaults are tuned so the lmbench-style characterisation in
:mod:`repro.bench.lmbench` reproduces the paper's Table 2 disk row
(18 ms latency, 9.0 MB/s).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from repro.devices.base import Device, DeviceSpec
from repro.sim.units import GB, MB, MSEC


@dataclass(frozen=True)
class Zone:
    """One disk zone: starts at ``start_frac`` of capacity, transfers at
    ``bandwidth`` bytes/second."""

    start_frac: float
    bandwidth: float


#: Three-zone profile of a late-1990s 9 GB drive averaging ~9 MB/s.
DEFAULT_ZONES = (
    Zone(0.00, 11.0 * MB),
    Zone(0.40, 9.0 * MB),
    Zone(0.75, 6.7 * MB),
)


class DiskDevice(Device):
    """A hard disk with head-position state and a seek-time curve."""

    time_category = "disk"

    #: the controller setup cost is per command, not per scatter segment —
    #: continuation spans of a merged request skip it (seeks between
    #: fragmented spans are still paid through ``_access_time``)
    _merge_overhead_components = ("overhead",)

    def __init__(self, name: str = "disk", capacity: int = 9 * GB,
                 min_seek: float = 2.0 * MSEC, max_seek: float = 22.0 * MSEC,
                 rpm: float = 5400.0, zones: tuple[Zone, ...] = DEFAULT_ZONES,
                 controller_overhead: float = 0.3 * MSEC,
                 rng: np.random.Generator | None = None) -> None:
        if not zones or zones[0].start_frac != 0.0:
            raise ValueError("zone table must start at fraction 0.0")
        if any(b.start_frac <= a.start_frac for a, b in zip(zones, zones[1:])):
            raise ValueError("zone start fractions must be strictly increasing")
        if min_seek < 0 or max_seek < min_seek:
            raise ValueError("need 0 <= min_seek <= max_seek")
        if rpm <= 0:
            raise ValueError(f"rpm must be positive: {rpm}")
        if controller_overhead < 0:
            raise ValueError(
                f"controller overhead must be >= 0: {controller_overhead}")
        if any(zone.bandwidth <= 0 for zone in zones):
            raise ValueError("zone bandwidths must be positive")
        self.min_seek = min_seek
        self.max_seek = max_seek
        self.rotation_period = 60.0 / rpm
        self.zones = zones
        self._zone_starts = tuple(zone.start_frac for zone in zones)
        self.controller_overhead = controller_overhead
        # Nominal latency: average seek (sqrt curve averaged over uniformly
        # random start/end positions gives E[sqrt(d)] with d = |x - y|,
        # which integrates to 8/15) plus half a rotation plus overhead.
        avg_seek = min_seek + (max_seek - min_seek) * (8.0 / 15.0)
        nominal_latency = avg_seek + self.rotation_period / 2 + controller_overhead
        spec = DeviceSpec(name=name, kind="disk", latency=nominal_latency,
                          bandwidth=self._mean_bandwidth(zones, capacity))
        super().__init__(spec, capacity=capacity, rng=rng)
        self.head_pos = 0
        #: first address past each zone: where ``zone_index`` changes,
        #: exactly, whatever the rounding of ``start_frac * capacity``
        self._zone_ends = tuple(
            bisect_right(range(capacity), index, key=self.zone_index)
            for index in range(len(zones)))

    @staticmethod
    def _mean_bandwidth(zones: tuple[Zone, ...], capacity: int) -> float:
        total = 0.0
        for i, zone in enumerate(zones):
            end = zones[i + 1].start_frac if i + 1 < len(zones) else 1.0
            total += (end - zone.start_frac) * zone.bandwidth
        return total

    # -- model ----------------------------------------------------------

    def zone_index(self, addr: int) -> int:
        """Index of the zone containing ``addr``: the last zone whose start
        fraction is at most ``addr / capacity``."""
        return bisect_right(self._zone_starts, addr / self.capacity) - 1

    def zone_range(self, index: int) -> tuple[int, int]:
        """Byte range [start, end) of zone ``index``.

        Edges round *up* so that ``zone_index(start)`` is always
        ``index`` despite floating-point fraction boundaries.
        """
        if not 0 <= index < len(self.zones):
            raise ValueError(f"no zone {index} (have {len(self.zones)})")
        start = math.ceil(self.zones[index].start_frac * self.capacity)
        end = (math.ceil(self.zones[index + 1].start_frac * self.capacity)
               if index + 1 < len(self.zones) else self.capacity)
        return start, end

    def bandwidth_at(self, addr: int) -> float:
        """Transfer rate of the zone containing ``addr``."""
        return self.zones[self.zone_index(addr)].bandwidth

    def seek_time(self, from_addr: int, to_addr: int) -> float:
        """Seek duration between two byte addresses (0 when equal)."""
        distance = abs(to_addr - from_addr)
        if distance == 0:
            return 0.0
        frac = distance / self.capacity
        return self.min_seek + (self.max_seek - self.min_seek) * math.sqrt(frac)

    def _continuation(self, addr: int, nbytes: int):
        # no seek, no rotation, no rng: the controller overhead and the
        # transfer at the zone's rate, the same up to the zone's end
        index = self.zone_index(addr)
        transfer = nbytes / self.zones[index].bandwidth
        return (self.controller_overhead + transfer,
                self._components(overhead=self.controller_overhead,
                                 transfer=transfer),
                self._zone_ends[index])

    def _access_time(self, addr: int, nbytes: int, is_write: bool) -> float:
        if addr == self.head_pos:
            duration, self._last_components, _ = self._continuation(
                addr, nbytes)
        else:
            seek = self.seek_time(self.head_pos, addr)
            rotation = self.rotation_period * self.rng.random()
            transfer = nbytes / self.bandwidth_at(addr)
            duration = self.controller_overhead
            duration += seek
            duration += rotation
            duration += transfer
            self.stats.seeks += 1
            self._last_components = self._components(
                overhead=self.controller_overhead,
                positioning=seek + rotation, transfer=transfer)
        self.head_pos = addr + nbytes
        return duration

    def head_position(self) -> int:
        return self.head_pos

    def reset_state(self) -> None:
        super().reset_state()
        self.head_pos = 0
