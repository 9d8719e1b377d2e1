"""Composite (RAID) device models.

The paper's future work singles out "complex components such as HP's
AutoRAID" as the hard case for QoS-capable storage — a *composite* whose
performance characteristics are not any single device's.  These models
let the reproduction ask the question concretely: point the unchanged
boot-time characterisation at a stripe set or a mirror and see what the
sleds table learns.

* :class:`Raid0` — striping: an access is split across member disks at
  ``stripe_size`` granularity; the batch completes when the slowest
  member finishes (members work in parallel), so bandwidth scales with
  width while latency stays a single member's.  The model is synchronous
  per access — parallelism only happens *within* one request — so the
  default stripe unit (16 KB) is deliberately smaller than the kernel's
  64 KB readahead cluster; a stripe unit at or above the request size
  degenerates to single-disk throughput, which is also true of real
  arrays fed one outstanding request at a time.
* :class:`Raid1` — mirroring: reads go to the member whose head is
  nearest (the classic mirror read optimisation); writes pay both
  members, completing with the slower.
"""

from __future__ import annotations

import numpy as np

from repro.devices.base import Device, DeviceSpec
from repro.devices.disk import DiskDevice
from repro.sim.units import KB


class Raid0(Device):
    """A stripe set over equally sized member devices."""

    time_category = "disk"

    def __init__(self, members: list[Device], stripe_size: int = 16 * KB,
                 name: str = "raid0",
                 rng: np.random.Generator | None = None) -> None:
        if len(members) < 2:
            raise ValueError("RAID-0 needs at least two members")
        if stripe_size <= 0:
            raise ValueError(f"stripe size must be positive: {stripe_size}")
        self.members = list(members)
        self.stripe_size = stripe_size
        capacity = min(m.capacity for m in members) * len(members)
        spec = DeviceSpec(
            name=name, kind="raid0",
            latency=max(m.spec.latency for m in members),
            bandwidth=sum(m.spec.bandwidth for m in members))
        super().__init__(spec, capacity=capacity, rng=rng)

    def _split(self, addr: int, nbytes: int) -> dict[int, list[tuple[int, int]]]:
        """Device address range -> {member: [(member_addr, nbytes)]}."""
        width = len(self.members)
        out: dict[int, list[tuple[int, int]]] = {}
        pos = addr
        remaining = nbytes
        while remaining > 0:
            stripe = pos // self.stripe_size
            member = stripe % width
            member_stripe = stripe // width
            within = pos % self.stripe_size
            take = min(self.stripe_size - within, remaining)
            member_addr = member_stripe * self.stripe_size + within
            out.setdefault(member, []).append((member_addr, take))
            pos += take
            remaining -= take
        return out

    def _access_time(self, addr: int, nbytes: int, is_write: bool) -> float:
        per_member = []
        for member, pieces in self._split(addr, nbytes).items():
            device = self.members[member]
            total = 0.0
            for member_addr, take in pieces:
                if is_write:
                    total += device.write(member_addr, take)
                else:
                    total += device.read(member_addr, take)
            per_member.append(total)
        return max(per_member)

    def reset_state(self) -> None:
        super().reset_state()
        for member in self.members:
            member.reset_state()


class Raid1(Device):
    """A two-way (or wider) mirror."""

    time_category = "disk"

    def __init__(self, members: list[Device], name: str = "raid1",
                 rng: np.random.Generator | None = None) -> None:
        if len(members) < 2:
            raise ValueError("RAID-1 needs at least two members")
        self.members = list(members)
        capacity = min(m.capacity for m in members)
        spec = DeviceSpec(
            name=name, kind="raid1",
            latency=min(m.spec.latency for m in members),
            bandwidth=max(m.spec.bandwidth for m in members))
        super().__init__(spec, capacity=capacity, rng=rng)

    def _nearest_member(self, addr: int) -> Device:
        return min(self.members,
                   key=lambda member: abs(member.head_position() - addr))

    def _access_time(self, addr: int, nbytes: int, is_write: bool) -> float:
        if is_write:
            # both copies must land; members work in parallel
            return max(member.write(addr, nbytes)
                       for member in self.members)
        return self._nearest_member(addr).read(addr, nbytes)

    def reset_state(self) -> None:
        super().reset_state()
        for member in self.members:
            member.reset_state()


def make_stripe(width: int = 2, stripe_size: int = 16 * KB,
                seed: int = 0, name: str = "raid0") -> Raid0:
    """Convenience: a stripe set of identical late-90s disks."""
    members = [DiskDevice(name=f"{name}-m{i}",
                          rng=np.random.default_rng(seed + i))
               for i in range(width)]
    return Raid0(members, stripe_size=stripe_size, name=name)
