"""Flash (SSD-class) device model.

The paper's closing claim is that SLEDs are deliberately
device-independent: "Scripts and other utilities built around this concept
will remain useful even as storage systems continue to evolve."  This
model is the test of that claim — a storage class that did not exist in
the paper's evaluation, dropped under the unchanged SLEDs machinery
(see experiment ``extF``).

Characteristics modelled:

* near-uniform random-read latency (no head, no rotation);
* high sequential bandwidth;
* asymmetric writes: programming is slower than reading, and a small
  write that does not cover a full erase block pays a read-modify-write
  penalty (the flash translation layer's write amplification).
"""

from __future__ import annotations

import numpy as np

from repro.devices.base import Device, DeviceSpec
from repro.sim.units import GB, KB, MB, USEC


class FlashDevice(Device):
    """An SSD: uniform read latency, asymmetric writes, no seek state."""

    time_category = "flash"

    def __init__(self, name: str = "flash", capacity: int = 32 * GB,
                 read_latency: float = 90 * USEC,
                 program_latency: float = 900 * USEC,
                 read_bandwidth: float = 180 * MB,
                 write_bandwidth: float = 60 * MB,
                 erase_block: int = 128 * KB,
                 erase_penalty: float = 2000 * USEC,
                 rng: np.random.Generator | None = None) -> None:
        if min(read_latency, program_latency, erase_penalty) < 0:
            raise ValueError("flash latencies must be non-negative")
        if read_bandwidth <= 0 or write_bandwidth <= 0:
            raise ValueError("flash bandwidths must be positive")
        if erase_block <= 0:
            raise ValueError(f"erase block must be positive: {erase_block}")
        self.read_latency = read_latency
        self.program_latency = program_latency
        self.read_bandwidth = read_bandwidth
        self.write_bandwidth = write_bandwidth
        self.erase_block = erase_block
        self.erase_penalty = erase_penalty
        spec = DeviceSpec(name=name, kind="flash",
                          latency=read_latency, bandwidth=read_bandwidth)
        super().__init__(spec, capacity=capacity, rng=rng)

    def _continuation(self, addr: int, nbytes: int):
        # no positional state: every read is read_latency + transfer
        transfer = nbytes / self.read_bandwidth
        return (self.read_latency + transfer,
                self._components(overhead=self.read_latency,
                                 transfer=transfer),
                self.capacity)

    def _access_time(self, addr: int, nbytes: int, is_write: bool) -> float:
        if not is_write:
            duration, self._last_components, _ = self._continuation(
                addr, nbytes)
            return duration
        transfer = nbytes / self.write_bandwidth
        duration = self.program_latency + transfer
        # partial erase blocks force a read-modify-write in the FTL
        misaligned_head = addr % self.erase_block != 0
        misaligned_tail = (addr + nbytes) % self.erase_block != 0
        covers_whole_block = (not misaligned_head and not misaligned_tail
                              and nbytes >= self.erase_block)
        if not covers_whole_block and nbytes < self.erase_block:
            duration += self.erase_penalty
        elif misaligned_head or misaligned_tail:
            duration += self.erase_penalty / 2
        self._last_components = self._components(
            overhead=duration - transfer, transfer=transfer)
        return duration
