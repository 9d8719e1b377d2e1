"""lmbench-style boot-time characterisation of the mounted storage levels.

The paper fills the kernel sleds table at boot: "The latency and bandwidth
for both local and network file systems are obtained by running the lmbench
benchmark.  ...  The script fills the kernel table via a new ioctl call,
FSLEDS_FILL."

We do the same against the simulated devices: small random reads measure
time-to-first-byte, a long sequential read measures sustained bandwidth,
and the results go through ``FSLEDS_FILL``.  The random addresses are drawn
in one call (the same sequence as one draw per probe), and the stream's
whole chunks are priced by one ``Device.read_run``, equal bit for bit to
reading them one by one; a device that declines the run is read chunk by
chunk.  Either way the probes leave each device's stats, position and rng
where the per-read loops would.  Tape levels are taken from the
drive's nominal spec (lmbench never ran against tape; the HSM filesystem
overrides per-page with live locate estimates anyway).

Regenerates the paper's Tables 2 and 3 (see ``repro.bench.experiments``).
"""

from __future__ import annotations

import numpy as np

from repro.devices.base import Device
from repro.devices.memory import MemoryDevice
from repro.devices.tape import TapeDevice
from repro.kernel.ioctl import FSLEDS_FILL
from repro.kernel.kernel import Kernel
from repro.sim.units import KB, MB, PAGE_SIZE

LATENCY_PROBES = 64
BANDWIDTH_PROBE_BYTES = 8 * MB
BANDWIDTH_CHUNK = 64 * KB


def measure_latency(device: Device, probes: int = LATENCY_PROBES,
                    seed: int = 42, start: int | None = None,
                    end: int | None = None) -> float:
    """Mean time-to-first-byte of small random reads in ``[start, end)``.

    Subtracts the one-page transfer component so the result is a pure
    latency figure, the way lmbench separates ``lat`` from ``bw``.
    """
    rng = np.random.default_rng(seed)
    lo = start or 0
    hi = end if end is not None else device.capacity
    limit = max(lo + 1, hi - PAGE_SIZE)
    total = 0.0
    for addr in rng.integers(lo, limit, size=probes).tolist():
        total += device.read(max(lo, addr & ~(PAGE_SIZE - 1)), PAGE_SIZE)
    device.reset_state()
    mean = total / probes
    transfer = PAGE_SIZE / device.spec.bandwidth
    return max(0.0, mean - transfer)


def measure_bandwidth(device: Device,
                      nbytes: int = BANDWIDTH_PROBE_BYTES,
                      chunk: int = BANDWIDTH_CHUNK,
                      start: int | None = None,
                      end: int | None = None) -> float:
    """Sustained sequential read bandwidth in bytes/second.

    Without an explicit range the probe streams from mid-device, which for
    a zoned disk lands in the middle zone — the representative figure
    lmbench would report for a whole-disk average (outer zones are faster,
    inner slower; see [Van97]).  Zone-aware filesystems pass per-zone
    ranges and get per-zone rates.
    """
    lo = start or 0
    hi = end if end is not None else device.capacity
    nbytes = min(nbytes, hi - lo)
    probe_start = (lo + (hi - lo - nbytes) // 2) & ~(PAGE_SIZE - 1)
    probe_start = max(lo, probe_start)
    total = 0.0
    done = 0
    durations = device.read_run(probe_start, nbytes // chunk, chunk)
    if durations is not None:
        # in order with ``+=``, as the loop adds: from Python 3.12 on,
        # ``sum()`` of floats rounds differently
        for duration in durations:
            total += duration
        done = len(durations) * chunk
    while done < nbytes:
        take = min(chunk, nbytes - done)
        total += device.read(probe_start + done, take)
        done += take
    device.reset_state()
    return nbytes / total if total > 0 else device.spec.bandwidth


def characterize(device: Device, start: int | None = None,
                 end: int | None = None) -> tuple[float, float]:
    """(latency, bandwidth) for one device (optionally one region)."""
    if isinstance(device, TapeDevice):
        return device.spec.latency, device.spec.bandwidth
    if isinstance(device, MemoryDevice):
        # lmbench lat_mem_rd / bcopy: the model is exact, one probe suffices
        return device.spec.latency, device.spec.bandwidth
    latency = measure_latency(device)
    bandwidth = measure_bandwidth(device, start=start, end=end)
    device.stats.reset()  # boot-time probing is not part of any experiment
    return latency, bandwidth


def characterize_levels(kernel: Kernel) -> dict[str, tuple[float, float]]:
    """Characterise memory plus every level of every mounted filesystem."""
    entries: dict[str, tuple[float, float]] = {
        "memory": characterize(kernel.memory),
    }
    for _, fs in kernel.mounts():
        for key, (device, start, end) in fs.characterization_jobs().items():
            if key not in entries:
                entries[key] = characterize(device, start=start, end=end)
        for key, row in fs.static_levels().items():
            entries.setdefault(key, row)
    return entries


def boot_fill(kernel: Kernel) -> dict[str, tuple[float, float]]:
    """The boot script: characterise and install via FSLEDS_FILL."""
    entries = characterize_levels(kernel)
    kernel.ioctl(-1, FSLEDS_FILL, entries)
    return entries
