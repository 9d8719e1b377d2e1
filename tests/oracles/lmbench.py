"""Reference boot probes: one draw and one device read per probe.

:func:`repro.bench.lmbench.measure_latency` draws its random addresses
in one call of the generator, and
:func:`~repro.bench.lmbench.measure_bandwidth` prices the whole chunks
of its stream with one ``Device.read_run``.  These are the loops they
replaced: a scalar draw and a blocking ``read`` per latency probe, and
a blocking ``read`` per bandwidth chunk.  ``tests/test_boot_oracle.py``
boots twin machines, one through :func:`per_read_probes`, and requires
the same ``FSLEDS_FILL`` payload and the same state of every device.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from repro.bench import lmbench
from repro.sim.units import PAGE_SIZE

__all__ = ["measure_bandwidth", "measure_latency", "per_read_probes"]


def measure_latency(device, probes: int = lmbench.LATENCY_PROBES,
                    seed: int = 42, start: int | None = None,
                    end: int | None = None) -> float:
    rng = np.random.default_rng(seed)
    lo = start or 0
    hi = end if end is not None else device.capacity
    limit = max(lo + 1, hi - PAGE_SIZE)
    total = 0.0
    for _ in range(probes):
        addr = int(rng.integers(lo, limit)) & ~(PAGE_SIZE - 1)
        total += device.read(max(lo, addr), PAGE_SIZE)
    device.reset_state()
    mean = total / probes
    transfer = PAGE_SIZE / device.spec.bandwidth
    return max(0.0, mean - transfer)


def measure_bandwidth(device,
                      nbytes: int = lmbench.BANDWIDTH_PROBE_BYTES,
                      chunk: int = lmbench.BANDWIDTH_CHUNK,
                      start: int | None = None,
                      end: int | None = None) -> float:
    lo = start or 0
    hi = end if end is not None else device.capacity
    nbytes = min(nbytes, hi - lo)
    probe_start = (lo + (hi - lo - nbytes) // 2) & ~(PAGE_SIZE - 1)
    probe_start = max(lo, probe_start)
    total = 0.0
    done = 0
    while done < nbytes:
        take = min(chunk, nbytes - done)
        total += device.read(probe_start + done, take)
        done += take
    device.reset_state()
    return nbytes / total if total > 0 else device.spec.bandwidth


@contextmanager
def per_read_probes():
    """Characterise through the loops above inside the ``with`` block
    (``Machine.boot`` and ``characterize`` look both probes up in
    :mod:`repro.bench.lmbench` on every call)."""
    saved = lmbench.measure_latency, lmbench.measure_bandwidth
    lmbench.measure_latency = measure_latency
    lmbench.measure_bandwidth = measure_bandwidth
    try:
        yield
    finally:
        lmbench.measure_latency, lmbench.measure_bandwidth = saved
