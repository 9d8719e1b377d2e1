"""Shared application plumbing: CPU cost model and chunked read loops.

Applications run against the simulated kernel, so their *processing* cost
must be charged explicitly.  The constants below model a late-90s CPU
(the paper's premise is that "CPU performance is improving faster than
storage device performance", so CPU costs are small but not zero — they
are what makes SLEDs-grep *slower* on small cached files, visible in the
paper's Figure 10).
"""

from __future__ import annotations

from repro.sim.units import MB

#: plain byte-scanning rate (wc-style counting)
SCAN_CPU_PER_BYTE = 1.0 / (25 * MB)
#: pattern-matching rate (grep-style search)
MATCH_CPU_PER_BYTE = 1.0 / (30 * MB)
#: extra per-byte copying cost in SLEDs mode ("We used read(), rather than
#: mmap(), which does not copy the data" — a small tax every SLEDs app pays)
SLEDS_EXTRA_CPU_PER_BYTE = 1.0 / (160 * MB)
#: record-management cost, charged only by record-oriented apps like grep
#: ("the increase in execution time for small files is all CPU time ...
#: due to the additional complexity of record management with SLEDs")
RECORD_CPU_PER_BYTE = 1.0 / (55 * MB)
#: arithmetic-heavy per-element cost for the LHEASOFT tools
BINNING_CPU_PER_ELEMENT = 30.0e-9

DEFAULT_BUFSIZE = 64 * 1024


def read_linear(kernel, fd: int, bufsize: int = DEFAULT_BUFSIZE):
    """Yield (offset, data) chunks of a file front to back."""
    offset = 0
    while True:
        data = kernel.read(fd, bufsize)
        if not data:
            return
        yield offset, data
        offset += len(data)


def read_sleds_order(kernel, fd: int, bufsize: int = DEFAULT_BUFSIZE,
                     record_mode: bool = False, separator: bytes = b"\n",
                     order: str = "sleds", refresh_every: int = 0,
                     via_mmap: bool = False):
    """Yield (offset, data) chunks in SLEDs pick order.

    This is the paper's Figure 5 application loop: init, repeatedly ask
    the library where to read, lseek + read there, finish.
    ``via_mmap=True`` delivers chunks through a memory mapping instead of
    lseek+read — the paper's proposed "mmap-friendly SLEDs library",
    which skips the per-byte copy (callers should also drop their
    :data:`SLEDS_EXTRA_CPU_PER_BYTE` charge in this mode).
    """
    from repro.core.pick import (
        sleds_pick_finish,
        sleds_pick_init,
        sleds_pick_next_read,
    )

    region = kernel.mmap(fd) if via_mmap else None
    sleds_pick_init(kernel, fd, bufsize, record_mode=record_mode,
                    separator=separator, order=order,
                    refresh_every=refresh_every)
    try:
        while True:
            advice = sleds_pick_next_read(kernel, fd)
            if advice is None:
                return
            offset, nbytes = advice
            if region is not None:
                data = region.read(offset, nbytes)
            else:
                kernel.lseek(fd, offset)
                data = kernel.read(fd, nbytes)
            yield offset, data
    finally:
        sleds_pick_finish(kernel, fd)
