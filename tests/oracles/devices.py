"""Reference blocking device requests: submit and drain.

:meth:`repro.devices.base.Device.read` and :meth:`~repro.devices.base.Device.write`
check, price and account one request in the step
:meth:`~repro.devices.base.Device.submit` also takes, then move the busy
horizon and call the observer themselves, and return the duration
without building a :class:`~repro.devices.base.Completion`; a one-span
:meth:`~repro.devices.base.Device.read_spans` is a ``read``.  These are
the wrappers they replaced: submit the request in the never-queueing
regime (no ``now``) and keep the completion's duration.  The tests
require the same durations, errors, stats, component totals, busy
horizon, position, rng draws and observer calls from both.
"""

from __future__ import annotations

from functools import partial

__all__ = ["devices_of", "read", "read_spans", "use_submit_and_drain",
           "write"]


def read(device, addr: int, nbytes: int) -> float:
    return device.submit(addr, nbytes, is_write=False).duration


def write(device, addr: int, nbytes: int) -> float:
    return device.submit(addr, nbytes, is_write=True).duration


def read_spans(device, spans) -> float:
    return device.submit_spans(spans, is_write=False).duration


def devices_of(device) -> list:
    """``device`` and every device it services requests through: RAID
    members and an NFS server's disk, recursively."""
    inner = list(getattr(device, "members", ()))
    server_disk = getattr(device, "server_disk", None)
    if server_disk is not None:
        inner.append(server_disk)
    return [device] + [each for member in inner
                       for each in devices_of(member)]


def use_submit_and_drain(device):
    """Route the blocking ``read``, ``write`` and ``read_spans`` of
    ``device`` and of every device it reads through (:func:`devices_of`)
    through the wrappers above; returns ``device``."""
    for each in devices_of(device):
        each.read = partial(read, each)
        each.write = partial(write, each)
        each.read_spans = partial(read_spans, each)
    return device
