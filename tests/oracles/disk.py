"""Reference zone lookup: a scan of the whole zone table.

:meth:`repro.devices.disk.DiskDevice.zone_index` finds an address's zone
with one ``bisect_right`` over the zones' start fractions, which the
constructor requires to rise strictly from 0.0.  This is the loop it
replaced: the last zone whose start fraction is at most the address's
fraction of the capacity.  ``tests/test_devices_properties.py`` requires
the same index from both over random zone tables.
"""

from __future__ import annotations

__all__ = ["zone_index"]


def zone_index(disk, addr: int) -> int:
    frac = addr / disk.capacity
    index = 0
    for i, zone in enumerate(disk.zones):
        if frac >= zone.start_frac:
            index = i
    return index
