"""Reference blame decomposition: a full scan of the dispatch history.

:class:`repro.obs.forensics.BlameEngine` bisects each device's dispatch
history for the entries that overlap a record's wait window.  This is
the loop it replaced: every entry of the ring is clipped to the window
and the empty overlaps are skipped.  The tests require identical blame
vectors, key for key and in order, and identical waterfall queue spans.
"""

from __future__ import annotations


def occupancy_full_scan(engine, record) -> list[tuple[str, float, float, str]]:
    """``(who, lo, hi, label)`` for every history entry that held the
    record's device during its elevator wait, oldest first."""
    submit, start = record.submit_time, record.start_time
    window = submit
    hold = engine._holds.get((record.fs, record.inode, record.page,
                              record.cluster, record.submit_time))
    if hold is not None:
        window = min(max(submit, hold.unplug_time), start)
    out = []
    if start > window:
        device = engine.device_of(record.fs)
        for disp in engine._histories.get(device, ()):
            lo = max(disp.start, window)
            hi = min(disp.finish, start)
            if hi <= lo:
                continue
            out.append((engine._queue_key(disp, record), lo, hi, disp.label))
    return out


def blame_full_scan(engine, record) -> dict[str, float]:
    """:meth:`BlameEngine.blame` over a full history scan."""
    parts: dict[str, float] = {}
    for name, seconds in record.components:
        parts[name] = parts.get(name, 0.0) + seconds
    submit, start = record.submit_time, record.start_time
    hold = engine._holds.get((record.fs, record.inode, record.page,
                              record.cluster, record.submit_time))
    if hold is not None:
        held = max(0.0, min(hold.unplug_time, start) - submit)
        if held > 0.0:
            parts["plug_hold"] = held
    for who, lo, hi, _ in occupancy_full_scan(engine, record):
        parts[who] = parts.get(who, 0.0) + (hi - lo)
    return engine._close(parts, record.latency)
