"""Reference queue-aware SLED inputs: every queue looked up per call.

:class:`repro.sim.engine.IoEngine` binds each filesystem's levels to
their device queues once, as ``(device key, device, queue)`` in key
order, and reads ``FSLEDS_GET``'s congestion stamp and queue delays from
that binding.  These are the per-call forms it replaced: rebuild
``fs.device_table()``, look up (or create) each device's queue, and sort
the table for the stamp.  Plugs are looked up per call in both, since
they appear lazily.  ``tests/test_engine_queue_binding.py`` requires the
same stamps, delays and queues from both under queue and plug churn.
"""

from __future__ import annotations

from functools import partial

__all__ = ["congestion_stamp", "queue_delays", "use_per_call_queues"]


def queue_delays(engine, fs, now: float,
                 tenant: str | None = None) -> dict[str, float]:
    delays: dict[str, float] = {}
    for key, device in fs.device_table().items():
        delay = engine.queue_for(device).estimated_delay(now, tenant)
        plug = engine._plugs.get(id(device))
        if plug is not None:
            delay += plug.estimated_delay()
        delay = max(delay, device.queue_delay(now))
        if delay > 0.0:
            delays[key] = delay
    return delays


def congestion_stamp(engine, fs) -> tuple:
    return tuple(engine.queue_for(device).congestion_epoch
                 for _, device in sorted(fs.device_table().items()))


def use_per_call_queues(engine):
    """Route ``engine``'s ``queue_delays`` and ``congestion_stamp``
    through the per-call forms above; returns ``engine``."""
    engine.queue_delays = partial(queue_delays, engine)
    engine.congestion_stamp = partial(congestion_stamp, engine)
    return engine
