"""Reference fair-elevator dispatch: one rescan of ``pending`` per visit.

:meth:`repro.block.scheduler.FairScheduler.take_indexed` runs the DRR
ring over the pending requests bucketed by tenant, and a
:class:`~repro.block.scheduler.DeviceQueue` keeps those buckets up to
date.  This is the multi-pass selection it replaced: a set of tenant
keys, a membership pass, and a fresh filtered list per ring visit, over
a queue that rescans its whole pending list.  The tests require the
same request sequence, ring, deficits, served bytes and delay
estimates.
"""

from __future__ import annotations

from repro.block.scheduler import DeviceQueue, FairScheduler, IoRequest

__all__ = ["MultiPassFairScheduler", "ScanningDeviceQueue"]


class MultiPassFairScheduler(FairScheduler):
    """A :class:`FairScheduler` that rescans ``pending`` per ring visit."""

    def take_next(self, pending: list[IoRequest],
                  head_pos: int) -> IoRequest:
        tenants = {r.tenant for r in pending}
        if len(tenants) == 1:
            if self._ring:
                self._ring.clear()
                self._deficits.clear()
                self._cursor = 0
            request = self.inner.take_next(pending, head_pos)
            key = request.tenant
            if key is not None:
                self.served_bytes[key] = (
                    self.served_bytes.get(key, 0) + request.nbytes)
            return request
        for request in pending:
            key = request.tenant
            if key not in self._deficits:
                self._deficits[key] = 0.0
                self._ring.append(key)
        while True:
            if self._cursor >= len(self._ring):
                self._cursor = 0
            tenant = self._ring[self._cursor]
            mine = [r for r in pending if r.tenant == tenant]
            if not mine:
                self._ring.pop(self._cursor)
                del self._deficits[tenant]
                continue
            candidate = self.inner.take_next(mine, head_pos)
            if self._deficits[tenant] >= candidate.nbytes:
                self._deficits[tenant] -= candidate.nbytes
                pending.remove(candidate)
                if tenant is not None:
                    self.served_bytes[tenant] = (
                        self.served_bytes.get(tenant, 0) + candidate.nbytes)
                return candidate
            self._deficits[tenant] += self.quantum_bytes
            self._cursor += 1


class ScanningDeviceQueue(DeviceQueue):
    """A :class:`DeviceQueue` without the per-tenant index: it selects
    through the scheduler's list-based ``take_next`` over its whole
    pending list and estimates per-tenant delay by scanning that list."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._by_tenant = None

    def estimated_delay(self, now: float, tenant: str | None = None) -> float:
        delay = max(0.0, self._inflight_finish - now) if self._busy else 0.0
        spec = self.device.spec
        if tenant is None or not self.scheduler.tenant_aware:
            for request in self._pending:
                delay += spec.latency + request.nbytes / spec.bandwidth
            return delay
        quantum = getattr(self.scheduler, "quantum_bytes", 256 * 1024)
        others: set[str | None] = set()
        for request in self._pending:
            if request.tenant == tenant:
                delay += spec.latency + request.nbytes / spec.bandwidth
            else:
                others.add(request.tenant)
        delay += len(others) * (spec.latency + quantum / spec.bandwidth)
        return delay
