"""Reference fair-elevator dispatch: one rescan of ``pending`` per visit.

:meth:`repro.block.scheduler.FairScheduler.take_next` buckets the
pending requests by tenant in one pass and runs the DRR ring over the
buckets.  This is the multi-pass selection it replaced: a set of tenant
keys, a membership pass, and a fresh filtered list per ring visit.  The
tests require the same request sequence, ring, deficits and served
bytes.
"""

from __future__ import annotations

from repro.block.scheduler import _NO_TENANT, FairScheduler, IoRequest

__all__ = ["MultiPassFairScheduler"]


class MultiPassFairScheduler(FairScheduler):
    """A :class:`FairScheduler` that rescans ``pending`` per ring visit."""

    def take_next(self, pending: list[IoRequest],
                  head_pos: int) -> IoRequest:
        tenants = {self._tenant_key(r) for r in pending}
        if len(tenants) == 1:
            if self._ring:
                self._ring.clear()
                self._deficits.clear()
                self._cursor = 0
            request = self.inner.take_next(pending, head_pos)
            key = self._tenant_key(request)
            if key != _NO_TENANT:
                self.served_bytes[key] = (
                    self.served_bytes.get(key, 0) + request.nbytes)
            return request
        for request in pending:
            key = self._tenant_key(request)
            if key not in self._deficits:
                self._deficits[key] = 0.0
                self._ring.append(key)
        while True:
            if self._cursor >= len(self._ring):
                self._cursor = 0
            tenant = self._ring[self._cursor]
            mine = [r for r in pending if self._tenant_key(r) == tenant]
            if not mine:
                self._ring.pop(self._cursor)
                del self._deficits[tenant]
                continue
            candidate = self.inner.take_next(mine, head_pos)
            if self._deficits[tenant] >= candidate.nbytes:
                self._deficits[tenant] -= candidate.nbytes
                pending.remove(candidate)
                if tenant != _NO_TENANT:
                    self.served_bytes[tenant] = (
                        self.served_bytes.get(tenant, 0) + candidate.nbytes)
                return candidate
            self._deficits[tenant] += self.quantum_bytes
            self._cursor += 1
