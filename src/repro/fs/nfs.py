"""NFS-like remote filesystem.

The client sees a normal namespace, but every page fetch crosses the
network device and every metadata operation pays a round trip (NFSv2-era
clients revalidated attributes constantly; this is what makes ``find`` over
NFS expensive, one of the paper's motivating examples for pruning I/O).

``server_sleds=True`` enables the paper's distributed-systems proposal:
"We propose that SLEDs be the vocabulary of communication between clients
and servers as well as between applications and operating systems."  The
server then reports, per page, whether its own buffer cache holds the data
— a second, cheaper remote level (``nfs-warm``) between the client cache
and the server's disk.
"""

from __future__ import annotations

from repro.devices.network import SERVER_BLOCK, NfsDevice
from repro.fs.filesystem import FileSystem, PageEstimate
from repro.fs.inode import Allocator, Inode
from repro.sim.units import MSEC, PAGE_SIZE


class NfsLike(FileSystem):
    """A mounted NFS filesystem backed by an :class:`NfsDevice`."""

    def __init__(self, device: NfsDevice | None = None,
                 name: str = "nfs", server_sleds: bool = False) -> None:
        device = device or NfsDevice(name=f"{name}-server")
        super().__init__(name=name, device=device, read_only=False)
        self.server_sleds = server_sleds
        self._warm_estimate = PageEstimate(device_key=f"{name}-warm")
        self._alloc = Allocator(capacity=device.capacity)
        #: cumulative metadata round trips (every stat/lookup revalidation
        #: crosses the wire on an NFSv2-era client); telemetry exports this
        #: as the ``remote_metadata_ops`` gauge
        self.metadata_ops = 0

    def _allocator(self) -> Allocator:
        return self._alloc

    def _nfs(self) -> NfsDevice:
        assert isinstance(self.device, NfsDevice)
        return self.device

    def stat_cost(self) -> float:
        device = self._nfs()
        self.metadata_ops += 1
        return device.rtt + device.request_overhead

    def _extra_epoch(self) -> int:
        # server-cache membership changes flip pages between the warm and
        # cold remote levels; without server SLEDs estimates are static
        return self._nfs().cache_version if self.server_sleds else 0

    def page_estimate(self, inode: Inode, page_index: int) -> PageEstimate:
        if self.server_sleds:
            addr = inode.extent_map.addr_of(page_index)
            if self._nfs().server_cached(addr, PAGE_SIZE):
                return self._warm_estimate
        return self._device_estimate

    def span_estimates(self, inode: Inode, start_page: int,
                       npages: int) -> list[tuple[int, PageEstimate]]:
        """O(extents + server blocks): pages are judged warm or cold per
        64 KB server block, not one at a time."""
        if npages <= 0:
            return []
        cold = self._device_estimate
        if not self.server_sleds:
            return [(npages, cold)]
        device = self._nfs()
        warm = self._warm_estimate
        runs: list[tuple[int, PageEstimate]] = []

        def push(take: int, estimate: PageEstimate) -> None:
            if runs and runs[-1][1] == estimate:
                runs[-1] = (runs[-1][0] + take, estimate)
            else:
                runs.append((take, estimate))

        for _, piece_pages, addr in inode.extent_map.extents_in(
                start_page, npages):
            done = 0
            while done < piece_pages:
                cur = addr + done * PAGE_SIZE
                # pages of this piece sharing cur's server block
                block_end = (cur // SERVER_BLOCK + 1) * SERVER_BLOCK
                take = min(piece_pages - done,
                           max(1, (block_end - cur) // PAGE_SIZE))
                cached = device.server_cached(cur, PAGE_SIZE)
                push(take, warm if cached else cold)
                done += take
        return runs

    def static_levels(self) -> dict[str, tuple[float, float]]:
        if not self.server_sleds:
            return {}
        device = self._nfs()
        warm_latency = device.rtt + device.request_overhead + 0.5 * MSEC
        return {f"{self.name}-warm": (warm_latency, device.link_bandwidth)}
