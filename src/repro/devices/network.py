"""NFS-server model: network round trips in front of a remote disk.

The paper measured its NFS mount at 270 ms latency and 1.0 MB/s bandwidth
(Table 2) — a late-90s 10 Mb/s-Ethernet-class link to a loaded departmental
server.  The dominant costs are:

* a per-request network round trip plus server request processing;
* the server's own disk when the request misses the server's cache (this is
  what makes the *latency* figure so much larger than a bare LAN RTT);
* the link bandwidth, which caps sequential throughput ~ 1 MB/s.

The model keeps a notion of server-side sequential read-ahead: consecutive
client offsets hit the server's read-ahead buffer and skip the server disk
penalty, paying only the per-request RTT and wire time.  Random accesses pay
RTT + server disk seek.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.devices.base import Device, DeviceSpec
from repro.devices.disk import DiskDevice
from repro.sim.units import GB, KB, MB, MSEC

#: granularity of the server's buffer cache
SERVER_BLOCK = 64 * KB


class NfsDevice(Device):
    """A remote file store reached over a network link.

    Composes a :class:`~repro.devices.disk.DiskDevice` (the server's disk)
    with link parameters.  The device address space is the server disk's.
    """

    time_category = "nfs"

    #: a merged request is one RPC: the wire round-trip and per-request
    #: protocol overhead are charged once, not per scatter segment
    _merge_overhead_components = ("network",)

    def __init__(self, name: str = "nfs", capacity: int = 9 * GB,
                 rtt: float = 2.5 * MSEC,
                 request_overhead: float = 1.5 * MSEC,
                 link_bandwidth: float = 1.05 * MB,
                 server_disk: DiskDevice | None = None,
                 server_cache_penalty: float = 450.0 * MSEC,
                 server_cache_bytes: int = 0,
                 rng: np.random.Generator | None = None) -> None:
        if rtt < 0 or request_overhead < 0 or server_cache_penalty < 0:
            raise ValueError("NFS timing parameters must be non-negative")
        if link_bandwidth <= 0:
            raise ValueError(f"link bandwidth must be positive: {link_bandwidth}")
        if server_cache_bytes < 0:
            raise ValueError(
                f"server cache size must be >= 0: {server_cache_bytes}")
        self.rtt = rtt
        self.request_overhead = request_overhead
        self.link_bandwidth = link_bandwidth
        self.server_cache_penalty = server_cache_penalty
        #: LRU of SERVER_BLOCK-sized block indices held by the server's
        #: buffer cache (0 disables the model, as in the base paper setup)
        self.server_cache_blocks = server_cache_bytes // SERVER_BLOCK
        self._server_cache: OrderedDict[int, None] = OrderedDict()
        #: bumps whenever server-cache *membership* changes (insert or
        #: eviction; recency moves don't alter what a client would be
        #: told).  Folded into NfsLike.state_epoch for SLED-cache stamps.
        self.cache_version = 0
        self.server_disk = server_disk or DiskDevice(
            name=f"{name}-server-disk", capacity=capacity, rng=rng)
        nominal_latency = (rtt + request_overhead + server_cache_penalty / 2
                           + self.server_disk.spec.latency)
        spec = DeviceSpec(name=name, kind="nfs", latency=nominal_latency,
                          bandwidth=link_bandwidth)
        super().__init__(spec, capacity=capacity, rng=rng)
        #: where the server's read-ahead continues; the block layer's
        #: elevator still sees address 0 (no head to sort requests by)
        self.head_pos = 0

    # -- the server's buffer cache ---------------------------------------

    def _blocks_of(self, addr: int, nbytes: int) -> range:
        first = addr // SERVER_BLOCK
        last = (addr + max(1, nbytes) - 1) // SERVER_BLOCK
        return range(first, last + 1)

    def server_cached(self, addr: int, nbytes: int) -> bool:
        """Whether the server's cache holds all of ``[addr, addr+nbytes)``.

        This is the state a SLEDs-speaking server would report to clients
        — the paper's proposal that SLEDs "be the vocabulary of
        communication between clients and servers".
        """
        if self.server_cache_blocks == 0:
            return False
        return all(b in self._server_cache for b in
                   self._blocks_of(addr, nbytes))

    def _server_cache_insert(self, addr: int, nbytes: int) -> None:
        if self.server_cache_blocks == 0:
            return
        for block in self._blocks_of(addr, nbytes):
            if block in self._server_cache:
                self._server_cache.move_to_end(block)
            else:
                self._server_cache[block] = None
                self.cache_version += 1
                while len(self._server_cache) > self.server_cache_blocks:
                    self._server_cache.popitem(last=False)
                    self.cache_version += 1

    def warm_server_cache(self, addr: int, nbytes: int) -> None:
        """World-building helper: another client's accesses left this
        range in the server's cache."""
        self._server_cache_insert(addr, nbytes)

    def _caches_reads(self) -> bool:
        return self.server_cache_blocks > 0

    def _continuation(self, addr: int, nbytes: int):
        # Server read-ahead already staged the data; disk time hidden.
        network = self.rtt + self.request_overhead
        wire = nbytes / self.link_bandwidth
        return (network + wire,
                self._components(network=network, transfer=wire),
                self.capacity)

    def _access_time(self, addr: int, nbytes: int, is_write: bool) -> float:
        if addr == self.head_pos:
            duration, self._last_components, _ = self._continuation(
                addr, nbytes)
        else:
            if is_write:
                server_time = self.server_disk.write(addr, nbytes)
            elif self.server_cached(addr, nbytes):
                # Server cache hit: no disk, no queueing penalty — just
                # the server's memory-copy time (negligible next to the
                # wire).
                server_time = 0.5 * MSEC
            else:
                # Random read: server cache cold for this range; charge
                # the server disk plus a queueing penalty for a busy
                # server.
                server_time = self.server_disk.read(addr, nbytes)
                server_time += self.server_cache_penalty * self.rng.random()
                self.stats.seeks += 1
            network = self.rtt + self.request_overhead
            wire = nbytes / self.link_bandwidth
            duration = network + (server_time + wire)
            self._last_components = self._components(
                network=network, server=server_time, transfer=wire)
        if not is_write:
            self._server_cache_insert(addr, nbytes)
        self.head_pos = addr + nbytes
        return duration

    def reset_state(self) -> None:
        super().reset_state()
        self.head_pos = 0
        self.server_disk.reset_state()
