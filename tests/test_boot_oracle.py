"""Property test: boot's probes against the per-read probes.

``Machine.boot`` characterises every mounted level with
:mod:`repro.bench.lmbench` and installs the result with ``FSLEDS_FILL``.
The latency probe draws its random addresses in one call of the
generator, and the bandwidth probe prices the whole 64 KiB chunks of its
stream with one ``Device.read_run``, reading chunk by chunk only where
the device declines the run.  ``tests/oracles/lmbench.py`` keeps the
loops they replaced: a scalar draw and a ``read`` per probe.

Twin machines boot, one through the oracle, and must agree on the
``FSLEDS_FILL`` payload (keys, order and values) and on every device
after boot, NFS server disks included: stats, component totals, busy
horizon, head position (and a tape's position or an NFS server's cache)
and the next rng draw.  The machines are the paper's three testbeds, a
zone-aware ext2 mount (one probe range per zone) and an NFS server with
a cache, whose device declines ``read_run``.

The one-call draw relies on numpy giving the same int64 sequence as one
scalar draw per probe; :func:`test_probe_draws_match_scalar_draws` pins
that over every range boot draws from, so a numpy that breaks it fails
here instead of silently moving the sleds table.  Each probe's seek
draws its rotation, re-sync or server delay as ``x * rng.random()``
rather than ``rng.uniform(0.0, x)``;
:func:`test_delay_draws_match_uniform_draws` pins that the two agree.
"""

from __future__ import annotations

import functools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.lmbench import LATENCY_PROBES
from repro.devices.cdrom import CdromDevice
from repro.devices.disk import DiskDevice
from repro.devices.memory import MemoryDevice
from repro.devices.network import NfsDevice
from repro.devices.tape import TapeDevice
from repro.fs.filesystem import Ext2Like
from repro.fs.nfs import NfsLike
from repro.kernel.kernel import Kernel
from repro.machine import Machine
from repro.sim.rng import RngStreams
from repro.sim.units import GB, MB, PAGE_SIZE

from tests.oracles.devices import devices_of
from tests.oracles.lmbench import per_read_probes


def _mounted(seed: int, path: str, make_fs) -> Machine:
    """A small machine with a root disk and one more mount."""
    rng = RngStreams(seed)
    machine = Machine(kernel=Kernel(cache_pages=64, rng=rng))
    machine.mount("/", Ext2Like(
        DiskDevice(name="root-disk", capacity=2 * GB,
                   rng=rng.stream("root-disk")),
        name="rootfs"))
    machine.mount(path, make_fs(rng))
    return machine


MACHINES = {
    "unix_utilities": lambda seed: Machine.unix_utilities(
        cache_pages=64, seed=seed),
    "lheasoft": lambda seed: Machine.lheasoft(cache_pages=64, seed=seed),
    "hsm": lambda seed: Machine.hsm(cache_pages=64, stage_pages=64,
                                    seed=seed),
    "zone-aware ext2": lambda seed: _mounted(
        seed, "/mnt/ext2", lambda rng: Ext2Like(
            DiskDevice(name="ext2-disk", rng=rng.stream("ext2-disk")),
            name="ext2", zone_aware=True)),
    # a 1 MiB server cache: the 8 MiB bandwidth probe evicts through it
    "nfs server cache": lambda seed: _mounted(
        seed, "/mnt/nfs", lambda rng: NfsLike(
            NfsDevice(name="nfs-server", server_cache_bytes=MB,
                      rng=rng.stream("nfs")),
            name="nfs")),
}


def _devices(machine: Machine) -> list:
    """Memory and every device each filesystem reaches, once each."""
    found = {}
    roots = [machine.kernel.memory]
    for fs in machine.filesystems.values():
        roots.extend(fs.observable_devices())
    for root in roots:
        for device in devices_of(root):
            found.setdefault(id(device), device)
    return list(found.values())


def _state(device) -> tuple:
    """What boot leaves on one device; the rng's next draw last, since
    it consumes it."""
    loaded = getattr(device, "loaded", None)
    server_cache = getattr(device, "_server_cache", None)
    return (device.name, device.stats, dict(device.component_totals),
            device.busy_until, device.head_pos,
            loaded.position if loaded is not None else None,
            list(server_cache) if server_cache is not None else None,
            device.rng.random())


@settings(deadline=None)
@given(name=st.sampled_from(sorted(MACHINES)),
       seed=st.integers(0, 2**32 - 1))
def test_boot_matches_per_read_probes(name, seed):
    machine = MACHINES[name](seed)
    twin = MACHINES[name](seed)
    entries = machine.boot()
    with per_read_probes():
        expected = twin.boot()
    assert list(entries.items()) == list(expected.items()), name
    assert ([_state(device) for device in _devices(machine)]
            == [_state(device) for device in _devices(twin)]), name


def _probe_limits() -> set[int]:
    """The exclusive upper bound of every latency probe's draw at boot:
    ``capacity - PAGE_SIZE`` of each probed device."""
    limits = set()
    for make in MACHINES.values():
        for fs in make(0).filesystems.values():
            for device, _, _ in fs.characterization_jobs().values():
                if not isinstance(device, (TapeDevice, MemoryDevice)):
                    limits.add(max(1, device.capacity - PAGE_SIZE))
    return limits


def test_probe_draws_match_scalar_draws():
    """``Generator.integers(0, limit, size=n)`` gives the same values as
    ``n`` scalar draws and leaves the generator in the same state, for
    every probe range (below 2**32 numpy draws 32-bit words, above it
    64-bit ones: both kinds occur)."""
    limits = _probe_limits()
    assert min(limits) < 2**32 < max(limits)
    for limit in sorted(limits):
        for seed in (42, 0, 7):
            scalar = np.random.default_rng(seed)
            vector = np.random.default_rng(seed)
            draws = [int(scalar.integers(0, limit))
                     for _ in range(LATENCY_PROBES)]
            assert vector.integers(0, limit,
                                   size=LATENCY_PROBES).tolist() == draws
            assert (vector.bit_generator.state
                    == scalar.bit_generator.state), limit


@functools.cache
def _delay_scales() -> tuple[float, ...]:
    """The upper bound of every uniform delay a device draws: each
    disk's rotation period, each NFS device's server-cache penalty and
    the CD-ROM's re-sync jitter."""
    scales = {CdromDevice.resync_jitter}
    for make in MACHINES.values():
        for device in _devices(make(0)):
            if isinstance(device, DiskDevice):
                scales.add(device.rotation_period)
            elif isinstance(device, NfsDevice):
                scales.add(device.server_cache_penalty)
    return tuple(sorted(scales))


@settings(deadline=None)
@given(seed=st.integers(0, 2**64 - 1))
def test_delay_draws_match_uniform_draws(seed):
    """The devices draw a delay up to ``x`` as ``x * rng.random()``; numpy
    computes ``uniform(0.0, x)`` as ``0.0 + x * random()``, so both give
    the same value draw for draw and leave the generator in the same
    state (the next draw agrees), for every ``x`` the devices use."""
    scales = _delay_scales()
    assert len(scales) >= 3
    for scale in scales:
        product = np.random.default_rng(seed)
        uniform = np.random.default_rng(seed)
        for _ in range(50):
            assert (scale * product.random()
                    == float(uniform.uniform(0.0, scale))), scale
        assert product.random() == uniform.random(), scale
