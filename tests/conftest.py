"""Shared fixtures: small, fast machines with deterministic seeds."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.machine import Machine
from repro.sim.units import MB

#: a larger example budget for the property tests that set no
#: ``max_examples`` of their own: ``pytest --hypothesis-profile=oracle``.
#: It derives from the ``default`` profile, so the examples stay random
#: (hypothesis's own ``ci`` profile, active when the CI environment
#: variable is set, derandomizes them).
settings.register_profile("oracle", parent=settings.get_profile("default"),
                          max_examples=1000, print_blob=True)


@pytest.fixture
def unix_machine():
    """Unix-utility profile with a small (1 MB) cache, booted."""
    machine = Machine.unix_utilities(cache_pages=256, seed=123)
    machine.boot()
    return machine


@pytest.fixture
def lhea_machine():
    """LHEASOFT profile with a small cache, booted."""
    machine = Machine.lheasoft(cache_pages=256, seed=124)
    machine.boot()
    return machine


@pytest.fixture
def hsm_machine():
    """HSM profile: tape library + staging disk, booted."""
    machine = Machine.hsm(cache_pages=256, stage_pages=512, seed=125)
    machine.boot()
    return machine


@pytest.fixture
def kernel(unix_machine):
    return unix_machine.kernel


@pytest.fixture
def ext2_file(unix_machine):
    """A 512 KB text file on ext2; returns (machine, path, size)."""
    size = MB // 2
    unix_machine.ext2.create_text_file("data/file.txt", size, seed=7)
    return unix_machine, "/mnt/ext2/data/file.txt", size


@pytest.fixture
def rng():
    return np.random.default_rng(42)
