"""The paper's primary contribution: SLEDs structures, kernel-side builder,
and the user-space pick/delivery library."""

from repro.core.builder import build_sled_vector
from repro.core.delivery import (
    SLEDS_BEST,
    SLEDS_LINEAR,
    estimate_delivery_time,
    estimate_range_delivery,
    sleds_total_delivery_time,
    sleds_total_delivery_time_path,
)
from repro.core.ffsleds import (
    FfSledsSession,
    ff_active_session,
    ffsleds_pick_finish,
    ffsleds_pick_init,
    ffsleds_pick_next_read,
)
from repro.core.pick import (
    SledsPickSession,
    active_session,
    sleds_pick_finish,
    sleds_pick_init,
    sleds_pick_next_read,
)
from repro.core.records import adjust_to_records
from repro.core.sled import Sled, SledVector
from repro.core.sled_table import LevelCharacteristics, SledTable, SledTableError

__all__ = [
    "Sled",
    "SledVector",
    "SledTable",
    "SledTableError",
    "LevelCharacteristics",
    "build_sled_vector",
    "adjust_to_records",
    "SledsPickSession",
    "sleds_pick_init",
    "sleds_pick_next_read",
    "sleds_pick_finish",
    "active_session",
    "FfSledsSession",
    "ffsleds_pick_init",
    "ffsleds_pick_next_read",
    "ffsleds_pick_finish",
    "ff_active_session",
    "SLEDS_LINEAR",
    "SLEDS_BEST",
    "estimate_delivery_time",
    "estimate_range_delivery",
    "sleds_total_delivery_time",
    "sleds_total_delivery_time_path",
]
