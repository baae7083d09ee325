"""Analytical models: the fast half of the hybrid methodology.

The scalar models below import eagerly (they are the grid engine's
oracle).  The vectorized grid engine (``repro.models.grid``) is built
on NumPy, so its names are re-exported lazily via module
``__getattr__`` -- importing ``repro.models`` never pulls in NumPy.
"""

from repro.models.base import (
    FixedPointDiverged,
    LatencyBreakdown,
    md1_wait,
    mm1_wait,
    slot_wait,
    solve_time_per_instruction,
)
from repro.models.bus import BusModel
from repro.models.matching import matching_bus_clock_ns, ring_target_utilization
from repro.models.register_insertion import (
    AccessPoint,
    access_comparison,
    crossover_utilization,
    register_insertion_access_ps,
    slotted_access_ps,
)
from repro.models.ring_common import RingContention, compute_contention
from repro.models.ring_directory import DIRECTORY_SHARED_CLASSES, DirectoryRingModel
from repro.models.ring_linkedlist import LinkedListRingModel
from repro.models.ring_snooping import SNOOPING_SHARED_CLASSES, SnoopingRingModel
from repro.models.snoop_rate import (
    PAPER_TABLE3,
    TABLE3_BLOCK_SIZES,
    TABLE3_WIDTHS,
    snoop_interarrival_ns,
    snoop_rate_table,
)

__all__ = [
    "FixedPointDiverged",
    "LatencyBreakdown",
    "md1_wait",
    "mm1_wait",
    "slot_wait",
    "solve_time_per_instruction",
    "BusModel",
    "matching_bus_clock_ns",
    "ring_target_utilization",
    "AccessPoint",
    "access_comparison",
    "crossover_utilization",
    "register_insertion_access_ps",
    "slotted_access_ps",
    "RingContention",
    "compute_contention",
    "DIRECTORY_SHARED_CLASSES",
    "DirectoryRingModel",
    "LinkedListRingModel",
    "SNOOPING_SHARED_CLASSES",
    "SnoopingRingModel",
    "PAPER_TABLE3",
    "TABLE3_BLOCK_SIZES",
    "TABLE3_WIDTHS",
    "snoop_interarrival_ns",
    "snoop_rate_table",
    # Lazy re-exports from repro.models.grid (imported on first use,
    # not with this package -- see __getattr__ below).
    "ModelGrid",
    "GridSolution",
    "solve_grid",
    "GRID_STATS",
    "reset_grid_stats",
]

_GRID_EXPORTS = frozenset(
    (
        "ModelGrid",
        "GridSolution",
        "solve_grid",
        "GRID_STATS",
        "reset_grid_stats",
    )
)


def __getattr__(name: str):
    if name in _GRID_EXPORTS:
        from repro.models import grid

        return getattr(grid, name)
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}"
    )
