"""Block partitioning and scheduling — Section 2 of the paper.

The ``M x N x K`` computation space is cut into a grid of uniform CB blocks
(:mod:`repro.schedule.space`), which are then ordered for execution. The
paper's schedule (Algorithm 2, :mod:`repro.schedule.kfirst`) traverses the
reduction dimension K first (reusing the partial-result surface in place),
flipping traversal direction at the end of every run so that each turn
shares an input surface with the previous block. Alternative orders and a
non-flipping baseline live in :mod:`repro.schedule.variants`; the external
IO each order implies is counted exactly by :mod:`repro.schedule.reuse`.
"""

from repro.schedule.space import (
    BlockCoord,
    BlockGrid,
    ComputationSpace,
    DegenerateSpace,
)
from repro.schedule.kfirst import OrderArrays, kfirst_order_arrays, kfirst_schedule
from repro.schedule.variants import (
    ORDER_ARRAY_BUILDERS,
    SCHEDULE_BUILDERS,
    build_order_arrays,
    build_schedule,
    mfirst_order_arrays,
    mfirst_schedule,
    naive_order_arrays,
    naive_schedule,
    nfirst_order_arrays,
    nfirst_schedule,
)
from repro.schedule.reuse import (
    ReuseReport,
    SurfaceResidency,
    analyze_reuse,
    occurrence_index,
    surface_lru_replay,
    validate_schedule,
)

__all__ = [
    "BlockCoord",
    "BlockGrid",
    "ComputationSpace",
    "DegenerateSpace",
    "OrderArrays",
    "kfirst_order_arrays",
    "kfirst_schedule",
    "ORDER_ARRAY_BUILDERS",
    "SCHEDULE_BUILDERS",
    "build_order_arrays",
    "build_schedule",
    "mfirst_order_arrays",
    "mfirst_schedule",
    "naive_order_arrays",
    "naive_schedule",
    "nfirst_order_arrays",
    "nfirst_schedule",
    "ReuseReport",
    "SurfaceResidency",
    "analyze_reuse",
    "occurrence_index",
    "surface_lru_replay",
    "validate_schedule",
]
