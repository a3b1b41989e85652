"""Roofline pricing of a single scheduled block.

One *model cycle* is one register-tile multiply per core (see
:mod:`repro.machines.spec`). A block that needs ``tile_cycles`` cycles of
compute, ``ext_bytes`` of DRAM traffic and ``int_elements`` of logical
LLC-to-core traffic completes in::

    max(compute_time, external_io_time, internal_io_time)

because the engines stream IO concurrently with computation (Section 2.1:
"the IO time for the three surfaces will match the computation time ...
allowing IO to overlap computation"). The returned breakdown records which
resource bound the block — the aggregate tallies reproduce the paper's
bottleneck narratives (GOTO external-bound on ARM, CAKE internal-bound at
high core counts, etc.).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from repro.machines.spec import MachineSpec
from repro.util import require_nonnegative, require_positive

Bound = Literal["compute", "external", "internal"]

#: Bound names indexed by the integer codes :func:`block_times_batch` emits.
BOUND_NAMES: tuple[Bound, Bound, Bound] = ("compute", "external", "internal")


def _dominant_bound(
    compute_seconds: float, external_seconds: float, internal_seconds: float
) -> Bound:
    """Which resource dominates a time breakdown (block or aggregate).

    Tie priority matches :func:`block_time`: compute wins over external
    wins over internal.
    """
    top = max(compute_seconds, external_seconds, internal_seconds)
    if top == compute_seconds:
        return "compute"
    if top == external_seconds:
        return "external"
    return "internal"


@dataclass(frozen=True, slots=True)
class BlockTime:
    """Priced execution of one block (or a sum of blocks).

    For a sum, ``seconds`` is the accumulated per-block wall time (each
    block pays its own max) while ``bound`` names the resource whose
    *summed* demand dominates the aggregate — the argmax over the
    accumulated per-resource seconds, not the bound of whichever single
    block happened to be largest.
    """

    seconds: float
    compute_seconds: float
    external_seconds: float
    internal_seconds: float
    bound: Bound

    def __add__(self, other: "BlockTime") -> "BlockTime":
        compute_s = self.compute_seconds + other.compute_seconds
        ext_s = self.external_seconds + other.external_seconds
        int_s = self.internal_seconds + other.internal_seconds
        return BlockTime(
            seconds=self.seconds + other.seconds,
            compute_seconds=compute_s,
            external_seconds=ext_s,
            internal_seconds=int_s,
            bound=_dominant_bound(compute_s, ext_s, int_s),
        )


ZERO_TIME = BlockTime(0.0, 0.0, 0.0, 0.0, "compute")


def block_time(
    machine: MachineSpec,
    *,
    active_cores: int,
    tile_cycles: float,
    kc: int,
    ext_bytes: float,
    int_elements: float,
) -> BlockTime:
    """Price one block on ``machine``.

    Parameters
    ----------
    active_cores:
        Cores participating in the block (sets internal-bandwidth supply).
    tile_cycles:
        Model cycles of the critical-path core (the most-loaded one), in
        units of depth-``kc`` tile multiplies.
    kc:
        Nominal tile depth, fixing the cycle-to-seconds conversion.
    ext_bytes:
        Counted DRAM operand traffic attributable to the block (fetches
        plus write-backs); scaled by the machine's
        ``external_traffic_factor`` to physical traffic.
    int_elements:
        Logical operand elements moved between LLC and cores; scaled by
        the machine's ``internal_traffic_factor`` to physical traffic.
    """
    require_positive("active_cores", active_cores)
    require_nonnegative("tile_cycles", tile_cycles)
    require_positive("kc", kc)
    require_nonnegative("ext_bytes", ext_bytes)
    require_nonnegative("int_elements", int_elements)

    compute_s = tile_cycles / machine.tile_ops_per_second(kc)
    ext_s = ext_bytes * machine.external_traffic_factor / machine.dram_bytes_per_second
    int_bytes = int_elements * machine.element_bytes * machine.internal_traffic_factor
    int_s = int_bytes / machine.internal_bytes_per_second(active_cores)

    seconds = max(compute_s, ext_s, int_s)
    if seconds == compute_s:
        bound: Bound = "compute"
    elif seconds == ext_s:
        bound = "external"
    else:
        bound = "internal"
    return BlockTime(
        seconds=seconds,
        compute_seconds=compute_s,
        external_seconds=ext_s,
        internal_seconds=int_s,
        bound=bound,
    )


def sequential_sum(values: np.ndarray) -> float:
    """Left-to-right float sum: bit for bit the scalar walk's ``+=`` chain.

    ``np.sum`` adds pairwise, which differs from a running sum at the ulp
    level. An accumulate adds left to right, the same IEEE additions as
    ``total += value`` from ``total = 0.0``; the trailing ``+ 0.0`` gives
    that chain's ``0.0`` where every value is ``-0.0``.
    """
    if not len(values):
        return 0.0
    return float(np.cumsum(values)[-1]) + 0.0


@dataclass(frozen=True, slots=True)
class BlockTimesBatch:
    """Per-block roofline pricing of a whole schedule, as arrays.

    Element ``i`` of every array is exactly what :func:`block_time`
    returns for block ``i`` — same IEEE operations, applied elementwise —
    so per-block seconds and bound codes are bit-identical to the scalar
    walk's. ``bounds`` holds integer codes indexing :data:`BOUND_NAMES`.
    """

    seconds: np.ndarray
    compute_seconds: np.ndarray
    external_seconds: np.ndarray
    internal_seconds: np.ndarray
    bounds: np.ndarray

    def __len__(self) -> int:
        return len(self.seconds)

    def bound_tallies(self) -> dict[str, int]:
        """How many blocks each resource bounded (Fig. 7-style histogram)."""
        counts = np.bincount(self.bounds, minlength=len(BOUND_NAMES))
        return {name: int(counts[code]) for code, name in enumerate(BOUND_NAMES)}

    def total(self) -> BlockTime:
        """The aggregate :class:`BlockTime` of the whole schedule.

        Float components are accumulated *sequentially in schedule
        order* — the same additions, in the same order, as the scalar
        walk's ``total = total + block_time(...)`` chain — so the result
        is bit-identical to it, not merely close.
        """
        seconds = sequential_sum(self.seconds)
        compute_s = sequential_sum(self.compute_seconds)
        ext_s = sequential_sum(self.external_seconds)
        int_s = sequential_sum(self.internal_seconds)
        return BlockTime(
            seconds=seconds,
            compute_seconds=compute_s,
            external_seconds=ext_s,
            internal_seconds=int_s,
            bound=_dominant_bound(compute_s, ext_s, int_s),
        )


def block_times_batch(
    machine: MachineSpec,
    *,
    active_cores: np.ndarray,
    tile_cycles: np.ndarray,
    kc: int,
    ext_bytes: np.ndarray,
    int_elements: np.ndarray,
) -> BlockTimesBatch:
    """Price every block of a schedule in one shot.

    Vectorized :func:`block_time`: the four parameters become equal-length
    arrays (one entry per block). Arithmetic is the same sequence of IEEE
    operations as the scalar function, applied elementwise, and the bound
    classification uses the same equality tests in the same priority
    order — per-block results are bit-for-bit identical.

    ``active_cores`` typically takes only a handful of distinct values
    (full waves plus a ragged tail), so the internal-bandwidth curve is
    evaluated once per distinct count through the exact scalar method.
    """
    require_positive("kc", kc)
    compute_s = tile_cycles / machine.tile_ops_per_second(kc)
    ext_s = (
        ext_bytes * machine.external_traffic_factor / machine.dram_bytes_per_second
    )
    int_bytes = (
        int_elements * machine.element_bytes * machine.internal_traffic_factor
    )
    internal_bps = np.empty(len(int_bytes), dtype=np.float64)
    for cores in np.unique(active_cores).tolist():
        require_positive("active_cores", cores)
        internal_bps[active_cores == cores] = machine.internal_bytes_per_second(
            int(cores)
        )
    int_s = int_bytes / internal_bps

    seconds = np.maximum(np.maximum(compute_s, ext_s), int_s)
    bounds = np.where(
        seconds == compute_s, 0, np.where(seconds == ext_s, 1, 2)
    ).astype(np.int8)
    return BlockTimesBatch(
        seconds=seconds,
        compute_seconds=compute_s,
        external_seconds=ext_s,
        internal_seconds=int_s,
        bounds=bounds,
    )
