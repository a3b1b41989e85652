"""The GemmRun result type returned by every engine.

Bundles the numerical product with the traffic counters, the roofline time
breakdown, and the derived metrics the paper plots: computation throughput
in GFLOP/s (Figures 9-12 b-panels) and average observed DRAM bandwidth in
GB/s (Figures 10a/11a/12a). Packing time and traffic are included in both,
as in the paper's measurements (Section 5.2.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.gemm.counters import TrafficCounters
from repro.machines.spec import MachineSpec
from repro.perfmodel.roofline import ZERO_TIME, BlockTime
from repro.schedule.space import ComputationSpace, DegenerateSpace

if TYPE_CHECKING:  # pragma: no cover - hints only
    from repro.gemm.sharded import ShardReport
    from repro.gemm.verify import VerifyReport


@dataclass(slots=True)
class GemmRun:
    """Everything one engine execution produced.

    Attributes
    ----------
    c:
        The numerical product (``None`` for analytic-only runs).
    engine:
        ``"cake"`` or ``"goto"``.
    machine:
        The machine the run was priced on.
    space:
        Problem extents.
    cores:
        Cores used.
    counters:
        Element-level traffic tallies.
    time:
        Summed roofline breakdown over all blocks (excludes packing).
    packing_seconds:
        Time charged to packing A and B.
    bound_blocks:
        How many blocks each resource bounded — the bottleneck histogram
        behind the paper's narrative for each platform.
    plan_summary:
        The tiling parameters the plan chose, for reporting.
    workers:
        Host threads the numeric executor ran with (1 for the inline
        serial path and for analytic-only runs). Distinct from ``cores``,
        which is the *modelled* core count the plan and pricing use.
    blas_threads:
        BLAS threads the numerics ran under (:mod:`repro.gemm.budget`),
        or ``None`` when the BLAS is unmanaged or nothing executed.
    backend:
        Name of the compute backend the numerics executed through
        (:mod:`repro.gemm.backends`): ``"numpy"`` (the per-strip
        oracle — also recorded for analytic-only runs, which execute
        nothing), ``"blas-group"``, or a user backend's name. Results from different backends agree within each
        backend's declared agreement band; results from the *same*
        backend are bit-identical across worker counts.
    phase_seconds:
        Measured wall-clock of the numeric run's phases — ``pack``
        (flat operand copies: zero for C-ordered in-process operands),
        ``compute`` (kernel time summed across workers), ``reduce``
        (orchestrator barrier waits), ``verify``/``recover`` (ABFT
        checksums, their validation and recovery).
        ``None`` for analytic-only runs. This is host wall time, *not* the
        modelled :attr:`seconds`; it exists so the execution engine can be
        profiled.
    verify:
        ABFT accounting when the run executed verified
        (:mod:`repro.gemm.verify`): blocks checked, mismatches seen,
        recoveries taken, checksum surface carried. ``None`` for
        unverified runs — TrafficCounters themselves never change with
        verification, which is what keeps verified and unverified
        accounting bit-identical.
    processes:
        Worker *processes* the numerics ran across
        (:mod:`repro.gemm.sharded`); 1 for ordinary in-process runs.
        Like ``workers`` this describes host execution, not the
        modelled ``cores``.
    shards:
        The shard grid, per-shard phase timers, measured inter-process
        bytes vs the communication lower bound, and rebuild/fallback
        counts when the run was process-sharded; ``None`` otherwise.
    """

    engine: str
    machine: MachineSpec
    space: ComputationSpace | DegenerateSpace
    cores: int
    counters: TrafficCounters
    time: BlockTime
    packing_seconds: float
    bound_blocks: dict[str, int] = field(default_factory=dict)
    plan_summary: dict[str, float] = field(default_factory=dict)
    c: np.ndarray | None = None
    workers: int = 1
    blas_threads: int | None = None
    backend: str = "numpy"
    phase_seconds: dict[str, float] | None = None
    verify: "VerifyReport | None" = None
    processes: int = 1
    shards: "ShardReport | None" = None

    @property
    def seconds(self) -> float:
        """Wall time: block execution plus packing."""
        return self.time.seconds + self.packing_seconds

    @property
    def flops(self) -> int:
        """Useful floating-point operations (``2 * M * N * K``)."""
        return self.space.flops

    @property
    def gflops(self) -> float:
        """Computation throughput, packing overhead included.

        Zero for degenerate (zero-volume) runs, which take zero modelled
        time.
        """
        if self.seconds == 0.0:
            return 0.0
        return self.flops / self.seconds / 1e9

    @property
    def dram_bytes(self) -> float:
        """Physical external traffic in bytes, packing included.

        Counted operand bytes scaled by the machine's
        ``external_traffic_factor`` — the quantity a hardware DRAM
        counter (and hence the paper's a-panels) reports.
        """
        return (
            self.counters.ext_total_bytes(self.machine.element_bytes)
            * self.machine.external_traffic_factor
        )

    @property
    def dram_bytes_with_verify(self) -> float:
        """External traffic including the ABFT checksum surfaces.

        The constant-bandwidth claim re-checked *with* verification
        overhead: the checksum vectors add ``O(M*Kb + K*Nb)`` elements on
        top of the ``O(MK + KN + MN)`` operand traffic — for square
        problems a vanishing fraction, which tests pin. Equals
        :attr:`dram_bytes` for unverified runs.
        """
        if self.verify is None:
            return self.dram_bytes
        return self.dram_bytes + self.verify.checksum_bytes(
            self.machine.element_bytes
        ) * self.machine.external_traffic_factor

    @property
    def dram_gb_per_s(self) -> float:
        """Average observed DRAM bandwidth over the whole run."""
        if self.seconds == 0.0:
            return 0.0
        return self.dram_bytes / self.seconds / 1e9

    @property
    def arithmetic_intensity(self) -> float:
        """FLOPs per external byte actually moved."""
        if self.dram_bytes == 0.0:
            return 0.0
        return self.flops / self.dram_bytes

    def summary(self) -> dict[str, float]:
        """Flat dict of headline metrics (used by the bench harness)."""
        return {
            "gflops": self.gflops,
            "seconds": self.seconds,
            "dram_gb_per_s": self.dram_gb_per_s,
            "dram_bytes": float(self.dram_bytes),
            "arithmetic_intensity": self.arithmetic_intensity,
            "packing_seconds": self.packing_seconds,
        }


def degenerate_run(
    engine: str,
    machine: MachineSpec,
    m: int,
    n: int,
    k: int,
    dtype: np.dtype,
    *,
    cores: int,
    workers: int,
    backend: str = "numpy",
) -> GemmRun:
    """The result of a zero-volume multiply, BLAS-style.

    ``K == 0`` yields a zero-filled ``M x N`` C (an empty sum); ``M == 0``
    or ``N == 0`` an empty one. No packing, no schedule walk, no traffic —
    every counter and timing is zero, and the derived-rate properties on
    :class:`GemmRun` guard the resulting divisions.
    """
    return GemmRun(
        engine=engine,
        machine=machine,
        space=DegenerateSpace(m, n, k),
        cores=cores,
        counters=TrafficCounters(),
        time=ZERO_TIME,
        packing_seconds=0.0,
        c=np.zeros((m, n), dtype=dtype),
        workers=workers,
        backend=backend,
    )
