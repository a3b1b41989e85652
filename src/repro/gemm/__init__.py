"""GEMM engines: CAKE, the GOTO baseline, and a naive reference.

:class:`~repro.gemm.cake.CakeGemm` implements the paper's contribution:
CB-block partitioning (Section 3 shaping, Section 4.3 LRU sizing), the
K-first schedule of Algorithm 2, per-core strip execution with in-place
partial accumulation, and full traffic/time accounting.

:class:`~repro.gemm.goto.GotoGemm` is the baseline standing in for MKL,
ARMPL and OpenBLAS — the paper models all three as Goto's algorithm
(Section 4.1): L2-resident square A sub-blocks, an LLC-resident B panel as
wide as the cache allows, and partial C panels streamed to and from DRAM.

Both engines compute the true numerical product by executing exactly the
tile-level operations their schedules prescribe, and both return a
:class:`~repro.gemm.result.GemmRun` with the traffic counters and roofline
timing the benchmarks plot.

*How* a strip group multiplies is pluggable (:mod:`repro.gemm.backends`):
the per-strip numpy oracle or a whole-group BLAS call. The schedule,
counters and timing model never change with the backend — only the
inner compute call does.
"""

from repro.gemm.backends import (
    Backend,
    BackendCapabilities,
    BackendCapabilityError,
    BackendSpec,
    registered_backends,
    resolve_backend,
)
from repro.gemm.microkernel import MicroKernel
from repro.gemm.naive import naive_matmul, reference_matmul
from repro.gemm.counters import TrafficCounters
from repro.gemm.parallel import (
    PhaseTimers,
    StripGroup,
    StripTask,
    execute_groups,
)
from repro.gemm.plan import CakePlan, GotoPlan
from repro.gemm.result import GemmRun, degenerate_run
from repro.gemm.sharded import (
    IPC_SLACK_FACTOR,
    ShardConfig,
    ShardExecutionError,
    ShardPlan,
    ShardReport,
    ShardSpan,
    ipc_lower_bound_elements,
    plan_shards,
    resolve_shards,
    select_shard_grid,
)
from repro.gemm.verify import (
    NumericFaultError,
    VerifyConfig,
    VerifyReport,
    resolve_verify,
)
from repro.gemm.cake import CakeGemm
from repro.gemm.goto import GotoGemm
from repro.gemm.blas import gemm

__all__ = [
    "Backend",
    "BackendCapabilities",
    "BackendCapabilityError",
    "BackendSpec",
    "registered_backends",
    "resolve_backend",
    "MicroKernel",
    "naive_matmul",
    "reference_matmul",
    "TrafficCounters",
    "PhaseTimers",
    "StripGroup",
    "StripTask",
    "execute_groups",
    "CakePlan",
    "GotoPlan",
    "GemmRun",
    "degenerate_run",
    "IPC_SLACK_FACTOR",
    "ShardConfig",
    "ShardExecutionError",
    "ShardPlan",
    "ShardReport",
    "ShardSpan",
    "ipc_lower_bound_elements",
    "plan_shards",
    "resolve_shards",
    "select_shard_grid",
    "NumericFaultError",
    "VerifyConfig",
    "VerifyReport",
    "resolve_verify",
    "CakeGemm",
    "GotoGemm",
    "gemm",
]
