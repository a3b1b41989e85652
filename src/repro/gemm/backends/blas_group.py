"""The whole-group BLAS backend: one ``?gemm`` call per strip group.

The per-strip oracle dispatches one small matmul per core slab from
Python, so on a GIL-bound host the thread executor's speedup saturates
near 1.0x: the kernels release the GIL, but the per-strip Python call
overhead and barrier bookkeeping do not shrink with more workers. This
backend flips the granularity: each strip group (one CAKE CB block, one
GOTO ``(nc, kc)`` slice) becomes a *single* BLAS call over the
group-contiguous A operand and the full C panel — the shape BLAS
libraries are optimized for. One Python call per group, the GIL released
for the whole contiguous panel product, and the underlying BLAS free to
use its own blocking. Like every engine thread it runs over one BLAS
thread (:mod:`repro.gemm.budget`): the BLAS thread count changes the
bits at some shapes, and the sharded and served paths run one thread
per core share.

The call accumulates in place: ``C += A @ B`` is one CBLAS ``?gemm``
with ``beta=1`` into the C panel, through the budget's handle on the
BLAS NumPy loaded, so a group costs no temporary and no separate add.
Where that call cannot be made (no ``?gemm`` entry point, a dtype other
than float32/float64, mixed dtypes, an operand whose inner stride is not
unit, a C that may overlap A or B) the group falls back to
``c += a @ b``. At the plan depths here (``kc`` of 192 and 252) the
in-place call returns the same bits as a separate product plus add; it
re-associates the sum once the depth exceeds the BLAS's own K blocking.

Numerically the group product computes the same dot products over the
same reduction depth as the per-strip walk; only the library's internal
blocking may re-associate them. Hence ``deterministic=False`` — results
are tolerance-banded against the oracle (``agreement_band``), not
bit-compared — while ``reproducible=True`` holds: the same call on the
same data returns the same bits, which the ABFT recovery ladder uses to
heal transient corruption bit-exactly.
"""

from __future__ import annotations

import numpy as np

from repro.gemm.backends.base import Backend, BackendCapabilities
from repro.gemm.budget import accumulate_gemm


class BlasGroupBackend(Backend):
    """One whole-panel ``?gemm`` per strip group."""

    name = "blas-group"
    capabilities = BackendCapabilities(
        deterministic=False,
        grouped=True,
        dtypes=None,  # the fallback covers every float/complex dtype
        reproducible=True,
    )

    def matmul_group(self, a: np.ndarray, b: np.ndarray, c: np.ndarray) -> None:
        # accumulate_gemm checks the shapes first, on every path.
        if not accumulate_gemm(a, b, c):
            c += a @ b

    def matmul_strip(self, a: np.ndarray, b: np.ndarray, c: np.ndarray) -> None:
        # Groups without group-contiguous views run strip by strip.
        c += a @ b
