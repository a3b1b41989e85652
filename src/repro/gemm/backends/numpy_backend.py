"""The per-strip NumPy backend — the bit-exact oracle.

This is the execution path the engines have always had: each core strip
goes through :meth:`~repro.gemm.microkernel.MicroKernel.panel_matmul`,
one call per strip. Every other backend is validated against this one:
``deterministic=True`` here *defines* the reference bits.

``NumpyBackend(kernel, exact_tiles=True)`` walks every ``mr x nr``
register tile instead of one panel product per strip — the
schedule-faithful execution validation tests pass to an engine as its
``backend``. Each tile is its own BLAS call, which may sum in another
order than the strip's one call (about half of random float32/float64
panels differ in bits on one-thread OpenBLAS), so the walk declares
``deterministic=False``: it agrees with the oracle within the band.

It stays per-strip on purpose. The strip is the schedule-faithful
granule (one core's slab of a CB block), and keeping the oracle at that
granule is what lets the conformance suite and the ABFT verifier treat
"what the schedule prescribes" and "what the oracle computes" as the
same thing.
"""

from __future__ import annotations

import numpy as np

from repro.gemm.backends.base import Backend, BackendCapabilities
from repro.gemm.microkernel import MicroKernel


class NumpyBackend(Backend):
    """Schedule-faithful per-strip execution through the micro-kernel."""

    name = "numpy"
    capabilities = BackendCapabilities(deterministic=True, grouped=False)

    def __init__(self, kernel: MicroKernel, *, exact_tiles: bool = False) -> None:
        self.kernel = kernel
        self.exact_tiles = exact_tiles
        if exact_tiles:
            self.capabilities = BackendCapabilities(
                deterministic=False, grouped=False
            )

    def matmul_strip(self, a: np.ndarray, b: np.ndarray, c: np.ndarray) -> None:
        # checked=False: strip shapes are correct by construction (the
        # plan grid's views and the C views come from the same plan).
        self.kernel.panel_matmul(
            a, b, c, exact_tiles=self.exact_tiles, checked=False
        )
