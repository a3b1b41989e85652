"""The register-tile micro-kernel (Figures 5e / 6e).

CAKE's C++ implementation calls BLIS micro-kernels: an ``mr x kc`` sliver
of A times a ``kc x nr`` sliver of B accumulated into an ``mr x nr``
register tile of C. Here the same tiling is executed with NumPy. Two modes:

* ``panel_matmul(..., exact_tiles=True)`` walks every ``mr x nr`` register
  tile explicitly, accumulating in place — the schedule-faithful execution
  used by validation tests.
* ``exact_tiles=False`` (default) performs the mathematically identical
  panel product with one vectorised call — the fast path, per the HPC
  guide's "vectorise the inner loop" idiom.

Both accumulate into the caller's C buffer, as the paper's schedule
accumulates partial results in place, but ``c += a @ b`` is not
temporary-free: the product is built in a temporary the size of the C
panel and then added. The oracle keeps that arithmetic on purpose: its
bits define the reference every other backend is checked against. The
``blas-group`` backend is the one that accumulates through ``?gemm``
with ``beta=1`` (:mod:`repro.gemm.backends.blas_group`).

:meth:`MicroKernel.panel_tile_cycles` is the timing side: the number of
model cycles the panel costs, counting ragged edge tiles as full tiles
(a partially-filled SIMD register costs the same as a full one).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util import ceil_div, require_positive


@dataclass(frozen=True, slots=True)
class MicroKernel:
    """An ``mr x nr`` register-tile GEMM kernel with nominal depth ``kc``."""

    mr: int
    nr: int
    kc: int

    def __post_init__(self) -> None:
        require_positive("mr", self.mr)
        require_positive("nr", self.nr)
        require_positive("kc", self.kc)

    def tile_matmul(
        self, a_sliver: np.ndarray, b_sliver: np.ndarray, c_tile: np.ndarray
    ) -> None:
        """One register-tile update: ``c_tile += a_sliver @ b_sliver``.

        Shapes: ``a_sliver`` is ``(<=mr, k)``, ``b_sliver`` is ``(k, <=nr)``,
        ``c_tile`` is ``(<=mr, <=nr)``. Accumulates in place.
        """
        c_tile += a_sliver @ b_sliver

    def panel_matmul(
        self,
        a_panel: np.ndarray,
        b_panel: np.ndarray,
        c_panel: np.ndarray,
        *,
        exact_tiles: bool = False,
        checked: bool = True,
    ) -> None:
        """Accumulate ``c_panel += a_panel @ b_panel`` through the kernel.

        ``a_panel`` is ``(m, k)``, ``b_panel`` is ``(k, n)``, ``c_panel``
        is ``(m, n)``; all extents may be ragged. With ``exact_tiles`` the
        update walks every ``mr x nr`` register tile in the order a core
        would (nr-columns outer, mr-rows inner, so each B sliver is reused
        across all row strips before moving on).

        ``checked=False`` skips the shape validation — for executors that
        dispatch thousands of strips whose shapes are correct by
        construction (the packing grid and the C views come from the same
        plan), where the per-call Python branches are measurable overhead.
        """
        if checked:
            if a_panel.shape[0] != c_panel.shape[0]:
                raise ValueError(
                    f"A rows {a_panel.shape[0]} != C rows {c_panel.shape[0]}"
                )
            if b_panel.shape[1] != c_panel.shape[1]:
                raise ValueError(
                    f"B cols {b_panel.shape[1]} != C cols {c_panel.shape[1]}"
                )
            if a_panel.shape[1] != b_panel.shape[0]:
                raise ValueError(
                    f"A cols {a_panel.shape[1]} != B rows {b_panel.shape[0]}"
                )
        if not exact_tiles:
            c_panel += a_panel @ b_panel
            return
        m, n = c_panel.shape
        for j0 in range(0, n, self.nr):
            j1 = min(j0 + self.nr, n)
            b_sliver = b_panel[:, j0:j1]
            for i0 in range(0, m, self.mr):
                i1 = min(i0 + self.mr, m)
                self.tile_matmul(a_panel[i0:i1], b_sliver, c_panel[i0:i1, j0:j1])

    def panel_tile_cycles(self, m: int, n: int, k: int) -> float:
        """Model cycles for an ``(m, k) x (k, n)`` panel product.

        Ragged row/column tiles round *up* (a partial register tile costs
        a full cycle); ragged depth scales *linearly* (a shallower tile
        multiply retires proportionally fewer MACs), in units of the
        nominal ``kc``.
        """
        require_positive("m", m)
        require_positive("n", n)
        require_positive("k", k)
        return ceil_div(m, self.mr) * ceil_div(n, self.nr) * (k / self.kc)
