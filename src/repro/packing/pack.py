"""Blocked packing of A and B operands (Section 5.2.1).

The paper packs both operands so each core streams contiguous surfaces:

* ``A`` is cut along M into strips of ``mc`` rows and along K into panels
  of ``kc`` columns; each ``mc x kc`` sub-block is copied contiguously
  (C-order) so a core's resident A block is one dense array.
* ``B`` is cut along K into ``kc``-row panels and along N into panels of
  the engine's N-block width; each ``kc x n_block`` panel is contiguous.

A multiply does not pack here. Every backend call is a BLAS call that
packs its operands itself, so the engines read A and B in place through
:class:`~repro.gemm.parallel.GridOperand` views cut at the same edges;
:mod:`repro.packing.cost` still prices the paper's packing. What stays
here is the packing the paper describes, for the benchmark ladder's
kernel rung (``pack_a_cake``/``pack_b_cake``).

The packer builds at most four large block-major buffers (uniform
interior, ragged right edge, ragged bottom edge, corner) with one
strided ``np.copyto`` each; individual blocks are C-contiguous views
into those buffers. Because the copy source is a stride-tricks view of
the original operand, any input layout — F-ordered, transposed, or
otherwise non-contiguous — is packed with exactly **one** data copy (no
contiguous staging copy first). The tests hold a nested-loop packer,
one contiguous copy per block, as its oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.util import require_positive


@dataclass(frozen=True)
class PackedA:
    """A packed into ``mc x kc`` sub-blocks.

    ``blocks[si][ki]`` is the contiguous copy of A rows
    ``si*mc:(si+1)*mc`` and columns ``ki*kc:(ki+1)*kc`` (ragged at the
    high edges).
    """

    blocks: list[list[np.ndarray]]
    mc: int
    kc: int

    @property
    def strips(self) -> int:
        """Number of mc-row strips along M."""
        return len(self.blocks)

    @property
    def k_panels(self) -> int:
        """Number of kc-column panels along K."""
        return len(self.blocks[0])

    @property
    def elements(self) -> int:
        """Total packed elements (equals the source matrix's size)."""
        return sum(b.size for row in self.blocks for b in row)

    def block(self, strip: int, k_panel: int) -> np.ndarray:
        """The contiguous ``mc x kc`` sub-block at (strip, k_panel)."""
        return self.blocks[strip][k_panel]


@dataclass(frozen=True)
class PackedB:
    """B packed into ``kc x n_block`` panels.

    ``panels[ki][ni]`` is the contiguous copy of B rows
    ``ki*kc:(ki+1)*kc`` and columns ``ni*n_block:(ni+1)*n_block``.
    """

    panels: list[list[np.ndarray]]
    kc: int
    n_block: int

    @property
    def k_panels(self) -> int:
        """Number of kc-row panels along K."""
        return len(self.panels)

    @property
    def n_panels(self) -> int:
        """Number of n_block-column panels along N."""
        return len(self.panels[0])

    @property
    def elements(self) -> int:
        """Total packed elements (equals the source matrix's size)."""
        return sum(p.size for row in self.panels for p in row)

    def panel(self, k_panel: int, n_panel: int) -> np.ndarray:
        """The contiguous ``kc x n_block`` panel at (k_panel, n_panel)."""
        return self.panels[k_panel][n_panel]


def pack_a(a: np.ndarray, mc: int, kc: int) -> PackedA:
    """Pack matrix ``a`` into contiguous ``mc x kc`` sub-blocks."""
    _check_matrix("a", a)
    require_positive("mc", mc)
    require_positive("kc", kc)
    return PackedA(blocks=_pack_grid(a, mc, kc), mc=mc, kc=kc)


def pack_b(b: np.ndarray, kc: int, n_block: int) -> PackedB:
    """Pack matrix ``b`` into contiguous ``kc x n_block`` panels.

    Same contract as :func:`pack_a` (B's rows are cut by ``kc``, its
    columns by ``n_block``).
    """
    _check_matrix("b", b)
    require_positive("kc", kc)
    require_positive("n_block", n_block)
    return PackedB(panels=_pack_grid(b, kc, n_block), kc=kc, n_block=n_block)


# CAKE-named aliases of the packers, for callers that name the CB block
# extents (the benchmark ladder packs with its plan's).
pack_a_cake = pack_a
pack_b_cake = pack_b


# -- vectorized packing -------------------------------------------------------


def _pack_grid(
    x: np.ndarray, row_chunk: int, col_chunk: int
) -> list[list[np.ndarray]]:
    """Blocked copy of ``x`` as C-contiguous views into <= 4 big buffers.

    The interior blocks (all full ``row_chunk x col_chunk``) land in one
    block-major 4-D buffer with a single strided copy; the ragged right
    edge, bottom edge and corner each get their own buffer. The copy
    *source* is a zero-copy strided view of ``x``, so the data moves
    exactly once regardless of the input's memory layout.
    """
    rows, cols = x.shape
    rc = min(row_chunk, rows)
    cc = min(col_chunk, cols)
    r_full, r_rem = divmod(rows, rc)
    c_full, c_rem = divmod(cols, cc)
    sr, sc = x.strides

    def copy(source: np.ndarray, shape: tuple, strides: tuple) -> np.ndarray:
        buf = np.empty(shape, x.dtype)
        np.copyto(buf, as_strided(source, shape=shape, strides=strides))
        return buf

    main = right = bottom = corner = None
    if r_full and c_full:
        main = copy(x, (r_full, c_full, rc, cc), (rc * sr, cc * sc, sr, sc))
    if r_full and c_rem:
        right = copy(
            x[:, c_full * cc :], (r_full, rc, c_rem), (rc * sr, sr, sc)
        )
    if r_rem and c_full:
        bottom = copy(
            x[r_full * rc :, :], (c_full, r_rem, cc), (cc * sc, sr, sc)
        )
    if r_rem and c_rem:
        corner = copy(x[r_full * rc :, c_full * cc :], (r_rem, c_rem), (sr, sc))

    grid: list[list[np.ndarray]] = []
    for i in range(r_full + (1 if r_rem else 0)):
        row: list[np.ndarray] = []
        for j in range(c_full + (1 if c_rem else 0)):
            if i < r_full and j < c_full:
                row.append(main[i, j])
            elif i < r_full:
                row.append(right[i])
            elif j < c_full:
                row.append(bottom[j])
            else:
                row.append(corner)
        grid.append(row)
    return grid


def _check_matrix(name: str, x: np.ndarray) -> None:
    if not isinstance(x, np.ndarray) or x.ndim != 2:
        raise TypeError(f"{name} must be a 2-D numpy array, got {type(x).__name__}")
    if x.size == 0:
        raise ValueError(f"{name} must be non-empty")
