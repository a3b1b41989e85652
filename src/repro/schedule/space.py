"""The MM computation space and its partition into a block grid.

Section 2 represents ``C = A x B`` as an ``M x N x K`` volume of MAC
operations bounded by three IO surfaces (A on the left, B on top, C at the
back). :class:`BlockGrid` cuts that volume into a grid of nominally uniform
blocks; blocks on the high edge of each dimension carry the remainder, so
the grid tiles the space exactly once — a property the test suite checks by
construction and by hypothesis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.core.cb_block import CBBlock
from repro.util import (
    prefix_offsets,
    require_nonnegative,
    require_positive,
    split_length,
)


@dataclass(frozen=True, slots=True)
class ComputationSpace:
    """The full ``M x N x K`` MM volume (matrix extents, in elements)."""

    m: int
    n: int
    k: int

    def __post_init__(self) -> None:
        require_positive("m", self.m)
        require_positive("n", self.n)
        require_positive("k", self.k)

    @property
    def macs(self) -> int:
        """Total multiply-accumulate operations, ``M * N * K``."""
        return self.m * self.n * self.k

    @property
    def flops(self) -> int:
        """Total floating-point operations, ``2 * M * N * K``."""
        return 2 * self.macs


@dataclass(frozen=True, slots=True)
class DegenerateSpace:
    """A zero-volume MM ``space``: at least one extent is zero.

    :class:`ComputationSpace` deliberately rejects zero extents — the
    block grid, schedule walk, and roofline all divide by them. But
    ``multiply()`` must still honor BLAS semantics for degenerate
    operands (``K == 0`` means a zero-filled ``M x N`` C; ``M == 0`` or
    ``N == 0`` an empty one), so the engines short-circuit with this
    stand-in carrying the extents and zero op counts. Negative extents
    remain invalid.
    """

    m: int
    n: int
    k: int

    def __post_init__(self) -> None:
        require_nonnegative("m", self.m)
        require_nonnegative("n", self.n)
        require_nonnegative("k", self.k)
        if self.m and self.n and self.k:
            raise ValueError(
                f"{self.m} x {self.n} x {self.k} is not degenerate; "
                f"use ComputationSpace"
            )

    @property
    def macs(self) -> int:
        """Total multiply-accumulate operations — zero by definition."""
        return 0

    @property
    def flops(self) -> int:
        """Total floating-point operations — zero by definition."""
        return 0


@dataclass(frozen=True, slots=True)
class BlockCoord:
    """Grid coordinates of one block: indices along M, N and K."""

    mi: int
    ni: int
    ki: int


class BlockGrid:
    """Partition of a :class:`ComputationSpace` into CB blocks.

    Parameters
    ----------
    space:
        The volume being partitioned.
    block:
        Nominal block extents. Blocks in the last row/column/slice along
        each dimension shrink to the remainder; nominal extents larger
        than the space collapse to a single block in that dimension.
    """

    def __init__(self, space: ComputationSpace, block: CBBlock) -> None:
        self.space = space
        self.nominal = block
        # Tuples: plans memoize their grid, so one grid is shared by
        # every thread multiplying with that plan.
        self._m_sizes = tuple(split_length(space.m, min(block.m, space.m)))
        self._n_sizes = tuple(split_length(space.n, min(block.n, space.n)))
        self._k_sizes = tuple(split_length(space.k, min(block.k, space.k)))
        self._m_offsets = tuple(prefix_offsets(self._m_sizes))
        self._n_offsets = tuple(prefix_offsets(self._n_sizes))
        self._k_offsets = tuple(prefix_offsets(self._k_sizes))

    # -- grid shape ---------------------------------------------------------

    @property
    def mb(self) -> int:
        """Number of blocks along M."""
        return len(self._m_sizes)

    @property
    def nb(self) -> int:
        """Number of blocks along N."""
        return len(self._n_sizes)

    @property
    def kb(self) -> int:
        """Number of blocks along K (reduction runs per C block)."""
        return len(self._k_sizes)

    @property
    def num_blocks(self) -> int:
        """Total blocks in the grid."""
        return self.mb * self.nb * self.kb

    # -- per-block geometry --------------------------------------------------

    def extent(self, coord: BlockCoord) -> CBBlock:
        """Actual extents of the block at ``coord`` (remainder-aware)."""
        self._check(coord)
        return CBBlock(
            m=self._m_sizes[coord.mi],
            n=self._n_sizes[coord.ni],
            k=self._k_sizes[coord.ki],
        )

    def origin(self, coord: BlockCoord) -> tuple[int, int, int]:
        """Element offset ``(m0, n0, k0)`` of the block at ``coord``."""
        self._check(coord)
        return (
            self._m_offsets[coord.mi],
            self._n_offsets[coord.ni],
            self._k_offsets[coord.ki],
        )

    def coords(self) -> Iterator[BlockCoord]:
        """All grid coordinates in plain row-major (M, N, K) order."""
        for mi in range(self.mb):
            for ni in range(self.nb):
                for ki in range(self.kb):
                    yield BlockCoord(mi, ni, ki)

    # -- batched geometry ----------------------------------------------------

    def size_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Block extents along each dimension as int64 arrays.

        ``size_arrays()[0][mi]`` equals ``extent(BlockCoord(mi, ·, ·)).m``
        — one gather per axis replaces the per-block ``extent()`` calls of
        the scalar walk.
        """
        return (
            np.asarray(self._m_sizes, dtype=np.int64),
            np.asarray(self._n_sizes, dtype=np.int64),
            np.asarray(self._k_sizes, dtype=np.int64),
        )

    def offset_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Block element origins along each dimension as int64 arrays."""
        return (
            np.asarray(self._m_offsets, dtype=np.int64),
            np.asarray(self._n_offsets, dtype=np.int64),
            np.asarray(self._k_offsets, dtype=np.int64),
        )

    def surface_arrays(
        self, mi: np.ndarray, ni: np.ndarray, ki: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-block IO surfaces ``(A, B, C)`` in elements, for an order.

        ``mi/ni/ki`` are coordinate arrays (one entry per scheduled
        block); the result matches ``extent(coord).surface_a`` (and b, c)
        element-wise.
        """
        m_sizes, n_sizes, k_sizes = self.size_arrays()
        em, en, ek = m_sizes[mi], n_sizes[ni], k_sizes[ki]
        return em * ek, ek * en, em * en

    def _check(self, coord: BlockCoord) -> None:
        if not (
            0 <= coord.mi < self.mb
            and 0 <= coord.ni < self.nb
            and 0 <= coord.ki < self.kb
        ):
            raise IndexError(
                f"{coord} outside grid of {self.mb} x {self.nb} x {self.kb} blocks"
            )
