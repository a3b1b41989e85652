"""Blocked packing of A and B operands.

Both engines pack the same way at this granularity (the difference between
CAKE and GOTO is block *shape*, not packing mechanics):

* ``A`` is cut along M into strips of ``mc`` rows and along K into panels
  of ``kc`` columns; each ``mc x kc`` sub-block is copied contiguously
  (C-order) so a core's resident A block is one dense array.
* ``B`` is cut along K into ``kc``-row panels and along N into panels of
  the engine's N-block width; each ``kc x n_block`` panel is contiguous.

The packed structures expose ``block(i, j)`` views so executors never
re-slice the original operands — matching the guide's "views, not copies"
idiom after the single packing copy.

Two implementations produce bit-identical buffers:

* The **vectorized** default builds at most four large block-major
  buffers (uniform interior, ragged right edge, ragged bottom edge,
  corner) with one strided ``np.copyto`` each; individual blocks are
  C-contiguous views into those buffers. Because the copy source is a
  stride-tricks view of the original operand, any input layout —
  F-ordered, transposed, or otherwise non-contiguous — is packed with
  exactly **one** data copy (no contiguous staging copy first).
* The **loop oracle** (``exact=True``) is the original nested-Python-loop
  packer: one ``np.ascontiguousarray`` per block. It exists as the
  ground truth the vectorized path is hypothesis-tested against, and as
  the ``exact_pack=True`` escape hatch on the engines.

Buffers can come from a :class:`repro.packing.pool.BufferPool` so service
loops reuse packed storage across calls instead of reallocating.

ABFT checksums
--------------

With ``checksums=True`` each packed block additionally carries its ABFT
checksum vector, computed at pack time while the block is cache-hot:

* A blocks get **column** checksums (sum over rows — length ``kc``),
* B panels get **row** checksums (sum over columns — length ``kc``),
* both also get **magnitude** sums — ``|block|`` reduced along each axis
  — which the verifier turns into tolerance bounds without rescanning
  the operands at check time.

All of a matrix's checksum and magnitude vectors live in flat pool-leased
buffers (returned with the block buffers by ``release_to``), filled in
place with ``np.sum(..., out=view)``. Computing them here rather than at
verify time is what makes verification cheap: a B panel's checksum is
reused by every block that touches the panel, mirroring how CAKE reuses
the panel itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.packing.pool import BufferPool
from repro.util import require_positive, split_length


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
    #: Backing buffers (vectorized path only) — handed back to the buffer
    #: pool via :meth:`release_to` when the run that leased them is done.
    buffers: tuple[np.ndarray, ...] = field(default=(), repr=False)
    #: Per-block ABFT column checksums (``checksums=True`` packs only):
    #: ``checksums[si][ki]`` is ``blocks[si][ki].sum(axis=0)``.
    checksums: list[list[np.ndarray]] | None = field(default=None, repr=False)
    #: Per-block absolute-value magnitude sums (``checksums=True`` packs
    #: only): ``magnitudes[si][ki]`` is the pair
    #: ``(|block|.sum(axis=0), |block|.sum(axis=1))`` — the tolerance-band
    #: material the verifier reads instead of re-scanning ``|A|``.
    magnitudes: list[list[tuple[np.ndarray, np.ndarray]]] | None = field(
        default=None, repr=False
    )
    #: The backing-buffer decomposition of a vectorized pack (``None``
    #: for the loop oracle) — what the sharded executor ships to worker
    #: processes so they can rebuild this exact block grid over
    #: shared-memory segments (:func:`grid_views`).
    parts: "GridParts | None" = field(default=None, repr=False)

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

    @property
    def checksum_elements(self) -> int:
        """Total checksum + magnitude elements carried (0 unless
        checksummed)."""
        if self.checksums is None:
            return 0
        total = sum(v.size for row in self.checksums for v in row)
        if self.magnitudes is not None:
            total += sum(
                a.size + b.size for row in self.magnitudes for a, b in row
            )
        return total

    def block(self, strip: int, k_panel: int) -> np.ndarray:
        """The contiguous ``mc x kc`` sub-block at (strip, k_panel)."""
        return self.blocks[strip][k_panel]

    def column(
        self,
        k_panel: int,
        *,
        pool: BufferPool | None = None,
        start: int = 0,
        stop: int | None = None,
    ) -> np.ndarray:
        """One contiguous operand spanning strips ``start:stop`` at ``k_panel``.

        The group-contiguous view whole-group backends multiply: the
        ``mc``-row strips (by default every one) at this K panel, stacked
        in strip order as a single C-contiguous array. With a single
        strip the packed block itself is returned (zero-copy — the caller
        must not release it to a pool); with several, a fresh (or
        pool-leased) buffer is filled with one concatenate.
        """
        parts = [row[k_panel] for row in self.blocks[start:stop]]
        if len(parts) == 1:
            return parts[0]
        rows = sum(part.shape[0] for part in parts)
        lease = pool.lease if pool is not None else np.empty
        buf = lease((rows, parts[0].shape[1]), parts[0].dtype)
        np.concatenate(parts, axis=0, out=buf)
        return buf

    def checksum(self, strip: int, k_panel: int) -> np.ndarray:
        """The block's pack-time column checksum (length = block cols)."""
        if self.checksums is None:
            raise ValueError("packed without checksums=True")
        return self.checksums[strip][k_panel]

    def magnitude(self, strip: int, k_panel: int) -> tuple[np.ndarray, np.ndarray]:
        """The block's ``(|.|.sum(axis=0), |.|.sum(axis=1))`` pair."""
        if self.magnitudes is None:
            raise ValueError("packed without checksums=True")
        return self.magnitudes[strip][k_panel]

    def release_to(self, pool: BufferPool | None) -> None:
        """Return backing buffers to ``pool`` (no-op without one)."""
        if pool is not None and self.buffers:
            pool.release(*self.buffers)


@dataclass(frozen=True)
class PackedB:
    """B packed into ``kc x n_block`` panels.

    ``panels[ki][ni]`` is the contiguous copy of B rows
    ``ki*kc:(ki+1)*kc`` and columns ``ni*n_block:(ni+1)*n_block``.
    """

    panels: list[list[np.ndarray]]
    kc: int
    n_block: int
    buffers: tuple[np.ndarray, ...] = field(default=(), repr=False)
    #: Per-panel ABFT row checksums (``checksums=True`` packs only):
    #: ``checksums[ki][ni]`` is ``panels[ki][ni].sum(axis=1)``.
    checksums: list[list[np.ndarray]] | None = field(default=None, repr=False)
    #: Per-panel absolute-value magnitude sums, same layout as
    #: :attr:`PackedA.magnitudes`: ``(|panel|.sum(axis=0),
    #: |panel|.sum(axis=1))``.
    magnitudes: list[list[tuple[np.ndarray, np.ndarray]]] | None = field(
        default=None, repr=False
    )
    #: Backing-buffer decomposition, as on :attr:`PackedA.parts`.
    parts: "GridParts | None" = field(default=None, repr=False)

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

    @property
    def checksum_elements(self) -> int:
        """Total checksum + magnitude elements carried (0 unless
        checksummed)."""
        if self.checksums is None:
            return 0
        total = sum(v.size for row in self.checksums for v in row)
        if self.magnitudes is not None:
            total += sum(
                a.size + b.size for row in self.magnitudes for a, b in row
            )
        return total

    def panel(self, k_panel: int, n_panel: int) -> np.ndarray:
        """The contiguous ``kc x n_block`` panel at (k_panel, n_panel)."""
        return self.panels[k_panel][n_panel]

    def checksum(self, k_panel: int, n_panel: int) -> np.ndarray:
        """The panel's pack-time row checksum (length = panel rows)."""
        if self.checksums is None:
            raise ValueError("packed without checksums=True")
        return self.checksums[k_panel][n_panel]

    def magnitude(self, k_panel: int, n_panel: int) -> tuple[np.ndarray, np.ndarray]:
        """The panel's ``(|.|.sum(axis=0), |.|.sum(axis=1))`` pair."""
        if self.magnitudes is None:
            raise ValueError("packed without checksums=True")
        return self.magnitudes[k_panel][n_panel]

    def release_to(self, pool: BufferPool | None) -> None:
        """Return backing buffers to ``pool`` (no-op without one)."""
        if pool is not None and self.buffers:
            pool.release(*self.buffers)


def pack_a(
    a: np.ndarray,
    mc: int,
    kc: int,
    *,
    pool: BufferPool | None = None,
    exact: bool = False,
    checksums: bool = False,
) -> PackedA:
    """Pack matrix ``a`` into contiguous ``mc x kc`` sub-blocks.

    ``exact=True`` routes through the per-block loop oracle (bit-identical
    output, no pooling); the default builds the same blocks with a few
    large strided copies. ``checksums=True`` additionally computes each
    block's ABFT column checksum (``block.sum(axis=0)``) at pack time.
    """
    _check_matrix("a", a)
    require_positive("mc", mc)
    require_positive("kc", kc)
    if exact:
        blocks = _pack_grid_loop(a, mc, kc)
        cs = mags = None
        if checksums:
            cs, mags, _, _ = _checksum_grids(blocks, 0, None)
        return PackedA(blocks=blocks, mc=mc, kc=kc, checksums=cs, magnitudes=mags)
    blocks, buffers, parts = _pack_grid(a, mc, kc, pool)
    cs = mags = None
    if checksums:
        cs, mags, held = _checksum_grids_fast(blocks, parts, 0, pool)
        buffers = buffers + held
    return PackedA(
        blocks=blocks, mc=mc, kc=kc, buffers=buffers,
        checksums=cs, magnitudes=mags, parts=parts,
    )


def pack_b(
    b: np.ndarray,
    kc: int,
    n_block: int,
    *,
    pool: BufferPool | None = None,
    exact: bool = False,
    checksums: bool = False,
) -> PackedB:
    """Pack matrix ``b`` into contiguous ``kc x n_block`` panels.

    Same contract as :func:`pack_a` (B's rows are cut by ``kc``, its
    columns by ``n_block``; checksums are **row** sums, ``panel.sum(axis=1)``).
    """
    _check_matrix("b", b)
    require_positive("kc", kc)
    require_positive("n_block", n_block)
    if exact:
        panels = _pack_grid_loop(b, kc, n_block)
        cs = mags = None
        if checksums:
            cs, mags, _, _ = _checksum_grids(panels, 1, None)
        return PackedB(
            panels=panels, kc=kc, n_block=n_block, checksums=cs, magnitudes=mags
        )
    panels, buffers, parts = _pack_grid(b, kc, n_block, pool)
    cs = mags = None
    if checksums:
        cs, mags, held = _checksum_grids_fast(panels, parts, 1, pool)
        buffers = buffers + held
    return PackedB(
        panels=panels, kc=kc, n_block=n_block, buffers=buffers,
        checksums=cs, magnitudes=mags, parts=parts,
    )


# CAKE-named aliases of the packers, for callers that name the CB block
# extents (the engines call ``pack_a``/``pack_b`` with their plan grid's).
pack_a_cake = pack_a
pack_b_cake = pack_b


# -- vectorized packing -------------------------------------------------------


class GridParts(NamedTuple):
    """The <= 4 backing buffers of a vectorized pack, plus grid extents.

    ``main`` holds the uniform interior blocks block-major; ``right``,
    ``bottom`` and ``corner`` the ragged edges. ``r_full``/``c_full``
    count full-size block rows/columns — the grid coordinates where the
    edge buffers start.

    This record is the *transportable* form of a vectorized pack: the
    sharded executor ships each part's shared-memory segment to worker
    processes, which rebuild the identical block-view grid with
    :func:`grid_views` — same buffers, same strides, same bits.
    """

    main: np.ndarray | None
    right: np.ndarray | None
    bottom: np.ndarray | None
    corner: np.ndarray | None
    r_full: int
    c_full: int


def grid_views(parts: GridParts) -> list[list[np.ndarray]]:
    """The block-view grid over a vectorized pack's backing buffers.

    ``grid[i][j]`` is the C-contiguous view of block ``(i, j)`` — interior
    blocks index into ``main``, ragged edges into ``right``/``bottom``/
    ``corner``. Pure view arithmetic over ``parts``: calling it in another
    process on attached copies of the same segments yields views over the
    same bytes, which is what makes shard workers' packed operands
    bit-identical to the parent's.
    """
    main, right, bottom, corner, r_full, c_full = parts
    nb_r = r_full + (1 if bottom is not None or corner is not None else 0)
    nb_c = c_full + (1 if right is not None or corner is not None else 0)
    grid: list[list[np.ndarray]] = []
    for i in range(nb_r):
        row: list[np.ndarray] = []
        for j in range(nb_c):
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


def _pack_grid(
    x: np.ndarray,
    row_chunk: int,
    col_chunk: int,
    pool: BufferPool | None,
) -> tuple[list[list[np.ndarray]], tuple[np.ndarray, ...], GridParts]:
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

    lease = pool.lease if pool is not None else np.empty
    buffers: list[np.ndarray] = []

    main = right = bottom = corner = None
    if r_full and c_full:
        main = lease((r_full, c_full, rc, cc), x.dtype)
        np.copyto(
            main,
            as_strided(
                x,
                shape=(r_full, c_full, rc, cc),
                strides=(rc * sr, cc * sc, sr, sc),
            ),
        )
        buffers.append(main)
    if r_full and c_rem:
        edge = x[:, c_full * cc :]
        right = lease((r_full, rc, c_rem), x.dtype)
        np.copyto(
            right,
            as_strided(edge, shape=(r_full, rc, c_rem), strides=(rc * sr, sr, sc)),
        )
        buffers.append(right)
    if r_rem and c_full:
        edge = x[r_full * rc :, :]
        bottom = lease((c_full, r_rem, cc), x.dtype)
        np.copyto(
            bottom,
            as_strided(edge, shape=(c_full, r_rem, cc), strides=(cc * sc, sr, sc)),
        )
        buffers.append(bottom)
    if r_rem and c_rem:
        corner = lease((r_rem, c_rem), x.dtype)
        np.copyto(corner, x[r_full * rc :, c_full * cc :])
        buffers.append(corner)

    parts = GridParts(main, right, bottom, corner, r_full, c_full)
    return grid_views(parts), tuple(buffers), parts


# -- ABFT checksum vectors ----------------------------------------------------


def _checksum_grids(
    grid: list[list[np.ndarray]],
    axis: int,
    pool: BufferPool | None,
) -> tuple[
    list[list[np.ndarray]],
    list[list[tuple[np.ndarray, np.ndarray]]],
    np.ndarray,
    np.ndarray,
]:
    """Per-block checksum and magnitude vectors, in flat leased buffers.

    ``axis=0`` sums over rows (A's column checksums), ``axis=1`` over
    columns (B's row checksums). Alongside each checksum, every block
    yields its magnitude pair ``(|blk|.sum(axis=0), |blk|.sum(axis=1))``
    — the verifier's tolerance-band material, from which a group
    update's column/row magnitude bounds derive with O(m + n) vector
    arithmetic, so the verify path never rescans ``|A|`` or ``|B|``.

    All vectors are views into two 1-D buffers — two pool leases for the
    whole matrix — filled in place with ``np.sum(..., out=view)``. Both
    reductions of a block run back to back while it is cache-resident,
    so the matrix streams from DRAM once, not twice.
    """
    cs_total = sum(blk.shape[1 - axis] for row in grid for blk in row)
    mag_total = sum(blk.shape[0] + blk.shape[1] for row in grid for blk in row)
    lease = pool.lease if pool is not None else np.empty
    cs_buf = lease((cs_total,), grid[0][0].dtype)
    mag_buf = lease((mag_total,), grid[0][0].dtype)
    scratch: dict[tuple[int, int], np.ndarray] = {}  # <= 4 block shapes
    cs_out: list[list[np.ndarray]] = []
    mag_out: list[list[tuple[np.ndarray, np.ndarray]]] = []
    cs_off = mag_off = 0
    for row in grid:
        cs_vecs: list[np.ndarray] = []
        mag_pairs: list[tuple[np.ndarray, np.ndarray]] = []
        for blk in row:
            view = cs_buf[cs_off : cs_off + blk.shape[1 - axis]]
            np.sum(blk, axis=axis, out=view)
            cs_vecs.append(view)
            cs_off += view.size
            ab = scratch.get(blk.shape)
            if ab is None or ab.dtype != blk.dtype:
                ab = lease(blk.shape, blk.dtype)
                scratch[blk.shape] = ab
            np.abs(blk, out=ab)
            cols = mag_buf[mag_off : mag_off + blk.shape[1]]
            np.sum(ab, axis=0, out=cols)
            mag_off += cols.size
            rows_v = mag_buf[mag_off : mag_off + blk.shape[0]]
            np.sum(ab, axis=1, out=rows_v)
            mag_off += rows_v.size
            mag_pairs.append((cols, rows_v))
        cs_out.append(cs_vecs)
        mag_out.append(mag_pairs)
    if pool is not None:
        pool.release(*scratch.values())
    return cs_out, mag_out, cs_buf, mag_buf


def _checksum_grids_fast(
    grid: list[list[np.ndarray]],
    parts: GridParts,
    axis: int,
    pool: BufferPool | None,
) -> tuple[
    list[list[np.ndarray]],
    list[list[tuple[np.ndarray, np.ndarray]]],
    tuple[np.ndarray, ...],
]:
    """Checksums + magnitudes as whole-buffer reductions.

    Same outputs as :func:`_checksum_grids`, but each backing buffer of
    the vectorized pack is reduced with one numpy call per result
    (checksum, ``|.|`` per-column sums, ``|.|`` per-row sums) — the
    matrix streams once and no python loop runs per block. Bit-identical
    to the per-block path: each block's reduction covers the same
    contiguous elements in the same pairwise order.
    """
    lease = pool.lease if pool is not None else np.empty
    held: list[np.ndarray] = []

    def reduce_part(arr: np.ndarray, ra: int, ca: int):
        ab = lease(arr.shape, arr.dtype)
        np.abs(arr, out=ab)
        outs = []
        for src, ax in ((arr, ra if axis == 0 else ca), (ab, ra), (ab, ca)):
            out = lease(src.shape[:ax] + src.shape[ax + 1 :], arr.dtype)
            np.sum(src, axis=ax, out=out)
            outs.append(out)
            held.append(out)
        if pool is not None:
            pool.release(ab)
        return outs

    nb_c = len(grid[0])
    cs_grid: list[list[np.ndarray]] = [[None] * nb_c for _ in grid]
    mag_grid: list[list[tuple[np.ndarray, np.ndarray]]] = [
        [None] * nb_c for _ in grid
    ]
    rf, cf = parts.r_full, parts.c_full
    if parts.main is not None:
        cs, m0, m1 = reduce_part(parts.main, 2, 3)
        for i in range(rf):
            for j in range(cf):
                cs_grid[i][j] = cs[i, j]
                mag_grid[i][j] = (m0[i, j], m1[i, j])
    if parts.right is not None:
        cs, m0, m1 = reduce_part(parts.right, 1, 2)
        for i in range(rf):
            cs_grid[i][cf] = cs[i]
            mag_grid[i][cf] = (m0[i], m1[i])
    if parts.bottom is not None:
        cs, m0, m1 = reduce_part(parts.bottom, 1, 2)
        for j in range(cf):
            cs_grid[rf][j] = cs[j]
            mag_grid[rf][j] = (m0[j], m1[j])
    if parts.corner is not None:
        cs, m0, m1 = reduce_part(parts.corner, 0, 1)
        cs_grid[rf][cf] = cs
        mag_grid[rf][cf] = (m0, m1)
    return cs_grid, mag_grid, tuple(held)


# -- the loop oracle ----------------------------------------------------------


def _pack_grid_loop(
    x: np.ndarray, row_chunk: int, col_chunk: int
) -> list[list[np.ndarray]]:
    """The original nested-loop packer: one contiguous copy per block."""
    rows, cols = x.shape
    r_sizes = split_length(rows, min(row_chunk, rows))
    c_sizes = split_length(cols, min(col_chunk, cols))
    grid: list[list[np.ndarray]] = []
    r0 = 0
    for rs in r_sizes:
        row: list[np.ndarray] = []
        c0 = 0
        for cs in c_sizes:
            row.append(np.ascontiguousarray(x[r0 : r0 + rs, c0 : c0 + cs]))
            c0 += cs
        grid.append(row)
        r0 += rs
    return grid


def _check_matrix(name: str, x: np.ndarray) -> None:
    if not isinstance(x, np.ndarray) or x.ndim != 2:
        raise TypeError(f"{name} must be a 2-D numpy array, got {type(x).__name__}")
    if x.size == 0:
        raise ValueError(f"{name} must be non-empty")
