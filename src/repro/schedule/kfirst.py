"""Algorithm 2 — the K-first boustrophedon block schedule.

The reduction dimension K is traversed innermost, so each C block's partial
results complete in one uninterrupted run of in-place accumulation. At the
end of every run the traversal *turns* rather than restarting at index 0:

* **m-turn** (middle loop advances): the previous and next block sit at the
  same ``(ki, ni)``, so the **B surface** stays resident — no refetch.
* **n-turn** (outer loop advances): the previous and next block share
  ``(mi, ki)``, so the **A surface** stays resident.

Without the turns, no A or B surface would ever be reused across runs —
``O(Mb*Nb + Nb)`` missed reuses (Section 2.2), which the ablation bench
measures via :func:`repro.schedule.reuse.analyze_reuse`.

The pseudocode in the paper assumes ``N >= M`` (outer loop over N so the
larger B surfaces get the more frequent m-turn reuse); for ``M > N`` the
outer two loops swap. :func:`kfirst_schedule` applies that rule
automatically unless overridden.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from repro.schedule.space import BlockCoord, BlockGrid


def _swept(count: int, forward: bool) -> range:
    """Indices ``0..count-1`` in the requested direction."""
    return range(count) if forward else range(count - 1, -1, -1)


def kfirst_schedule(
    grid: BlockGrid,
    *,
    outer: Literal["auto", "n", "m"] = "auto",
) -> list[BlockCoord]:
    """Order the grid's blocks per Algorithm 2.

    Parameters
    ----------
    grid:
        The block grid to traverse.
    outer:
        Which dimension the outer loop sweeps. ``"auto"`` (the paper's
        rule) picks N when ``N >= M`` — reusing the larger B surface more
        frequently — and M otherwise.

    Returns
    -------
    list[BlockCoord]
        Every block exactly once, consecutive blocks always sharing a
        surface (partial C within a run, B at m-turns, A at n-turns — or
        the A/B mirror image when the outer loop is M).
    """
    if outer == "auto":
        outer = "n" if grid.space.n >= grid.space.m else "m"

    order: list[BlockCoord] = []
    if outer == "n":
        for ni in _swept(grid.nb, True):
            for mi in _swept(grid.mb, ni % 2 == 0):
                for ki in _swept(grid.kb, (mi + ni) % 2 == 0):
                    order.append(BlockCoord(mi, ni, ki))
    elif outer == "m":
        for mi in _swept(grid.mb, True):
            for ni in _swept(grid.nb, mi % 2 == 0):
                for ki in _swept(grid.kb, (mi + ni) % 2 == 0):
                    order.append(BlockCoord(mi, ni, ki))
    else:
        raise ValueError(f"outer must be 'auto', 'n' or 'm', got {outer!r}")
    return order


@dataclass(frozen=True)
class OrderArrays:
    """A block schedule as three parallel coordinate arrays.

    ``(mi[i], ni[i], ki[i])`` is the i-th scheduled block — the same
    sequence the corresponding ``list[BlockCoord]`` builder produces, but
    enumerable in one shot and indexable into
    :meth:`~repro.schedule.space.BlockGrid.size_arrays` gathers. This is
    the structure-of-arrays form the batch analyzer walks.
    """

    mi: np.ndarray
    ni: np.ndarray
    ki: np.ndarray

    def __len__(self) -> int:
        return len(self.mi)

    def coords(self) -> list[BlockCoord]:
        """Materialise as the scalar builders' ``list[BlockCoord]``."""
        return [
            BlockCoord(int(m), int(n), int(k))
            for m, n, k in zip(self.mi, self.ni, self.ki)
        ]


def _boustrophedon_arrays(
    outer_count: int, middle_count: int, inner_count: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index arrays of the generic three-loop boustrophedon nest.

    The outer loop ascends; the middle loop ascends iff the outer index
    is even; the inner loop ascends iff (outer + middle) is even —
    exactly the flip rule of Algorithm 2, computed as one broadcast.
    Returns flat arrays of shape ``(outer*middle*inner,)`` in nest order.
    """
    shape = (outer_count, middle_count, inner_count)
    outer = np.arange(outer_count, dtype=np.int64)
    mid_fwd = np.arange(middle_count, dtype=np.int64)
    middle = np.where(
        (outer % 2 == 0)[:, None], mid_fwd[None, :], mid_fwd[::-1][None, :]
    )
    inner_fwd = np.arange(inner_count, dtype=np.int64)
    inner_asc = (middle + outer[:, None]) % 2 == 0
    inner = np.where(
        inner_asc[:, :, None],
        inner_fwd[None, None, :],
        inner_fwd[::-1][None, None, :],
    )
    return (
        np.broadcast_to(outer[:, None, None], shape).reshape(-1),
        np.broadcast_to(middle[:, :, None], shape).reshape(-1),
        inner.reshape(-1),
    )


def kfirst_order_arrays(
    grid: BlockGrid,
    *,
    outer: Literal["auto", "n", "m"] = "auto",
) -> OrderArrays:
    """Algorithm 2's block order as coordinate arrays.

    Element-for-element identical to :func:`kfirst_schedule` (asserted
    by tests and hypothesis), but produced by one vectorized broadcast
    instead of a three-deep Python loop — the enumeration half of the
    batch analyzer's fast path.
    """
    if outer == "auto":
        outer = "n" if grid.space.n >= grid.space.m else "m"
    if outer == "n":
        ni, mi, ki = _boustrophedon_arrays(grid.nb, grid.mb, grid.kb)
    elif outer == "m":
        mi, ni, ki = _boustrophedon_arrays(grid.mb, grid.nb, grid.kb)
    else:
        raise ValueError(f"outer must be 'auto', 'n' or 'm', got {outer!r}")
    return OrderArrays(mi=mi, ni=ni, ki=ki)
