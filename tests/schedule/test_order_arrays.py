"""Vectorized schedule enumeration and the grouped LRU replay.

Every array builder must reproduce its scalar builder's block sequence
element for element, on remainder-heavy grids (prime dimensions leave a
ragged block on all three axes), and :func:`surface_lru_replay` must
make :class:`SurfaceResidency`'s hits and spills block by block, for
every schedule variant.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cb_block import CBBlock
from repro.schedule import (
    ORDER_ARRAY_BUILDERS,
    SCHEDULE_BUILDERS,
    BlockGrid,
    ComputationSpace,
    SurfaceResidency,
    build_order_arrays,
    build_schedule,
    kfirst_order_arrays,
    kfirst_schedule,
    naive_order_arrays,
    occurrence_index,
    surface_lru_replay,
)
from repro.schedule import reuse

VARIANTS = sorted(SCHEDULE_BUILDERS)


def _grid(m, n, k, bm, bn, bk):
    return BlockGrid(ComputationSpace(m, n, k), CBBlock(m=bm, n=bn, k=bk))


GRIDS = [
    _grid(8, 8, 8, 4, 4, 4),        # uniform
    _grid(97, 53, 31, 16, 16, 8),   # prime extents: ragged on all axes
    _grid(5, 40, 3, 2, 7, 2),       # M < N and K smaller than one block
    _grid(40, 5, 12, 7, 2, 5),      # M > N flips the outer loop
    _grid(6, 6, 6, 9, 9, 9),        # single block
    _grid(1, 1, 17, 1, 1, 4),       # degenerate: K-only grid
]


class TestOrderArrays:
    @pytest.mark.parametrize("grid", GRIDS)
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_matches_scalar_builder(self, grid, variant):
        assert (
            build_order_arrays(variant, grid).coords()
            == build_schedule(variant, grid)
        )

    @pytest.mark.parametrize("grid", GRIDS)
    @pytest.mark.parametrize("outer", ["n", "m"])
    def test_kfirst_outer_override(self, grid, outer):
        assert (
            kfirst_order_arrays(grid, outer=outer).coords()
            == kfirst_schedule(grid, outer=outer)
        )

    def test_builders_cover_same_names(self):
        assert sorted(ORDER_ARRAY_BUILDERS) == VARIANTS

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown schedule"):
            build_order_arrays("zigzag", GRIDS[0])

    @given(
        st.integers(1, 40), st.integers(1, 40), st.integers(1, 40),
        st.integers(1, 12), st.integers(1, 12), st.integers(1, 12),
    )
    def test_matches_scalar_builder_hypothesis(self, m, n, k, bm, bn, bk):
        grid = _grid(m, n, k, bm, bn, bk)
        for variant in VARIANTS:
            assert (
                build_order_arrays(variant, grid).coords()
                == build_schedule(variant, grid)
            )


class TestOccurrenceIndex:
    def test_matches_progress_dict(self):
        keys = np.array([3, 1, 3, 3, 1, 2, 3, 2])
        progress: dict[int, int] = {}
        expected = []
        for key in keys.tolist():
            expected.append(progress.get(key, 0))
            progress[key] = progress.get(key, 0) + 1
        assert occurrence_index(keys).tolist() == expected

    def test_empty(self):
        assert len(occurrence_index(np.array([], dtype=np.int64))) == 0


def _footprint(grid):
    """The Sec. 4.3 budget of one nominal block: ``C + 2(A + B)``."""
    nominal = grid.nominal
    return nominal.m * nominal.n + 2 * (
        nominal.m * nominal.k + nominal.k * nominal.n
    )


def _residency_walk(grid, order, capacity):
    """Per-block A/B/C hit flags and spill of :class:`SurfaceResidency`,
    touched one block at a time as the analytic walks touch it."""
    spill = 0

    def on_evict(key, elements):
        nonlocal spill
        if key[0] == "C":
            spill += elements

    residency = SurfaceResidency(capacity, on_evict=on_evict)
    progress = {}
    hits = np.zeros((3, len(order)), dtype=bool)
    for i, coord in enumerate(order.coords()):
        ext = grid.extent(coord)
        keys = (
            ("A", coord.mi, coord.ki),
            ("B", coord.ki, coord.ni),
            ("C", coord.mi, coord.ni),
        )
        sizes = (ext.surface_a, ext.surface_b, ext.surface_c)
        for surface, (key, size) in enumerate(zip(keys, sizes)):
            hits[surface, i] = residency.touch(key, size, pinned=keys)
        progress[keys[2]] = progress.get(keys[2], 0) + 1
        if progress[keys[2]] == grid.kb:
            residency.invalidate(keys[2])
    return hits, spill


def _replay(grid, order, capacity):
    a_hit, b_hit, c_hit, _, spill = surface_lru_replay(grid, order, capacity)
    return np.stack((a_hit, b_hit, c_hit)), spill


def _spy_on_replay():
    """Patch ``_LruReplay`` to record the blocks each ``advance`` call
    steps and the size of each resident set ``shift`` translates."""
    stepped, translated = [], []
    advance, shift = reuse._LruReplay.advance, reuse._LruReplay.shift

    def spy_advance(replay, blocks, hits, lo=0):
        stepped.append(0)

        def counted():  # lazily: the replay decides as it steps
            for block in blocks:
                stepped[-1] += 1
                yield block

        return advance(replay, counted(), hits, lo)

    def spy_shift(replay, dm, dn):
        translated.append(len(replay.entries))
        return shift(replay, dm, dn)

    spy = mock.patch.multiple(
        reuse._LruReplay, advance=spy_advance, shift=spy_shift
    )
    return stepped, translated, spy


class TestSurfaceLruReplay:
    """The replay equals :class:`SurfaceResidency` block by block."""

    @settings(max_examples=80)
    @given(
        st.integers(1, 24), st.integers(1, 24),
        st.integers(2, 8), st.integers(2, 8),
        st.integers(2, 6), st.integers(1, 14),
        st.data(),
        st.sampled_from(VARIANTS),
        st.one_of(
            st.just(0.0), st.floats(0.05, 5.0), st.floats(5.0, 1000.0)
        ),
    )
    def test_hits_and_spill_match_block_by_block(
        self, m, n, bm, bn, bk, kb, data, variant, budget
    ):
        """Runs of 1-14 blocks whose last K panel is ragged, at budgets
        from one element to 1,000 nominal footprints, where the LRU holds
        the whole problem."""
        ragged = data.draw(st.integers(1, bk - 1))
        grid = _grid(m, n, bk * (kb - 1) + ragged, bm, bn, bk)
        order = build_order_arrays(variant, grid)
        # Budget 0 is one element: every block runs pinned over budget.
        capacity = max(1, int(_footprint(grid) * budget))
        hits, spill = _replay(grid, order, capacity)
        want_hits, want_spill = _residency_walk(grid, order, capacity)
        np.testing.assert_array_equal(hits, want_hits)
        assert spill == want_spill

    def test_kfirst_runs_repeat_at_one_footprint(self):
        """The 23 x 23 x 23 grid of one-core CAKE at 5760^3 on the Intel
        preset, at one nominal footprint: the LRU carries little across a
        turn, so the run keys repeat and few of the 529 runs are stepped."""
        grid = _grid(5760, 5760, 5760, 251, 251, 252)
        order = kfirst_order_arrays(grid)
        capacity = _footprint(grid)
        stepped, _, spy = _spy_on_replay()
        with spy:
            hits, spill = _replay(grid, order, capacity)
        want_hits, want_spill = _residency_walk(grid, order, capacity)
        np.testing.assert_array_equal(hits, want_hits)
        assert spill == want_spill
        assert sum(stepped) <= 16 * grid.kb

    def test_naive_order_uses_the_memo(self):
        """Naive runs all ascend and every column returns to row 0, yet
        their run keys repeat too."""
        grid = _grid(60, 70, 95, 6, 7, 6)
        order = naive_order_arrays(grid)
        capacity = _footprint(grid)
        stepped, _, spy = _spy_on_replay()
        with spy:
            hits, spill = _replay(grid, order, capacity)
        want_hits, want_spill = _residency_walk(grid, order, capacity)
        np.testing.assert_array_equal(hits, want_hits)
        assert spill == want_spill
        assert sum(stepped) < len(order) // 4

    def test_large_capacity_translates_no_long_state(self):
        """At 1,000 footprints the LRU holds the whole problem and no
        state repeats: runs are stepped where their keys are, and no
        resident set longer than one run's surfaces is translated."""
        grid = _grid(60, 70, 95, 6, 7, 6)
        order = kfirst_order_arrays(grid)
        capacity = 1000 * _footprint(grid)
        stepped, translated, spy = _spy_on_replay()
        with spy:
            hits, spill = _replay(grid, order, capacity)
        want_hits, want_spill = _residency_walk(grid, order, capacity)
        np.testing.assert_array_equal(hits, want_hits)
        assert spill == want_spill
        assert sum(stepped) == len(order)
        assert max(translated) <= 2 * grid.kb + 1
