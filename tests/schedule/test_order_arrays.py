"""Vectorized schedule enumeration and the batched reuse analyzer.

Every array builder must reproduce its scalar builder's block sequence
element for element, and :func:`analyze_reuse_batch` must match
:func:`analyze_reuse` field for field — under both residency models, for
every schedule variant, on remainder-heavy grids (prime dimensions leave
a ragged block on all three axes, the hardest case for closed forms).
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cb_block import CBBlock
from repro.errors import ScheduleError
from repro.schedule import (
    ORDER_ARRAY_BUILDERS,
    SCHEDULE_BUILDERS,
    BlockGrid,
    ComputationSpace,
    SurfaceResidency,
    analyze_reuse,
    analyze_reuse_batch,
    build_order_arrays,
    build_schedule,
    encode_surface_ids,
    kfirst_order_arrays,
    kfirst_schedule,
    occurrence_index,
    surface_lru_replay,
    validate_order_arrays,
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


def _report_fields(report):
    return {
        name: getattr(report, name)
        for name in (
            "io_a", "io_b", "io_c_spill", "io_c_refetch", "io_c_final",
            "reuse_a", "reuse_b", "reuse_c", "blocks",
        )
    }


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


class TestValidateOrderArrays:
    def test_accepts_every_variant(self):
        for grid in GRIDS:
            for variant in VARIANTS:
                validate_order_arrays(grid, build_order_arrays(variant, grid))

    def test_rejects_duplicate_block(self):
        grid = GRIDS[0]
        order = kfirst_order_arrays(grid)
        mi = order.mi.copy()
        mi[-1] = mi[0]
        ni = order.ni.copy()
        ni[-1] = ni[0]
        ki = order.ki.copy()
        ki[-1] = ki[0]
        broken = type(order)(mi=mi, ni=ni, ki=ki)
        with pytest.raises(ScheduleError):
            validate_order_arrays(grid, broken)

    def test_rejects_truncated_schedule(self):
        grid = GRIDS[0]
        order = kfirst_order_arrays(grid)
        short = type(order)(mi=order.mi[:-1], ni=order.ni[:-1], ki=order.ki[:-1])
        with pytest.raises(ScheduleError, match="covers"):
            validate_order_arrays(grid, short)

    def test_rejects_out_of_range_coordinate(self):
        grid = GRIDS[0]
        order = kfirst_order_arrays(grid)
        mi = order.mi.copy()
        mi[0] = grid.mb
        with pytest.raises(ScheduleError, match="outside"):
            validate_order_arrays(grid, type(order)(mi=mi, ni=order.ni, ki=order.ki))


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


class TestAnalyzeReuseBatch:
    @pytest.mark.parametrize("grid", GRIDS)
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_adjacency_model_matches_scalar(self, grid, variant):
        scalar = analyze_reuse(grid, build_schedule(variant, grid))
        batch = analyze_reuse_batch(grid, build_order_arrays(variant, grid))
        assert _report_fields(batch) == _report_fields(scalar)

    @pytest.mark.parametrize("grid", GRIDS)
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("budget_blocks", [0.5, 1.5, 4.0])
    def test_capacity_model_matches_scalar(self, grid, variant, budget_blocks):
        """LRU replay equals SurfaceResidency at tight and slack budgets."""
        nominal = grid.nominal
        footprint = nominal.m * nominal.n + 2 * (
            nominal.m * nominal.k + nominal.k * nominal.n
        )
        capacity = max(int(footprint * budget_blocks), 1)
        scalar = analyze_reuse(
            grid, build_schedule(variant, grid), capacity_elements=capacity
        )
        batch = analyze_reuse_batch(
            grid,
            build_order_arrays(variant, grid),
            capacity_elements=capacity,
        )
        assert _report_fields(batch) == _report_fields(scalar)

    @given(
        st.integers(1, 30), st.integers(1, 30), st.integers(1, 30),
        st.integers(1, 10), st.integers(1, 10), st.integers(1, 10),
        st.sampled_from(VARIANTS),
        st.floats(0.3, 5.0),
    )
    def test_both_models_match_scalar_hypothesis(
        self, m, n, k, bm, bn, bk, variant, budget_blocks
    ):
        grid = _grid(m, n, k, bm, bn, bk)
        order = build_schedule(variant, grid)
        arrays = build_order_arrays(variant, grid)
        assert _report_fields(
            analyze_reuse_batch(grid, arrays)
        ) == _report_fields(analyze_reuse(grid, order))
        nominal = grid.nominal
        footprint = nominal.m * nominal.n + 2 * (
            nominal.m * nominal.k + nominal.k * nominal.n
        )
        capacity = max(int(footprint * budget_blocks), 1)
        assert _report_fields(
            analyze_reuse_batch(grid, arrays, capacity_elements=capacity)
        ) == _report_fields(
            analyze_reuse(grid, order, capacity_elements=capacity)
        )


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
    sa, sb, sc = grid.surface_arrays(order.mi, order.ni, order.ki)
    final = occurrence_index(order.mi * grid.nb + order.ni) == grid.kb - 1
    a_ids, b_ids, c_ids, c_base = encode_surface_ids(grid, order)
    *hits, spill = surface_lru_replay(
        a_ids, b_ids, c_ids, sa, sb, sc, final, capacity, c_base
    )
    return np.stack(hits), spill


def _always(columns, capacity):
    return True


def _spy_on_advance():
    """Patch ``_LruReplay.advance`` to record, for each call, the length
    of the stretch it applies (``None`` for block-by-block steps only)."""
    calls = []
    advance = reuse._LruReplay.advance

    def spy(replay, lo, blocks, stretch=None):
        calls.append(None if stretch is None else len(stretch[1]))
        return advance(replay, lo, blocks, stretch)

    return calls, mock.patch.object(reuse._LruReplay, "advance", spy)


class TestSurfaceLruReplay:
    """The replay equals :class:`SurfaceResidency` block by block."""

    @settings(max_examples=80)
    @given(
        st.integers(1, 24), st.integers(1, 24),
        st.integers(2, 8), st.integers(2, 8),
        st.integers(2, 6), st.integers(8, 14),
        st.data(),
        st.sampled_from(VARIANTS),
        st.one_of(st.just(0.0), st.floats(0.05, 5.0)),
    )
    def test_hits_and_spill_match_block_by_block(
        self, m, n, bm, bn, bk, kb, data, variant, budget
    ):
        """Runs of ``kb >= 8`` blocks whose last K panel is ragged, so
        stretches start and stop at turns and at the ragged block. The
        search thresholds are lifted, so that stretches of any length are
        applied on grids this small."""
        ragged = data.draw(st.integers(1, bk - 1))
        grid = _grid(m, n, bk * (kb - 1) + ragged, bm, bn, bk)
        order = build_order_arrays(variant, grid)
        # Budget 0 is one element: every block runs pinned over budget.
        capacity = max(1, int(_footprint(grid) * budget))
        with mock.patch.object(reuse, "_MIN_SEARCH", 0), mock.patch.object(
            reuse, "_MIN_STRETCH", 1
        ), mock.patch.object(reuse, "_runs_leave_stretches", _always):
            hits, spill = _replay(grid, order, capacity)
        want_hits, want_spill = _residency_walk(grid, order, capacity)
        np.testing.assert_array_equal(hits, want_hits)
        assert spill == want_spill

    def test_kfirst_runs_are_applied_in_one_step(self):
        """At the Sec. 4.3 budget, most of each long K-first run is one
        stretch, with the replay's own thresholds."""
        grid = _grid(120, 140, 143, 6, 7, 6)  # kb = 24, ragged last panel
        order = kfirst_order_arrays(grid)
        capacity = _footprint(grid)
        calls, spy = _spy_on_advance()
        with spy:
            hits, spill = _replay(grid, order, capacity)
        want_hits, want_spill = _residency_walk(grid, order, capacity)
        np.testing.assert_array_equal(hits, want_hits)
        assert spill == want_spill
        assert sum(length for length in calls if length) > len(order) // 2

    def test_large_capacity_steps_runs_without_rescanning(self):
        """With most surfaces resident, runs fall back to the per-block
        step: few become stretches, and no run is stepped or scanned more
        than once, so the replay makes at most one call per run."""
        grid = _grid(60, 70, 95, 6, 7, 6)
        order = kfirst_order_arrays(grid)
        capacity = 30 * _footprint(grid)
        calls, spy = _spy_on_advance()
        with mock.patch.object(reuse, "_MIN_SEARCH", 0), mock.patch.object(
            reuse, "_MIN_STRETCH", 1
        ), mock.patch.object(reuse, "_runs_leave_stretches", _always), spy:
            hits, spill = _replay(grid, order, capacity)
        want_hits, want_spill = _residency_walk(grid, order, capacity)
        np.testing.assert_array_equal(hits, want_hits)
        assert spill == want_spill
        runs = grid.mb * grid.nb
        assert sum(1 for length in calls if length) < runs // 4
        assert len(calls) <= runs

    def test_capacity_for_the_turn_reuse_skips_the_search(self):
        """When the LRU carries whole runs across the turns, nothing is
        searched: the schedule is stepped in one call."""
        grid = _grid(120, 140, 143, 6, 7, 6)
        order = kfirst_order_arrays(grid)
        capacity = 30 * _footprint(grid)
        calls, spy = _spy_on_advance()
        with spy:
            hits, spill = _replay(grid, order, capacity)
        want_hits, want_spill = _residency_walk(grid, order, capacity)
        np.testing.assert_array_equal(hits, want_hits)
        assert spill == want_spill
        assert calls == [None]
