"""Tests for operand packing."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.gemm import CakeGemm
from repro.gemm.parallel import GridOperand, _BlockSums, grid_operands
from repro.packing import (
    BufferPool,
    pack_a,
    pack_a_cake,
    pack_b,
    pack_b_cake,
    packing_cost,
)
from repro.machines import intel_i9_10900k
from repro.util import split_length

from tests.conftest import LoopPacked, loop_pack


def small_matrix(max_dim=60):
    shapes = st.tuples(st.integers(1, max_dim), st.integers(1, max_dim))
    return shapes.flatmap(
        lambda s: arrays(np.float64, s, elements=st.floats(-10, 10, width=64))
    )


class TestPackA:
    def test_blocks_reassemble_to_source(self, rng):
        a = rng.standard_normal((25, 17))
        packed = pack_a_cake(a, 8, 5)
        rebuilt = np.vstack(
            [np.hstack(row) for row in packed.blocks]
        )
        np.testing.assert_array_equal(rebuilt, a)

    def test_shapes(self, rng):
        a = rng.standard_normal((25, 17))
        packed = pack_a_cake(a, 8, 5)
        assert packed.strips == 4  # 8+8+8+1
        assert packed.k_panels == 4  # 5+5+5+2
        assert packed.block(0, 0).shape == (8, 5)
        assert packed.block(3, 3).shape == (1, 2)

    def test_blocks_are_contiguous_copies(self, rng):
        a = rng.standard_normal((16, 16))
        packed = pack_a_cake(a, 8, 8)
        blk = packed.block(0, 0)
        assert blk.flags["C_CONTIGUOUS"]
        blk[0, 0] = 999.0
        assert a[0, 0] != 999.0  # packing copied, not aliased

    def test_elements_preserved(self, rng):
        a = rng.standard_normal((25, 17))
        assert pack_a_cake(a, 8, 5).elements == a.size

    def test_rejects_non_2d(self):
        with pytest.raises(TypeError):
            pack_a_cake(np.zeros(5), 2, 2)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            pack_a_cake(np.zeros((0, 3)), 2, 2)

    @settings(max_examples=30)
    @given(small_matrix(), st.integers(1, 16), st.integers(1, 16))
    def test_roundtrip_property(self, a, mc, kc):
        packed = pack_a_cake(a, mc, kc)
        rebuilt = np.vstack([np.hstack(row) for row in packed.blocks])
        np.testing.assert_array_equal(rebuilt, a)


class TestPackB:
    def test_panels_reassemble_to_source(self, rng):
        b = rng.standard_normal((19, 33))
        packed = pack_b_cake(b, 6, 10)
        rebuilt = np.vstack([np.hstack(row) for row in packed.panels])
        np.testing.assert_array_equal(rebuilt, b)

    def test_panel_lookup(self, rng):
        b = rng.standard_normal((19, 33))
        packed = pack_b_cake(b, 6, 10)
        np.testing.assert_array_equal(packed.panel(0, 1), b[0:6, 10:20])

    @settings(max_examples=30)
    @given(small_matrix(), st.integers(1, 16), st.integers(1, 16))
    def test_roundtrip_property(self, b, kc, nb):
        packed = pack_b_cake(b, kc, nb)
        rebuilt = np.vstack([np.hstack(row) for row in packed.panels])
        np.testing.assert_array_equal(rebuilt, b)


def _assert_grids_bit_identical(fast, oracle):
    assert len(fast) == len(oracle)
    for fast_row, oracle_row in zip(fast, oracle):
        assert len(fast_row) == len(oracle_row)
        for f, o in zip(fast_row, oracle_row):
            assert f.shape == o.shape
            assert f.dtype == o.dtype
            assert f.flags["C_CONTIGUOUS"]
            assert f.tobytes() == o.tobytes()  # bit-identical layout


class TestVectorizedVsOracle:
    """The strided packer must match the loop oracle (``loop_pack``, one
    contiguous copy per block) bit for bit."""

    @settings(max_examples=40)
    @given(small_matrix(), st.integers(1, 16), st.integers(1, 16))
    def test_pack_a_matches_oracle(self, a, mc, kc):
        fast = pack_a(a, mc, kc)
        _assert_grids_bit_identical(fast.blocks, loop_pack(a, mc, kc))

    @settings(max_examples=40)
    @given(small_matrix(), st.integers(1, 16), st.integers(1, 16))
    def test_pack_b_matches_oracle(self, b, kc, nb):
        fast = pack_b(b, kc, nb)
        _assert_grids_bit_identical(fast.panels, loop_pack(b, kc, nb))

    @pytest.mark.parametrize("shape", [(1, 1), (1, 37), (37, 1), (31, 29), (97, 89)])
    def test_prime_ragged_shapes(self, shape, rng):
        x = rng.standard_normal(shape)
        for chunk in (1, 2, 7, 13, max(shape)):
            _assert_grids_bit_identical(
                pack_a(x, chunk, chunk).blocks,
                loop_pack(x, chunk, chunk),
            )

    def test_fortran_ordered_input(self, rng):
        x = np.asfortranarray(rng.standard_normal((45, 37)))
        _assert_grids_bit_identical(
            pack_a(x, 8, 5).blocks, loop_pack(x, 8, 5)
        )

    def test_transposed_view_input(self, rng):
        x = rng.standard_normal((37, 45)).T  # F-ordered view, no copy
        _assert_grids_bit_identical(
            pack_a(x, 8, 5).blocks, loop_pack(x, 8, 5)
        )

    def test_strided_slice_input(self, rng):
        base = rng.standard_normal((90, 74))
        x = base[::2, ::2]  # non-contiguous in both dimensions
        _assert_grids_bit_identical(
            pack_a(x, 8, 5).blocks, loop_pack(x, 8, 5)
        )

    def test_reverse_strided_input(self, rng):
        x = rng.standard_normal((25, 17))[::-1]
        _assert_grids_bit_identical(
            pack_a(x, 8, 5).blocks, loop_pack(x, 8, 5)
        )

    def test_float32_dtype_preserved(self, rng):
        x = rng.standard_normal((25, 17)).astype(np.float32)
        packed = pack_a(x, 8, 5)
        assert all(b.dtype == np.float32 for row in packed.blocks for b in row)
        _assert_grids_bit_identical(
            packed.blocks, loop_pack(x, 8, 5)
        )


def _views(x, row_chunk, col_chunk):
    """``x`` cut in place at the packing grid's edges."""

    def edges(extent, chunk):
        sizes = split_length(extent, min(chunk, extent))
        return tuple(np.cumsum([0, *sizes]).tolist())

    return GridOperand(
        x, edges(x.shape[0], row_chunk), edges(x.shape[1], col_chunk)
    )


class TestGridOperand:
    """The engines' operands: views cut where the packer cuts blocks."""

    @settings(max_examples=40)
    @given(small_matrix(), st.integers(1, 16), st.integers(1, 16))
    def test_views_equal_the_packed_blocks(self, a, mc, kc):
        packed = pack_a(a, mc, kc)
        views = _views(a, mc, kc)
        for si, row in enumerate(packed.blocks):
            for ki, blk in enumerate(row):
                view = views.block(si, ki)
                assert np.shares_memory(view, a)
                assert view.shape == blk.shape
                assert view.tobytes() == blk.tobytes()
                np.testing.assert_array_equal(views.panel(si, ki), blk)

    def test_column_is_one_view_of_the_stacked_strips(self, rng):
        a = rng.standard_normal((25, 17))
        views, packed = _views(a, 8, 5), LoopPacked(a, 8, 5)
        for start, stop in ((0, None), (1, 3), (2, 3)):
            column = views.column(2, start=start, stop=stop)
            assert np.shares_memory(column, a)
            np.testing.assert_array_equal(
                column, packed.column(2, start=start, stop=stop)
            )

    @pytest.mark.parametrize(
        "layout",
        ["C", "F", "transposed", "strided", "reversed", "unaligned"],
    )
    def test_only_a_c_ordered_operand_is_read_in_place(self, rng, layout):
        base = rng.standard_normal((90, 74))
        unaligned = np.empty(45 * 74 * 8 + 1, np.uint8)[1:].view(np.float64)
        unaligned = unaligned.reshape(45, 74)
        unaligned[...] = base[:45]
        a = {
            "C": base[:45],
            "F": np.asfortranarray(base[:45]),
            "transposed": base[:, :45].T,
            "strided": base[::2],
            "reversed": base[45:][::-1],
            "unaligned": unaligned,
        }[layout]
        b = rng.standard_normal((74, 30))
        plan = CakeGemm(intel_i9_10900k(), cores=2).plan_for(45, 30, 74)
        a_op, b_op = grid_operands(plan, a, b)
        assert b_op.x is b
        assert (a_op.x is a) == (layout == "C")
        assert a_op.x.flags["C_CONTIGUOUS"] and a_op.x.flags["ALIGNED"]
        np.testing.assert_array_equal(a_op.x, a)


class TestChecksums:
    """ABFT checksum vectors of an operand's blocks (repro.gemm.verify's
    inputs): computed once per block by the group builder, from the
    in-place views or from the loop packer's blocks alike."""

    def test_a_column_checksums_match_numpy(self, rng):
        a = rng.standard_normal((25, 17))
        packed = pack_a(a, 8, 5)
        sums = _BlockSums(_views(a, 8, 5).block, axis=0)
        for si in range(packed.strips):
            for ki in range(packed.k_panels):
                blk = packed.block(si, ki)
                np.testing.assert_array_equal(sums(si, ki)[0], blk.sum(axis=0))

    def test_b_row_checksums_match_numpy(self, rng):
        b = rng.standard_normal((19, 33))
        packed = pack_b(b, 6, 10)
        sums = _BlockSums(_views(b, 6, 10).panel, axis=1)
        for ki in range(packed.k_panels):
            for ni in range(packed.n_panels):
                np.testing.assert_array_equal(
                    sums(ki, ni)[0], packed.panel(ki, ni).sum(axis=1)
                )

    def test_exact_path_checksums_bit_identical(self, rng):
        a = rng.standard_normal((31, 29))
        views = _BlockSums(_views(a, 8, 5).block, axis=0)
        oracle = LoopPacked(a, 8, 5)
        blocks = _BlockSums(oracle.block, axis=0)
        for si in range(len(oracle.blocks)):
            for ki in range(len(oracle.blocks[0])):
                (v_cs, v_mags), (o_cs, o_mags) = views(si, ki), blocks(si, ki)
                assert v_cs.tobytes() == o_cs.tobytes()
                for v, o in zip(v_mags, o_mags):
                    assert v.tobytes() == o.tobytes()

    def test_checksum_elements_accounting(self, rng):
        a = rng.standard_normal((25, 17))
        packed = pack_a(a, 8, 5)
        sums = _BlockSums(_views(a, 8, 5).block, axis=0)
        assert sums.elements == 0
        for si in range(packed.strips):
            for ki in range(packed.k_panels):
                sums(si, ki)
                sums(si, ki)  # cached: counted once
        m, k = a.shape
        # Checksums: one length-k vector per strip row. Magnitudes: one
        # more length-k vector per strip row plus one length-m column
        # per k-panel.
        assert sums.elements == 2 * packed.strips * k + packed.k_panels * m

    def test_magnitudes_match_numpy(self, rng):
        a = rng.standard_normal((25, 17))
        packed = pack_a(a, 8, 5)
        sums = _BlockSums(_views(a, 8, 5).block, axis=0)
        for si in range(packed.strips):
            for ki in range(packed.k_panels):
                blk = np.abs(packed.block(si, ki))
                cols, rows = sums(si, ki)[1]
                np.testing.assert_array_equal(cols, blk.sum(axis=0))
                np.testing.assert_array_equal(rows, blk.sum(axis=1))

    def test_b_magnitudes_match_numpy(self, rng):
        b = rng.standard_normal((19, 33))
        packed = pack_b(b, 6, 10)
        sums = _BlockSums(_views(b, 6, 10).panel, axis=1)
        for ki in range(packed.k_panels):
            for ni in range(packed.n_panels):
                pan = np.abs(packed.panel(ki, ni))
                cols, rows = sums(ki, ni)[1]
                np.testing.assert_array_equal(cols, pan.sum(axis=0))
                np.testing.assert_array_equal(rows, pan.sum(axis=1))

    def test_float32_checksums_stay_float32(self, rng):
        a = rng.standard_normal((20, 12)).astype(np.float32)
        sums = _BlockSums(_views(a, 8, 5).block, axis=0)
        assert sums(0, 0)[0].dtype == np.float32

    @settings(max_examples=30)
    @given(small_matrix(32), st.integers(1, 12), st.integers(1, 12))
    def test_checksum_property(self, a, mc, kc):
        packed = pack_a(a, mc, kc)
        sums = _BlockSums(_views(a, mc, kc).block, axis=0)
        for si, row in enumerate(packed.blocks):
            for ki, blk in enumerate(row):
                np.testing.assert_array_equal(sums(si, ki)[0], blk.sum(axis=0))


class TestBufferPool:
    def test_lease_shape_and_dtype(self):
        pool = BufferPool()
        buf = pool.lease((4, 5), np.float32)
        assert buf.shape == (4, 5) and buf.dtype == np.float32

    def test_release_then_lease_reuses_storage(self):
        pool = BufferPool()
        first = pool.lease((8, 8), np.float64)
        pool.release(first)
        second = pool.lease((8, 8), np.float64)
        assert second is first
        assert pool.hits == 1 and pool.misses == 1

    def test_no_cross_shape_reuse(self):
        pool = BufferPool()
        pool.release(pool.lease((8, 8), np.float64))
        other = pool.lease((8, 9), np.float64)
        assert other.shape == (8, 9)
        assert pool.hits == 0

    def test_retention_cap_evicts(self):
        pool = BufferPool(max_retained_bytes=1000)
        small = np.empty(64, dtype=np.float64)  # 512 B
        pool.release(small, np.empty(64, dtype=np.float64),
                     np.empty(64, dtype=np.float64))
        assert pool.retained_bytes <= 1000

    def test_oversized_buffer_not_retained(self):
        pool = BufferPool(max_retained_bytes=100)
        pool.release(np.empty(1000, dtype=np.float64))
        assert pool.retained_bytes == 0

    def test_clear(self):
        pool = BufferPool()
        pool.release(np.empty(10))
        pool.clear()
        assert pool.retained_bytes == 0

    def test_zero_byte_lease_short_circuits(self):
        # Regression: zero-element requests used to round-trip the lock
        # and the retention bookkeeping for an allocation that costs
        # nothing. They now bypass the pool entirely.
        pool = BufferPool()
        for shape in [(0,), (0, 5), (5, 0), (3, 0, 4)]:
            buf = pool.lease(shape, np.float64)
            assert buf.shape == shape and buf.size == 0
        assert pool.hits == 0 and pool.misses == 0

    def test_zero_byte_release_not_retained(self):
        pool = BufferPool()
        pool.release(np.empty((0, 8)), np.empty(0, dtype=np.float32))
        assert pool.retained_bytes == 0
        # And a later zero-size lease still works (fresh empty array).
        assert pool.lease((0, 8), np.float64).size == 0
        assert pool.hits == 0

    def test_concurrent_lease_release_stress(self):
        # Hammer one pool from several threads: no two concurrent leases
        # may alias storage, and the retention ledger must stay exact.
        import threading

        pool = BufferPool(max_retained_bytes=64 * 1024)
        shapes = [(16, 16), (32, 8), (8, 8), (0, 4)]
        errors: list[str] = []
        barrier = threading.Barrier(4)

        def worker(seed: int) -> None:
            barrier.wait()
            for i in range(200):
                shape = shapes[(seed + i) % len(shapes)]
                buf = pool.lease(shape, np.float64)
                if buf.shape != shape:
                    errors.append(f"wrong shape {buf.shape} != {shape}")
                    return
                if buf.size:
                    # Stamp and verify: an aliased concurrent lease would
                    # tear this pattern.
                    buf.fill(float(seed * 1000 + i))
                    if not (buf == float(seed * 1000 + i)).all():
                        errors.append("aliased buffer detected")
                        return
                pool.release(buf)

        threads = [
            threading.Thread(target=worker, args=(s,)) for s in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors
        assert 0 <= pool.retained_bytes <= pool.max_retained_bytes
        # The ledger must agree with the buffers actually retained.
        held = sum(
            buf.nbytes for bucket in pool._free.values() for buf in bucket
        )
        assert pool.retained_bytes == held


class TestPackingCost:
    def test_read_plus_write(self):
        m = intel_i9_10900k()
        cost = packing_cost(m, elements_a=1000, elements_b=500)
        assert cost.bytes_moved == 2 * 1500 * 4

    def test_seconds_scale_with_traffic_factor(self):
        m = intel_i9_10900k()
        cost = packing_cost(m, 10**6, 10**6)
        expected = (
            2 * 2 * 10**6 * 4 * m.external_traffic_factor
        ) / m.dram_bytes_per_second
        assert cost.seconds == pytest.approx(expected)

    def test_addition(self):
        m = intel_i9_10900k()
        c = packing_cost(m, 100, 0) + packing_cost(m, 0, 100)
        assert c.bytes_moved == packing_cost(m, 100, 100).bytes_moved
