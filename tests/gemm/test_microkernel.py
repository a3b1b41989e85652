"""Tests for the register-tile micro-kernel."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.gemm import MicroKernel
from tests.conftest import naive_matmul


class TestTileMatmul:
    def test_accumulates_in_place(self, rng):
        k = MicroKernel(mr=4, nr=4, kc=8)
        a = rng.standard_normal((4, 8))
        b = rng.standard_normal((8, 4))
        c = np.ones((4, 4))
        k.tile_matmul(a, b, c)
        np.testing.assert_allclose(c, 1.0 + a @ b)


class TestPanelMatmul:
    @pytest.mark.parametrize("exact", [False, True])
    def test_matches_reference(self, rng, exact):
        k = MicroKernel(mr=6, nr=16, kc=32)
        a = rng.standard_normal((25, 32))
        b = rng.standard_normal((32, 40))
        c = np.zeros((25, 40))
        k.panel_matmul(a, b, c, exact_tiles=exact)
        np.testing.assert_allclose(c, a @ b, rtol=1e-12)

    def test_exact_and_fast_agree(self, rng):
        k = MicroKernel(mr=6, nr=16, kc=32)
        a = rng.standard_normal((19, 13))
        b = rng.standard_normal((13, 37))
        c1, c2 = np.zeros((19, 37)), np.zeros((19, 37))
        k.panel_matmul(a, b, c1, exact_tiles=True)
        k.panel_matmul(a, b, c2, exact_tiles=False)
        np.testing.assert_allclose(c1, c2, rtol=1e-12)

    def test_exact_matches_naive_triple_loop(self, rng):
        """Independent validation against Algorithm 1."""
        k = MicroKernel(mr=3, nr=5, kc=7)
        a = rng.standard_normal((11, 7))
        b = rng.standard_normal((7, 9))
        c = np.zeros((11, 9))
        k.panel_matmul(a, b, c, exact_tiles=True)
        np.testing.assert_allclose(c, naive_matmul(a, b), rtol=1e-12)

    def test_shape_mismatch_rejected(self, rng):
        k = MicroKernel(mr=4, nr=4, kc=4)
        with pytest.raises(ValueError, match="A rows"):
            k.panel_matmul(np.zeros((3, 4)), np.zeros((4, 4)), np.zeros((4, 4)))
        with pytest.raises(ValueError, match="B cols"):
            k.panel_matmul(np.zeros((4, 4)), np.zeros((4, 3)), np.zeros((4, 4)))
        with pytest.raises(ValueError, match="A cols"):
            k.panel_matmul(np.zeros((4, 3)), np.zeros((4, 4)), np.zeros((4, 4)))

    @settings(max_examples=25)
    @given(
        st.integers(1, 30), st.integers(1, 30), st.integers(1, 30),
        st.integers(1, 8), st.integers(1, 8),
    )
    def test_exact_tiles_any_raggedness(self, m, n, k_, mr, nr):
        rng = np.random.default_rng(m * 1000 + n * 10 + k_)
        kern = MicroKernel(mr=mr, nr=nr, kc=max(k_, 1))
        a = rng.standard_normal((m, k_))
        b = rng.standard_normal((k_, n))
        c = np.zeros((m, n))
        kern.panel_matmul(a, b, c, exact_tiles=True)
        np.testing.assert_allclose(c, a @ b, rtol=1e-10, atol=1e-12)


class TestUncheckedPath:
    def test_unchecked_matches_checked(self):
        rng = np.random.default_rng(3)
        kern = MicroKernel(mr=4, nr=4, kc=8)
        a = rng.standard_normal((10, 8))
        b = rng.standard_normal((8, 9))
        c1, c2 = np.zeros((10, 9)), np.zeros((10, 9))
        kern.panel_matmul(a, b, c1)
        kern.panel_matmul(a, b, c2, checked=False)
        np.testing.assert_array_equal(c1, c2)

    def test_checked_rejects_mismatch_unchecked_defers_to_numpy(self):
        kern = MicroKernel(mr=4, nr=4, kc=8)
        a, b, c = np.zeros((3, 5)), np.zeros((4, 2)), np.zeros((3, 2))
        with pytest.raises(ValueError, match="A cols"):
            kern.panel_matmul(a, b, c)
        with pytest.raises(ValueError):  # numpy's own matmul error
            kern.panel_matmul(a, b, c, checked=False)


class TestTileCycles:
    def test_full_tiles(self):
        k = MicroKernel(mr=6, nr=16, kc=32)
        assert k.panel_tile_cycles(12, 32, 32) == 2 * 2 * 1.0

    def test_ragged_rows_round_up(self):
        k = MicroKernel(mr=6, nr=16, kc=32)
        assert k.panel_tile_cycles(13, 16, 32) == 3 * 1 * 1.0

    def test_ragged_depth_scales_linearly(self):
        k = MicroKernel(mr=6, nr=16, kc=32)
        assert k.panel_tile_cycles(6, 16, 16) == pytest.approx(0.5)

    @given(
        st.integers(1, 1000), st.integers(1, 1000), st.integers(1, 64),
    )
    def test_at_least_proportional_to_work(self, m, n, k_):
        kern = MicroKernel(mr=6, nr=16, kc=64)
        cycles = kern.panel_tile_cycles(m, n, k_)
        exact = (m / 6) * (n / 16) * (k_ / 64)
        assert cycles >= exact - 1e-9
