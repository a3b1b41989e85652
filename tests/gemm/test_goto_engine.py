"""Correctness and accounting tests for the GOTO baseline engine."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.gemm import GotoGemm
from repro.gemm.backends import NumpyBackend

from tests.conftest import assert_product_close


class TestNumericalCorrectness:
    def test_square(self, intel, rng):
        a = rng.standard_normal((300, 300))
        b = rng.standard_normal((300, 300))
        run = GotoGemm(intel).multiply(a, b)
        assert_product_close(run.c, a, b)

    def test_rectangular(self, intel, rng):
        a = rng.standard_normal((513, 217))
        b = rng.standard_normal((217, 309))
        run = GotoGemm(intel).multiply(a, b)
        assert_product_close(run.c, a, b)

    def test_on_every_machine(self, machine, rng):
        a = rng.standard_normal((150, 90))
        b = rng.standard_normal((90, 210))
        run = GotoGemm(machine).multiply(a, b)
        assert_product_close(run.c, a, b)

    def test_exact_tiles_mode(self, arm, rng):
        a = rng.standard_normal((70, 40))
        b = rng.standard_normal((40, 50))
        kernel = GotoGemm(arm).plan_for(70, 50, 40).kernel
        tiles = NumpyBackend(kernel, exact_tiles=True)
        run = GotoGemm(arm, backend=tiles).multiply(a, b)
        assert_product_close(run.c, a, b)
        assert run.backend == "numpy"

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(1, 120), st.integers(1, 120), st.integers(1, 120),
        st.integers(1, 10),
    )
    def test_any_shape_any_cores(self, m, n, k, cores):
        from repro.machines import intel_i9_10900k

        machine = intel_i9_10900k()
        rng = np.random.default_rng(m * 99991 + n * 31 + k)
        a = rng.standard_normal((m, k))
        b = rng.standard_normal((k, n))
        run = GotoGemm(machine, cores=cores).multiply(a, b)
        assert_product_close(run.c, a, b)

    def test_shape_mismatch_rejected(self, intel):
        with pytest.raises(ValueError, match="inner dimensions"):
            GotoGemm(intel).multiply(np.zeros((3, 4)), np.zeros((5, 3)))


class TestAccounting:
    def test_partial_c_streams_to_dram(self, intel):
        """The defining GOTO cost: partial C panels spill every slice."""
        run = GotoGemm(intel).analyze(3000, 3000, 3000)
        kb = -(-3000 // int(run.plan_summary["kc"]))
        assert kb > 1
        assert run.counters.ext_c_spill == 3000 * 3000 * (kb - 1)
        assert run.counters.ext_c_read == 3000 * 3000 * (kb - 1)
        assert run.counters.ext_c_write == 3000 * 3000

    def test_single_slice_has_no_spills(self, intel):
        """K <= kc: only one reduction slice, so no partial round-trips."""
        run = GotoGemm(intel).analyze(2000, 2000, 200)
        assert run.counters.ext_c_spill == 0
        assert run.counters.ext_c_read == 0

    def test_a_reread_per_column_panel(self, intel):
        """A is re-fetched for every nc-column panel (Figure 5)."""
        run = GotoGemm(intel).analyze(4000, 50000, 1000)
        nb = -(-50000 // int(run.plan_summary["nc"]))
        assert nb > 1
        assert run.counters.ext_a_read == 4000 * 1000 * nb

    def test_b_read_once(self, intel):
        run = GotoGemm(intel).analyze(3000, 3000, 3000)
        assert run.counters.ext_b_read == 3000 * 3000

    def test_analyze_matches_multiply_accounting(self, intel, rng):
        a = rng.standard_normal((330, 410))
        b = rng.standard_normal((410, 290))
        eng = GotoGemm(intel)
        num = eng.multiply(a, b)
        ana = eng.analyze(330, 290, 410)
        assert num.counters.ext_compute_elements == ana.counters.ext_compute_elements
        assert num.seconds == pytest.approx(ana.seconds)


class TestCakeVsGotoTraffic:
    """Section 4.4's comparison, checked at the counter level."""

    def test_cake_moves_less_external_data_at_large_k(self, intel):
        from repro.gemm import CakeGemm

        cake = CakeGemm(intel).analyze(4000, 4000, 4000)
        goto = GotoGemm(intel).analyze(4000, 4000, 4000)
        assert (
            cake.counters.ext_compute_elements
            < goto.counters.ext_compute_elements
        )

    def test_cake_moves_more_internal_data(self, intel):
        """The trade: external traffic is exchanged for internal traffic."""
        from repro.gemm import CakeGemm

        cake = CakeGemm(intel).analyze(4000, 4000, 4000)
        goto = GotoGemm(intel).analyze(4000, 4000, 4000)
        cake_int_per_mac = cake.counters.internal / cake.counters.macs
        goto_ext_per_mac = (
            goto.counters.ext_compute_elements / goto.counters.macs
        )
        cake_ext_per_mac = (
            cake.counters.ext_compute_elements / cake.counters.macs
        )
        assert cake_ext_per_mac < goto_ext_per_mac
        assert cake_int_per_mac > cake_ext_per_mac
