"""Correctness and accounting tests for the CAKE engine."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.gemm import CakeGemm
from repro.gemm.backends import NumpyBackend
from repro.schedule import analyze_reuse

from tests.conftest import assert_product_close


class TestNumericalCorrectness:
    def test_square(self, intel, rng):
        a = rng.standard_normal((300, 300))
        b = rng.standard_normal((300, 300))
        run = CakeGemm(intel).multiply(a, b)
        assert_product_close(run.c, a, b)

    def test_rectangular(self, intel, rng):
        a = rng.standard_normal((513, 217))
        b = rng.standard_normal((217, 309))
        run = CakeGemm(intel).multiply(a, b)
        assert_product_close(run.c, a, b)

    def test_skewed_shapes(self, intel, rng):
        for m, k, n in [(7, 400, 11), (400, 7, 11), (11, 7, 400)]:
            a = rng.standard_normal((m, k))
            b = rng.standard_normal((k, n))
            run = CakeGemm(intel).multiply(a, b)
            assert_product_close(run.c, a, b)

    def test_on_every_machine(self, machine, rng):
        a = rng.standard_normal((150, 90))
        b = rng.standard_normal((90, 210))
        run = CakeGemm(machine).multiply(a, b)
        assert_product_close(run.c, a, b)

    def test_exact_tiles_mode(self, arm, rng):
        a = rng.standard_normal((70, 40))
        b = rng.standard_normal((40, 50))
        kernel = CakeGemm(arm).plan_for(70, 50, 40).kernel
        tiles = NumpyBackend(kernel, exact_tiles=True)
        run = CakeGemm(arm, backend=tiles).multiply(a, b)
        assert_product_close(run.c, a, b)
        assert run.backend == "numpy"

    def test_single_core(self, intel, rng):
        a = rng.standard_normal((100, 60))
        b = rng.standard_normal((60, 80))
        run = CakeGemm(intel, cores=1).multiply(a, b)
        assert_product_close(run.c, a, b)

    def test_float32_inputs(self, intel, rng):
        a = rng.standard_normal((128, 96)).astype(np.float32)
        b = rng.standard_normal((96, 160)).astype(np.float32)
        run = CakeGemm(intel).multiply(a, b)
        assert run.c.dtype == np.float32
        np.testing.assert_allclose(run.c, a @ b, rtol=2e-4, atol=1e-4)

    def test_identity(self, intel):
        a = np.eye(64)
        b = np.arange(64 * 48, dtype=float).reshape(64, 48)
        run = CakeGemm(intel).multiply(a, b)
        np.testing.assert_allclose(run.c, b)

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(1, 120), st.integers(1, 120), st.integers(1, 120),
        st.integers(1, 10),
    )
    def test_any_shape_any_cores(self, m, n, k, cores):
        from repro.machines import intel_i9_10900k

        machine = intel_i9_10900k()
        rng = np.random.default_rng(m * 10007 + n * 101 + k)
        a = rng.standard_normal((m, k))
        b = rng.standard_normal((k, n))
        run = CakeGemm(machine, cores=cores).multiply(a, b)
        assert_product_close(run.c, a, b)

    def test_shape_mismatch_rejected(self, intel):
        with pytest.raises(ValueError, match="inner dimensions"):
            CakeGemm(intel).multiply(np.zeros((3, 4)), np.zeros((5, 3)))

    def test_non_2d_rejected(self, intel):
        with pytest.raises(ValueError, match="2-D"):
            CakeGemm(intel).multiply(np.zeros(4), np.zeros((4, 4)))


class TestAccounting:
    def test_no_partial_spills_ever(self, intel):
        run = CakeGemm(intel).analyze(2000, 2000, 2000)
        assert run.counters.ext_c_spill == 0
        assert run.counters.ext_c_read == 0

    def test_c_written_exactly_once(self, intel):
        run = CakeGemm(intel).analyze(1500, 1100, 900)
        assert run.counters.ext_c_write == 1500 * 1100

    def test_macs_counted(self, intel):
        run = CakeGemm(intel).analyze(100, 200, 300)
        assert run.counters.macs == 100 * 200 * 300

    def test_counters_match_reuse_analyzer(self, intel):
        """Executor-side residency tracking must agree exactly with the
        standalone schedule analyzer."""
        eng = CakeGemm(intel)
        run = eng.analyze(3100, 2900, 1700)
        plan = eng.plan_for(3100, 2900, 1700)
        report = analyze_reuse(
            plan.grid(),
            plan.schedule(),
            capacity_elements=plan.residency_elements,
        )
        assert run.counters.ext_a_read == report.io_a
        assert run.counters.ext_b_read == report.io_b
        assert run.counters.ext_c_write == report.io_c_final

    def test_packing_traffic(self, intel):
        run = CakeGemm(intel).analyze(100, 200, 300)
        assert run.counters.ext_pack == 2 * (100 * 300 + 300 * 200)

    def test_analyze_matches_multiply_accounting(self, intel, rng):
        """The analytic walk and the numerical walk share all accounting."""
        a = rng.standard_normal((330, 410))
        b = rng.standard_normal((410, 290))
        eng = CakeGemm(intel)
        num = eng.multiply(a, b)
        ana = eng.analyze(330, 290, 410)
        assert num.counters.ext_compute_elements == ana.counters.ext_compute_elements
        assert num.counters.tile_cycles == ana.counters.tile_cycles
        assert num.seconds == pytest.approx(ana.seconds)

    def test_plan_summary_present(self, intel):
        run = CakeGemm(intel).analyze(500, 500, 500)
        assert {"alpha", "mc", "kc", "m_block", "n_block"} <= set(
            run.plan_summary
        )

    def test_gflops_and_bandwidth_positive(self, machine):
        run = CakeGemm(machine).analyze(400, 400, 400)
        assert run.gflops > 0
        assert run.dram_gb_per_s > 0
        assert run.seconds > 0
