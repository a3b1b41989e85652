"""Tests for GemmRun derived metrics and TrafficCounters algebra."""

import pytest

from repro.gemm import CakeGemm, TrafficCounters
from tests.conftest import naive_matmul


class TestTrafficCounters:
    def test_totals(self):
        c = TrafficCounters(
            ext_a_read=10, ext_b_read=20, ext_c_write=5,
            ext_c_spill=3, ext_c_read=2, ext_pack=40,
        )
        assert c.ext_compute_elements == 40
        assert c.ext_total_elements == 80
        assert c.ext_total_bytes(4) == 320

    def test_merge(self):
        a = TrafficCounters(ext_a_read=1, internal=2, tile_cycles=3.0, macs=4)
        b = TrafficCounters(ext_a_read=10, internal=20, tile_cycles=30.0, macs=40)
        a.merge(b)
        assert a.ext_a_read == 11
        assert a.internal == 22
        assert a.tile_cycles == 33.0
        assert a.macs == 44

    def test_default_is_zero(self):
        c = TrafficCounters()
        assert c.ext_total_elements == 0
        assert c.ext_total_bytes(8) == 0


class TestGemmRunMetrics:
    @pytest.fixture(scope="class")
    def run(self):
        from repro.machines import intel_i9_10900k

        return CakeGemm(intel_i9_10900k()).analyze(640, 480, 320)

    def test_flops(self, run):
        assert run.flops == 2 * 640 * 480 * 320

    def test_seconds_is_blocks_plus_packing(self, run):
        assert run.seconds == pytest.approx(
            run.time.seconds + run.packing_seconds
        )

    def test_gflops_definition(self, run):
        assert run.gflops == pytest.approx(run.flops / run.seconds / 1e9)

    def test_dram_bw_definition(self, run):
        assert run.dram_gb_per_s == pytest.approx(
            run.dram_bytes / run.seconds / 1e9
        )

    def test_arithmetic_intensity_definition(self, run):
        assert run.arithmetic_intensity == pytest.approx(
            run.flops / run.dram_bytes
        )

    def test_summary_keys(self, run):
        assert {
            "gflops", "seconds", "dram_gb_per_s", "dram_bytes",
            "arithmetic_intensity", "packing_seconds",
        } == set(run.summary())

    def test_bound_blocks_cover_all_blocks(self, run):
        assert sum(run.bound_blocks.values()) == run.plan_summary["blocks"]


class TestNaiveLimit:
    def test_size_guard(self, rng):
        import numpy as np

        with pytest.raises(ValueError, match="validation"):
            naive_matmul(np.zeros((200, 10)), np.zeros((10, 10)))

    def test_inner_dim_guard(self):
        import numpy as np

        with pytest.raises(ValueError, match="inner dimensions"):
            naive_matmul(np.zeros((4, 5)), np.zeros((6, 4)))
