"""Parallel numeric execution: exactness, thread-safety, operand handling.

The contract under test (see ``repro.gemm.parallel``): for any machine,
engine, shape and worker count, ``multiply()`` produces a C that is
**bit-identical** (``np.array_equal``) to the serial walk's, with
byte-identical traffic counters — parallelism may only change wall-clock,
never a single bit of the result or the accounting.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.gemm import CakeGemm, GotoGemm
from repro.gemm.parallel import (
    PhaseTimers,
    StripTask,
    check_multiply_operands,
    resolve_workers,
    run_strip_groups,
)
from repro.gemm.microkernel import MicroKernel
from repro.machines import intel_i9_10900k

from tests.conftest import assert_product_close

ENGINES = {"cake": CakeGemm, "goto": GotoGemm}


@pytest.fixture(params=["cake", "goto"])
def engine_cls(request):
    return ENGINES[request.param]


def _operands(rng, m=219, k=187, n=203):
    return rng.standard_normal((m, k)), rng.standard_normal((k, n))


class TestParallelExactness:
    @pytest.mark.parametrize("workers", [1, 2, 3, 7])
    def test_bit_identical_to_serial(self, machine, engine_cls, workers, rng):
        a, b = _operands(rng)
        serial = engine_cls(machine).multiply(a, b)
        parallel = engine_cls(machine, workers=workers).multiply(a, b)
        assert np.array_equal(serial.c, parallel.c)
        assert serial.counters == parallel.counters
        assert serial.time.seconds == parallel.time.seconds
        assert serial.bound_blocks == parallel.bound_blocks

    def test_workers_exceed_strip_count(self, intel, engine_cls, rng):
        # A problem with fewer block rows than workers: extra workers idle.
        a, b = _operands(rng, m=9, k=150, n=40)
        serial = engine_cls(intel).multiply(a, b)
        parallel = engine_cls(intel, workers=32).multiply(a, b)
        assert np.array_equal(serial.c, parallel.c)
        assert serial.counters == parallel.counters

    def test_single_modelled_core(self, intel, engine_cls, rng):
        # cores=1 means one strip per group; workers>1 must still be exact.
        a, b = _operands(rng, m=130, k=70, n=90)
        serial = engine_cls(intel, cores=1).multiply(a, b)
        parallel = engine_cls(intel, cores=1, workers=4).multiply(a, b)
        assert np.array_equal(serial.c, parallel.c)
        assert serial.counters == parallel.counters

    def test_exact_pack_oracle_matches(self, intel, engine_cls, rng):
        a, b = _operands(rng)
        fast = engine_cls(intel, workers=2).multiply(a, b)
        oracle = engine_cls(intel, exact_pack=True).multiply(a, b)
        assert np.array_equal(fast.c, oracle.c)
        assert fast.counters == oracle.counters

    def test_correct_product(self, intel, engine_cls, rng):
        a, b = _operands(rng)
        run = engine_cls(intel, workers=3).multiply(a, b)
        assert_product_close(run.c, a, b)

    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(1, 90), st.integers(1, 90), st.integers(1, 90),
        st.integers(1, 10), st.sampled_from([2, 3, 5]),
    )
    def test_any_shape_any_cores_any_workers(self, m, n, k, cores, workers):
        machine = intel_i9_10900k()
        rng = np.random.default_rng(m * 10007 + n * 101 + k * 7 + cores)
        a = rng.standard_normal((m, k))
        b = rng.standard_normal((k, n))
        for cls in (CakeGemm, GotoGemm):
            serial = cls(machine, cores=cores).multiply(a, b)
            parallel = cls(machine, cores=cores, workers=workers).multiply(a, b)
            assert np.array_equal(serial.c, parallel.c)
            assert serial.counters == parallel.counters


class TestThreadSafety:
    def test_engine_object_reused_concurrently(self, intel, engine_cls):
        """One engine instance must survive concurrent multiply() calls."""
        rng = np.random.default_rng(7)
        inputs = [_operands(rng, m=100 + 13 * i, k=80 + i, n=90) for i in range(6)]
        engine = engine_cls(intel, workers=2)
        references = [engine_cls(intel).multiply(a, b) for a, b in inputs]
        with ThreadPoolExecutor(max_workers=4) as pool:
            runs = list(pool.map(lambda ab: engine.multiply(*ab), inputs))
        for run, ref in zip(runs, references):
            assert np.array_equal(run.c, ref.c)
            assert run.counters == ref.counters

    def test_same_inputs_concurrently(self, intel, engine_cls, rng):
        a, b = _operands(rng)
        engine = engine_cls(intel, workers=3)
        reference = engine_cls(intel).multiply(a, b)
        with ThreadPoolExecutor(max_workers=3) as pool:
            runs = [pool.submit(engine.multiply, a, b) for _ in range(3)]
            for fut in runs:
                assert np.array_equal(fut.result().c, reference.c)


class TestOperandHandling:
    def test_fortran_ordered_operands(self, intel, engine_cls, rng):
        a, b = _operands(rng)
        ref = engine_cls(intel).multiply(a, b)
        run = engine_cls(intel, workers=2).multiply(
            np.asfortranarray(a), np.asfortranarray(b)
        )
        assert np.array_equal(run.c, ref.c)

    def test_transposed_views(self, intel, engine_cls, rng):
        a, b = _operands(rng)
        run = engine_cls(intel).multiply(a.T.copy().T, b.T.copy().T)
        ref = engine_cls(intel).multiply(a, b)
        assert np.array_equal(run.c, ref.c)

    def test_non_contiguous_slices(self, intel, engine_cls, rng):
        big_a = rng.standard_normal((240, 170))
        big_b = rng.standard_normal((170, 200))
        a, b = big_a[::2, ::1], big_b[:, ::2]  # strided views
        ref = engine_cls(intel).multiply(a.copy(), b.copy())
        run = engine_cls(intel, workers=2).multiply(a, b)
        assert np.array_equal(run.c, ref.c)

    def test_float32_stays_float32(self, intel, engine_cls, rng):
        a, b = _operands(rng, m=64, k=48, n=52)
        run = engine_cls(intel, workers=2).multiply(
            a.astype(np.float32), b.astype(np.float32)
        )
        assert run.c.dtype == np.float32

    def test_mixed_precision_widens(self, intel, engine_cls, rng):
        a, b = _operands(rng, m=40, k=30, n=35)
        run = engine_cls(intel).multiply(a.astype(np.float32), b)
        assert run.c.dtype == np.float64

    @pytest.mark.parametrize("dtype", [np.int32, np.int64, np.uint8, bool])
    def test_overflow_prone_dtypes_rejected(self, intel, engine_cls, dtype):
        a = np.ones((8, 6), dtype=dtype)
        b = np.ones((6, 7), dtype=dtype)
        with pytest.raises(TypeError, match="overflow"):
            engine_cls(intel).multiply(a, b)

    def test_shape_mismatch_still_rejected(self, intel, engine_cls):
        with pytest.raises(ValueError, match="inner dimensions"):
            engine_cls(intel).multiply(np.zeros((3, 4)), np.zeros((5, 3)))
        with pytest.raises(ValueError, match="2-D"):
            engine_cls(intel).multiply(np.zeros(4), np.zeros((4, 4)))

    def test_check_multiply_operands_result_types(self):
        a32 = np.zeros((2, 3), dtype=np.float32)
        b32 = np.zeros((3, 2), dtype=np.float32)
        assert check_multiply_operands(a32, b32) == np.float32
        assert check_multiply_operands(a32, b32.astype(np.float64)) == np.float64

    def test_check_multiply_operands_accepts_degenerate(self):
        # BLAS semantics: zero extents are valid operands, not errors.
        assert check_multiply_operands(
            np.zeros((4, 0)), np.zeros((0, 3))
        ) == np.float64
        assert check_multiply_operands(np.zeros((0, 5)), np.zeros((5, 3)))
        # Mismatched inner dims stay rejected even when one side is empty.
        with pytest.raises(ValueError, match="inner dimensions"):
            check_multiply_operands(np.zeros((4, 0)), np.zeros((2, 3)))

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "m,k,n", [(7, 0, 5), (0, 6, 5), (7, 6, 0), (0, 0, 0)]
    )
    def test_degenerate_shapes(self, intel, engine_cls, workers, m, k, n):
        a = np.ones((m, k))
        b = np.ones((k, n))
        run = engine_cls(intel, workers=workers).multiply(a, b)
        # K == 0 is an empty sum: a zero-filled M x N product, exactly
        # what `a @ b` gives; M/N == 0 yield empty results.
        assert run.c.shape == (m, n)
        assert np.array_equal(run.c, a @ b)
        assert run.c.dtype == np.float64
        assert run.space.macs == 0 and run.space.flops == 0
        # Derived rates must not divide by zero.
        assert run.gflops == 0.0
        assert run.dram_gb_per_s == 0.0
        assert run.arithmetic_intensity == 0.0
        assert all(np.isfinite(v) for v in run.summary().values())

    def test_degenerate_float32(self, intel, engine_cls):
        run = engine_cls(intel).multiply(
            np.ones((3, 0), dtype=np.float32), np.ones((0, 4), dtype=np.float32)
        )
        assert run.c.dtype == np.float32
        assert run.c.shape == (3, 4)
        assert not run.c.any()


class TestPhaseTimers:
    def test_multiply_reports_phases(self, intel, engine_cls, rng):
        a, b = _operands(rng)
        run = engine_cls(intel, workers=2).multiply(a, b)
        assert set(run.phase_seconds) == {
            "pack", "compute", "reduce", "verify", "recover",
        }
        assert run.phase_seconds["pack"] > 0
        assert run.phase_seconds["compute"] > 0
        assert run.phase_seconds["verify"] == 0.0  # unverified run
        assert run.phase_seconds["recover"] == 0.0
        assert run.workers == 2

    def test_serial_path_has_zero_reduce(self, intel, engine_cls, rng):
        a, b = _operands(rng, m=60, k=40, n=50)
        run = engine_cls(intel).multiply(a, b)
        assert run.phase_seconds["reduce"] == 0.0
        assert run.workers == 1

    def test_analyze_has_no_phases(self, intel, engine_cls):
        run = engine_cls(intel).analyze(200, 150, 120)
        assert run.phase_seconds is None
        assert run.workers == 1


class TestExecutorUnit:
    """Direct run_strip_groups coverage, independent of the engines."""

    def _groups(self, rng, c):
        a1 = rng.standard_normal((4, 6))
        a2 = rng.standard_normal((4, 6))
        b = rng.standard_normal((6, 5))
        g1 = [StripTask(a1, b, c[:4]), StripTask(a2, b, c[4:])]
        g2 = [StripTask(a1, b, c[:4])]  # second accumulation pass on rows 0-3
        return [g1, g2], (a1, a2, b)

    def test_groups_are_ordered_barriers(self, rng):
        kernel = MicroKernel(mr=2, nr=2, kc=6)
        c_par = np.zeros((8, 5))
        groups, (a1, a2, b) = self._groups(rng, c_par)
        run_strip_groups(groups, kernel, workers=4)
        expected = np.zeros((8, 5))
        expected[:4] += a1 @ b
        expected[4:] += a2 @ b
        expected[:4] += a1 @ b
        assert np.array_equal(c_par, expected)

    def test_worker_exception_propagates(self, rng):
        kernel = MicroKernel(mr=2, nr=2, kc=4)
        bad = [
            [StripTask(np.zeros((2, 3)), np.zeros((4, 2)), np.zeros((2, 2)))]
        ]
        # checked=False in the executor means the mismatch surfaces as
        # numpy's own error — it must propagate out of the pool, not hang.
        with pytest.raises(ValueError):
            run_strip_groups(bad, kernel, workers=2)

    def test_exception_in_a_handed_off_run_propagates(self, rng):
        # Two strips on two workers: the calling thread runs the first,
        # the pool the second, whose error must still surface.
        kernel = MicroKernel(mr=2, nr=2, kc=4)
        good = StripTask(np.zeros((2, 4)), np.zeros((4, 2)), np.zeros((2, 2)))
        bad = StripTask(np.zeros((2, 3)), np.zeros((4, 2)), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            run_strip_groups([[good, bad]], kernel, workers=2)

    def test_timers_accumulate(self, rng):
        kernel = MicroKernel(mr=2, nr=2, kc=6)
        timers = PhaseTimers()
        c = np.zeros((8, 5))
        groups, _ = self._groups(rng, c)
        out = run_strip_groups(groups, kernel, workers=2, timers=timers)
        assert out is timers
        assert timers.compute_seconds > 0
        assert timers.workers == 2

    def test_resolve_workers(self):
        assert resolve_workers(None) == 1
        assert resolve_workers(4) == 4
        with pytest.raises(Exception):
            resolve_workers(0)
