"""Tests for the per-block roofline pricing."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.perfmodel import block_time
from repro.perfmodel.roofline import (
    ZERO_TIME,
    BlockTimesBatch,
    block_times_batch,
    sequential_sum,
)


class TestBlockTime:
    def test_compute_bound(self, intel):
        bt = block_time(
            intel,
            active_cores=10,
            tile_cycles=1_000_000,
            kc=192,
            ext_bytes=64,
            int_elements=64,
        )
        assert bt.bound == "compute"
        assert bt.seconds == bt.compute_seconds

    def test_external_bound(self, intel):
        bt = block_time(
            intel,
            active_cores=10,
            tile_cycles=1,
            kc=192,
            ext_bytes=10**9,
            int_elements=64,
        )
        assert bt.bound == "external"
        assert bt.seconds == bt.external_seconds

    def test_internal_bound(self, intel):
        bt = block_time(
            intel,
            active_cores=1,
            tile_cycles=1,
            kc=192,
            ext_bytes=0,
            int_elements=10**9,
        )
        assert bt.bound == "internal"

    def test_compute_seconds_formula(self, intel):
        bt = block_time(
            intel, active_cores=4, tile_cycles=100.0, kc=100,
            ext_bytes=0, int_elements=0,
        )
        assert bt.compute_seconds == pytest.approx(
            100.0 / intel.tile_ops_per_second(100)
        )

    def test_external_seconds_include_traffic_factor(self, intel):
        bt = block_time(
            intel, active_cores=1, tile_cycles=0, kc=100,
            ext_bytes=1000, int_elements=0,
        )
        expected = 1000 * intel.external_traffic_factor / intel.dram_bytes_per_second
        assert bt.external_seconds == pytest.approx(expected)

    def test_internal_seconds_scale_with_cores(self, amd):
        """More active cores -> more internal-bandwidth supply (AMD's
        curve is linear, so exactly proportional)."""
        bt1 = block_time(
            amd, active_cores=1, tile_cycles=0, kc=100,
            ext_bytes=0, int_elements=10**6,
        )
        bt4 = block_time(
            amd, active_cores=4, tile_cycles=0, kc=100,
            ext_bytes=0, int_elements=10**6,
        )
        assert bt1.internal_seconds == pytest.approx(4 * bt4.internal_seconds)

    def test_addition_accumulates(self, intel):
        bt = block_time(
            intel, active_cores=1, tile_cycles=10, kc=10,
            ext_bytes=10, int_elements=10,
        )
        total = ZERO_TIME + bt + bt
        assert total.seconds == pytest.approx(2 * bt.seconds)
        assert total.compute_seconds == pytest.approx(2 * bt.compute_seconds)

    def test_addition_bound_is_argmax_of_sums(self):
        """Regression: the aggregate bound must come from the *summed*
        per-resource demand, not from whichever operand was added last.

        Two external-bound blocks plus one larger compute-bound block:
        external demand dominates the sum (6.0s vs 5.0s) even though the
        biggest single block — and the last one added — is compute-bound.
        """
        from repro.perfmodel.roofline import BlockTime

        external = BlockTime(
            seconds=3.0, compute_seconds=0.5, external_seconds=3.0,
            internal_seconds=0.1, bound="external",
        )
        compute = BlockTime(
            seconds=4.0, compute_seconds=4.0, external_seconds=0.0,
            internal_seconds=0.0, bound="compute",
        )
        total = ZERO_TIME + external + external + compute
        assert total.external_seconds == pytest.approx(6.0)
        assert total.compute_seconds == pytest.approx(5.0)
        assert total.bound == "external"
        # The mirror image: repeated compute demand dominates.
        assert (ZERO_TIME + compute + compute + external).bound == "compute"

    def test_rejects_bad_args(self, intel):
        with pytest.raises(ValueError):
            block_time(
                intel, active_cores=0, tile_cycles=1, kc=1,
                ext_bytes=0, int_elements=0,
            )
        with pytest.raises(ValueError):
            block_time(
                intel, active_cores=1, tile_cycles=-1, kc=1,
                ext_bytes=0, int_elements=0,
            )

    @given(
        st.floats(0, 1e9), st.floats(0, 1e9), st.floats(0, 1e9),
    )
    def test_max_semantics(self, cycles, ext, internal):
        """Block time is always the max of the three components."""
        from repro.machines import intel_i9_10900k

        machine = intel_i9_10900k()
        bt = block_time(
            machine, active_cores=5, tile_cycles=cycles, kc=100,
            ext_bytes=ext, int_elements=internal,
        )
        assert bt.seconds == pytest.approx(
            max(bt.compute_seconds, bt.external_seconds, bt.internal_seconds)
        )


class TestBlockTimesBatch:
    def _pricing_inputs(self, rng, n=64):
        return {
            "active_cores": rng.integers(1, 11, size=n),
            "tile_cycles": rng.integers(1, 10**7, size=n).astype(float),
            "ext_bytes": rng.integers(0, 10**8, size=n),
            "int_elements": rng.integers(0, 10**7, size=n),
        }

    def test_per_block_values_match_scalar(self, machine, rng):
        inputs = self._pricing_inputs(rng)
        batch = block_times_batch(machine, kc=192, **inputs)
        for i in range(len(batch)):
            bt = block_time(
                machine,
                active_cores=int(inputs["active_cores"][i]),
                tile_cycles=float(inputs["tile_cycles"][i]),
                kc=192,
                ext_bytes=int(inputs["ext_bytes"][i]),
                int_elements=int(inputs["int_elements"][i]),
            )
            assert batch.seconds[i] == bt.seconds
            assert batch.compute_seconds[i] == bt.compute_seconds
            assert batch.external_seconds[i] == bt.external_seconds
            assert batch.internal_seconds[i] == bt.internal_seconds
            assert batch.bounds[i] == {
                "compute": 0, "external": 1, "internal": 2,
            }[bt.bound]

    def test_total_matches_sequential_accumulation(self, intel, rng):
        """total() reproduces the scalar ``total = total + bt`` chain
        bit for bit, including the aggregate bound."""
        inputs = self._pricing_inputs(rng)
        batch = block_times_batch(intel, kc=192, **inputs)
        total = ZERO_TIME
        for i in range(len(batch)):
            total = total + block_time(
                intel,
                active_cores=int(inputs["active_cores"][i]),
                tile_cycles=float(inputs["tile_cycles"][i]),
                kc=192,
                ext_bytes=int(inputs["ext_bytes"][i]),
                int_elements=int(inputs["int_elements"][i]),
            )
        got = batch.total()
        assert got.seconds == total.seconds
        assert got.compute_seconds == total.compute_seconds
        assert got.external_seconds == total.external_seconds
        assert got.internal_seconds == total.internal_seconds
        assert got.bound == total.bound

    def test_bound_tallies(self, intel):
        batch = block_times_batch(
            intel,
            active_cores=np.array([1, 1, 1]),
            tile_cycles=np.array([1e9, 1.0, 1.0]),
            kc=192,
            ext_bytes=np.array([0, 10**10, 0]),
            int_elements=np.array([0, 0, 10**10]),
        )
        assert batch.bound_tallies() == {
            "compute": 1, "external": 1, "internal": 1,
        }

    def test_rejects_nonpositive_cores(self, intel):
        with pytest.raises(ValueError):
            block_times_batch(
                intel,
                active_cores=np.array([1, 0]),
                tile_cycles=np.array([1.0, 1.0]),
                kc=192,
                ext_bytes=np.array([0, 0]),
                int_elements=np.array([0, 0]),
            )


def _plus_equals_chain(values: np.ndarray) -> float:
    """The scalar walk's accumulation: ``total += value`` from ``0.0``."""
    total = 0.0
    for value in values.tolist():
        total += value
    return total


class TestSequentialSum:
    """The batch analyzer's float totals add left to right, bit for bit."""

    @staticmethod
    def _values(rng, length):
        # Magnitudes from 1e-12 to 1e3 in one array: pairwise summation
        # would round differently from the running sum.
        return 10.0 ** rng.uniform(-12, 3, size=length)

    @pytest.mark.parametrize("length", [0, 1, 10**5])
    def test_matches_plus_equals_chain(self, rng, length):
        values = self._values(rng, length)
        assert sequential_sum(values).hex() == _plus_equals_chain(values).hex()

    @pytest.mark.parametrize("length", [0, 1, 10**5])
    def test_batch_total_matches_plus_equals_chain(self, rng, length):
        parts = [self._values(rng, length) for _ in range(4)]
        total = BlockTimesBatch(*parts, bounds=np.zeros(length, dtype=np.int64)).total()
        got = (
            total.seconds,
            total.compute_seconds,
            total.external_seconds,
            total.internal_seconds,
        )
        for value, part in zip(got, parts):
            assert value.hex() == _plus_equals_chain(part).hex()

    def test_negative_zeros_sum_to_the_chains_zero(self):
        values = np.array([-0.0, -0.0])
        assert sequential_sum(values).hex() == _plus_equals_chain(values).hex()

    def test_empty_batch_totals_zeros(self):
        empty = np.zeros(0)
        total = BlockTimesBatch(
            empty, empty, empty, empty, np.zeros(0, dtype=np.int64)
        ).total()
        assert total == ZERO_TIME
