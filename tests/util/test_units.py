"""Unit tests for repro.util.units."""

import pytest

from repro.util import bytes_to_gib, bytes_to_mib, gflops
from repro.util.units import BYTES_PER_GIB, BYTES_PER_MIB, FLOAT32_BYTES


class TestByteConversions:
    def test_mib(self):
        assert bytes_to_mib(BYTES_PER_MIB) == 1.0

    def test_gib(self):
        assert bytes_to_gib(2 * BYTES_PER_GIB) == 2.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            bytes_to_mib(-1)

    def test_float32_default(self):
        assert FLOAT32_BYTES == 4


class TestFlops:
    def test_gflops(self):
        assert gflops(2e9, 1.0) == 2.0

    def test_gflops_rejects_zero_time(self):
        with pytest.raises(ValueError):
            gflops(1.0, 0.0)
