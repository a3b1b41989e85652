"""Unit and property tests for repro.util.rounding."""

import pytest
from hypothesis import given, strategies as st

from repro.util import ceil_div, floor_to_multiple, split_length


class TestCeilDiv:
    def test_exact(self):
        assert ceil_div(9, 3) == 3

    def test_rounds_up(self):
        assert ceil_div(10, 3) == 4

    def test_zero_numerator(self):
        assert ceil_div(0, 5) == 0

    def test_one(self):
        assert ceil_div(1, 5) == 1

    def test_negative_numerator_rejected(self):
        with pytest.raises(ValueError):
            ceil_div(-1, 3)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError):
            ceil_div(3, 0)

    @given(st.integers(0, 10**9), st.integers(1, 10**6))
    def test_matches_definition(self, a, b):
        q = ceil_div(a, b)
        assert (q - 1) * b < a <= q * b or (a == 0 and q == 0)


class TestFloorToMultiple:
    def test_rounds_down(self):
        assert floor_to_multiple(10, 4) == 8

    def test_clamps_small_values_up(self):
        # never returns 0 for positive input
        assert floor_to_multiple(3, 4) == 4

    def test_exact_unchanged(self):
        assert floor_to_multiple(12, 4) == 12

    @given(st.integers(1, 10**6), st.integers(1, 10**4))
    def test_result_is_positive_multiple(self, v, m):
        r = floor_to_multiple(v, m)
        assert r % m == 0
        assert r >= m


class TestSplitLength:
    def test_even_split(self):
        assert split_length(8, 4) == [4, 4]

    def test_remainder_goes_last(self):
        assert split_length(10, 4) == [4, 4, 2]

    def test_chunk_larger_than_total(self):
        assert split_length(3, 10) == [3]

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            split_length(0, 4)
        with pytest.raises(ValueError):
            split_length(4, 0)

    @given(st.integers(1, 10**5), st.integers(1, 10**4))
    def test_partition_properties(self, total, chunk):
        sizes = split_length(total, chunk)
        assert sum(sizes) == total
        assert all(s == chunk for s in sizes[:-1])
        assert 0 < sizes[-1] <= chunk
