"""Unit tests for repro.util.validation."""

import pytest

from repro.util import (
    require_at_least,
    require_nonnegative,
    require_positive,
)


class TestRequirePositive:
    def test_accepts_positive(self):
        require_positive("x", 1)
        require_positive("x", 0.5)

    @pytest.mark.parametrize("bad", [0, -1, -0.5])
    def test_rejects(self, bad):
        with pytest.raises(ValueError, match="x must be > 0"):
            require_positive("x", bad)


class TestRequireNonnegative:
    def test_accepts_zero(self):
        require_nonnegative("x", 0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="x must be >= 0"):
            require_nonnegative("x", -1)


class TestRequireAtLeast:
    def test_accepts_boundary(self):
        require_at_least("alpha", 1.0, 1.0)

    def test_rejects_below(self):
        with pytest.raises(ValueError, match="alpha must be >= 1.0"):
            require_at_least("alpha", 0.99, 1.0)
