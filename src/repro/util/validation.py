"""Small argument-validation helpers.

Centralising these keeps error messages uniform ("<name> must be ...") across
the whole library, which the test suite relies on.
"""

from __future__ import annotations

from numbers import Integral
from typing import Any


def require_positive(name: str, value: float) -> None:
    """Raise ``ValueError`` unless ``value > 0``."""
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")


def require_count(name: str, value: Any) -> int:
    """A positive count as an ``int``: the rule for workers and processes.

    Any Python or NumPy integer is accepted; a bool or a non-integral
    value raises ``TypeError``, and one below 1 ``ValueError``.
    """
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    require_positive(name, value)
    return int(value)


def require_nonnegative(name: str, value: float) -> None:
    """Raise ``ValueError`` unless ``value >= 0``."""
    if not value >= 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")


def require_at_least(name: str, value: float, minimum: float) -> None:
    """Raise ``ValueError`` unless ``value >= minimum``."""
    if not value >= minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value!r}")
