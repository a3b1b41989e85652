"""Shared utilities: unit conversion, integer rounding, validation."""

from repro.util.rounding import (
    ceil_div,
    floor_to_multiple,
    prefix_offsets,
    split_even,
    split_length,
)
from repro.util.units import (
    BYTES_PER_KIB,
    BYTES_PER_MIB,
    BYTES_PER_GIB,
    bytes_to_gib,
    bytes_to_mib,
    gflops,
)
from repro.util.validation import (
    require_count,
    require_positive,
    require_nonnegative,
    require_at_least,
)

__all__ = [
    "ceil_div",
    "floor_to_multiple",
    "prefix_offsets",
    "split_even",
    "split_length",
    "BYTES_PER_KIB",
    "BYTES_PER_MIB",
    "BYTES_PER_GIB",
    "bytes_to_gib",
    "bytes_to_mib",
    "gflops",
    "require_count",
    "require_positive",
    "require_nonnegative",
    "require_at_least",
]
