"""Byte-size units shared by the machine presets and the figure reports.

The presets size caches and DRAM in KiB/MiB/GiB (Table 2), the reports
print them back in MiB/GiB, and both use the constants below so a size
reads the same everywhere.
"""

from __future__ import annotations

from repro.util.validation import require_nonnegative, require_positive

BYTES_PER_KIB = 1024
BYTES_PER_MIB = 1024**2
BYTES_PER_GIB = 1024**3

#: The paper evaluates single-precision GEMM (BLIS sgemm kernels).
FLOAT32_BYTES = 4


def bytes_to_mib(n_bytes: float) -> float:
    """Convert bytes to MiB."""
    require_nonnegative("n_bytes", n_bytes)
    return n_bytes / BYTES_PER_MIB


def bytes_to_gib(n_bytes: float) -> float:
    """Convert bytes to GiB."""
    require_nonnegative("n_bytes", n_bytes)
    return n_bytes / BYTES_PER_GIB


def gflops(flops: float, seconds: float) -> float:
    """Throughput in GFLOP/s given work and wall time."""
    require_nonnegative("flops", flops)
    require_positive("seconds", seconds)
    return flops / seconds / 1e9
