"""Pluggable compute backends for the GEMM engines.

The schedule/compute split: CAKE's CB-block schedule (and GOTO's loop
nest) decide what data moves and in what order; a :class:`Backend`
decides how each strip group actually multiplies. Swap the backend
freely — the blocking, traffic counters, and ABFT verification are
backend-invariant by construction.

Two are built in:

* ``numpy`` — per-strip micro-kernel execution, the bit-exact oracle
  every other backend is conformance-tested against;
* ``blas-group`` — one in-place CBLAS ``?gemm`` per whole strip group,
  releasing the GIL for large contiguous panel products.

Select one by name (``CakeGemm(machine, backend="blas-group")``) or pass
a :class:`Backend` instance — ``NumpyBackend(plan.kernel,
exact_tiles=True)`` walks every register tile, and tests pass
in-process fakes the same way.
"""

from repro.errors import BackendCapabilityError
from repro.gemm.backends.base import (
    Backend,
    BackendCapabilities,
    execute_group,
)
from repro.gemm.backends.blas_group import BlasGroupBackend
from repro.gemm.backends.numpy_backend import NumpyBackend
from repro.gemm.backends.registry import (
    BackendSpec,
    backend_spec,
    registered_backends,
    resolve_backend,
)

__all__ = [
    "Backend",
    "BackendCapabilities",
    "BackendCapabilityError",
    "BackendSpec",
    "BlasGroupBackend",
    "NumpyBackend",
    "backend_spec",
    "execute_group",
    "registered_backends",
    "resolve_backend",
]
