"""Pluggable compute backends for the GEMM engines.

The schedule/compute split: CAKE's CB-block schedule (and GOTO's loop
nest) decide what data moves and in what order; a :class:`Backend`
decides how each strip group actually multiplies. Swap the backend
freely — the blocking, traffic counters, and ABFT verification are
backend-invariant by construction.

Built-ins:

* ``numpy`` — per-strip micro-kernel execution, the bit-exact oracle
  every other backend is conformance-tested against;
* ``blas-group`` — one ``np.matmul`` per whole strip group, releasing
  the GIL for large contiguous panel products;
* ``torch`` — whole-group ``torch.matmul`` (CPU by default), registered
  with an availability probe so hosts without torch skip it cleanly.

Select by name (``CakeGemm(machine, backend="blas-group")``), pass a
:class:`Backend` instance, or register your own via
:func:`register_backend` — registration alone enrolls a backend in the
cross-backend conformance suite.
"""

from repro.errors import BackendCapabilityError
from repro.gemm.backends.base import (
    Backend,
    BackendCapabilities,
    dtype_supported,
    execute_group,
    group_eligible,
)
from repro.gemm.backends.blas_group import BlasGroupBackend
from repro.gemm.backends.numpy_backend import NumpyBackend
from repro.gemm.backends.registry import (
    BackendSpec,
    available_backends,
    backend_spec,
    register_backend,
    registered_backends,
    resolve_backend,
)
from repro.gemm.backends.torch_backend import TorchBackend

__all__ = [
    "Backend",
    "BackendCapabilities",
    "BackendCapabilityError",
    "BackendSpec",
    "BlasGroupBackend",
    "NumpyBackend",
    "TorchBackend",
    "available_backends",
    "backend_spec",
    "dtype_supported",
    "execute_group",
    "group_eligible",
    "register_backend",
    "registered_backends",
    "resolve_backend",
]
