"""Backend selection: the built-in backends, by name.

The registry maps backend *names* — what ``CakeGemm(backend="...")``,
serve requests, shard workers and the conformance suite speak — to
:class:`BackendSpec` records bundling the capability flags and a
factory. Selection is one call::

    spec = resolve_backend("blas-group")
    backend = spec.create(kernel=plan.kernel)

The table is fixed: ``numpy`` and ``blas-group``. The test suite
parametrizes over :func:`registered_backends`. A :class:`Backend`
instance is accepted wherever a name is, wrapped in a spec of its own,
so callers and tests can run backends of their own in process; shard
workers rebuild their backend from the table by name, so a sharded run
takes only the table's own specs.

Unknown names surface as structured
:class:`~repro.errors.BackendCapabilityError` (never a ``KeyError`` from
deep inside an engine).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import BackendCapabilityError
from repro.gemm.backends.base import Backend, BackendCapabilities
from repro.gemm.backends.blas_group import BlasGroupBackend
from repro.gemm.backends.numpy_backend import NumpyBackend
from repro.gemm.microkernel import MicroKernel


@dataclass(frozen=True)
class BackendSpec:
    """One selectable backend: its name, capabilities and factory.

    ``factory`` receives the plan's micro-kernel and the ``exact_tiles``
    flag as keywords; backends that do not execute through the kernel
    ignore them.
    """

    name: str
    capabilities: BackendCapabilities
    factory: Callable[..., Backend]

    def create(
        self, *, kernel: MicroKernel, exact_tiles: bool = False
    ) -> Backend:
        """Instantiate the backend for one run."""
        return self.factory(kernel=kernel, exact_tiles=exact_tiles)


_REGISTRY: dict[str, BackendSpec] = {
    spec.name: spec
    for spec in (
        BackendSpec("numpy", NumpyBackend.capabilities, NumpyBackend),
        BackendSpec(
            "blas-group",
            BlasGroupBackend.capabilities,
            lambda *, kernel, exact_tiles=False: BlasGroupBackend(),
        ),
    )
}


def registered_backends() -> tuple[str, ...]:
    """Every backend name the registry holds."""
    return tuple(_REGISTRY)


def backend_spec(name: str) -> BackendSpec:
    """Look a backend up by name (structured error on unknown names)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise BackendCapabilityError(
            name,
            f"unknown backend; registered backends: "
            f"{', '.join(sorted(_REGISTRY))}",
        ) from None


def resolve_backend(backend: "str | Backend | None") -> BackendSpec:
    """Normalize an engine's ``backend`` parameter to a spec.

    ``None`` means the oracle ``"numpy"``; a name is looked up; a
    :class:`Backend` instance is wrapped in a spec whose factory returns
    that instance, so backends built outside the registry slot in.
    """
    if backend is None:
        return _REGISTRY["numpy"]
    if isinstance(backend, str):
        return backend_spec(backend)
    if isinstance(backend, Backend):
        instance = backend
        return BackendSpec(
            instance.name, instance.capabilities, lambda **_kw: instance
        )
    raise TypeError(
        f"backend must be a name or a Backend instance; "
        f"got {type(backend).__name__}"
    )
