"""Backend registration and selection.

The registry maps backend *names* — what ``CakeGemm(backend="...")``,
serve requests and the conformance suite speak — to
:class:`BackendSpec` records bundling the capability flags, an
availability probe, and a factory. Selection is one call::

    spec = resolve_backend("blas-group")
    backend = spec.create(kernel=plan.kernel)

A new backend participates in *everything* (engine selection, the
cross-backend conformance battery, the differential hypothesis sweep,
the bench matrix) by registering here — the test suite parametrizes
over :func:`registered_backends` and skips what
:meth:`BackendSpec.is_available` rules out, so no test file needs to
know the backend exists.

Unknown names and unavailable backends surface as structured
:class:`~repro.errors.BackendCapabilityError` (never a ``KeyError`` or
an ``ImportError`` from deep inside an engine).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.errors import BackendCapabilityError
from repro.gemm.backends.base import (
    Backend,
    BackendCapabilities,
    dtype_supported,
)
from repro.gemm.backends.blas_group import BlasGroupBackend
from repro.gemm.backends.numpy_backend import NumpyBackend
from repro.gemm.backends.torch_backend import TorchBackend
from repro.gemm.microkernel import MicroKernel


@dataclass(frozen=True)
class BackendSpec:
    """One selectable backend: capabilities, availability, factory.

    ``factory`` receives the plan's micro-kernel and the engine's
    ``exact_tiles`` flag as keywords; backends that do not execute
    through the kernel simply ignore them.
    """

    name: str
    capabilities: BackendCapabilities
    factory: Callable[..., Backend]
    available: Callable[[], bool] = field(default=lambda: True)
    description: str = ""
    #: Human hint for what an unavailable backend needs (``"torch"``).
    requires: str | None = None

    def is_available(self) -> bool:
        """Whether this backend can run on this host right now."""
        try:
            return bool(self.available())
        except Exception:  # pragma: no cover - defensive probe guard
            return False

    def supports_dtype(self, dtype) -> bool:
        """Capability check without instantiating the backend."""
        return dtype_supported(self.capabilities, dtype)

    def create(
        self, *, kernel: MicroKernel, exact_tiles: bool = False
    ) -> Backend:
        """Instantiate the backend for one run."""
        return self.factory(kernel=kernel, exact_tiles=exact_tiles)


_REGISTRY: dict[str, BackendSpec] = {}
#: Bumped by every registration; forked processes hold the registry of
#: their fork instant, so warm shard pools are keyed by it.
_GENERATION = 0


def register_backend(spec: BackendSpec, *, replace: bool = False) -> BackendSpec:
    """Add a backend to the registry (idempotent with ``replace``).

    Registering is all a new backend must do to be covered by the
    conformance suite and selectable by name everywhere.
    """
    global _GENERATION
    if spec.name in _REGISTRY and not replace:
        raise ValueError(f"backend {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    _GENERATION += 1
    return spec


def registry_generation() -> int:
    """How many registrations the registry has seen (a change counter)."""
    return _GENERATION


def registered_backends() -> tuple[str, ...]:
    """Every registered backend name, in registration order."""
    return tuple(_REGISTRY)


def available_backends() -> tuple[str, ...]:
    """Registered backends whose availability probe passes on this host."""
    return tuple(
        name for name, spec in _REGISTRY.items() if spec.is_available()
    )


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


def resolve_backend(backend: "str | Backend | BackendSpec | None") -> BackendSpec:
    """Normalize an engine's ``backend`` parameter to a usable spec.

    ``None`` means the oracle ``"numpy"``; a name is looked up and its
    availability enforced (selecting ``"torch"`` without torch installed
    fails *here*, at engine construction, with a structured error); a
    :class:`Backend` instance is wrapped so user-built backends slot in
    without registration.
    """
    if backend is None:
        return _REGISTRY["numpy"]
    if isinstance(backend, BackendSpec):
        spec = backend
    elif isinstance(backend, Backend):
        instance = backend
        return BackendSpec(
            name=instance.name,
            capabilities=instance.capabilities,
            factory=lambda **_kw: instance,
            description="user-provided backend instance",
        )
    elif isinstance(backend, str):
        spec = backend_spec(backend)
    else:
        raise TypeError(
            f"backend must be a name, Backend instance, or BackendSpec; "
            f"got {type(backend).__name__}"
        )
    if not spec.is_available():
        needs = f" (requires {spec.requires})" if spec.requires else ""
        raise BackendCapabilityError(
            spec.name, f"not available on this host{needs}"
        )
    return spec


# -- built-in backends --------------------------------------------------------

register_backend(
    BackendSpec(
        name="numpy",
        capabilities=NumpyBackend.capabilities,
        factory=lambda *, kernel, exact_tiles=False: NumpyBackend(
            kernel, exact_tiles=exact_tiles
        ),
        description="per-strip micro-kernel execution — the bit-exact oracle",
    )
)
register_backend(
    BackendSpec(
        name="blas-group",
        capabilities=BlasGroupBackend.capabilities,
        factory=lambda *, kernel, exact_tiles=False: BlasGroupBackend(),
        description="one np.matmul per strip group (GIL-free panel products)",
    )
)
register_backend(
    BackendSpec(
        name="torch",
        capabilities=TorchBackend.capabilities,
        factory=lambda *, kernel, exact_tiles=False: TorchBackend(),
        available=TorchBackend.available,
        description="whole-group torch.matmul (CPU default, device-capable)",
        requires="torch",
    )
)
