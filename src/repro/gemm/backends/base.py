"""The ``Backend`` protocol: what a pluggable compute engine must provide.

CAKE's CB-block schedule is backend-agnostic — it decides *what* moves
and *when*, never *how* a strip multiplies. This module pins down the
seam: a :class:`Backend` receives the packed operand views the schedule
produced and accumulates ``c += a @ b`` in place, either strip by strip
(:meth:`Backend.matmul_strip`, one call per core slab) or for a whole
strip group at once (:meth:`Backend.matmul_group`, one call per CB
block / GOTO slice — the shape BLAS-class libraries want).

Capability flags (:class:`BackendCapabilities`) tell the rest of the
system what it may assume:

* ``deterministic`` — the backend's bits equal the per-strip NumPy
  oracle's exactly. The verifier's snapshot-free replay restore and the
  bit-identity test battery key off this.
* ``grouped`` — the backend prefers one whole-group call; the executor
  then runs each group as a single operation on the orchestrator thread
  (worker-count invariance is trivial) and the engines provide
  group-contiguous operands.
* ``dtypes`` — accumulation dtypes the backend accepts, ``None`` meaning
  every float/complex dtype NumPy has. Violations surface as structured
  :class:`~repro.errors.BackendCapabilityError` at operand validation,
  not as a ``TypeError`` deep in a kernel.
* ``reproducible`` — the same call on the same data returns the same
  bits run-to-run (true for every library here; a hypothetical
  split-K-atomics GPU kernel would clear it). The ABFT recovery ladder
  relies on it for bit-exact transient healing.

The tolerance contract: a backend that is not ``deterministic`` must
still agree with the oracle within :meth:`Backend.agreement_band` — the
same ``8 * eps * (k + 2)`` shape the ABFT checksum band uses, since both
bound re-associated summation over the reduction depth.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.errors import BackendCapabilityError

#: Multiplier on ``eps * (k + 2)`` for the cross-backend agreement band —
#: the same safety factor the ABFT tolerance model uses
#: (:mod:`repro.gemm.verify`), for the same reason: both bound the
#: rounding drift of re-associated length-``k`` summations.
_BAND_SAFETY = 8.0


@dataclass(frozen=True, slots=True)
class BackendCapabilities:
    """What a backend supports and guarantees.

    ``dtypes`` is a frozenset of NumPy dtype *names* (``"float32"``,
    ``"complex128"``, ...) or ``None`` for "any float/complex dtype".
    """

    deterministic: bool
    grouped: bool
    dtypes: frozenset[str] | None = None
    reproducible: bool = True


def dtype_supported(caps: BackendCapabilities, dtype) -> bool:
    """Whether an accumulation dtype is inside a capability envelope.

    Integer/boolean dtypes are *never* supported — blocked accumulation
    in fixed-width integers wraps silently on overflow, which no backend
    is allowed to offer.
    """
    dt = np.dtype(dtype)
    if not (
        np.issubdtype(dt, np.floating) or np.issubdtype(dt, np.complexfloating)
    ):
        return False
    return caps.dtypes is None or dt.name in caps.dtypes


class Backend(ABC):
    """One way to execute the schedule's strip multiplications.

    Implementations are cheap, per-run objects (engines create one per
    ``multiply()`` call): they may cache scratch buffers keyed by shape,
    because groups execute one at a time on the orchestrator thread.
    Only :meth:`matmul_strip` may be called concurrently (the thread
    executor fans strips out), so it must not touch shared scratch.
    """

    #: Registry name; subclasses override.
    name: str = "?"
    capabilities: BackendCapabilities

    @abstractmethod
    def matmul_strip(self, a: np.ndarray, b: np.ndarray, c: np.ndarray) -> None:
        """Accumulate ``c += a @ b`` for one core's strip, in place.

        May run concurrently with other strips of the same group on
        *disjoint* ``c`` views — implementations must be thread-safe
        (no shared mutable scratch on this path).
        """

    def matmul_group(self, a: np.ndarray, b: np.ndarray, c: np.ndarray) -> None:
        """Accumulate ``c += a @ b`` for a whole strip group, in place.

        ``a`` is the group-contiguous operand (every strip stacked),
        ``c`` the group's full C panel view. Called on the orchestrator
        thread only. The default delegates to :meth:`matmul_strip`;
        ``grouped`` backends override with their one-call path.
        """
        self.matmul_strip(a, b, c)

    # -- capability queries ---------------------------------------------------

    def supports_dtype(self, dtype) -> bool:
        """Whether this backend accepts ``dtype`` accumulation."""
        return dtype_supported(self.capabilities, dtype)

    def require_dtype(self, dtype) -> np.dtype:
        """Validate an accumulation dtype, raising the structured error."""
        dt = np.dtype(dtype)
        if not self.supports_dtype(dt):
            raise BackendCapabilityError(
                self.name,
                f"does not support {dt} accumulation",
                dtype=dt,
            )
        return dt

    def agreement_band(self, dtype, k: int) -> float:
        """Relative tolerance vs the NumPy oracle for depth-``k`` products.

        Zero for deterministic backends (agreement is bit-exact); the
        ABFT-shaped ``8 * eps * (k + 2)`` band otherwise. The conformance
        suite asserts every backend honors its own declaration.
        """
        if self.capabilities.deterministic:
            return 0.0
        return _BAND_SAFETY * float(np.finfo(np.dtype(dtype)).eps) * (k + 2)


def group_eligible(backend: Backend, group) -> bool:
    """Whether a strip group can run as one whole-group backend call.

    Requires a ``grouped`` backend plus the group-contiguous views the
    engines attach (``operand_a`` stacking every strip's A, ``panel``
    stacking every strip's C). Groups lacking them fall back to the
    per-strip path — correctness never depends on eligibility.
    """
    return (
        backend.capabilities.grouped
        and getattr(group, "panel", None) is not None
        and getattr(group, "operand_a", None) is not None
        and len(group.tasks) > 0
    )


def execute_group(backend: Backend, group, faults=None) -> None:
    """Run one strip group through ``backend``, inline, faults applied.

    The single execution seam shared by the serial executor path and the
    ABFT recovery ladder's recompute rung — both must issue *exactly*
    the calls the clean path would, so a reproducible backend recomputes
    the same bits. Fault injection lands per strip after the numeric
    update, keyed ``(group.index, strip)`` with the serial run's strip
    index (``group.first_strip`` onward), identically in group mode (the
    strip views alias the panel) and strip mode.
    """
    if group_eligible(backend, group):
        backend.matmul_group(group.operand_a, group.tasks[0].b, group.panel)
        if faults is not None:
            for strip, task in enumerate(group.tasks, group.first_strip):
                faults.corrupt(group.index, strip, task.c)
        return
    for strip, task in enumerate(group.tasks, group.first_strip):
        backend.matmul_strip(task.a, task.b, task.c)
        if faults is not None:
            faults.corrupt(group.index, strip, task.c)
