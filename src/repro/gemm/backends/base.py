"""The ``Backend`` protocol: what a pluggable compute engine must provide.

CAKE's CB-block schedule is backend-agnostic — it decides *what* moves
and *when*, never *how* a strip multiplies. This module pins down the
seam: a :class:`Backend` receives the operand views the schedule cut
and accumulates ``c += a @ b`` in place, either strip by strip
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
  (worker-count invariance is trivial) and the group builder provides
  group-contiguous operands.

Every backend accepts every float and complex dtype NumPy accumulates,
and returns the same bits for the same call on the same data: the ABFT
recovery ladder heals transient corruption bit-exactly by recomputing.

The tolerance contract: a backend that is not ``deterministic`` must
still agree with the oracle within :meth:`Backend.agreement_band` — the
same ``8 * eps * (k + 2)`` shape the ABFT checksum band uses, since both
bound re-associated summation over the reduction depth.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

#: Multiplier on ``eps * (k + 2)`` for the cross-backend agreement band —
#: the same safety factor the ABFT tolerance model uses
#: (:mod:`repro.gemm.verify`), for the same reason: both bound the
#: rounding drift of re-associated length-``k`` summations.
_BAND_SAFETY = 8.0


@dataclass(frozen=True, slots=True)
class BackendCapabilities:
    """What a backend guarantees (see the module docstring)."""

    deterministic: bool
    grouped: bool


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

    def agreement_band(self, dtype, k: int) -> float:
        """Relative tolerance vs the NumPy oracle for depth-``k`` products.

        Zero for deterministic backends (agreement is bit-exact); the
        ABFT-shaped ``8 * eps * (k + 2)`` band otherwise. The conformance
        suite asserts every backend honors its own declaration.
        """
        if self.capabilities.deterministic:
            return 0.0
        return _BAND_SAFETY * float(np.finfo(np.dtype(dtype)).eps) * (k + 2)


def execute_group(backend: Backend, group, faults=None) -> None:
    """Run one strip group through ``backend``, inline, faults applied.

    The single execution seam shared by the serial executor path and the
    ABFT recovery ladder's recompute rung — both must issue *exactly*
    the calls the clean path would, so a backend recomputes the same
    bits. A ``grouped`` backend multiplies the group's stacked A
    (``operand_a``) into its C ``panel`` in one call. Fault injection
    lands per strip after the numeric update, keyed ``(group.index,
    strip)`` with the serial run's strip index (``group.first_strip``
    onward), identically in group mode (the strip views alias the panel)
    and strip mode.
    """
    if backend.capabilities.grouped:
        backend.matmul_group(group.operand_a, group.tasks[0].b, group.panel)
        if faults is not None:
            for strip, task in enumerate(group.tasks, group.first_strip):
                faults.corrupt(group.index, strip, task.c)
        return
    for strip, task in enumerate(group.tasks, group.first_strip):
        backend.matmul_strip(task.a, task.b, task.c)
        if faults is not None:
            faults.corrupt(group.index, strip, task.c)
