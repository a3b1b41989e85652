"""Shape-class routing: which requests can share a plan and buffers.

The server's batching win comes from the paper's Fig. 8/9 regime —
many *small or skewed* problems with recurring shapes. Two requests
belong to the same **shape class** when an engine constructed for one
can execute the other with zero additional planning work: same engine
kind, same ``(m, n, k)`` extents, same accumulation dtype, same
modelled core count. That key is exactly the memo key of the plan
``lru_cache`` (:mod:`repro.gemm.plan`), so the first request of a
class pays for planning and every later one is a cache hit; it is also
the shape/dtype key of the packed buffers, so a shared
:class:`~repro.packing.pool.BufferPool` turns repeat classes into
allocation-free packs.

COSMA's observation (PAPERS.md) that the right decomposition is a
function of the problem *shape* rather than the machine alone is why
classification keys on extents and not on a coarse size bucket:
a ``256x1024x2048`` skewed problem and a ``1024x1024x1024`` cube of
similar volume get different plans, so they must be different classes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Requests whose total operand+output surface (elements of A, B and C)
#: is at or below this are "small": eligible for executor coalescing
#: into one engine pass per class. Larger problems run solo — their
#: execution dominates queueing overheads, and they are the ones worth
#: sharding instead. 2^22 elements is a ~1024^2-ish problem in float32.
SMALL_SURFACE_ELEMENTS = 1 << 22


@dataclass(frozen=True, slots=True)
class ShapeClass:
    """The routing identity of one request.

    ``key`` (all fields except ``small``) decides plan/pool sharing;
    ``small`` only gates coalescing.
    """

    engine: str
    m: int
    n: int
    k: int
    dtype: str
    cores: int | None
    small: bool

    @property
    def key(self) -> tuple:
        """Hashable identity: requests with equal keys share a plan."""
        return (self.engine, self.m, self.n, self.k, self.dtype, self.cores)

    def describe(self) -> str:
        """Compact human/report form, e.g. ``cake:256x1024x2048:f4``."""
        return (
            f"{self.engine}:{self.m}x{self.n}x{self.k}:"
            f"{np.dtype(self.dtype).str.lstrip('<>=|')}"
        )


def classify(
    engine: str,
    a: np.ndarray,
    b: np.ndarray,
    *,
    cores: int | None = None,
    small_surface: int = SMALL_SURFACE_ELEMENTS,
) -> ShapeClass:
    """The shape class of an ``a @ b`` request routed to ``engine``.

    Assumes operands already passed
    :func:`~repro.gemm.parallel.check_multiply_operands` (the front
    door validates before classifying).
    """
    m, k = a.shape
    n = b.shape[1]
    dtype = np.result_type(a, b)
    surface = m * k + k * n + m * n
    return ShapeClass(
        engine=engine,
        m=m,
        n=n,
        k=k,
        dtype=dtype.str,
        cores=cores,
        small=surface <= small_surface,
    )
