"""BLAS-style GEMM semantics over the engines.

The paper positions CAKE as "a drop-in replacement for MM calls used by
existing frameworks"; those calls are ``?gemm``:

    C <- alpha * op(A) @ op(B) + beta * C

with optional transposition of either operand. This module provides that
surface on top of any engine (CAKE or GOTO), preserving the engine's
traffic/timing report. Transposed operands are passed to the engine as
plain views and no staging copy happens here: the engine reads a
C-ordered operand in place and copies any other layout (a transposed
view is F-ordered) once, flat, into C order, so a transposed input costs
one copy of its own and a plain one none.
"""

from __future__ import annotations

import numpy as np

from repro.gemm.result import GemmRun


def gemm(
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray | None = None,
    *,
    alpha: float = 1.0,
    beta: float = 0.0,
    transpose_a: bool = False,
    transpose_b: bool = False,
    engine=None,
) -> GemmRun:
    """General matrix multiply: ``alpha * op(A) @ op(B) + beta * C``.

    Parameters
    ----------
    a, b:
        2-D operands (before transposition).
    c:
        Accumulation target; required when ``beta != 0``. Never modified
        in place — the returned run's ``c`` is a fresh array.
    alpha, beta:
        The usual BLAS scalars.
    transpose_a, transpose_b:
        Apply ``op(X) = X.T``.
    engine:
        A GEMM engine with a ``multiply`` method; default CAKE on the
        Intel preset.

    Returns
    -------
    GemmRun
        The engine's full report; ``run.c`` holds the BLAS result.
    """
    if engine is None:
        from repro.gemm.cake import CakeGemm
        from repro.machines.presets import intel_i9_10900k

        engine = CakeGemm(intel_i9_10900k())

    a_op = a.T if transpose_a else a
    b_op = b.T if transpose_b else b
    if a_op.ndim != 2 or b_op.ndim != 2:
        raise ValueError("operands must be 2-D")
    if a_op.shape[1] != b_op.shape[0]:
        raise ValueError(
            f"inner dimensions disagree after transposition: "
            f"op(A) is {a_op.shape}, op(B) is {b_op.shape}"
        )

    if beta != 0.0:
        if c is None:
            raise ValueError("beta != 0 requires an input C matrix")
        expected = (a_op.shape[0], b_op.shape[1])
        if c.shape != expected:
            raise ValueError(f"C has shape {c.shape}, expected {expected}")

    run = engine.multiply(a_op, b_op)
    assert run.c is not None
    if alpha != 1.0:
        run.c *= alpha
    if beta != 0.0:
        assert c is not None
        run.c += beta * c
        # The beta update reads and rewrites C once more through DRAM.
        run.counters.ext_c_read += c.size
        run.counters.ext_c_write += c.size
    return run
