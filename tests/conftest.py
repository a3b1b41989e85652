"""Shared fixtures and the pinned hypothesis profile for the test suite.

Property tests must be reproducible run-to-run: the ``default`` profile
below pins the derandomized seed and disables per-example deadlines (CI
boxes have noisy clocks; the models under test are deterministic, so a
deadline only adds flakes). The ``ci`` profile keeps the same seed but
multiplies the example budget for scheduled deep runs — select it with
``HYPOTHESIS_PROFILE=ci``. Per-test ``@settings`` decorators still apply
on top (they override the profile's ``max_examples``/``deadline``).
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from repro.machines import (
    amd_ryzen_9_5950x,
    arm_cortex_a53,
    intel_i9_10900k,
)

settings.register_profile(
    "default",
    derandomize=True,
    deadline=None,
    max_examples=25,
    suppress_health_check=(HealthCheck.too_slow,),
)
settings.register_profile(
    "ci",
    derandomize=True,
    deadline=None,
    max_examples=100,
    suppress_health_check=(HealthCheck.too_slow,),
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20210)


@pytest.fixture
def intel():
    return intel_i9_10900k()


@pytest.fixture
def amd():
    return amd_ryzen_9_5950x()


@pytest.fixture
def arm():
    return arm_cortex_a53()


@pytest.fixture(params=["intel", "amd", "arm"])
def machine(request):
    return {
        "intel": intel_i9_10900k,
        "amd": amd_ryzen_9_5950x,
        "arm": arm_cortex_a53,
    }[request.param]()


def assert_product_close(c, a, b):
    """Tolerance appropriate for re-associated blocked summation."""
    expected = a @ b
    scale = max(np.abs(expected).max(), 1.0)
    np.testing.assert_allclose(c, expected, rtol=1e-8, atol=1e-9 * scale)


# -- the loop packer: the oracle for packing and for operand views -----------


def loop_pack(x, row_chunk, col_chunk):
    """The nested-loop packer: one contiguous copy per block.

    Blocks are ``row_chunk x col_chunk``, ragged at the high edges — the
    ground truth ``repro.packing.pack``'s strided packer and the engines'
    in-place operand views are checked against.
    """
    from repro.util import split_length

    r_sizes = split_length(x.shape[0], min(row_chunk, x.shape[0]))
    c_sizes = split_length(x.shape[1], min(col_chunk, x.shape[1]))
    r_off = np.cumsum([0, *r_sizes])
    c_off = np.cumsum([0, *c_sizes])
    return [
        [
            np.ascontiguousarray(x[r0 : r0 + rs, c0 : c0 + cs])
            for c0, cs in zip(c_off, c_sizes)
        ]
        for r0, rs in zip(r_off, r_sizes)
    ]


class LoopPacked:
    """An operand as loop-packed blocks, behind the accessors
    ``repro.gemm.parallel.build_groups`` reads."""

    def __init__(self, x, row_chunk, col_chunk):
        self.blocks = loop_pack(x, row_chunk, col_chunk)

    def block(self, i, j):
        return self.blocks[i][j]

    panel = block

    def column(self, j, start=0, stop=None):
        """Blocks ``start:stop`` of block column ``j``, stacked: a copy."""
        parts = [row[j] for row in self.blocks[start:stop]]
        return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=0)


def loop_packed_product(engine, a, b):
    """``engine``'s product with its plan's loop order run over loop-packed
    blocks of A and B instead of views: through the same group builder,
    executor and backend, under the same one-thread BLAS lease."""
    from repro.gemm import budget
    from repro.gemm.engine import loop_order
    from repro.gemm.parallel import build_groups, execute_groups

    m, k, n = a.shape[0], a.shape[1], b.shape[1]
    plan = engine.plan_for(m, n, k)
    order = loop_order(type(engine), plan, engine.override)
    block = plan.grid().nominal
    c = np.zeros((m, n), dtype=np.result_type(a, b))
    built = build_groups(
        order.slots,
        plan,
        LoopPacked(a, block.m, block.k),
        LoopPacked(b, block.k, block.n),
        c,
        strips=order.strips,
    )
    with budget.blas_lease():
        execute_groups(built.groups, engine.backend.create(kernel=plan.kernel))
    return c
