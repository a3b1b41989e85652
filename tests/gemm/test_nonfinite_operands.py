"""Non-finite operands: a verified multiply refuses them up front.

An inf or NaN element (or a block whose sums overflow its dtype) makes
the block's ABFT checksums non-finite, so no checksum identity can hold
for it. The checksum pass of :func:`repro.gemm.parallel.build_groups`
raises ``ValueError`` naming the operand and the block before any
backend call, instead of letting the verifier retry, recompute on the
oracle and then report a numeric fault. Unverified, the same operands
multiply like BLAS does: the IEEE product. The served side of the
contract is pinned in ``tests/serve/test_server.py``.
"""

import numpy as np
import pytest

import repro.gemm.engine as engine_module
from repro.api import cake_matmul, goto_matmul
from repro.gemm import CakeGemm, GotoGemm

ENGINES = {"cake": CakeGemm, "goto": GotoGemm}
MATMULS = {"cake": cake_matmul, "goto": goto_matmul}


def _poisoned(rng, operand, value):
    a = rng.standard_normal((200, 170))
    b = rng.standard_normal((170, 230))
    if operand == "A":
        a[3, 4] = value
    else:
        b[4, 3] = value
    return a, b


@pytest.mark.parametrize("engine", ["cake", "goto"])
@pytest.mark.parametrize(
    "operand,value", [("A", np.inf), ("B", np.nan), ("A", -np.inf)]
)
def test_verified_multiply_refuses_before_any_backend_call(
    intel, rng, monkeypatch, engine, operand, value
):
    a, b = _poisoned(rng, operand, value)

    def no_backend_call(*args, **kwargs):
        raise AssertionError("a backend ran on a refused operand")

    monkeypatch.setattr(engine_module, "execute_groups", no_backend_call)
    refused = rf"operand {operand} block \(\d+, \d+\) has a non-finite"
    with pytest.raises(ValueError, match=refused):
        ENGINES[engine](intel, verify=True).multiply(a, b)


@pytest.mark.parametrize("engine", ["cake", "goto"])
def test_overflowing_checksum_is_refused(intel, rng, engine):
    # Every element finite, but one column of A sums past float64's
    # range: the block's checksum is inf all the same.
    a, b = _poisoned(rng, "A", 1.0)
    a[:2, 0] = 1e308
    with pytest.raises(ValueError, match="operand A block"):
        with np.errstate(over="ignore"):
            ENGINES[engine](intel, verify=True).multiply(a, b)


@pytest.mark.parametrize("engine", ["cake", "goto"])
@pytest.mark.parametrize("operand,value", [("A", np.inf), ("B", np.nan)])
def test_api_refuses_verified_and_multiplies_unverified(
    rng, engine, operand, value
):
    a, b = _poisoned(rng, operand, value)
    matmul = MATMULS[engine]
    with pytest.raises(ValueError, match=f"operand {operand} block"):
        matmul(a, b, verify=True)
    with np.errstate(invalid="ignore"):
        run, reference = matmul(a, b), a @ b
    assert not np.isfinite(run.c).all()
    np.testing.assert_allclose(run.c, reference, rtol=1e-10, atol=1e-10)
