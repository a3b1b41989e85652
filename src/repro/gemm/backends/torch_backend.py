"""Optional PyTorch backend (CPU by default, any torch device on request).

Torch is *not* a dependency of this package: the backend registers with
an availability probe (``TorchBackend.available()``, a ``find_spec``
check that never imports torch) and everything downstream — engine
selection, the conformance suite, the CI matrix — skips cleanly when it
is absent. Constructing the backend without torch installed raises a
structured :class:`~repro.errors.BackendCapabilityError` naming the
missing requirement.

Execution wraps the NumPy operand views with ``torch.from_numpy`` (after
one ``np.ascontiguousarray`` each, since a view of A or B is strided),
multiplies on the configured device, and accumulates the
result back into the C panel view with one in-place NumPy add — C stays
a plain NumPy array throughout, so GemmRun consumers never see a tensor.
On non-CPU devices the operands are staged through device memory per
group; that transfer is the price of the device's throughput, exactly
the traffic/compute trade the paper's roofline would model for an
accelerator tier.

Capabilities: ``float32``/``float64`` only (torch's CPU GEMM does not
cover NumPy's extended-precision or — uniformly across versions —
complex dtypes; a float16 or complex request becomes a structured
capability error instead of a deep torch ``RuntimeError``), grouped
(torch wants big GEMMs), non-deterministic vs the oracle
(tolerance-banded agreement), reproducible run-to-run on a fixed device.
"""

from __future__ import annotations

from importlib import util as _importlib_util

import numpy as np

from repro.errors import BackendCapabilityError
from repro.gemm.backends.base import Backend, BackendCapabilities


class TorchBackend(Backend):
    """Whole-group matmul through ``torch`` (CPU default, device-capable)."""

    name = "torch"
    capabilities = BackendCapabilities(
        deterministic=False,
        grouped=True,
        dtypes=frozenset({"float32", "float64"}),
        reproducible=True,
    )

    @staticmethod
    def available() -> bool:
        """Whether torch is importable — probed without importing it."""
        try:
            return _importlib_util.find_spec("torch") is not None
        except (ImportError, ValueError):  # pragma: no cover - broken metadata
            return False

    def __init__(self, device: str = "cpu") -> None:
        if not self.available():
            raise BackendCapabilityError(
                self.name, "requires torch, which is not installed"
            )
        import torch

        self._torch = torch
        self._device = torch.device(device)

    def _product(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        torch = self._torch
        ta = torch.from_numpy(np.ascontiguousarray(a))
        tb = torch.from_numpy(np.ascontiguousarray(b))
        if self._device.type != "cpu":  # pragma: no cover - device-gated
            ta = ta.to(self._device)
            tb = tb.to(self._device)
        out = torch.matmul(ta, tb)
        if self._device.type != "cpu":  # pragma: no cover - device-gated
            out = out.cpu()
        return out.numpy()

    def matmul_group(self, a: np.ndarray, b: np.ndarray, c: np.ndarray) -> None:
        np.add(c, self._product(a, b), out=c)

    def matmul_strip(self, a: np.ndarray, b: np.ndarray, c: np.ndarray) -> None:
        np.add(c, self._product(a, b), out=c)
