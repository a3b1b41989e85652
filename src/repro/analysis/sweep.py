"""Matrix-shape sweeps (Figure 8).

Figure 8 varies M (tied to N by an aspect ratio) and K over a grid and
contours the ratio of CAKE throughput to MKL throughput. The grid here
mirrors that: for each ``(m_index, k_index)`` cell we predict both engines
and record ``cake_gflops / goto_gflops``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.machines.spec import MachineSpec
from repro.perfmodel.predict import predict_cake, predict_goto
from repro.util import require_positive


@dataclass(frozen=True, slots=True)
class ShapeSweepResult:
    """A Figure 8 panel: CAKE/GOTO throughput ratio over (M, K)."""

    machine_name: str
    aspect: float  # M = aspect * N
    m_values: tuple[int, ...]
    k_values: tuple[int, ...]
    ratio: np.ndarray  # shape (len(k_values), len(m_values))

    def fraction_above(self, threshold: float) -> float:
        """Share of grid cells where CAKE beats GOTO by >= threshold."""
        return float(np.mean(self.ratio >= threshold))

    def ratio_at(self, m: int, k: int) -> float:
        """Ratio at the grid point closest to (m, k)."""
        mi = int(np.argmin(np.abs(np.array(self.m_values) - m)))
        ki = int(np.argmin(np.abs(np.array(self.k_values) - k)))
        return float(self.ratio[ki, mi])


def relative_throughput_grid(
    machine: MachineSpec,
    *,
    aspect: float = 1.0,
    m_values: tuple[int, ...] = (1000, 2000, 3000, 4000, 5000, 6000, 7000, 8000),
    k_values: tuple[int, ...] = (1000, 2000, 3000, 4000, 5000, 6000, 7000, 8000),
    cores: int | None = None,
) -> ShapeSweepResult:
    """One Figure 8 panel: ``M = aspect * N`` with M and K swept.

    ``aspect`` of 1, 2, 4, 8 reproduces panels (a)-(d).
    """
    require_positive("aspect", aspect)
    cells = [
        (ki, mi, m, max(int(round(m / aspect)), 1), k)
        for ki, k in enumerate(k_values)
        for mi, m in enumerate(m_values)
    ]
    ratio = np.empty((len(k_values), len(m_values)))
    for ki, mi, m, n, k in cells:
        cake = predict_cake(machine, m, n, k, cores=cores)
        goto = predict_goto(machine, m, n, k, cores=cores)
        ratio[ki, mi] = cake.gflops / goto.gflops
    return ShapeSweepResult(
        machine_name=machine.name,
        aspect=aspect,
        m_values=tuple(m_values),
        k_values=tuple(k_values),
        ratio=ratio,
    )
