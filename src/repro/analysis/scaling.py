"""Core-count scaling series with extrapolation (Figures 10, 11, 12).

Each figure plots, against active cores: (a) observed DRAM bandwidth,
(b) computation throughput — solid within the physical core count,
dotted beyond it under the paper's extrapolation assumptions — and
(c) the machine's internal-bandwidth curve. :func:`scaling_series`
produces all of that from one machine spec and problem size.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.machines.extrapolate import extrapolated_machine
from repro.machines.spec import MachineSpec
from repro.perfmodel.optimal import cake_optimal_dram_gb_per_s
from repro.perfmodel.predict import PerfPrediction, predict_cake, predict_goto
from repro.util import require_positive


@dataclass(frozen=True, slots=True)
class ScalingPoint:
    """One core count's worth of a Figure 10/11/12 panel set."""

    cores: int
    extrapolated: bool
    cake: PerfPrediction
    goto: PerfPrediction
    cake_optimal_dram_gb_per_s: float
    internal_bw_gb_per_s: float


def scaling_series(
    machine: MachineSpec,
    n: int,
    *,
    max_physical_cores: int | None = None,
    extrapolate_to: int | None = None,
    core_step: int = 1,
) -> list[ScalingPoint]:
    """The full panel data for one platform's scaling figure.

    Within ``max_physical_cores`` the real machine is used; beyond it,
    cores come from :func:`~repro.machines.extrapolate.extrapolated_machine`
    (quadratic LLC, linearised internal bandwidth, fixed DRAM bandwidth).
    """
    require_positive("n", n)
    physical = (
        machine.cores if max_physical_cores is None else max_physical_cores
    )
    top = physical if extrapolate_to is None else extrapolate_to
    points: list[ScalingPoint] = []
    for cores in range(core_step, top + 1, core_step):
        spec = (
            extrapolated_machine(machine, cores)
            if cores > physical
            else machine.with_cores(cores)
        )
        points.append(
            ScalingPoint(
                cores=cores,
                extrapolated=cores > physical,
                cake=predict_cake(spec, n, n, n),
                goto=predict_goto(spec, n, n, n),
                cake_optimal_dram_gb_per_s=cake_optimal_dram_gb_per_s(
                    spec, m=n, n=n, k=n
                ),
                internal_bw_gb_per_s=spec.internal_bw.bandwidth_gb_per_s(cores),
            )
        )
    return points
