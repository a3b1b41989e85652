"""Speedup-versus-cores series (Figure 9).

The paper defines speedup for a fixed-size MM at ``p`` cores as
``t_1 / t_p`` — throughput relative to a single core of the same engine —
which lets CAKE and the vendor library be compared across platforms on a
common axis.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.machines.spec import MachineSpec
from repro.perfmodel.predict import predict_cake, predict_goto
from repro.util import require_positive


@dataclass(frozen=True, slots=True)
class SpeedupSeries:
    """One engine's speedup curve for one problem size."""

    engine: str
    machine_name: str
    n: int
    cores: tuple[int, ...]
    seconds: tuple[float, ...]

    @property
    def speedups(self) -> tuple[float, ...]:
        """``t_1 / t_p`` for each measured core count.

        Normalised to the 1-core time when present, else to the first
        point (making that point's speedup exactly 1).
        """
        t1 = (
            self.seconds[self.cores.index(1)]
            if 1 in self.cores
            else self.seconds[0]
        )
        return tuple(t1 / s for s in self.seconds)


def speedup_series(
    machine: MachineSpec,
    n: int,
    *,
    engine: str,
    max_cores: int | None = None,
) -> SpeedupSeries:
    """Speedup curve for a square ``n x n x n`` MM on ``machine``.

    ``engine`` is ``"cake"`` or ``"goto"``. Cores sweep 1..max_cores.
    """
    require_positive("n", n)
    if engine not in ("cake", "goto"):
        raise ValueError(f"engine must be 'cake' or 'goto', got {engine!r}")
    max_cores = machine.cores if max_cores is None else max_cores
    cores = tuple(range(1, max_cores + 1))
    if engine == "cake":
        seconds = tuple(
            predict_cake(machine, n, n, n, cores=p).seconds for p in cores
        )
    else:
        seconds = tuple(
            predict_goto(machine, n, n, n, cores=p).seconds for p in cores
        )
    return SpeedupSeries(
        engine=engine,
        machine_name=machine.name,
        n=n,
        cores=cores,
        seconds=seconds,
    )
