"""Replay CAKE/GOTO schedules through the memory hierarchy (Figure 7).

Traces are generated at *tile* granularity: one request per A sub-block
load, per B register-tile stream, and per C tile read+write. No engine is
told where its data "should" live — residency is decided purely by LRU
capacity pressure in :class:`~repro.memsim.hierarchy.MemoryHierarchy`.

The paper's Figure 7 contrast then falls out:

* CAKE's partial-C tiles and B panel fit the LLC by construction
  (Section 4.3 sizing), so repeat accesses are served locally — stalls
  concentrate on L1/L2/LLC.
* GOTO's partial-C working set per column panel is ``M x nc`` — far
  beyond the LLC at the evaluated sizes — so every reduction slice
  re-fetches C from DRAM: stalls concentrate on main memory, and DRAM
  request counts are a multiple of CAKE's.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gemm.parallel import core_strips
from repro.gemm.plan import CakePlan, GotoPlan
from repro.machines.spec import MachineSpec
from repro.memsim.hierarchy import LevelStats, MemoryHierarchy
from repro.schedule.space import ComputationSpace
from repro.util import ceil_div, split_length


@dataclass(frozen=True, slots=True)
class MemoryProfile:
    """Where requests were served and how long cores stalled (Figure 7)."""

    engine: str
    machine_name: str
    levels: dict[str, LevelStats]
    dram_bytes: int

    @property
    def stall_profile(self) -> dict[str, int]:
        """Stall cycles charged per serving level (Figure 7a bars)."""
        return {name: s.stall_cycles for name, s in self.levels.items()}

    @property
    def l1_hits(self) -> int:
        return self.levels["L1"].hits

    @property
    def l2_hits(self) -> int:
        """Hits in the private L2 plus the shared LLC (ARM reports both
        as 'L2' since its LLC is the L2)."""
        return self.levels["L2"].hits + self.levels["LLC"].hits

    @property
    def dram_accesses(self) -> int:
        return self.levels["DRAM"].hits

    @property
    def local_stall_fraction(self) -> float:
        """Share of stall time spent on local memory rather than DRAM."""
        total = sum(s.stall_cycles for s in self.levels.values())
        if total == 0:
            return 0.0
        return 1.0 - self.levels["DRAM"].stall_cycles / total


def profile_cake(
    machine: MachineSpec,
    m: int,
    n: int,
    k: int,
    *,
    cores: int | None = None,
    plan: CakePlan | None = None,
) -> MemoryProfile:
    """Trace the CAKE K-first schedule through the hierarchy.

    ``plan`` overrides the analytically-derived tiling — used by the
    LRU-sizing ablation to show what happens when the Section 4.3 rule
    is violated.
    """
    space = ComputationSpace(m, n, k)
    if plan is None:
        plan = CakePlan.from_problem(machine, space, cores=cores)
    grid = plan.grid()
    hier = MemoryHierarchy(machine, plan.cores)
    eb = machine.element_bytes
    nr = machine.nr

    for coord in plan.schedule():
        ext = grid.extent(coord)
        strips = core_strips(ext.m, plan.cores)
        n_tiles = ceil_div(ext.n, nr)
        for core, rows in enumerate(strips):
            hier.access(
                core, ("A", coord.mi, coord.ki, core), rows * ext.k * eb
            )
        for j in range(n_tiles):
            tile_n = min(nr, ext.n - j * nr)
            b_key = ("B", coord.ki, coord.ni, j)
            for core, rows in enumerate(strips):
                # The broadcast (Section 2.1): every core in the column
                # reads the tile; the first read fills the LLC, the rest
                # hit it.
                hier.access(core, b_key, ext.k * tile_n * eb)
                c_key = ("C", coord.mi, coord.ni, core, j)
                c_size = rows * tile_n * eb
                hier.access(core, c_key, c_size)
                hier.access(core, c_key, c_size, write=True)
        if coord.ki == grid.kb - 1:
            hier.write_back(ext.surface_c * eb)

    return MemoryProfile(
        engine="cake",
        machine_name=machine.name,
        levels=hier.level_stats(),
        dram_bytes=hier.dram_bytes,
    )


def profile_goto(
    machine: MachineSpec,
    m: int,
    n: int,
    k: int,
    *,
    cores: int | None = None,
) -> MemoryProfile:
    """Trace the GOTO loop nest through the hierarchy."""
    space = ComputationSpace(m, n, k)
    plan = GotoPlan.from_problem(machine, space, cores=cores)
    hier = MemoryHierarchy(machine, plan.cores)
    eb = machine.element_bytes
    nr = machine.nr

    m_strips = split_length(space.m, min(plan.mc, space.m))
    n_sizes = split_length(space.n, min(plan.nc, space.n))
    k_sizes = split_length(space.k, min(plan.kc, space.k))

    for ni, nc_actual in enumerate(n_sizes):
        for ki, kc_actual in enumerate(k_sizes):
            for wave_start in range(0, len(m_strips), plan.cores):
                wave = m_strips[wave_start : wave_start + plan.cores]
                n_tiles = ceil_div(nc_actual, nr)
                for lane, rows in enumerate(wave):
                    strip = wave_start + lane
                    hier.access(lane, ("A", strip, ki), rows * kc_actual * eb)
                for j in range(n_tiles):
                    tile_n = min(nr, nc_actual - j * nr)
                    b_key = ("B", ki, ni, j)
                    for lane, rows in enumerate(wave):
                        strip = wave_start + lane
                        hier.access(lane, b_key, kc_actual * tile_n * eb)
                        # Note: the C key has no ki — the same partial
                        # panel is revisited every reduction slice.
                        c_key = ("C", strip, ni, j)
                        c_size = rows * tile_n * eb
                        hier.access(lane, c_key, c_size)
                        hier.access(lane, c_key, c_size, write=True)
    hier.write_back(space.m * space.n * eb)

    return MemoryProfile(
        engine="goto",
        machine_name=machine.name,
        levels=hier.level_stats(),
        dram_bytes=hier.dram_bytes,
    )
