"""Execution plans: from (machine, problem) to tiling parameters.

This is where CAKE's "no design search" claim lives. A
:class:`CakePlan` is derived *analytically*:

1. ``alpha`` from available DRAM bandwidth via ``alpha >= 1/(R-1)``
   (Section 3.2), evaluated jointly with the cache sizing — the
   bandwidth ratio ``R`` depends (through the tile depth ``kc``) on the
   block size the cache admits, so the smallest feasible alpha on a
   short candidate grid is taken (see ``from_problem``);
2. ``mc = kc`` from the LRU sizing rule ``C + 2(A+B) <= S`` (Section 4.3);
3. block extents ``p*mc x kc x alpha*p*mc`` (Section 4.2);
4. the K-first schedule of Algorithm 2.

A :class:`GotoPlan` fills its caches instead (Section 4.1): square
L2-resident A blocks and an LLC-filling B panel, with no bandwidth term —
which is exactly why its DRAM demand grows with core count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from repro.core.cb_block import CBBlock
from repro.core.cpu_model import CakeCpuParams, GotoCpuParams
from repro.core.lru_sizing import solve_cake_mc, solve_goto_tiles
from repro.errors import ConfigurationError
from repro.gemm.microkernel import MicroKernel
from repro.machines.spec import MachineSpec
from repro.schedule.kfirst import kfirst_schedule
from repro.schedule.variants import build_schedule
from repro.schedule.space import BlockCoord, BlockGrid, ComputationSpace
from repro.util import require_positive
from repro.util.hashing import hash_once

#: Hard cap on the aspect factor: past this, blocks are so wide that the
#: cache-sizing rule forces degenerate mc, and the machine is simply too
#: bandwidth-starved for the problem.
MAX_ALPHA = 64.0

#: Explicit bound on the process-wide plan memos. Long-lived servers see
#: an unbounded stream of shape classes; the memo must not grow planner
#: memory without limit, so both memos evict LRU past this many plans
#: (re-deriving an evicted plan is pure math, microseconds).
PLAN_MEMO_MAXSIZE = 1024

#: Candidate aspect factors for the bandwidth-matching scan.
ALPHA_GRID: tuple[float, ...] = (
    1.0, 1.25, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 8.0,
    10.0, 12.0, 16.0, 24.0, 32.0, 48.0, MAX_ALPHA,
)


def _resolve_cores(machine: MachineSpec, cores: int | None) -> int:
    cores = machine.cores if cores is None else cores
    require_positive("cores", cores)
    if cores > machine.cores:
        raise ConfigurationError(
            f"requested {cores} cores but {machine.name} has {machine.cores}"
        )
    return cores


def _balanced_extent(total: int, nominal: int) -> int:
    """Even block extent: same block count as ``nominal``, sizes balanced.

    ``ceil(total / ceil(total / nominal))`` — never exceeds the
    cache-derived nominal, and leaves a remainder of at most the number
    of blocks (instead of an arbitrarily small ragged block).
    """
    from repro.util import ceil_div

    blocks = ceil_div(total, min(nominal, total))
    return ceil_div(total, blocks)


def _external_elements_per_cycle(machine: MachineSpec, kc: int) -> float:
    """Available DRAM bandwidth in *operand* elements per model cycle.

    Physical traffic exceeds counted operand traffic by the machine's
    ``external_traffic_factor``, so the bandwidth available to operands
    is the nominal rate divided by that factor.
    """
    bytes_per_second = (
        machine.dram_bytes_per_second / machine.external_traffic_factor
    )
    elements_per_second = bytes_per_second / machine.element_bytes
    return elements_per_second / machine.tile_ops_per_second(kc)


@dataclass(frozen=True, slots=True)
class PlanOverride:
    """Targeted deviations from the analytic plan (the autotuner's seam).

    Every field defaults to "keep the analytic value"; the autotuner
    (:mod:`repro.tune`) searches over the fields that are safe to vary
    and persists the winner. The seam is deliberately narrow:

    ``alpha``, ``mc``, ``nc``
        Re-shape the CB block (CAKE) or the cache tiles (GOTO) along M
        and N only. M/N re-blocking keeps each C element's accumulation
        order in the engine's loops, but not always its bits: a BLAS
        call's result can depend on its M extent at ragged N (with
        OpenBLAS at one thread, GOTO at ``mc=64`` differs from the
        analytic ``mc=252`` at 300x192 @ 192x257 float64). Tuned plans
        stay exact because tuner validation bit-compares every
        candidate's product with the analytic plan's.
    ``kc``
        Allowed but **bit-hazardous**: re-blocking K changes the
        floating-point accumulation grouping. The tuner pins ``kc`` to
        the analytic value; an explicit override here is for
        experiments, and tuner validation rejects any candidate whose
        product drifts from the analytic plan's.
    ``strips``
        Host execution granularity: split each block's M extent into
        this many strip tasks instead of one per *modelled* core.
        Purely an execution knob — the schedule walk still prices the
        plan at the modelled core count, so counters and modelled time
        are unchanged. On hosts with fewer real cores than the model,
        coarser strips trade scheduling overhead for larger kernel
        calls.
    ``workers``
        Host threads for the numeric executor, in place of the core
        budget's default (:mod:`repro.gemm.budget`); applies only when
        the engine was not given an explicit ``workers`` argument (an
        explicit request, e.g. a served request's ``workers``, always
        wins).
    ``schedule``
        Block-order variant name (:mod:`repro.schedule.variants`). Only
        reduction-complete orders (``k-first``, ``naive``) are legal
        for CAKE execution — orders that abandon partial C surfaces
        violate the engine's no-spill contract (the MOMMS loop-order
        discussion is why those variants are excluded, not searched).
    """

    alpha: float | None = None
    mc: int | None = None
    kc: int | None = None
    nc: int | None = None
    strips: int | None = None
    workers: int | None = None
    schedule: str | None = None

    def __post_init__(self) -> None:
        if self.alpha is not None and not 0.0 < self.alpha <= MAX_ALPHA:
            raise ConfigurationError(
                f"override alpha must be in (0, {MAX_ALPHA}], got {self.alpha}"
            )
        for name in ("mc", "kc", "nc", "strips", "workers"):
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise ConfigurationError(
                    f"override {name} must be > 0, got {value!r}"
                )
        if self.schedule is not None and self.schedule not in (
            "k-first",
            "naive",
        ):
            raise ConfigurationError(
                f"override schedule must be a reduction-complete variant "
                f"('k-first' or 'naive'), got {self.schedule!r}"
            )

    def as_dict(self) -> dict:
        """JSON-ready form (None fields included, for the plan cache)."""
        return {
            "alpha": self.alpha,
            "mc": self.mc,
            "kc": self.kc,
            "nc": self.nc,
            "strips": self.strips,
            "workers": self.workers,
            "schedule": self.schedule,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "PlanOverride":
        """Inverse of :meth:`as_dict` (unknown keys rejected)."""
        known = {f for f in cls.__dataclass_fields__}
        extra = set(doc) - known
        if extra:
            raise ConfigurationError(
                f"unknown PlanOverride fields {sorted(extra)}"
            )
        return cls(**doc)


@hash_once
@dataclass(frozen=True, slots=True)
class CakePlan:
    """Analytically-derived CAKE tiling for one (machine, problem) pair."""

    machine: MachineSpec
    space: ComputationSpace
    cores: int
    alpha: float
    mc: int
    kc: int
    _hash: int | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @classmethod
    def from_problem(
        cls,
        machine: MachineSpec,
        space: ComputationSpace,
        *,
        cores: int | None = None,
        alpha: float | None = None,
        override: "PlanOverride | None" = None,
    ) -> "CakePlan":
        """Derive the plan; ``alpha=None`` selects it from DRAM bandwidth.

        An ``override`` (the autotuner's seam) replaces individual
        fields of the analytically-derived plan *after* derivation:
        ``alpha`` redirects the bandwidth scan, ``mc``/``kc`` replace
        the LRU-solved extents. Execution-only override fields
        (``strips``, ``workers``, ``schedule``) do not affect the plan
        itself and are applied by the engines.

        Alpha selection applies the Section 3.2 feasibility condition
        ``BW_avail >= BW_min(alpha) = ((alpha+1)/alpha) * mr * nr`` with
        both sides evaluated *consistently*: raising alpha lowers the
        requirement but (through the LRU sizing rule) may shrink
        ``mc = kc``, which shortens the model cycle and lowers the
        per-cycle supply too. The plan takes the smallest alpha on a
        short candidate grid that satisfies the condition; when no alpha
        is feasible (hopelessly starved DRAM), it takes the alpha with
        the most bandwidth headroom — still a closed evaluation of
        Section 3's equations, not a performance search.

        Plans are memoized on ``(machine, space, cores, alpha)``: the
        derivation is pure and every input is frozen/hashable, and the
        sweeps re-derive the same plan for every block of a problem —
        once through ``plan_for`` and again through ``analyze`` — so
        repeated calls return the *same* :class:`CakePlan` instance.
        """
        return _cake_plan(
            machine, space, _resolve_cores(machine, cores), alpha, override
        )

    @property
    def m_block(self) -> int:
        """CB block extent along M: ``p * mc``, balanced to the problem.

        The cache-derived extent fixes how many blocks M needs; the
        actual extent then splits M evenly across those blocks, so a
        2000-row problem against a nominal 1920-row block becomes two
        balanced 1000-row blocks instead of 1920 + 80 — every block keeps
        all ``p`` cores evenly loaded. This is the "analytically shaped
        to the problem" behaviour that lets CAKE avoid GOTO's
        fixed-strip load imbalance on small and skewed matrices.
        """
        return _balanced_extent(self.space.m, self.cores * self.mc)

    @property
    def n_block(self) -> int:
        """CB block extent along N: ``alpha * p * mc``, balanced likewise."""
        nominal = max(int(self.alpha * self.cores * self.mc), self.machine.nr)
        return _balanced_extent(self.space.n, nominal)

    @property
    def block(self) -> CBBlock:
        """The nominal CB block."""
        return CBBlock(m=self.m_block, n=self.n_block, k=self.kc)

    @property
    def residency_elements(self) -> int:
        """Local-memory element budget the Section 4.3 rule guarantees.

        ``C + 2(A + B)`` of the *cache-sized* nominal block
        (``p*mc x alpha*p*mc x kc``) — the LRU sizing rule solved ``mc``
        so exactly this much fits the LLC. When the problem's balanced
        blocks are smaller than nominal, the slack retains surfaces of
        earlier blocks; the engine's counters model that retention via
        :class:`repro.schedule.reuse.SurfaceResidency`.
        """
        mm = self.cores * self.mc
        nn = max(int(self.alpha * self.cores * self.mc), self.machine.nr)
        kk = self.kc
        return mm * nn + 2 * (mm * kk + kk * nn)

    @property
    def kernel(self) -> MicroKernel:
        """The register-tile micro-kernel this plan drives."""
        return MicroKernel(mr=self.machine.mr, nr=self.machine.nr, kc=self.kc)

    @property
    def cpu_params(self) -> CakeCpuParams:
        """The plan as Section 4.2 parameters (for the equation layer)."""
        return CakeCpuParams(
            p=self.cores,
            mc=self.mc,
            kc=self.kc,
            alpha=self.alpha,
            mr=self.machine.mr,
            nr=self.machine.nr,
        )

    def grid(self) -> BlockGrid:
        """Partition the problem space with this plan's CB block.

        Built once per plan (:func:`_plan_grid`) and shared.
        """
        return _plan_grid(self)

    def schedule(self, name: str = "k-first") -> list[BlockCoord]:
        """The block order: Algorithm 2's K-first, or a named variant
        (:mod:`repro.schedule.variants`)."""
        if name == "k-first":
            return kfirst_schedule(self.grid())
        return build_schedule(name, self.grid())


@lru_cache(maxsize=PLAN_MEMO_MAXSIZE)
def _cake_plan(
    machine: MachineSpec,
    space: ComputationSpace,
    cores: int,
    alpha: float | None,
    override: "PlanOverride | None" = None,
) -> CakePlan:
    """The memoized body of :meth:`CakePlan.from_problem` (cores resolved)."""
    if override is not None:
        if override.alpha is not None:
            alpha = override.alpha
        base = _cake_plan(machine, space, cores, alpha)
        return CakePlan(
            machine,
            space,
            cores,
            base.alpha,
            base.mc if override.mc is None else override.mc,
            base.kc if override.kc is None else override.kc,
        )
    if alpha is not None:
        mc = solve_cake_mc(
            p=cores,
            alpha=alpha,
            llc_elements=machine.llc_elements,
            l2_elements=machine.l2_elements,
            mr=machine.mr,
            nr=machine.nr,
        )
        return CakePlan(machine, space, cores, alpha, mc, mc)

    best: tuple[float, float, int] | None = None  # (headroom, alpha, mc)
    for candidate in ALPHA_GRID:
        try:
            mc = solve_cake_mc(
                p=cores,
                alpha=candidate,
                llc_elements=machine.llc_elements,
                l2_elements=machine.l2_elements,
                mr=machine.mr,
                nr=machine.nr,
            )
        except ConfigurationError:
            break  # wider blocks can only be less feasible
        available = _external_elements_per_cycle(machine, mc)
        required = (candidate + 1.0) / candidate * machine.mr * machine.nr
        headroom = available / required
        if headroom >= 1.0:
            return CakePlan(machine, space, cores, candidate, mc, mc)
        if best is None or headroom > best[0]:
            best = (headroom, candidate, mc)
    if best is None:
        raise ConfigurationError(
            f"{machine.name}: no feasible CB block for {cores} cores"
        )
    return CakePlan(machine, space, cores, best[1], best[2], best[2])


@hash_once
@dataclass(frozen=True, slots=True)
class GotoPlan:
    """Cache-filling GOTO tiling (Section 4.1) for the baseline engine."""

    machine: MachineSpec
    space: ComputationSpace
    cores: int
    mc: int
    kc: int
    nc: int
    _hash: int | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @classmethod
    def from_problem(
        cls,
        machine: MachineSpec,
        space: ComputationSpace,
        *,
        cores: int | None = None,
        override: "PlanOverride | None" = None,
    ) -> "GotoPlan":
        """Derive GOTO tiles from the machine's cache sizes alone.

        An ``override`` replaces ``mc``/``kc``/``nc`` after derivation
        (``alpha`` has no meaning for GOTO and is ignored; execution-only
        fields are applied by the engine). Memoized on
        ``(machine, space, cores, override)`` like
        :meth:`CakePlan.from_problem`.
        """
        return _goto_plan(machine, space, _resolve_cores(machine, cores), override)

    @property
    def kernel(self) -> MicroKernel:
        """The register-tile micro-kernel this plan drives."""
        return MicroKernel(mr=self.machine.mr, nr=self.machine.nr, kc=self.kc)

    @property
    def cpu_params(self) -> GotoCpuParams:
        """The plan as Section 4.1 parameters (for the equation layer)."""
        return GotoCpuParams(
            p=self.cores,
            mc=self.mc,
            kc=self.kc,
            nc=self.nc,
            mr=self.machine.mr,
            nr=self.machine.nr,
        )

    @property
    def block(self) -> CBBlock:
        """The nominal tile: ``mc x nc x kc``."""
        return CBBlock(m=self.mc, n=self.nc, k=self.kc)

    def grid(self) -> BlockGrid:
        """The loop nest's tiles: ``mc`` strips x ``nc`` panels x ``kc`` slices.

        The same partition (ragged at the high edges) the Figure 5 nest
        walks, as a block grid like a :class:`CakePlan`'s, so both engines
        cut their operands and build their strip groups through one code
        path. Built
        once per plan (:func:`_plan_grid`) and shared.
        """
        return _plan_grid(self)


@lru_cache(maxsize=PLAN_MEMO_MAXSIZE)
def _goto_plan(
    machine: MachineSpec,
    space: ComputationSpace,
    cores: int,
    override: "PlanOverride | None" = None,
) -> GotoPlan:
    """The memoized body of :meth:`GotoPlan.from_problem` (cores resolved)."""
    if override is not None:
        base = _goto_plan(machine, space, cores)
        return GotoPlan(
            machine,
            space,
            cores,
            mc=base.mc if override.mc is None else override.mc,
            kc=base.kc if override.kc is None else override.kc,
            nc=base.nc if override.nc is None else override.nc,
        )
    params = solve_goto_tiles(
        p=cores,
        llc_elements=machine.llc_elements,
        l2_elements=machine.l2_elements,
        mr=machine.mr,
        nr=machine.nr,
    )
    return GotoPlan(
        machine, space, cores, mc=params.mc, kc=params.kc, nc=params.nc
    )


@lru_cache(maxsize=PLAN_MEMO_MAXSIZE)
def _plan_grid(plan: "CakePlan | GotoPlan") -> BlockGrid:
    """Either plan's block grid, memoized: an engine asks for it several
    times per multiply (the loop order, the strip layout, the block
    edges)."""
    return BlockGrid(plan.space, plan.block)


def _plan_memos() -> dict:
    """Every per-plan memo by report name, each an ``lru_cache`` bounded
    by :data:`PLAN_MEMO_MAXSIZE`."""
    from repro.gemm.engine import loop_order, plan_accounting  # lazy: pkg cycle
    from repro.gemm.parallel import grid_edges, strip_layout  # lazy: pkg cycle

    return {
        "cake": _cake_plan,
        "goto": _goto_plan,
        "grid": _plan_grid,
        "accounting": plan_accounting,
        "loop_order": loop_order,
        "strip_layout": strip_layout,
        "grid_edges": grid_edges,
    }


def clear_plan_memos() -> None:
    """Drop every memoized plan and everything memoized per plan (tests;
    never needed for correctness)."""
    for memo in _plan_memos().values():
        memo.cache_clear()
