"""Vectorized batch analyzer: the engines' schedule walk without the loop.

:meth:`CakeGemm.analyze` and :meth:`GotoGemm.analyze` price thousands of
blocks per call, and the figure sweeps call them thousands of times — the
Figure 8 contour grid alone walks tens of millions of blocks through
per-block Python. This module reproduces each engine's analytic walk as a
handful of NumPy passes over structure-of-arrays data:

* the block order comes from the vectorized enumerators
  (:func:`repro.schedule.kfirst.kfirst_order_arrays`);
* per-block geometry comes from one gather per axis
  (:meth:`repro.schedule.space.BlockGrid.surface_arrays`);
* CAKE's capacity-LRU residency runs through
  :func:`repro.schedule.reuse.surface_lru_replay`, which steps each
  reduction run once per run key (the LRU state entering the run,
  translated to the run's own ``(mi, ni)``, plus the run's M size, N
  size and K direction) and gathers every later run's hit flags from a
  memo;
* roofline pricing runs through
  :func:`repro.perfmodel.roofline.block_times_batch`, and every float
  total is a left-to-right accumulation
  (:func:`repro.perfmodel.roofline.sequential_sum`).

The contract is **bit-for-bit equivalence**, not approximation: integer
counters are identical to the scalar walk's, and every float (per-block
seconds, the accumulated :class:`BlockTime`, ``tile_cycles``) is produced
by the same IEEE operations in the same order, so even golden-file tests
that pin formatted output cannot tell the paths apart. The scalar walk
(:mod:`repro.analysis.walk`, reached through the engines'
``exact_walk=True``) is the oracle the equivalence tests run against.

This module is also the only accounting on the multiply path: the
engines' ``multiply`` reports the counters, time and bound tallies of
one memoized call per executed plan (:mod:`repro.gemm.engine`).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.gemm.counters import TrafficCounters
from repro.gemm.plan import CakePlan, GotoPlan
from repro.gemm.result import GemmRun
from repro.machines.spec import MachineSpec
from repro.packing.cost import packing_cost
from repro.perfmodel.roofline import BlockTime, block_times_batch, sequential_sum
from repro.schedule.kfirst import kfirst_order_arrays
from repro.schedule.reuse import surface_lru_replay
from repro.schedule.space import ComputationSpace
from repro.util import ceil_div, split_length


def _ceil_div_arr(numerator: np.ndarray, denominator) -> np.ndarray:
    """Elementwise :func:`repro.util.ceil_div` for positive operands."""
    return -(-numerator // denominator)


def plan_counters(plan: "CakePlan | GotoPlan") -> TrafficCounters:
    """The counters every analytic run starts from: packing and MACs."""
    space = plan.space
    counters = TrafficCounters()
    counters.ext_pack = 2 * (space.m * space.k + space.k * space.n)
    counters.macs = space.macs
    return counters


def analytic_run(
    plan: "CakePlan | GotoPlan",
    counters: TrafficCounters,
    time: BlockTime,
    bound_blocks: dict[str, int],
) -> GemmRun:
    """The ``c=None`` run of a priced plan, as both analyzers return it."""
    machine, space = plan.machine, plan.space
    if isinstance(plan, CakePlan):
        engine = "cake"
        summary = {
            "alpha": plan.alpha,
            "mc": plan.mc,
            "kc": plan.kc,
            "m_block": plan.m_block,
            "n_block": plan.n_block,
            "blocks": ceil_div(space.m, plan.m_block)
            * ceil_div(space.n, plan.n_block)
            * ceil_div(space.k, plan.kc),
        }
    else:
        engine = "goto"
        summary = {
            "mc": plan.mc,
            "kc": plan.kc,
            "nc": plan.nc,
            "m_strips": ceil_div(space.m, plan.mc),
        }
    return GemmRun(
        engine=engine,
        machine=machine,
        space=space,
        cores=plan.cores,
        counters=counters,
        time=time,
        packing_seconds=packing_cost(
            machine, space.m * space.k, space.k * space.n
        ).seconds,
        bound_blocks=bound_blocks,
        plan_summary=summary,
    )


def analyze_cake_batch(
    machine: MachineSpec,
    space: ComputationSpace,
    *,
    cores: int | None = None,
    alpha: float | None = None,
    plan: CakePlan | None = None,
    schedule: str = "k-first",
) -> GemmRun:
    """CAKE's analytic walk (:meth:`CakeGemm.analyze`), batched.

    Identical accounting to :func:`repro.analysis.walk.walk_cake` — the
    same plan, the same K-first order, the same LRU residency decisions,
    the same roofline pricing — with the per-block Python loop replaced
    by array passes plus the LRU replay, which steps a reduction run only
    when no earlier run had its run key.

    The autotuner prices candidate plans through the same walk: ``plan``
    supplies an explicit (possibly overridden) :class:`CakePlan` in place
    of the analytic derivation, and ``schedule`` selects a block-order
    variant (:mod:`repro.schedule.variants`). Only reduction-complete
    orders (``k-first``, ``naive``) keep the no-spill contract; spilling
    variants are priced with their C round-trips charged.
    """
    if plan is None:
        plan = CakePlan.from_problem(machine, space, cores=cores, alpha=alpha)
    grid = plan.grid()
    if schedule == "k-first":
        order = kfirst_order_arrays(grid)
    else:
        from repro.schedule.variants import build_order_arrays

        order = build_order_arrays(schedule, grid)
    mi, ni, ki = order.mi, order.ni, order.ki
    sa, sb, sc = grid.surface_arrays(mi, ni, ki)

    counters = plan_counters(plan)

    # Residency: replay the exact LRU the scalar walk drives. C-surface
    # occurrence counts stand in for the walk's ``progress`` dict.
    a_hit, b_hit, c_hit, occ, spill = surface_lru_replay(
        grid, order, plan.residency_elements
    )
    final = occ == grid.kb - 1

    a_el = np.where(a_hit, 0, sa)
    b_el = np.where(b_hit, 0, sb)
    c_write_el = np.where(final, sc, 0)
    counters.ext_a_read = int(a_el.sum())
    counters.ext_b_read = int(b_el.sum())
    counters.ext_c_read = int(sc[~c_hit & (occ > 0)].sum())
    counters.ext_c_write = int(c_write_el.sum())
    counters.ext_c_spill = spill

    # Per-core strip split: closed form of core_strips per M-extent.
    m_sizes, n_sizes, k_sizes = grid.size_arrays()
    chunk_m = _ceil_div_arr(m_sizes, plan.cores)  # == max(strips)
    active_m = _ceil_div_arr(m_sizes, chunk_m)  # == len(strips)
    tiles_m = _ceil_div_arr(chunk_m, machine.mr)
    tiles_n = _ceil_div_arr(n_sizes, machine.nr)
    depth = k_sizes / plan.kc
    cycles = (tiles_m[mi] * tiles_n[ni]) * depth[ki]
    active = active_m[mi]
    counters.tile_cycles = sequential_sum(cycles)

    internal = sa + active * sb + 2 * sc
    counters.internal = int(internal.sum())

    if schedule in ("k-first", "naive") and (
        counters.ext_c_spill or counters.ext_c_read
    ):  # pragma: no cover
        raise ConfigurationError(
            "CAKE's reduction-complete schedules must never spill partial"
            " results"
        )

    batch = block_times_batch(
        machine,
        active_cores=active,
        tile_cycles=cycles,
        kc=plan.kc,
        ext_bytes=(a_el + b_el + c_write_el) * machine.element_bytes,
        int_elements=internal,
    )

    return analytic_run(plan, counters, batch.total(), batch.bound_tallies())


def analyze_goto_batch(
    machine: MachineSpec,
    space: ComputationSpace,
    *,
    cores: int | None = None,
    plan: GotoPlan | None = None,
) -> GemmRun:
    """GOTO's analytic walk (:func:`repro.analysis.walk.walk_goto`), batched.

    The GOTO loop nest has no LRU state, so the whole walk collapses to
    broadcasting over a ``(n-panels, k-slices, waves)`` lattice: wave
    geometry (rows, tallest strip, active cores) is one ``reduceat`` pass
    over the M strips, and every counter is a masked sum over the lattice
    flattened in the scalar loop-nest order. ``plan`` substitutes an
    explicit (possibly overridden) :class:`GotoPlan` for the analytic one.
    """
    if plan is None:
        plan = GotoPlan.from_problem(machine, space, cores=cores)

    counters = plan_counters(plan)

    m_strips = np.asarray(
        split_length(space.m, min(plan.mc, space.m)), dtype=np.int64
    )
    n_sizes = np.asarray(
        split_length(space.n, min(plan.nc, space.n)), dtype=np.int64
    )
    k_sizes = np.asarray(
        split_length(space.k, min(plan.kc, space.k)), dtype=np.int64
    )

    starts = np.arange(0, len(m_strips), plan.cores, dtype=np.int64)
    wave_rows = np.add.reduceat(m_strips, starts)
    wave_max = np.maximum.reduceat(m_strips, starts)
    wave_active = np.diff(np.append(starts, len(m_strips)))

    n_panels, k_slices, waves = len(n_sizes), len(k_sizes), len(starts)
    lattice = (n_panels, k_slices, waves)
    nc_a = n_sizes[:, None, None]
    kc_a = k_sizes[None, :, None]
    rows = wave_rows[None, None, :]

    a_el = np.broadcast_to(rows * kc_a, lattice)
    b_el = kc_a * nc_a  # broadcasts over waves; fetched once per (ni, ki)
    c_el = np.broadcast_to(rows * nc_a, lattice)
    first_wave = np.zeros(waves, dtype=bool)
    first_wave[0] = True
    b_pending = np.where(first_wave[None, None, :], b_el, 0)
    ki_idx = np.arange(k_slices, dtype=np.int64)[None, :, None]
    last_slice = k_slices - 1
    c_read_el = np.where(ki_idx > 0, c_el, 0)

    counters.ext_a_read = int(a_el.sum())
    counters.ext_b_read = int((n_sizes[:, None] * k_sizes[None, :]).sum())
    counters.ext_c_write = int(c_el[:, last_slice, :].sum())
    counters.ext_c_spill = int(c_el[:, :last_slice, :].sum())
    counters.ext_c_read = int(c_read_el.sum())

    tiles_m = _ceil_div_arr(wave_max, machine.mr)[None, None, :]
    tiles_n = _ceil_div_arr(n_sizes, machine.nr)[:, None, None]
    cycles = np.broadcast_to(
        (tiles_m * tiles_n) * (kc_a / plan.kc), lattice
    ).reshape(-1)
    counters.tile_cycles = sequential_sum(cycles)

    active = np.broadcast_to(wave_active[None, None, :], lattice)
    internal = a_el + active * b_el + 2 * c_el
    counters.internal = int(internal.sum())

    ext_bytes = (a_el + b_pending + c_el + c_read_el) * machine.element_bytes
    batch = block_times_batch(
        machine,
        active_cores=active.reshape(-1),
        tile_cycles=cycles,
        kc=plan.kc,
        ext_bytes=np.broadcast_to(ext_bytes, lattice).reshape(-1),
        int_elements=np.broadcast_to(internal, lattice).reshape(-1),
    )

    return analytic_run(plan, counters, batch.total(), batch.bound_tallies())
