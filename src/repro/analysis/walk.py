"""The engines' scalar accounting walk: one Python step per block.

This is the reference form of the traffic and timing model —
:mod:`repro.analysis.batch` computes the same :class:`GemmRun`, bit for
bit, with array passes, and the engines report the batch result. The
walk stays as the readable oracle: ``CakeGemm(exact_walk=True)`` and
``GotoGemm(exact_walk=True)`` route :meth:`analyze` here, and the
equivalence tests and the benchmark's audit compare the two.

* :func:`walk_cake` follows the plan's block order, touching each
  block's A/B/C surfaces in a capacity-LRU
  (:class:`~repro.schedule.reuse.SurfaceResidency`) sized by the
  Section 4.3 rule, and prices every block with the roofline.
* :func:`walk_goto` walks the Figure 5 nest — ``nc`` panels, ``kc``
  slices, waves of ``p`` ``mc`` strips — charging partial C panels to
  DRAM after every slice.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.analysis.batch import analytic_run, plan_counters
from repro.gemm.parallel import core_strips
from repro.gemm.plan import CakePlan, GotoPlan
from repro.gemm.result import GemmRun
from repro.perfmodel.roofline import ZERO_TIME, block_time
from repro.schedule.reuse import SurfaceResidency


def walk_cake(plan: CakePlan, schedule: str = "k-first") -> GemmRun:
    """CAKE's accounting, block by block in ``schedule`` order."""
    machine = plan.machine
    grid = plan.grid()
    kernel = plan.kernel
    counters = plan_counters(plan)
    total = ZERO_TIME
    bound_blocks: dict[str, int] = {"compute": 0, "external": 0, "internal": 0}
    progress: dict[tuple[int, int], int] = {}

    def on_evict(key, elements: int) -> None:
        if key[0] == "C":  # partial results forced out: spill + refetch
            counters.ext_c_spill += elements

    residency = SurfaceResidency(plan.residency_elements, on_evict=on_evict)

    for coord in plan.schedule(schedule):
        ext = grid.extent(coord)
        a_key = ("A", coord.mi, coord.ki)
        b_key = ("B", coord.ki, coord.ni)
        c_res_key = ("C", coord.mi, coord.ni)
        pinned = (a_key, b_key, c_res_key)

        a_el = (
            0
            if residency.touch(a_key, ext.surface_a, pinned=pinned)
            else ext.surface_a
        )
        b_el = (
            0
            if residency.touch(b_key, ext.surface_b, pinned=pinned)
            else ext.surface_b
        )
        counters.ext_a_read += a_el
        counters.ext_b_read += b_el

        c_key = (coord.mi, coord.ni)
        c_resident = residency.touch(c_res_key, ext.surface_c, pinned=pinned)
        if not c_resident and progress.get(c_key, 0):
            counters.ext_c_read += ext.surface_c
        progress[c_key] = progress.get(c_key, 0) + 1
        c_write_el = ext.surface_c if progress[c_key] == grid.kb else 0
        counters.ext_c_write += c_write_el
        if c_write_el:
            residency.invalidate(c_res_key)

        strips = core_strips(ext.m, plan.cores)
        active = len(strips)
        cycles = kernel.panel_tile_cycles(max(strips), ext.n, ext.k)
        counters.tile_cycles += cycles

        internal = ext.surface_a + active * ext.surface_b + 2 * ext.surface_c
        counters.internal += internal

        bt = block_time(
            machine,
            active_cores=active,
            tile_cycles=cycles,
            kc=plan.kc,
            ext_bytes=(a_el + b_el + c_write_el) * machine.element_bytes,
            int_elements=internal,
        )
        total = total + bt
        bound_blocks[bt.bound] += 1

    if schedule in ("k-first", "naive") and (
        counters.ext_c_spill or counters.ext_c_read
    ):  # pragma: no cover
        raise ConfigurationError(
            "CAKE's reduction-complete schedules must never spill"
            " partial results"
        )

    return analytic_run(plan, counters, total, bound_blocks)


def walk_goto(plan: GotoPlan) -> GemmRun:
    """GOTO's accounting, wave by wave through the Figure 5 nest."""
    machine = plan.machine
    grid = plan.grid()
    m_strips, n_sizes, k_sizes = (sizes.tolist() for sizes in grid.size_arrays())
    kernel = plan.kernel
    counters = plan_counters(plan)
    total = ZERO_TIME
    bound_blocks: dict[str, int] = {"compute": 0, "external": 0, "internal": 0}
    last_slice = len(k_sizes) - 1

    for nc_actual in n_sizes:
        for ki, kc_actual in enumerate(k_sizes):
            b_el = kc_actual * nc_actual
            counters.ext_b_read += b_el
            b_pending = b_el  # charged to the first wave of this panel

            # Waves of p strips: cores beyond the remaining strip count idle.
            for wave_start in range(0, len(m_strips), plan.cores):
                wave = m_strips[wave_start : wave_start + plan.cores]
                active = len(wave)
                wave_rows = sum(wave)

                a_el = wave_rows * kc_actual
                counters.ext_a_read += a_el

                c_el = wave_rows * nc_actual
                if ki == last_slice:
                    counters.ext_c_write += c_el
                else:
                    counters.ext_c_spill += c_el
                c_read_el = c_el if ki > 0 else 0
                counters.ext_c_read += c_read_el

                cycles = kernel.panel_tile_cycles(max(wave), nc_actual, kc_actual)
                counters.tile_cycles += cycles

                internal = a_el + active * b_el + 2 * c_el
                counters.internal += internal

                ext_bytes = (
                    a_el + b_pending + c_el + c_read_el
                ) * machine.element_bytes
                b_pending = 0
                bt = block_time(
                    machine,
                    active_cores=active,
                    tile_cycles=cycles,
                    kc=plan.kc,
                    ext_bytes=ext_bytes,
                    int_elements=internal,
                )
                total = total + bt
                bound_blocks[bt.bound] += 1

    return analytic_run(plan, counters, total, bound_blocks)
