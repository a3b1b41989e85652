"""The GOTO baseline engine (Goto's algorithm, Section 4.1).

Stands in for Intel MKL, ARM Performance Libraries and OpenBLAS — the
paper models all three as GOTO. Loop structure (Figure 5):

* outer loop over ``nc``-wide column panels of C (B panel resident in
  the LLC),
* middle loop over ``kc``-deep reduction slices,
* inner loop over waves of ``p`` square ``mc x kc`` A sub-blocks, one per
  core's L2; each core computes its own ``mc x nc`` partial C panel.

The defining contrast with CAKE: **partial C panels stream to DRAM** after
every slice and stream back for the next one, so external traffic carries
a ``(2*Kb - 1) * M * N`` partial-result term that grows with core count in
bandwidth terms — Section 4.1's ``BW_GOTO >= p``-scaling. Also unlike
CAKE, the M dimension is carved into *fixed* ``mc`` strips, so when
``M < p * mc`` some cores simply idle (visible as the flattened MKL
speedup for small matrices in Figure 9a).

CAKE and GOTO differ only in plan and loop order; everything else is the
shared engine shell (:mod:`repro.gemm.engine`).
"""

from __future__ import annotations

from repro.gemm.engine import GemmEngine
from repro.gemm.parallel import GroupSlot
from repro.gemm.plan import GotoPlan, PlanOverride
from repro.gemm.result import GemmRun
from repro.schedule.space import ComputationSpace


class GotoGemm(GemmEngine):
    """GOTO matrix-multiplication engine for one machine.

    Parameters mirror :class:`~repro.gemm.cake.CakeGemm` minus ``alpha``
    (GOTO has no bandwidth-adaptive parameter — that is the point); a
    :class:`~repro.gemm.plan.PlanOverride` replaces ``mc``/``kc``/``nc``
    (its ``schedule`` and ``strips`` have no GOTO meaning and are
    ignored). Numeric execution shares CAKE's executor
    (:mod:`repro.gemm.parallel`): ``workers`` threads fan out over the
    ``mc``-strip slabs of each ``(nc, kc)`` slice, preserving the
    N-then-M loop order and bit-identical numerics.
    """

    name = "goto"

    def _plan(
        self, space: ComputationSpace, override: "PlanOverride | None"
    ) -> GotoPlan:
        return GotoPlan.from_problem(
            self.machine, space, cores=self.cores, override=override
        )

    @staticmethod
    def _analyze_plan(plan: GotoPlan, schedule: None) -> GemmRun:
        from repro.analysis.batch import analyze_goto_batch  # lazy: pkg cycle

        return analyze_goto_batch(plan.machine, plan.space, plan=plan)

    @staticmethod
    def _walk_plan(plan: GotoPlan, schedule: None) -> GemmRun:
        from repro.analysis.walk import walk_goto  # lazy: pkg cycle

        return walk_goto(plan)

    @staticmethod
    def _loop_order(
        plan: GotoPlan, override: "PlanOverride | None"
    ) -> tuple[list[GroupSlot], int]:
        """One group per ``(nc, kc)`` slice, N outer, across every ``mc`` strip.

        Each strip of a slice updates a disjoint C row panel, so all its
        waves may run concurrently; the barrier between slices keeps
        every C element's accumulation order that of the serial nest.
        """
        grid = plan.grid()
        order = [
            GroupSlot(
                0, grid.mb, ni, ki, (ni, ki), f"goto slice (ni={ni}, ki={ki})"
            )
            for ni in range(grid.nb)
            for ki in range(grid.kb)
        ]
        return order, 1
