"""The CAKE GEMM engine.

Executes ``C = A x B`` exactly as Sections 2-4 prescribe:

1. Derive a :class:`~repro.gemm.plan.CakePlan` (alpha from DRAM bandwidth,
   ``mc = kc`` from the LRU rule, block ``p*mc x kc x alpha*p*mc``).
2. Cut A into per-core ``mc x kc`` sub-blocks and B into
   ``kc x n_block`` panels. The paper packs these into contiguous
   buffers (Section 5.2.1); here they are views of A and B, because the
   BLAS call each strip makes packs its operands itself.
3. Walk the K-first schedule of Algorithm 2: one strip group per CB
   block. Within each block, the M extent is split evenly across the
   ``p`` cores (the CB shaping puts one A sub-block per core); each core
   sweeps the block's N extent, accumulating partial C **in place** in
   local memory. A block's partial C surface is written to DRAM only
   when its reduction run completes — CAKE moves no partial results
   externally, ever (``ext_c_spill`` and ``ext_c_read`` stay zero by
   construction, asserted in tests).
4. Report the traffic and roofline time of that schedule, priced once
   per plan by the batch analyzer (:mod:`repro.analysis.batch`; the
   scalar per-block walk is :mod:`repro.analysis.walk`).

Everything but the plan, the accounting and the block order is the
engine shell shared with GOTO (:mod:`repro.gemm.engine`): operand
views, threaded strip-group execution (:mod:`repro.gemm.parallel`,
bit-identical to the serial run for any worker count), verification and
process sharding.

Because blocks split M evenly among cores *per block*, CAKE keeps all
cores busy even when ``M`` is far smaller than ``p * mc`` — one of the two
mechanisms (with partial-C elimination) behind its small-matrix advantage
in Figures 8 and 9a.
"""

from __future__ import annotations

from repro.gemm.backends import Backend
from repro.gemm.engine import GemmEngine
from repro.gemm.parallel import GroupSlot
from repro.gemm.plan import CakePlan, PlanOverride
from repro.gemm.result import GemmRun
from repro.gemm.sharded import ShardConfig
from repro.gemm.verify import VerifyConfig
from repro.machines.spec import MachineSpec
from repro.schedule.space import ComputationSpace


class CakeGemm(GemmEngine):
    """CAKE matrix-multiplication engine for one machine.

    Parameters
    ----------
    machine:
        Platform model the run is priced on.
    cores:
        Cores to use (default: all of them).
    alpha:
        CB aspect factor; ``None`` derives it from DRAM bandwidth.
    exact_walk:
        Run :meth:`analyze` through the scalar per-block walk
        (:mod:`repro.analysis.walk`) instead of the vectorized batch
        analyzer. The two are bit-for-bit identical (asserted by tests);
        the flag exists as the oracle for those equivalence tests and
        for debugging the walk block by block. :meth:`multiply` always
        reports the batch analyzer's (memoized) accounting.
    workers:
        Host threads for numeric execution (1: inline serial). Within
        each CB block the per-core strips run concurrently on disjoint C
        row panels; the product is bit-identical to the serial path for
        any worker count (see :mod:`repro.gemm.parallel`). ``None``
        leaves the count to the core budget (:mod:`repro.gemm.budget`):
        a thread per usable core, up to the strips of a block, once a
        strip is large enough to pay for a thread.
    verify:
        ABFT verified execution (:mod:`repro.gemm.verify`): ``True`` for
        defaults, a :class:`~repro.gemm.verify.VerifyConfig` to tune the
        tolerance band, recovery ladder, or fault-injection plan. Each
        CB block's C update is checksum-validated at its barrier and
        healed (or reported) on mismatch; a clean verified run is
        bit-identical to an unverified one. With a non-oracle
        ``backend`` this is the headline scenario: a fast untrusted
        compute path checked against checksums of its operands, with
        the per-strip oracle as the trusted recovery rung.
    backend:
        Compute backend for numeric execution
        (:mod:`repro.gemm.backends`): a registered name (``"numpy"`` or
        ``"blas-group"``) or a :class:`~repro.gemm.backends.Backend`
        instance, such as ``NumpyBackend(plan.kernel, exact_tiles=True)``
        to walk every register tile; ``None``, the default, is the
        per-strip numpy oracle. The schedule, operand views, counters
        and timing model are backend-invariant; only how each strip
        group multiplies changes. Unknown names raise a structured
        :class:`~repro.errors.BackendCapabilityError` here, at
        construction.
    processes:
        Worker *processes* for numeric execution
        (:mod:`repro.gemm.sharded`): the M x N grid of CB blocks is
        partitioned into a near-square shard grid, A and B are copied
        once each, flat, into shared memory, and each shard runs this
        engine's threaded executor in its own process on a disjoint C
        panel.
        ``None``/1 is the ordinary in-process path; an int requests that
        many processes (clamped to the block grid); a
        :class:`~repro.gemm.sharded.ShardConfig` tunes rebuild/fallback
        behaviour. The product is bit-identical to the in-process run on
        the same backend for every process and worker count (shards
        tile whole backend calls). Shard workers rebuild the backend
        by name, so ``processes > 1`` with a
        :class:`~repro.gemm.backends.Backend` instance raises
        :class:`~repro.errors.ConfigurationError` here.
    plan:
        A :class:`~repro.gemm.plan.PlanOverride` replacing individual
        analytic plan fields (the autotuner's seam). Plan-shape fields
        (``alpha``/``mc``/``kc``) redirect the derivation; execution
        fields apply here: ``schedule`` selects a reduction-complete
        block-order variant, ``strips`` sets the host execution
        granularity (counters still price the modelled core count), and
        ``workers`` applies only when the engine got no explicit
        ``workers`` argument. Incompatible with ``tuned``.
    tuned:
        Resolve a :class:`PlanOverride` from the persistent tune cache
        per multiplied shape (:mod:`repro.tune`): ``True`` uses a
        default :class:`~repro.tune.TuneConfig`, or pass a config. A
        falsy value, the default, prices the analytic plan. A cache
        miss tunes synchronously on first use (the serve layer instead
        tunes off the request path via
        :class:`~repro.tune.PlanService`). Only :meth:`multiply`
        resolves tuned plans — :meth:`analyze` prices the analytic (or
        explicitly overridden) plan.
    """

    name = "cake"

    def __init__(
        self,
        machine: MachineSpec,
        *,
        cores: int | None = None,
        alpha: float | None = None,
        exact_walk: bool = False,
        workers: int | None = None,
        verify: bool | VerifyConfig = False,
        backend: "str | Backend | None" = None,
        processes: "int | ShardConfig | None" = None,
        plan: "PlanOverride | None" = None,
        tuned: object = False,
    ) -> None:
        super().__init__(
            machine,
            cores=cores,
            exact_walk=exact_walk,
            workers=workers,
            verify=verify,
            backend=backend,
            processes=processes,
            plan=plan,
            tuned=tuned,
        )
        self.alpha = alpha

    def _plan(
        self, space: ComputationSpace, override: "PlanOverride | None"
    ) -> CakePlan:
        return CakePlan.from_problem(
            self.machine, space, cores=self.cores, alpha=self.alpha,
            override=override,
        )

    @staticmethod
    def _schedule(override: "PlanOverride | None") -> str:
        if override is None or override.schedule is None:
            return "k-first"
        return override.schedule

    @staticmethod
    def _analyze_plan(plan: CakePlan, schedule: str) -> GemmRun:
        from repro.analysis.batch import analyze_cake_batch  # lazy: pkg cycle

        return analyze_cake_batch(
            plan.machine, plan.space, plan=plan, schedule=schedule
        )

    @staticmethod
    def _walk_plan(plan: CakePlan, schedule: str) -> GemmRun:
        from repro.analysis.walk import walk_cake  # lazy: pkg cycle

        return walk_cake(plan, schedule)

    @classmethod
    def _loop_order(
        cls, plan: CakePlan, override: "PlanOverride | None"
    ) -> tuple[tuple[GroupSlot, ...], int]:
        """One group per CB block, in the K-first (or override's) order.

        Each block's M extent splits into one strip per modelled core,
        or into the override's ``strips`` — a host-granularity knob that
        leaves the priced core count alone.
        """
        order = tuple(
            GroupSlot(
                c.mi, c.mi + 1, c.ni, c.ki, (c.mi, c.ni, c.ki),
                f"cake block (mi={c.mi}, ni={c.ni}, ki={c.ki})",
            )
            for c in plan.schedule(cls._schedule(override))
        )
        strips = plan.cores
        if override is not None and override.strips is not None:
            strips = override.strips
        return order, strips
