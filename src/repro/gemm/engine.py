"""The engine shell CAKE and GOTO share: one ``multiply``, one ``analyze``.

MOMMS (Smith & van de Geijn) treats GOTO and CAKE-style schedules as
members of one family of loop orders over a memory hierarchy, and the
engines are built that way. :class:`GemmEngine` owns what the two share:
operand checks, degenerate shapes, tuned-plan resolution, packing into
the buffer pool or a shared-memory arena, in-process vs process-sharded
dispatch, buffer release and :class:`~repro.gemm.result.GemmRun`
assembly. A concrete engine supplies only

* ``_plan(space, override)``: its :class:`~repro.gemm.plan.CakePlan` or
  :class:`~repro.gemm.plan.GotoPlan`, whose ``grid()`` fixes the packed
  block shape of both operands;
* ``_analyze_plan(plan, schedule)`` and ``_walk_plan(plan, schedule)``:
  its batch analyzer and the scalar walk behind ``exact_walk=True``;
* ``_loop_order(plan, override)``: the
  :class:`~repro.gemm.parallel.GroupSlot` sequence that
  :func:`~repro.gemm.parallel.build_groups` turns into strip groups — in
  process and in every shard worker — and the strips per block row.

So a multiply is plan → loop order → ``build_groups`` → executor, and
its counters, modelled time and bound tallies are a copy of one memoized
batch-analyzer run per executed plan (:func:`plan_accounting`). The
loop order (:func:`loop_order`), the plan's grid and the strip layout
are memoized per plan too, so a repeated shape only binds views onto
its own buffers.
"""

from __future__ import annotations

import dataclasses
import time
from functools import lru_cache
from typing import ClassVar, NamedTuple

import numpy as np

from repro.errors import ConfigurationError
from repro.gemm import budget
from repro.gemm.backends import Backend, resolve_backend
from repro.gemm.parallel import (
    GroupSlot,
    PhaseTimers,
    build_groups,
    check_multiply_operands,
    core_strips,
    execute_groups,
    resolve_workers,
)
from repro.gemm.plan import PLAN_MEMO_MAXSIZE, CakePlan, GotoPlan, PlanOverride
from repro.gemm.result import GemmRun, degenerate_run
from repro.gemm.sharded import (
    ShardConfig,
    ShardReport,
    plan_shards,
    resolve_shards,
    run_sharded,
    shard_arena,
)
from repro.gemm.verify import VerifyConfig, VerifyReport, resolve_verify
from repro.machines.spec import MachineSpec
from repro.packing.pack import PackedA, PackedB, pack_a, pack_b
from repro.packing.pool import BufferPool, SharedBufferPool
from repro.schedule.space import ComputationSpace


@lru_cache(maxsize=PLAN_MEMO_MAXSIZE)
def plan_accounting(
    engine: "type[GemmEngine]",
    plan: "CakePlan | GotoPlan",
    schedule: str | None,
) -> GemmRun:
    """The batch analyzer's run for one executed plan, memoized.

    The plan carries its machine and problem, so ``(engine, plan,
    schedule)`` keys the accounting completely. Bounded like the plan
    memos and cleared with them (:func:`repro.gemm.plan.clear_plan_memos`).
    The cached run is shared: callers copy its mutable parts.
    """
    return engine._analyze_plan(plan, schedule)


class LoopOrder(NamedTuple):
    """An engine's loop order over one plan (:func:`loop_order`).

    Shared by every thread multiplying with the plan, so it holds only
    tuples.
    """

    #: The strip groups, in execution order.
    slots: tuple[GroupSlot, ...]
    #: Strip tasks per block row of a group.
    strips: int
    #: Strip tasks of the first group that are worth a thread: what the
    #: core budget sizes a multiply's default workers from.
    work: int


@lru_cache(maxsize=PLAN_MEMO_MAXSIZE)
def loop_order(
    engine: "type[GemmEngine]",
    plan: "CakePlan | GotoPlan",
    override: "PlanOverride | None",
) -> LoopOrder:
    """``engine``'s loop order over ``plan``, memoized.

    The override's execution fields (``schedule``, ``strips``) are all
    the hook reads beyond the plan. Bounded like the plan memos and
    cleared with them (:func:`repro.gemm.plan.clear_plan_memos`).
    """
    slots, strips = engine._loop_order(plan, override)
    m_sizes, n_sizes, k_sizes = plan.grid().size_arrays()
    first = slots[0]
    depth = 2.0 * int(k_sizes[first.ki]) * int(n_sizes[first.ni])
    work = budget.worth_a_thread(
        depth * rows
        for row in range(first.mi0, first.mi1)
        for rows in core_strips(int(m_sizes[row]), strips)
    )
    return LoopOrder(slots, strips, work)


class GemmEngine:
    """What CAKE and GOTO share; see the module docstring.

    Subclasses set :attr:`name` and implement the four per-engine hooks.
    The constructor parameters are documented on
    :class:`~repro.gemm.cake.CakeGemm`.
    """

    #: ``"cake"`` or ``"goto"``: the engine name runs and tune keys carry.
    name: ClassVar[str]

    def __init__(
        self,
        machine: MachineSpec,
        *,
        cores: int | None = None,
        exact_tiles: bool = False,
        exact_walk: bool = False,
        workers: int | None = None,
        exact_pack: bool = False,
        verify: bool | VerifyConfig = False,
        backend: "str | Backend | None" = None,
        processes: "int | ShardConfig | None" = None,
        pool: "BufferPool | None" = None,
        plan: "PlanOverride | None" = None,
        tuned: object = False,
    ) -> None:
        self.machine = machine
        self.cores = cores
        self.exact_tiles = exact_tiles
        self.exact_walk = exact_walk
        #: Explicit engine threads; ``None`` leaves them to the core budget.
        self.workers = None if workers is None else resolve_workers(workers)
        self.override = plan
        self.tuned = tuned
        if plan is not None and tuned:
            raise ConfigurationError(
                "plan= and tuned= are mutually exclusive: an explicit "
                "override already decides the plan"
            )
        self.exact_pack = exact_pack
        self.verify = resolve_verify(verify)
        self.backend = resolve_backend(backend)
        self.shards = resolve_shards(processes)
        if self.shards is not None and self.exact_pack:
            raise ConfigurationError(
                "processes > 1 is incompatible with exact_pack: shard "
                "workers rebuild the vectorized pack's buffer grid over "
                "shared memory, which the loop oracle does not produce"
            )
        # An injected pool lets callers (the serve batcher) share packed
        # operand buffers across engines serving one shape class; the
        # default keeps each engine's reuse private.
        self._pool = BufferPool() if pool is None else pool

    @staticmethod
    def _schedule(override: "PlanOverride | None") -> str | None:
        """The block-order variant the override selects (``None``: no choice)."""
        return None

    # -- public API ----------------------------------------------------------

    def plan_for(self, m: int, n: int, k: int) -> "CakePlan | GotoPlan":
        """The plan this engine would use for an ``m x k . k x n`` product."""
        return self._plan(ComputationSpace(m, n, k), self.override)

    def workers_for(self, m: int, n: int, k: int) -> int:
        """The engine threads a multiply of this shape would run with.

        Like :meth:`plan_for`, tuned plans are not resolved; the core
        budget is read in the calling context.
        """
        plan = self.plan_for(m, n, k)
        order = loop_order(type(self), plan, self.override)
        return self._workers(order, self.override)

    def _workers(
        self, order: LoopOrder, override: "PlanOverride | None"
    ) -> int:
        """Engine threads for a multiply: explicit, tuned, or budgeted.

        An explicit ``workers=`` outranks the override's thread count,
        which outranks the core budget (:mod:`repro.gemm.budget`). The
        budget gives a grouped backend one thread; a per-strip one gets
        up to a thread per strip task of the plan's first group that is
        large enough to pay for one.
        """
        if self.workers is not None:
            return self.workers
        if override is not None and override.workers is not None:
            return resolve_workers(override.workers)
        if self.backend.capabilities.grouped:
            return 1
        return budget.default_workers(order.work, self._processes)

    @property
    def _processes(self) -> int:
        return 1 if self.shards is None else self.shards.processes

    def _tuned_override(
        self, space: ComputationSpace, dtype: np.dtype
    ) -> "PlanOverride | None":
        """The override for this multiply: explicit, tuned, or none."""
        if self.override is not None:
            return self.override
        if not self.tuned:
            return None
        from repro.tune import tuned_override  # lazy: pkg cycle

        return tuned_override(
            self.machine,
            engine=self.name,
            space=space,
            dtype=dtype,
            cores=self.cores,
            backend=self.backend.name,
            processes=self._processes,
            config=None if self.tuned is True else self.tuned,
        )

    def analyze(self, m: int, n: int, k: int) -> GemmRun:
        """Traffic and timing accounting only — no numerical execution.

        Same accounting as :meth:`multiply`, with ``c=None`` in the
        result; this is what the large-problem figure sweeps call. Runs
        the vectorized batch analyzer (never memoized here, so sweeps
        time the analyzer itself); ``exact_walk=True`` forces the
        bit-identical scalar walk of :mod:`repro.analysis.walk`. Tuned
        plans are not resolved — this prices the analytic (or explicitly
        overridden) plan.
        """
        plan = self.plan_for(m, n, k)
        schedule = self._schedule(self.override)
        if self.exact_walk:
            return self._walk_plan(plan, schedule)
        return self._analyze_plan(plan, schedule)

    def multiply(self, a: np.ndarray, b: np.ndarray) -> GemmRun:
        """Compute ``A x B``, returning numerics plus full accounting.

        Operands may be F-ordered, transposed views or otherwise
        non-contiguous — packing copies them exactly once either way.
        Integer/boolean dtypes are rejected (silent overflow); float32
        operands accumulate in float32. Degenerate shapes follow BLAS:
        ``K == 0`` returns a zero-filled ``M x N`` C, ``M == 0`` or
        ``N == 0`` an empty one.
        """
        dtype = check_multiply_operands(a, b, backend=self.backend)
        m, k, n = a.shape[0], a.shape[1], b.shape[1]
        if m == 0 or n == 0 or k == 0:
            return degenerate_run(
                self.name, self.machine, m, n, k, dtype,
                cores=self.cores or self.machine.cores,
                workers=self.workers or 1,
                backend=self.backend.name,
            )
        space = ComputationSpace(m, n, k)
        override = self._tuned_override(space, dtype)
        plan = self._plan(space, override)
        schedule = self._schedule(override)
        order = loop_order(type(self), plan, override)
        workers = self._workers(order, override)

        accounting = plan_accounting(type(self), plan, schedule)
        counters = dataclasses.replace(accounting.counters)
        plan_summary = dict(accounting.plan_summary)
        if override is not None:
            plan_summary["override"] = override.as_dict()
            if schedule is not None:
                plan_summary["schedule"] = schedule

        verifying = self.verify is not None and self.verify.enabled
        timers = PhaseTimers()
        shard_report = None
        if self.shards is None:
            packed_a, packed_b = self._pack(
                a, b, plan, self._pool, verifying, timers
            )
            c = np.zeros((m, n), dtype=dtype)
            built = build_groups(
                order.slots, plan, packed_a, packed_b, c,
                strips=order.strips,
                verifying=verifying,
                grouped=self.backend.capabilities.grouped,
                pool=self._pool,
            )
            with budget.blas_lease() as blas_threads:
                report = execute_groups(
                    built.groups,
                    plan.kernel,
                    verify=self.verify,
                    checksum_elements=packed_a.checksum_elements
                    + packed_b.checksum_elements,
                    workers=workers,
                    backend=self.backend.create(
                        kernel=plan.kernel, exact_tiles=self.exact_tiles
                    ),
                    exact_tiles=self.exact_tiles,
                    timers=timers,
                )
            packed_a.release_to(self._pool)
            packed_b.release_to(self._pool)
            if built.leased:
                self._pool.release(*built.leased)
        else:
            # Sharded runs pack into the process-wide shared-memory arena
            # (workers attach the segments zero-copy) and compute checksum
            # material inside each shard instead of at pack time.
            with shard_arena() as arena:
                packed_a, packed_b = self._pack(
                    a, b, plan, arena, False, timers
                )
                c, shard_report, report = self._run_sharded(
                    arena, plan, order, packed_a, packed_b, dtype,
                    workers, timers,
                )
            counters.ipc_bytes = shard_report.ipc_bytes
            blas_threads = shard_report.blas_threads

        return GemmRun(
            engine=self.name,
            machine=self.machine,
            space=space,
            cores=plan.cores,
            counters=counters,
            time=accounting.time,
            packing_seconds=accounting.packing_seconds,
            bound_blocks=dict(accounting.bound_blocks),
            plan_summary=plan_summary,
            c=c,
            workers=workers,
            blas_threads=blas_threads,
            backend=self.backend.name,
            phase_seconds=timers.as_dict(),
            verify=report,
            processes=shard_report.processes if shard_report is not None else 1,
            shards=shard_report,
        )

    def _pack(
        self,
        a: np.ndarray,
        b: np.ndarray,
        plan: "CakePlan | GotoPlan",
        pool: BufferPool,
        checksums: bool,
        timers: PhaseTimers,
    ) -> tuple[PackedA, PackedB]:
        """Pack both operands in the plan grid's block shape, timed."""
        block = plan.grid().nominal
        start = time.perf_counter()
        packed_a = pack_a(
            a, block.m, block.k, pool=pool, exact=self.exact_pack,
            checksums=checksums,
        )
        packed_b = pack_b(
            b, block.k, block.n, pool=pool, exact=self.exact_pack,
            checksums=checksums,
        )
        timers.pack_seconds = time.perf_counter() - start
        return packed_a, packed_b

    def _run_sharded(
        self,
        arena: SharedBufferPool,
        plan: "CakePlan | GotoPlan",
        order: LoopOrder,
        packed_a: PackedA,
        packed_b: PackedB,
        dtype: np.dtype,
        workers: int,
        timers: PhaseTimers,
    ) -> tuple[np.ndarray, ShardReport, "VerifyReport | None"]:
        """Shard the packed product over the warm runtime's processes.

        The segments go back to the arena only after a fully successful
        run; on any other exit they are closed and unlinked, so a
        straggling worker of a torn-down pool never writes into a reused
        C.
        """
        assert self.shards is not None
        m_sizes, n_sizes, _ = plan.grid().size_arrays()
        shards = plan_shards(
            self.shards.processes,
            self._shard_rows(order, m_sizes.tolist()),
            n_sizes.tolist(),
            plan.space.k,
        )
        c = arena.lease((shards.m, shards.n), dtype)
        segments = [*packed_a.buffers, *packed_b.buffers, c]
        try:
            shard_report, report = run_sharded(
                plan=plan,
                order=order.slots,
                strips=order.strips,
                shards=shards,
                packed_a=packed_a,
                packed_b=packed_b,
                pool=arena,
                c=c,
                config=self.shards,
                workers=workers,
                backend=self.backend.name,
                verify=self.verify,
                exact_tiles=self.exact_tiles,
                timers=timers,
                element_bytes=self.machine.element_bytes,
            )
            product = c.copy()  # off the arena before its segments go back
        except BaseException:
            arena.discard(*segments)
            raise
        arena.release(*segments)
        return product, shard_report, report

    def _shard_rows(self, order: LoopOrder, m_sizes: list[int]) -> list[int]:
        """The row extents a shard grid may cut between: whole backend calls.

        A per-strip backend call multiplies one strip: ``strips``-way
        pieces of a block row (``core_strips``) — CAKE's per-core strips,
        GOTO's ``mc`` strips — so every strip boundary is a legal cut. A
        ``grouped`` backend multiplies a group's rows in one call, so
        shards may only cut between the groups' row ranges — CAKE's
        block rows, but for GOTO the whole of M (its shards then split
        along N only).
        """
        if not self.backend.capabilities.grouped:
            return [
                rows
                for size in m_sizes
                for rows in core_strips(size, order.strips)
            ]
        runs = sorted({(slot.mi0, slot.mi1) for slot in order.slots})
        return [sum(m_sizes[r0:r1]) for r0, r1 in runs]
