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
batch-analyzer run per executed plan (:func:`plan_accounting`).
"""

from __future__ import annotations

import dataclasses
import time
from functools import lru_cache
from typing import ClassVar, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.gemm.backends import Backend, resolve_backend
from repro.gemm.parallel import (
    GroupSlot,
    PhaseTimers,
    build_groups,
    check_multiply_operands,
    execute_groups,
    resolve_workers,
)
from repro.gemm.plan import PLAN_MEMO_MAXSIZE, CakePlan, GotoPlan, PlanOverride
from repro.gemm.result import GemmRun, degenerate_run
from repro.gemm.sharded import ShardConfig, plan_shards, resolve_shards, run_sharded
from repro.gemm.verify import VerifyConfig, resolve_verify
from repro.machines.spec import MachineSpec
from repro.packing.pack import pack_a, pack_b
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
        tuned: object = None,
    ) -> None:
        self.machine = machine
        self.cores = cores
        self.exact_tiles = exact_tiles
        self.exact_walk = exact_walk
        self.workers = resolve_workers(workers)
        self._workers_explicit = workers is not None
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

    def _tuned_override(
        self, space: ComputationSpace, dtype: np.dtype
    ) -> "PlanOverride | None":
        """The override for this multiply: explicit, tuned, or none."""
        if self.override is not None:
            return self.override
        tuned = self.tuned
        if tuned is None:  # defer to the process default (--tuned)
            from repro.tune import get_default_tune  # lazy: pkg cycle

            tuned = get_default_tune()
        if not tuned:
            return None
        from repro.tune import tuned_override  # lazy: pkg cycle

        return tuned_override(
            self.machine,
            engine=self.name,
            space=space,
            dtype=dtype,
            cores=self.cores,
            backend=self.backend.name,
            processes=self.shards.processes if self.shards is not None else 1,
            config=None if tuned is True else tuned,
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
                workers=self.workers,
                backend=self.backend.name,
            )
        space = ComputationSpace(m, n, k)
        override = self._tuned_override(space, dtype)
        plan = self._plan(space, override)
        schedule = self._schedule(override)
        order, strips = self._loop_order(plan, override)
        # Execution-only override fields: an explicit workers= argument
        # always outranks the override's thread count.
        workers = self.workers
        if (
            override is not None
            and override.workers is not None
            and not self._workers_explicit
        ):
            workers = resolve_workers(override.workers)

        accounting = plan_accounting(type(self), plan, schedule)
        counters = dataclasses.replace(accounting.counters)
        plan_summary = dict(accounting.plan_summary)
        if override is not None:
            plan_summary["override"] = override.as_dict()
            if schedule is not None:
                plan_summary["schedule"] = schedule

        verifying = self.verify is not None and self.verify.enabled
        timers = PhaseTimers()
        # Sharded runs pack into a shared-memory arena (workers attach
        # the segments zero-copy) and compute checksum material inside
        # each shard instead of at pack time.
        arena = SharedBufferPool() if self.shards is not None else None
        pool = self._pool if arena is None else arena
        grid = plan.grid()
        block = grid.nominal
        pack_start = time.perf_counter()
        packed_a = pack_a(
            a, block.m, block.k, pool=pool, exact=self.exact_pack,
            checksums=verifying and arena is None,
        )
        packed_b = pack_b(
            b, block.k, block.n, pool=pool, exact=self.exact_pack,
            checksums=verifying and arena is None,
        )
        timers.pack_seconds = time.perf_counter() - pack_start

        shard_report = None
        if arena is None:
            c = np.zeros((m, n), dtype=dtype)
            built = build_groups(
                order, plan, packed_a, packed_b, c,
                strips=strips,
                verifying=verifying,
                grouped=self.backend.capabilities.grouped,
                pool=self._pool,
            )
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
            assert self.shards is not None
            try:
                c = arena.lease((m, n), dtype)
                c[...] = 0
                m_sizes, n_sizes, _ = grid.size_arrays()
                shards = plan_shards(
                    self.shards.processes,
                    self._shard_rows(order, m_sizes.tolist()),
                    n_sizes.tolist(),
                    k,
                )
                counters.ipc_bytes = (
                    shards.ipc_elements * self.machine.element_bytes
                )
                shard_report, report = run_sharded(
                    plan=plan,
                    order=order,
                    strips=strips,
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
                c = c.copy()  # off the arena before it is destroyed
            finally:
                arena.destroy()

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
            backend=self.backend.name,
            phase_seconds=timers.as_dict(),
            verify=report,
            processes=shard_report.processes if shard_report is not None else 1,
            shards=shard_report,
        )

    def _shard_rows(
        self, order: Sequence[GroupSlot], m_sizes: list[int]
    ) -> list[int]:
        """The row extents a shard grid may cut between: whole backend calls.

        A per-strip backend call never crosses a block row, so every
        block-row boundary is a legal cut. A ``grouped`` backend
        multiplies a group's rows in one call, so shards may only cut
        between the groups' row ranges — CAKE's block rows, but for GOTO
        the whole of M (its shards then split along N only).
        """
        if not self.backend.capabilities.grouped:
            return m_sizes
        runs = sorted({(slot.mi0, slot.mi1) for slot in order})
        return [sum(m_sizes[r0:r1]) for r0, r1 in runs]
