"""Engine reuse and request coalescing.

Two mechanisms live here, both in service of the executors:

**Engine cache.** Plain requests (no verification, no sharding) of the
same shape class and execution profile reuse one engine object, so a
repeat class skips engine construction and backend resolution; the
plan, loop order and strip layout are memoized process-wide anyway
(:mod:`repro.gemm.plan`). Verified and sharded requests get fresh
engines (their configs carry per-request state: injection plans, shard
deadlines); construction is cheap because the plan cache absorbs the
expensive part.

**Coalescing.** An executor takes up to ``max_batch`` same-class,
same-profile small requests from the queue in one scoop and runs them
back-to-back on one executor thread through one engine: one plan
lookup, no cross-thread handoff between them.

An engine runs each request once, on the configuration it asked for;
faults heal inside the engine call (:mod:`repro.gemm.verify`,
:mod:`repro.gemm.sharded`) or surface as its structured error.
"""

from __future__ import annotations

import threading
from dataclasses import replace

from repro.gemm.cake import CakeGemm
from repro.gemm.goto import GotoGemm
from repro.gemm.plan import PlanOverride
from repro.gemm.sharded import resolve_shards
from repro.machines.spec import MachineSpec
from repro.serve.classifier import ShapeClass
from repro.serve.request import MultiplyRequest


class EngineCache:
    """Builds engines for requests, reusing plain ones.

    Thread-safe: engines are safe for concurrent ``multiply`` (a call
    keeps its state in its own frame), and the cache dict is guarded.
    """

    def __init__(self, machine: MachineSpec) -> None:
        self.machine = machine
        self._lock = threading.Lock()
        self._plain: dict[tuple, object] = {}

    def engine_for(
        self,
        request: MultiplyRequest,
        shape_class: ShapeClass,
        deadline_at: float | None = None,
        override: "PlanOverride | None" = None,
    ):
        """An engine executing this request's own profile.

        Sharded requests get a fresh engine whose
        :class:`~repro.gemm.sharded.ShardConfig` carries the request's
        absolute deadline, so a hung shard worker is killed by the
        shard executor itself rather than stranding a serve executor
        thread. ``override`` is the class's tuned
        :class:`~repro.gemm.plan.PlanOverride` (resolved off the
        request path by :class:`~repro.tune.PlanService`); it is part
        of the plain-engine cache key, so tuned and analytic engines
        for the same class coexist while a tune is landing.
        """
        shards = resolve_shards(request.processes)
        if shards is not None:
            shards = replace(shards, deadline=deadline_at)
        plain = request.verify in (False, None) and shards is None
        key = (
            shape_class.engine,
            shape_class.cores,
            request.workers,
            request.backend,
            override,
        )
        if plain:
            with self._lock:
                engine = self._plain.get(key)
                if engine is not None:
                    return engine
        engine = self._build(request, shape_class, shards, override)
        if plain:
            with self._lock:
                engine = self._plain.setdefault(key, engine)
        return engine

    def _build(self, request, shape_class, shards, override):
        kwargs = dict(
            cores=shape_class.cores,
            workers=request.workers,
            verify=request.verify,
            backend=request.backend,
            processes=shards,
            plan=override,
        )
        if shape_class.engine == "goto":
            return GotoGemm(self.machine, **kwargs)
        return CakeGemm(self.machine, **kwargs)
