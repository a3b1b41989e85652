"""Engine reuse, request coalescing, and the degradation ladder.

Three mechanisms live here, all in service of the executors:

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

**Degradation ladder.** When retries on the requested configuration
keep failing, the server steps the request down a fixed ladder rather
than failing it outright: drop process sharding (sharded → threaded),
drop threading (threaded → serial, an explicit ``workers=1``: ``None``
is the core budget's default, which may be threaded), and finally drop
a fast backend to the trusted numpy oracle. Each rung is a strictly
simpler execution with strictly fewer failure modes; the last rung —
serial oracle — is the code path every other one is bit-identical to,
so degradation never changes the answer, only the speed. A
:class:`~repro.errors.BackendCapabilityError` jumps straight to the
oracle rung (capability gaps do not heal with retries).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace

from repro.gemm.cake import CakeGemm
from repro.gemm.goto import GotoGemm
from repro.gemm.plan import PlanOverride
from repro.gemm.sharded import ShardConfig, resolve_shards
from repro.machines.spec import MachineSpec
from repro.serve.classifier import ShapeClass
from repro.serve.request import MultiplyRequest


@dataclass(frozen=True, slots=True)
class Rung:
    """One step of the degradation ladder (an execution profile)."""

    processes: "int | ShardConfig | None"
    workers: int | None
    backend: str | None

    def describe(self) -> str:
        shards = resolve_shards(self.processes)
        processes = 1 if shards is None else shards.processes
        workers = self.workers or "budget"
        backend = self.backend or "numpy"
        return f"processes={processes} workers={workers} backend={backend}"


def degradation_rungs(request: MultiplyRequest) -> list[Rung]:
    """The ladder for one request, strongest configuration first.

    Always ends at the serial numpy oracle, deduplicated so a request
    already asking for the bottom rung gets a one-rung ladder.
    """
    rungs = [Rung(request.processes, request.workers, request.backend)]

    def push(rung: Rung) -> None:
        if rung != rungs[-1]:
            rungs.append(rung)

    # Serial rungs say workers=1: None is the core budget's default,
    # which may be threaded.
    if resolve_shards(request.processes) is not None:
        push(Rung(1, request.workers, request.backend))
    if request.workers is not None and request.workers > 1:
        push(Rung(1, 1, request.backend))
    if request.backend not in (None, "numpy"):
        push(Rung(1, 1, "numpy"))
    return rungs


def oracle_rung() -> Rung:
    """The ladder's terminal rung: serial, in-process, numpy oracle."""
    return Rung(1, 1, "numpy")


class EngineCache:
    """Builds engines for (request, rung) pairs, reusing plain ones.

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
        rung: Rung,
        deadline_at: float | None = None,
        override: "PlanOverride | None" = None,
    ):
        """An engine executing ``rung`` for this request.

        Sharded rungs get a fresh engine whose
        :class:`~repro.gemm.sharded.ShardConfig` carries the request's
        absolute deadline, so a hung shard worker is killed by the
        shard executor itself rather than stranding a serve executor
        thread. ``override`` is the class's tuned
        :class:`~repro.gemm.plan.PlanOverride` (resolved off the
        request path by :class:`~repro.tune.PlanService`); it is part
        of the plain-engine cache key, so tuned and analytic engines
        for the same class coexist while a tune is landing.
        """
        shards = resolve_shards(rung.processes)
        if shards is not None:
            shards = replace(shards, deadline=deadline_at)
        plain = request.verify in (False, None) and shards is None
        key = (
            shape_class.engine,
            shape_class.cores,
            rung.workers,
            rung.backend,
            override,
        )
        if plain:
            with self._lock:
                engine = self._plain.get(key)
                if engine is not None:
                    return engine
        engine = self._build(
            shape_class, rung, shards, request.verify, override
        )
        if plain:
            with self._lock:
                engine = self._plain.setdefault(key, engine)
        return engine

    def _build(self, shape_class, rung, shards, verify, override=None):
        kwargs = dict(
            cores=shape_class.cores,
            workers=rung.workers,
            verify=verify,
            backend=rung.backend,
            processes=shards,
            plan=override,
        )
        if shape_class.engine == "goto":
            return GotoGemm(self.machine, **kwargs)
        return CakeGemm(self.machine, **kwargs)
