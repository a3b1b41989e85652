"""Off-request-path plan resolution for the serve layer.

A serve executor must never pay a tune on a request: a cold key costs
model ranking plus timed validation (tens to hundreds of ms), which
would blow a request deadline. :class:`PlanService` therefore resolves
in three tiers, each visible in its counters:

1. **memory** — a key resolved earlier this process returns instantly;
2. **disk** — a prior process's winner (or analytic marker) loads in
   one small JSON read, still cheap enough for the request path;
3. **background** — a genuinely cold key enqueues one daemon tune
   thread and returns ``None``: the request executes the analytic plan
   (always correct — tuned plans are bit-identical by contract), and
   some later request in the class picks the winner up from tier 1.
"""

from __future__ import annotations

import threading

from repro.gemm.plan import PlanOverride
from repro.machines.spec import MachineSpec
from repro.serve.classifier import ShapeClass
from repro.tune.space import TuneKey
from repro.tune.tuner import PlanTuner, TuneConfig


class PlanService:
    """Nonblocking tuned-plan resolution, one instance per server."""

    def __init__(
        self,
        machine: MachineSpec,
        config: TuneConfig | None = None,
        *,
        synchronous: bool = False,
    ) -> None:
        self.machine = machine
        self.tuner = PlanTuner(machine, config)
        self.synchronous = synchronous
        self._lock = threading.Lock()
        self._resolved: dict[str, PlanOverride | None] = {}
        self._pending: dict[str, threading.Thread] = {}
        self._hits = 0
        self._misses = 0
        self._completed = 0

    # -- request path --------------------------------------------------------

    def resolve(
        self,
        shape_class: ShapeClass,
        *,
        backend: str = "numpy",
        processes: int = 1,
    ) -> PlanOverride | None:
        """The tuned override for this class, or None (serve analytic).

        ``None`` means either "not tuned yet" (a background tune is now
        in flight) or "the analytic plan won" — the server treats
        both identically, which is the point: analytic is always a
        correct answer.
        """
        key = TuneKey(
            engine=shape_class.engine,
            m=shape_class.m,
            n=shape_class.n,
            k=shape_class.k,
            dtype=shape_class.dtype,
            machine=self.machine.name,
            cores=shape_class.cores,
            backend=backend,
            processes=processes,
        )
        kid = key.key_id
        with self._lock:
            if kid in self._resolved:
                self._hits += 1
                return self._resolved[kid]
            if kid in self._pending:
                self._misses += 1
                return None

        hit, override = self.tuner.cache.load_override(key)
        if hit:
            with self._lock:
                self._resolved[kid] = override
                self._hits += 1
            return override

        if self.synchronous:
            result = self.tuner.tune(key)
            with self._lock:
                self._resolved[kid] = result.override
                self._completed += 1
                self._hits += 1
            return result.override

        thread = threading.Thread(
            target=self._tune_in_background,
            args=(key,),
            name=f"cake-tune-{key.describe()}",
            daemon=True,
        )
        with self._lock:
            if kid not in self._pending:  # lost race: another request won
                self._pending[kid] = thread
                thread.start()
            self._misses += 1
        return None

    # -- background ----------------------------------------------------------

    def _tune_in_background(self, key: TuneKey) -> None:
        try:
            result = self.tuner.tune(key)
            override = result.override
        except Exception:
            # A failed tune must never take the server down; the class
            # simply keeps its (always-correct) analytic plan.
            override = None
        with self._lock:
            self._resolved[key.key_id] = override
            self._pending.pop(key.key_id, None)
            self._completed += 1

    def drain(self, timeout: float | None = None) -> None:
        """Wait for in-flight background tunes (shutdown and tests)."""
        with self._lock:
            threads = list(self._pending.values())
        for thread in threads:
            thread.join(timeout)

    # -- observability -------------------------------------------------------

    def counters(self) -> dict[str, int]:
        """Tuner counters merged into :class:`ServerStats`."""
        with self._lock:
            return {
                "tuned_hits": self._hits,
                "tuned_misses": self._misses,
                "tunes_pending": len(self._pending),
                "tunes_completed": self._completed,
            }
