"""The plan autotuner: model-ranked search, bit-exact timed validation.

The pipeline per :class:`~repro.tune.space.TuneKey`:

1. **Cache probe** — a prior winner (including the "analytic plan won"
   marker) skips the search entirely; this is what amortizes tuning
   across served traffic.
2. **Cost-model ranking** — every plan-shape candidate
   (:func:`~repro.tune.space.plan_shape_candidates`) is priced by the
   vectorized batch analyzer (~ms per candidate even at Fig. 10 scale),
   and its modeled external traffic is scored against the
   memory-independent communication lower bound
   ``2K*sqrt(MN) + MN`` for reference. The top-K shapes survive.
3. **Timed validation** — the surviving shapes are crossed with the
   host execution variants (``strips``/``workers`` — invisible to the
   model, which prices modelled cores) and executed on synthesized
   operands, best-of-``repeats`` wall clock. Every candidate's C is
   asserted **bit-identical** to the analytic plan's; a mismatch
   rejects the candidate, never degrades the contract.
4. **Persist** — the fastest valid candidate (or the analytic marker
   when nothing beats it) lands in the versioned plan cache.

The model ranks only plan-*shape* dimensions. Host-granularity knobs
are decided exclusively by step 3: the analytic model would price a
coarser strip split as *fewer active cores* (slower), while on a host
with fewer real cores than the model it is strictly faster — exactly
the gap between modelled machines and the machine running the model.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

import numpy as np

from repro.gemm.plan import PlanOverride
from repro.gemm.sharded import ipc_lower_bound_elements
from repro.machines.spec import MachineSpec
from repro.schedule.space import ComputationSpace
from repro.tune.cache import PlanCache
from repro.tune.space import (
    TuneKey,
    execution_variants,
    plan_shape_candidates,
)


@dataclass(frozen=True, slots=True)
class TuneConfig:
    """Knobs for one tuner instance.

    ``min_speedup`` is the adoption bar: a candidate must beat the
    analytic wall clock by at least this factor or the analytic marker
    is persisted instead (1.0 adopts any strict improvement).
    ``max_surface_elements`` bounds the operands the validator is
    willing to synthesize — beyond it the analytic marker is stored
    unvalidated rather than allocating huge throwaway matrices.
    """

    cache_root: "Path | str | None" = None
    top_k: int = 3
    repeats: int = 2
    min_speedup: float = 1.0
    use_cache: bool = True
    max_surface_elements: int = 1 << 26


@dataclass(frozen=True, slots=True)
class CandidateReport:
    """One candidate's journey through the pipeline (for audits)."""

    override: dict
    modeled_seconds: float | None = None
    bound_ratio: float | None = None
    timed_seconds: float | None = None
    exact: bool | None = None

    def as_dict(self) -> dict:
        return {
            "override": self.override,
            "modeled_seconds": self.modeled_seconds,
            "bound_ratio": self.bound_ratio,
            "timed_seconds": self.timed_seconds,
            "exact": self.exact,
        }


@dataclass(frozen=True, slots=True)
class TuneResult:
    """Outcome of one tune: the winner plus its evidence."""

    key: TuneKey
    override: PlanOverride | None
    source: str  # "cache" | "search"
    analytic_seconds: float | None = None
    tuned_seconds: float | None = None
    validated: bool = True
    candidates: tuple[CandidateReport, ...] = field(default=())

    @property
    def speedup(self) -> float | None:
        """Measured tuned-over-analytic wall-clock ratio (>1 is faster)."""
        if not self.analytic_seconds or not self.tuned_seconds:
            return None
        return self.analytic_seconds / self.tuned_seconds

    def as_row_extra(self) -> dict[str, Any]:
        """The evidence persisted alongside the winner."""
        return {
            "validated": self.validated,
            "timed": {
                "analytic_seconds": self.analytic_seconds,
                "tuned_seconds": self.tuned_seconds,
                "speedup": self.speedup,
            },
            "candidates": [c.as_dict() for c in self.candidates],
        }


class PlanTuner:
    """Autotuner for one machine (cache shared across keys)."""

    def __init__(
        self, machine: MachineSpec, config: TuneConfig | None = None
    ) -> None:
        self.machine = machine
        self.config = config if config is not None else TuneConfig()
        self.cache = PlanCache(self.config.cache_root)

    # -- public API ----------------------------------------------------------

    def tune(self, key: TuneKey) -> TuneResult:
        """Resolve ``key``'s plan: cache hit, or search + validate + store."""
        if key.machine != self.machine.name:
            from repro.errors import ConfigurationError

            raise ConfigurationError(
                f"tune key names machine {key.machine!r} but this tuner "
                f"prices {self.machine.name!r}"
            )
        if self.config.use_cache:
            row = self.cache.load(key)
            if row is not None:
                doc = row.get("override")
                timed = row.get("timed") or {}
                return TuneResult(
                    key=key,
                    override=(
                        None if doc is None else PlanOverride.from_dict(doc)
                    ),
                    source="cache",
                    analytic_seconds=timed.get("analytic_seconds"),
                    tuned_seconds=timed.get("tuned_seconds"),
                    validated=bool(row.get("validated", True)),
                )
        result = self._search(key)
        self.cache.store(key, result.override, result.as_row_extra())
        return result

    # -- the pipeline --------------------------------------------------------

    def _search(self, key: TuneKey) -> TuneResult:
        base = self._engine(key, None).plan_for(key.m, key.n, key.k)
        ranked = self._rank(key, plan_shape_candidates(key.engine, base))
        surface = key.m * key.k + key.k * key.n + key.m * key.n
        if surface > self.config.max_surface_elements:
            # Too big to synthesize throwaway operands for: keep the
            # analytic plan, but persist the marker so the decision (and
            # the model ranking evidence) is not recomputed per request.
            return TuneResult(
                key=key,
                override=None,
                source="search",
                validated=False,
                candidates=tuple(report for report, _ in ranked),
            )
        return self._validate(key, ranked)

    def _rank(
        self, key: TuneKey, shapes: list[PlanOverride]
    ) -> list[tuple[CandidateReport, PlanOverride]]:
        """Price every plan shape with the engine's batch analyzer; best first.

        The identity override (index 0 by construction) is always kept
        in front of the ``top_k`` cut so the validation stage times the
        analytic shape's execution variants too.
        """
        bound = ipc_lower_bound_elements(key.m, key.n, key.k, 1)
        reports: list[tuple[float, CandidateReport, PlanOverride]] = []
        for override in shapes:
            run = self._engine(key, override).analyze(key.m, key.n, key.k)
            reports.append(
                (
                    run.seconds,
                    CandidateReport(
                        override=override.as_dict(),
                        modeled_seconds=run.seconds,
                        bound_ratio=run.counters.ext_total_elements / bound,
                    ),
                    override,
                )
            )
        identity, rest = reports[0], reports[1:]
        rest.sort(key=lambda item: item[0])
        kept = [identity] + rest[: max(0, self.config.top_k - 1)]
        return [(item[1], item[2]) for item in kept]

    def _validate(
        self,
        key: TuneKey,
        ranked: list[tuple[CandidateReport, PlanOverride]],
    ) -> TuneResult:
        """Time the survivors × execution variants; assert bit-exactness."""
        rng = np.random.default_rng(int(key.key_id[:12], 16))
        dtype = np.dtype(key.dtype)
        a = rng.standard_normal((key.m, key.k)).astype(dtype)
        b = rng.standard_normal((key.k, key.n)).astype(dtype)

        analytic = self._engine(key, None)
        analytic_c, analytic_seconds = self._timed(analytic, a, b)

        reports = [report for report, _ in ranked]
        best: tuple[float, PlanOverride] | None = None
        for _, shape in ranked:
            for strips, workers in execution_variants(key.engine):
                candidate = replace(shape, strips=strips, workers=workers)
                if candidate == PlanOverride():
                    continue  # that IS the analytic baseline
                engine = self._engine(key, candidate)
                c, seconds = self._timed(engine, a, b)
                exact = bool(np.array_equal(c, analytic_c))
                reports.append(
                    CandidateReport(
                        override=candidate.as_dict(),
                        timed_seconds=seconds,
                        exact=exact,
                    )
                )
                if not exact:
                    continue  # rejected: the contract outranks speed
                if best is None or seconds < best[0]:
                    best = (seconds, candidate)

        if best is None or analytic_seconds / best[0] < self.config.min_speedup:
            return TuneResult(
                key=key,
                override=None,
                source="search",
                analytic_seconds=analytic_seconds,
                tuned_seconds=analytic_seconds,
                candidates=tuple(reports),
            )
        return TuneResult(
            key=key,
            override=best[1],
            source="search",
            analytic_seconds=analytic_seconds,
            tuned_seconds=best[0],
            candidates=tuple(reports),
        )

    # -- helpers -------------------------------------------------------------

    def _engine(self, key: TuneKey, override: PlanOverride | None):
        from repro.gemm.cake import CakeGemm
        from repro.gemm.goto import GotoGemm

        kwargs: dict[str, Any] = {
            "cores": key.cores,
            "backend": key.backend,
            "plan": override,
            # Explicit False, not the inherit-default None: the analytic
            # baseline (plan=None) must never consult the process-wide
            # tune default, or a tune-in-progress would recurse into
            # tuning its own key.
            "tuned": False,
        }
        if key.processes > 1:
            kwargs["processes"] = key.processes
        cls = CakeGemm if key.engine == "cake" else GotoGemm
        return cls(self.machine, **kwargs)

    def _timed(self, engine, a, b) -> tuple[np.ndarray, float]:
        """Best-of-``repeats`` wall clock for one engine on (a, b)."""
        best = float("inf")
        c = None
        for _ in range(max(1, self.config.repeats)):
            start = time.perf_counter()
            run = engine.multiply(a, b)
            elapsed = time.perf_counter() - start
            if elapsed < best:
                best = elapsed
            c = run.c
        assert c is not None
        return c, best


# -- process defaults + the engines' resolution hook -------------------------

_DEFAULT_TUNE: TuneConfig | None = None

#: Resolved (cache_root, key_id) -> override memo, so `tuned=True`
#: engines pay the disk probe once per process per key.
_RESOLVED: dict[tuple[str, str], PlanOverride | None] = {}


def set_default_tune(config: "TuneConfig | bool | None") -> None:
    """Set the process-wide config `tuned=True` engines use.

    ``True`` installs defaults, ``False``/``None`` clears. This is what
    ``cake-bench --tuned`` flips.
    """
    global _DEFAULT_TUNE
    if config is True:
        _DEFAULT_TUNE = TuneConfig()
    elif config is False or config is None:
        _DEFAULT_TUNE = None
    else:
        _DEFAULT_TUNE = config
    _RESOLVED.clear()


def get_default_tune() -> TuneConfig | None:
    return _DEFAULT_TUNE


def clear_resolution_memo() -> None:
    """Forget in-process resolutions (tests; disk cache is untouched)."""
    _RESOLVED.clear()


def tuned_override(
    machine: MachineSpec,
    *,
    engine: str,
    space: ComputationSpace,
    dtype,
    cores: int | None,
    backend: str,
    processes: int,
    config: TuneConfig | None = None,
) -> PlanOverride | None:
    """Resolve the tuned override for one multiply (the engines' hook).

    Cache hits (memory, then disk) are cheap; a cold key tunes
    synchronously — `tuned=True` is an explicit opt-in to paying that
    cost once. The serve layer never calls this on the request path; it
    uses :class:`~repro.tune.service.PlanService` instead.
    """
    config = config or get_default_tune() or TuneConfig()
    key = TuneKey(
        engine=engine,
        m=space.m,
        n=space.n,
        k=space.k,
        dtype=np.dtype(dtype).str,
        machine=machine.name,
        cores=cores,
        backend=backend,
        processes=processes,
    )
    tuner = PlanTuner(machine, config)
    memo_key = (str(tuner.cache.root), key.key_id)
    if config.use_cache and memo_key in _RESOLVED:
        return _RESOLVED[memo_key]
    result = tuner.tune(key)
    _RESOLVED[memo_key] = result.override
    return result.override
