"""The autotuner's identity and search space.

A tune is keyed by everything that decides which plan wins:
the engine kind, the problem extents and dtype (the serve layer's
:class:`~repro.serve.classifier.ShapeClass` key), the machine the plan
is priced on, the modelled core count, and the execution environment
(backend, process count) the timed validation runs under. Two requests
with equal :class:`TuneKey`\\ s are definitionally the same tuning
problem, so :attr:`TuneKey.key_id`, a SHA-256 over the key's fields, is
the plan-cache slot in :class:`~repro.runtime.cache.ResultCache`.

The candidate grid is deliberately conservative:

* ``alpha`` / ``mc`` re-shape the CB block along M and N only. That keeps
  each C element's accumulation order in the engine's loops, but a BLAS
  call's bits can still depend on its M extent at ragged N, so these
  candidates are exact only because the validator bit-compares each
  one with the analytic plan's product, as it does ``strips``;
* ``kc`` is **pinned to the analytic value** in every candidate:
  re-blocking K regroups the float accumulation and would break the
  bit-exactness contract the validator asserts;
* schedule variants are limited to the reduction-complete orders
  (``k-first``, ``naive``) — the MOMMS loop-order taxonomy's spilling
  variants (m-first/n-first) violate CAKE's no-partial-results
  contract, so they are excluded from the space rather than searched
  and rejected;
* ``strips`` / ``workers`` are host execution knobs the analytic model
  cannot see (it prices modelled cores, not host threads), so they are
  never ranked by the cost model — only crossed into the timed
  validation stage.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.gemm import budget
from repro.gemm.plan import MAX_ALPHA, CakePlan, GotoPlan, PlanOverride

#: CB aspect factors tried for CAKE candidates (``None`` keeps the
#: bandwidth-derived analytic alpha).
ALPHA_CANDIDATES: tuple[float | None, ...] = (None, 2.0, 4.0, 8.0)

#: Multipliers applied to the analytic ``mc`` (1 keeps the derived value).
MC_SCALES: tuple[int, ...] = (1, 2, 4)

#: Reduction-complete block orders; see the module docstring for why the
#: spilling variants are structurally excluded.
SCHEDULE_CANDIDATES: tuple[str, ...] = ("k-first", "naive")

#: Multipliers applied to the analytic GOTO ``nc``.
NC_SCALES: tuple[int, ...] = (1, 2)


@dataclass(frozen=True, slots=True)
class TuneKey:
    """Identity of one tuning problem (one plan-cache slot)."""

    engine: str
    m: int
    n: int
    k: int
    dtype: str
    machine: str
    cores: int | None
    backend: str
    processes: int

    def __post_init__(self) -> None:
        if self.engine not in ("cake", "goto"):
            raise ConfigurationError(
                f"unknown engine {self.engine!r}; expected 'cake' or 'goto'"
            )
        for name in ("m", "n", "k"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(
                    f"tune key {name} must be positive, got {getattr(self, name)}"
                )
        if self.processes < 1:
            raise ConfigurationError(
                f"tune key processes must be >= 1, got {self.processes}"
            )

    def as_dict(self) -> dict:
        return {
            "engine": self.engine,
            "m": self.m,
            "n": self.n,
            "k": self.k,
            "dtype": self.dtype,
            "machine": self.machine,
            "cores": self.cores,
            "backend": self.backend,
            "processes": self.processes,
        }

    @property
    def key_id(self) -> str:
        """Content hash naming this key's plan-cache slot."""
        payload = json.dumps(self.as_dict(), sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:20]

    def describe(self) -> str:
        """Compact human form, e.g. ``cake:256x1024x2048:f4:blas-group``."""
        return (
            f"{self.engine}:{self.m}x{self.n}x{self.k}:"
            f"{self.dtype.lstrip('<>=|')}:{self.backend}"
            + (f":p{self.processes}" if self.processes > 1 else "")
        )


def plan_shape_candidates(
    engine: str, base: "CakePlan | GotoPlan"
) -> list[PlanOverride]:
    """Plan-shape overrides to rank with the batch-analyzer cost model.

    Every candidate pins ``kc`` at the analytic value (bit-safety — see
    module docstring). The identity override (analytic plan, k-first
    order) leads the list so the execution-variant cross in the
    validation stage always includes the analytic shape.
    """
    seen: set[tuple] = set()
    candidates: list[PlanOverride] = []

    def add(override: PlanOverride) -> None:
        fingerprint = tuple(sorted(override.as_dict().items()))
        if fingerprint not in seen:
            seen.add(fingerprint)
            candidates.append(override)

    add(PlanOverride())
    if engine == "cake":
        assert isinstance(base, CakePlan)
        for alpha in ALPHA_CANDIDATES:
            if alpha is not None and not 0.0 < alpha <= MAX_ALPHA:
                continue
            for scale in MC_SCALES:
                for schedule in SCHEDULE_CANDIDATES:
                    add(
                        PlanOverride(
                            alpha=alpha,
                            mc=base.mc * scale if scale != 1 else None,
                            kc=base.kc,
                            schedule=(
                                None if schedule == "k-first" else schedule
                            ),
                        )
                    )
    else:
        assert isinstance(base, GotoPlan)
        for m_scale in MC_SCALES:
            for n_scale in NC_SCALES:
                add(
                    PlanOverride(
                        mc=base.mc * m_scale if m_scale != 1 else None,
                        nc=base.nc * n_scale if n_scale != 1 else None,
                        kc=base.kc,
                    )
                )
    return candidates


def execution_variants(engine: str) -> list[tuple[int | None, int | None]]:
    """``(strips, workers)`` pairs crossed into timed validation.

    ``strips`` decouples host execution granularity from the modelled
    core count (CAKE only — GOTO's granularity is its ``mc`` strip
    split); ``workers`` adds a threaded variant only when the host has
    more than one usable core (:func:`repro.gemm.budget.usable_cores`),
    since threads on a single core just add scheduling overhead.
    """
    host = budget.usable_cores()
    strips_options: list[int | None] = [None]
    if engine == "cake":
        strips_options.append(1)
        if host > 1:
            strips_options.append(host)
    workers_options: list[int | None] = [None]
    if host > 1:
        workers_options.append(host)
    return [(s, w) for s in strips_options for w in workers_options]
