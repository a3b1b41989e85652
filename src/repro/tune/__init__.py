"""repro.tune — the online plan autotuner and its persistent plan cache.

The analytic plan (Section 3's closed forms) is always correct and
always available; this package finds, per
(shape-class, machine, backend, processes), a **bit-identical** faster
execution of it: model-ranked plan-shape candidates, timed validation
of host execution variants, and a versioned on-disk cache so served
traffic amortizes one tune across millions of requests.

Entry points: engines take ``tuned=True`` / ``plan=PlanOverride(...)``,
the serve executors resolve through :class:`PlanService`, and the
``cake-tune`` CLI drives :class:`PlanTuner` directly.
"""

from repro.tune.cache import TUNER_SCHEMA, PlanCache, default_cache_root
from repro.tune.service import PlanService
from repro.tune.space import TuneKey, execution_variants, plan_shape_candidates
from repro.tune.tuner import (
    CandidateReport,
    PlanTuner,
    TuneConfig,
    TuneResult,
    tuned_override,
)

__all__ = [
    "TUNER_SCHEMA",
    "CandidateReport",
    "PlanCache",
    "PlanService",
    "PlanTuner",
    "TuneConfig",
    "TuneKey",
    "TuneResult",
    "default_cache_root",
    "execution_variants",
    "plan_shape_candidates",
    "tuned_override",
]
