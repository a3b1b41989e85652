"""Shared run-time services for the engines, the tuner and the server.

Five small modules that sit under more than one layer:

* :mod:`repro.runtime.restart` — the one capped-backoff restart ladder
  (:class:`RestartPolicy`, :class:`RestartTracker`, ``kill_pool``) that
  the shard executor and the serving fleet walk;
* :mod:`repro.runtime.deadline` — the monotonic :class:`Deadline` a
  served request carries from admission to its shard workers;
* :mod:`repro.runtime.faults` — deterministic numeric fault injection
  (bit flips, scaled or zeroed strips, worker kills and hangs) that
  drives the ABFT verifier, the shard restart ladder and the serve
  deadlines on demand;
* :mod:`repro.runtime.cache` — :class:`ResultCache`, atomic versioned
  JSON files on disk, the storage under :mod:`repro.tune`'s plan cache;
* :mod:`repro.runtime.jsonout` — the ``BENCH_<id>.json`` documents that
  ``cake-bench --json`` and the benchmark scripts write.

The paper's figure sweeps need none of this: every grid is priced in
closed form by the batch analyzer and runs inline in
:mod:`repro.analysis`.
"""

from repro.runtime.cache import CACHE_SCHEMA, CacheStats, ResultCache
from repro.runtime.deadline import Deadline
from repro.runtime.faults import (
    NumericFaultInjector,
    NumericFaultPlan,
    NumericFaultRule,
)
from repro.runtime.jsonout import (
    BENCH_SCHEMA,
    rows_from_report,
    write_bench_json,
)
from repro.runtime.restart import RestartPolicy, RestartTracker

__all__ = [
    "CACHE_SCHEMA",
    "CacheStats",
    "ResultCache",
    "Deadline",
    "NumericFaultInjector",
    "NumericFaultPlan",
    "NumericFaultRule",
    "BENCH_SCHEMA",
    "rows_from_report",
    "write_bench_json",
    "RestartPolicy",
    "RestartTracker",
]
