"""The fault-tolerant parallel experiment runtime.

:class:`ExperimentRuntime` takes a list of
:class:`~repro.runtime.task.ExperimentTask` cells — a figure sweep, a
core-scaling series, a CAKE-vs-GOTO pair grid — and returns their result
rows **in input order**, regardless of how the work was scheduled:

* Cached tasks are answered from the on-disk
  :class:`~repro.runtime.cache.ResultCache` without executing anything;
  duplicate ids within one call execute once and fan out to every input
  position.
* Remaining tasks are sharded **deterministically** (round-robin by
  input position) across a ``ProcessPoolExecutor``; each worker runs its
  shard and ships back :class:`~repro.runtime.outcome.TaskOutcome`
  envelopes tagged with their input index — exceptions are captured per
  task, never raised out of the pool.
* Rows are pure functions of their task (no clocks, no ambient state),
  so serial, 2-worker and 16-worker runs produce byte-identical output —
  a property the test suite asserts, not just a design intention.

Campaign-scale fault tolerance, all of it exercisable on demand via
:mod:`repro.runtime.faults`:

* **Retry with deterministic backoff** — a failed attempt retries up to
  ``retries`` times under :class:`RetryPolicy`: capped exponential
  backoff whose jitter derives from ``task.seed``, so the retry
  *schedule* is a pure function of the task and success-path rows stay
  byte-identical for any worker count.
* **Checkpointing** — completed rows land in the result cache as shard
  futures complete, so a killed run keeps its partial progress and a
  rerun only executes the missing cells.
* **Pool-crash and hang recovery** — a ``BrokenProcessPool`` or a shard
  exceeding its ``task_timeout`` budget tears the pool down, rebuilds it
  for the unfinished tasks, and after ``max_pool_rebuilds`` failed
  rebuilds degrades to inline serial execution (where injected
  kill/hang faults downgrade to plain errors).
* **Failure policy** — ``on_error="raise"`` (default) finishes the grid
  and raises :class:`~repro.runtime.outcome.TaskExecutionError` for the
  first permanent failure; ``on_error="collect"`` returns a
  :class:`~repro.runtime.outcome.RunReport` with rows, failures (with
  worker-side tracebacks) and recovery accounting on
  :class:`RuntimeStats`.

``workers <= 1`` (the default) runs inline with no pool, which is both
the fallback for single-CPU machines and the reference behaviour the
parallel path is checked against. ``task_timeout`` needs a pool to
preempt anything and is therefore inert inline.
"""

from __future__ import annotations

import random
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.runtime.cache import ResultCache
from repro.runtime.faults import FaultInjector, FaultPlan, mark_worker_process
from repro.runtime.restart import RestartPolicy, RestartTracker, kill_pool
from repro.runtime.outcome import RunReport, TaskExecutionError, TaskOutcome
from repro.runtime.task import ExperimentTask, run_task
from repro.util import require_positive

IndexedTask = tuple[int, ExperimentTask]
IndexedOutcome = tuple[int, TaskOutcome]


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """Capped exponential backoff with per-task deterministic jitter.

    The delay before the retry following failed attempt ``attempt`` is
    ``min(max_delay, base_delay * 2**(attempt-1))`` scaled by a jitter
    factor in ``[0.5, 1.5)`` drawn from ``random.Random`` seeded by
    ``(task.seed, attempt)`` — reproducible for a given task, decorrelated
    across tasks so retry storms do not re-synchronize.
    """

    retries: int = 0
    base_delay: float = 0.05
    max_delay: float = 2.0

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("backoff delays must be >= 0")

    def delay(self, seed: int, attempt: int) -> float:
        """Seconds to back off after failed attempt ``attempt`` (1-based)."""
        base = min(self.max_delay, self.base_delay * (2 ** (attempt - 1)))
        jitter = random.Random(seed * 1_000_003 + attempt).random()
        return base * (0.5 + jitter)


@dataclass(frozen=True, slots=True)
class RuntimeStats:
    """Accounting for one :meth:`ExperimentRuntime.run` call."""

    tasks: int
    cache_hits: int
    executed: int
    workers: int
    shards: int
    wall_seconds: float
    retries: int = 0
    failures: int = 0
    deduped: int = 0
    timeouts: int = 0
    pool_rebuilds: int = 0
    inline_fallbacks: int = 0


def _execute_task(
    task: ExperimentTask,
    policy: RetryPolicy,
    injector: FaultInjector | None,
) -> TaskOutcome:
    """Run one task to a :class:`TaskOutcome`, retrying transient failures.

    Exceptions never escape: the last attempt's error is captured with
    its formatted traceback. Injected ``kill`` faults bypass this (the
    process dies), which is exactly what the pool-recovery path is for.
    """
    start = time.perf_counter()
    attempt = 0
    while True:
        attempt += 1
        try:
            if injector is not None:
                injector.before_attempt(task.task_id, attempt)
            row = run_task(task)
        except Exception as exc:
            if attempt <= policy.retries:
                time.sleep(policy.delay(task.seed, attempt))
                continue
            return TaskOutcome.failure(
                task.task_id, exc,
                attempts=attempt,
                duration=time.perf_counter() - start,
            )
        return TaskOutcome.success(
            task.task_id, row,
            attempts=attempt,
            duration=time.perf_counter() - start,
        )


def _run_shard(
    shard: list[IndexedTask],
    policy: RetryPolicy,
    plan: FaultPlan | None,
) -> list[IndexedOutcome]:
    """Worker entry point: execute one shard, keep input indices."""
    injector = None if plan is None else FaultInjector(plan)
    return [(index, _execute_task(task, policy, injector)) for index, task in shard]


class _PoolDied(Exception):
    """Internal: the current pool crashed or timed out; rebuild it."""

    def __init__(self, timed_out: bool):
        self.timed_out = timed_out


class ExperimentRuntime:
    """Fan experiment grids over processes, memoizing completed cells.

    Parameters
    ----------
    workers:
        Process count for the fan-out. ``None`` or ``1`` runs serially
        in-process; higher values use a ``ProcessPoolExecutor``.
    cache_dir:
        Directory for the on-disk result cache; ``None`` disables
        memoization (and therefore checkpoint-resume).
    retries:
        Transient-failure retries per task (worker-side), under
        :class:`RetryPolicy` backoff. ``retry_policy`` overrides the
        whole policy when finer control is needed.
    task_timeout:
        Per-task time budget in seconds. A shard whose wall time exceeds
        ``task_timeout * len(shard)`` is presumed hung: its pool is torn
        down and the unfinished tasks re-run on a fresh one. Requires a
        pool; inert when running inline.
    on_error:
        ``"raise"`` (default): finish the grid, then raise
        :class:`~repro.runtime.outcome.TaskExecutionError` for the first
        permanent failure. ``"collect"``: return a
        :class:`~repro.runtime.outcome.RunReport` instead of a row list.
    max_pool_rebuilds:
        Pool rebuilds (after crashes/timeouts) before degrading to
        inline serial execution of whatever is left.
    faults:
        A :class:`~repro.runtime.faults.FaultPlan` for deterministic
        fault injection; defaults to the ``CAKE_FAULT_PLAN`` environment
        variable when unset.
    """

    def __init__(
        self,
        *,
        workers: int | None = None,
        cache_dir: Path | str | None = None,
        retries: int = 0,
        retry_policy: RetryPolicy | None = None,
        task_timeout: float | None = None,
        on_error: str = "raise",
        max_pool_rebuilds: int = 2,
        faults: FaultPlan | None = None,
    ) -> None:
        if workers is not None:
            require_positive("workers", workers)
        if task_timeout is not None:
            require_positive("task_timeout", task_timeout)
        if on_error not in ("raise", "collect"):
            raise ValueError(
                f"on_error must be 'raise' or 'collect', got {on_error!r}"
            )
        if max_pool_rebuilds < 0:
            raise ValueError(
                f"max_pool_rebuilds must be >= 0, got {max_pool_rebuilds}"
            )
        self.workers = 1 if workers is None else workers
        self.cache = None if cache_dir is None else ResultCache(cache_dir)
        self.retry_policy = (
            retry_policy if retry_policy is not None else RetryPolicy(retries=retries)
        )
        self.task_timeout = task_timeout
        self.on_error = on_error
        self.max_pool_rebuilds = max_pool_rebuilds
        self.faults = faults if faults is not None else FaultPlan.from_env()
        self.last_stats: RuntimeStats | None = None
        self.last_report: RunReport | None = None
        self._rows_log: list[dict[str, Any]] = []

    def run(
        self, tasks: Sequence[ExperimentTask]
    ) -> list[dict[str, Any]] | RunReport:
        """Execute ``tasks``; one row per task, in input order.

        Returns the row list under ``on_error="raise"`` and a
        :class:`~repro.runtime.outcome.RunReport` under
        ``on_error="collect"``. Either way ``last_report`` and
        ``last_stats`` describe the run afterwards.
        """
        start = time.perf_counter()
        results: list[dict[str, Any] | None] = [None] * len(tasks)

        # Cache lookup + duplicate folding: each distinct task_id is
        # executed at most once, its row fanned out to every position.
        pending: list[IndexedTask] = []
        positions: dict[str, list[int]] = {}
        resolved_rows: dict[str, dict[str, Any]] = {}
        cache_hits = 0
        deduped = 0
        for index, task in enumerate(tasks):
            tid = task.task_id
            if tid in resolved_rows:
                results[index] = resolved_rows[tid]
                deduped += 1
                continue
            if tid in positions:
                positions[tid].append(index)
                deduped += 1
                continue
            cached = self.cache.load(tid) if self.cache is not None else None
            if cached is not None:
                results[index] = cached
                resolved_rows[tid] = cached
                cache_hits += 1
            else:
                positions[tid] = [index]
                pending.append((index, task))

        shard_count = len(self._shard(pending))
        counters = {
            "retries": 0,
            "timeouts": 0,
            "pool_rebuilds": 0,
            "inline_fallbacks": 0,
        }
        failures: list[TaskOutcome] = []
        resolved: set[str] = set()

        def record(outcome: TaskOutcome) -> None:
            """Fold one outcome into results; checkpoint rows eagerly."""
            resolved.add(outcome.task_id)
            counters["retries"] += outcome.attempts - 1
            if outcome.ok:
                assert outcome.row is not None
                for pos in positions[outcome.task_id]:
                    results[pos] = outcome.row
                if self.cache is not None:
                    self.cache.store(outcome.task_id, outcome.row)
            else:
                failures.append(outcome)

        if self.workers <= 1 or len(pending) <= 1:
            self._execute_inline(pending, record)
        else:
            self._execute_pooled(pending, record, resolved, counters)

        stats = RuntimeStats(
            tasks=len(tasks),
            cache_hits=cache_hits,
            executed=len(pending),
            workers=self.workers,
            shards=shard_count,
            wall_seconds=time.perf_counter() - start,
            retries=counters["retries"],
            failures=len(failures),
            deduped=deduped,
            timeouts=counters["timeouts"],
            pool_rebuilds=counters["pool_rebuilds"],
            inline_fallbacks=counters["inline_fallbacks"],
        )
        self.last_stats = stats
        report = RunReport(rows=list(results), failures=failures, stats=stats)
        self.last_report = report
        self._rows_log.extend(row for row in results if row is not None)

        if self.on_error == "collect":
            return report
        if failures:
            raise TaskExecutionError(failures[0], failures=failures)
        rows = [row for row in results if row is not None]
        assert len(rows) == len(tasks)
        return rows

    def _execute_inline(
        self,
        pending: list[IndexedTask],
        record: Callable[[TaskOutcome], None],
    ) -> None:
        """Serial in-process execution (reference path and degraded mode).

        Rows are recorded — and therefore cached — one task at a time,
        so even an inline run checkpoints as it goes. Inside this
        process, injected kill/hang faults downgrade to plain raises
        (see :mod:`repro.runtime.faults`).
        """
        injector = None if self.faults is None else FaultInjector(self.faults)
        for _, task in pending:
            record(_execute_task(task, self.retry_policy, injector))

    def _execute_pooled(
        self,
        pending: list[IndexedTask],
        record: Callable[[TaskOutcome], None],
        resolved: set[str],
        counters: dict[str, int],
    ) -> None:
        """Pool execution with crash/hang recovery.

        Shard results are consumed as they complete (checkpointing via
        ``record``). A crashed pool or an expired shard deadline tears
        the pool down and rebuilds it for whatever is still unresolved —
        one :class:`~repro.runtime.restart.RestartTracker` ladder with a
        zero-delay backoff; when its budget (``max_pool_rebuilds``) is
        spent the remainder runs inline.
        """
        tracker = RestartTracker(
            RestartPolicy(
                max_restarts=self.max_pool_rebuilds,
                backoff=RetryPolicy(retries=0, base_delay=0.0, max_delay=0.0),
                reset_after=None,
            )
        )
        remaining = pending
        while remaining:
            try:
                self._one_pool_round(remaining, record)
            except _PoolDied as died:
                counters["pool_rebuilds"] += 1
                if died.timed_out:
                    counters["timeouts"] += 1
                if tracker.next_delay() is None:
                    counters["inline_fallbacks"] += 1
                    self._execute_inline(
                        [
                            (index, task)
                            for index, task in remaining
                            if task.task_id not in resolved
                        ],
                        record,
                    )
                    return
            remaining = [
                (index, task)
                for index, task in remaining
                if task.task_id not in resolved
            ]

    def _one_pool_round(
        self,
        remaining: list[IndexedTask],
        record: Callable[[TaskOutcome], None],
    ) -> None:
        """One pool lifetime over ``remaining``.

        Records every outcome the pool managed to produce and raises
        :class:`_PoolDied` if the pool broke or a shard blew its
        deadline — after forcibly tearing the pool down either way.
        """
        shards = self._shard(remaining)
        pool = ProcessPoolExecutor(
            max_workers=len(shards), initializer=mark_worker_process
        )
        clean = False
        try:
            now = time.monotonic()
            deadlines = {}
            futures = []
            for shard in shards:
                fut = pool.submit(_run_shard, shard, self.retry_policy, self.faults)
                futures.append(fut)
                if self.task_timeout is not None:
                    deadlines[fut] = now + self.task_timeout * len(shard)
            not_done = set(futures)
            while not_done:
                budget = None
                if deadlines:
                    budget = max(
                        0.0,
                        min(deadlines[f] for f in not_done) - time.monotonic(),
                    )
                done, not_done = wait(
                    not_done, timeout=budget, return_when=FIRST_COMPLETED
                )
                for fut in done:
                    # BrokenProcessPool propagates from .result(); any
                    # *task* error was already captured in its outcome.
                    for _, outcome in fut.result():
                        record(outcome)
                if not done and deadlines:
                    expired = time.monotonic()
                    if any(expired >= deadlines[f] for f in not_done):
                        raise _PoolDied(timed_out=True)
            clean = True
        except BrokenProcessPool:
            raise _PoolDied(timed_out=False) from None
        finally:
            if clean:
                pool.shutdown(wait=True)
            else:
                kill_pool(pool)

    def _shard(self, pending: list[IndexedTask]) -> list[list[IndexedTask]]:
        """Deterministic round-robin split by input position.

        Task ``i`` of the pending list always lands in shard
        ``i % workers`` — independent of timing, hashing, or pool
        internals — so reruns distribute identically.
        """
        if self.workers <= 1 or len(pending) <= 1:
            return [pending] if pending else []
        count = min(self.workers, len(pending))
        return [pending[w::count] for w in range(count)]

    def drain_rows(self) -> list[dict[str, Any]]:
        """All rows produced since the last drain (for BENCH_*.json)."""
        rows, self._rows_log = self._rows_log, []
        return rows
