"""The multiply server: admission, queueing, execution.

``MultiplyServer`` is a thread-based (stdlib-only) front door over the
existing GEMM engines. The lifecycle of one request::

    submit ──admit──▶ queue ──executor takes a batch──▶ execute ──▶ resolve
       │                 │                                 │
       └─ AdmissionError └─ DeadlineExceededError          └─ structured error
          (shed)            (expired while queued)

One hop: the client's ``submit()`` queues the request, and one of
``executors`` threads takes it off the queue — coalesced with queued
classmates — and runs the engine pass itself. No dispatcher thread or
pool sits between the queue and the engine, so a small request waits
on no extra thread wake-up, which matters most when every thread of a
loaded server contends for one interpreter lock.

Robustness invariants, each pinned by the serve test suite:

* **Bounded everything.** The queue is capacity-bounded (admission
  sheds beyond it), in-flight execution is bounded by the executor
  thread count, and every wait in the system carries a timeout derived
  from a deadline. There is no unbounded buffer anywhere.
* **No stale results.** Handles resolve first-wins; expiry resolves
  them with :class:`~repro.errors.DeadlineExceededError` whether the
  request was queued, executing, or hung in a shard worker (the
  per-request :class:`~repro.gemm.sharded.ShardConfig` deadline kills
  the pool). A product computed after expiry is discarded.
* **One run, on the asked-for configuration.** An executor runs each
  request once, with the engine, backend, workers and processes it
  names, so a served product has the bits of the direct engine call.
  Faults heal at the layer where they happen — the verifier's strip
  retries and oracle rung (:mod:`repro.gemm.verify`), the shard
  executor's pool rebuilds and inline fallback
  (:mod:`repro.gemm.sharded`) — and what they cannot heal resolves the
  handle with the engine's structured error.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

from repro.errors import CakeError
from repro.gemm import budget
from repro.gemm.backends import resolve_backend
from repro.gemm.sharded import arena_stats, resolve_shards
from repro.machines.presets import intel_i9_10900k
from repro.machines.spec import MachineSpec
from repro.serve.admission import FrontDoor, Pending
from repro.serve.batching import EngineCache
from repro.serve.classifier import ShapeClass, classify


@dataclass(frozen=True, slots=True)
class ServerStats:
    """One consistent snapshot of the server's health counters."""

    queue_depth: int
    in_flight: int
    capacity: int
    submitted: int
    admitted: int
    executed: int
    completed: int
    failed: int
    shed_capacity: int
    shed_deadline: int
    shed_shutdown: int
    deadline_exceeded: int
    batches: int
    coalesced: int
    p50_seconds: float
    p99_seconds: float
    #: Lease counters of the process-wide shard arena
    #: (:func:`repro.gemm.sharded.arena_stats`), the one buffer pool a
    #: served multiply leases from: all zeros until a sharded request.
    pool: dict = field(default_factory=dict)
    #: Plan-tuner counters (zero when the server runs untuned): how many
    #: requests resolved a tuned plan, how many served analytic while a
    #: tune was cold or in flight, and the background tune pipeline.
    tuned_hits: int = 0
    tuned_misses: int = 0
    tunes_pending: int = 0
    tunes_completed: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(slots=True)
class _Pending(Pending):
    """One admitted request waiting in (or drained from) the queue."""

    shape_class: ShapeClass
    #: Coalescing identity: equal keys may share one engine pass.
    #: ``None`` marks requests that must run solo (verified/sharded).
    profile_key: tuple | None


class MultiplyServer(FrontDoor):
    """An admission-controlled, deadline-aware GEMM front door.

    Use as a context manager (``with MultiplyServer() as server:``) or
    call :meth:`start`/:meth:`stop` explicitly. ``submit`` returns a
    :class:`~repro.serve.request.ResponseHandle` immediately (or raises
    :class:`~repro.errors.AdmissionError`); ``handle.result()`` blocks
    for the product. Admission, the queue and the lifecycle are the
    shared :class:`~repro.serve.admission.FrontDoor`; this class adds
    shape classification, coalescing and the executor loop its
    dispatch threads run.

    Parameters
    ----------
    machine:
        Platform model engines are built for (default: the paper's
        Intel i9-10900K).
    capacity:
        Bounded queue limit; submits beyond it are shed.
    executors:
        Concurrent engine passes: the threads that take batches off the
        queue and run them. Each executor's requests share
        ``cores // executors`` of the host's usable cores
        (:mod:`repro.gemm.budget`), which is what a request's
        ``workers=None`` resolves within.
    max_batch:
        Most same-class small requests coalesced into one engine pass.
    cores:
        Modelled core count for the engines (``None``: all).
    default_deadline:
        Budget in seconds applied when a request does not name one;
        ``None`` means unbounded by default.
    stats_window:
        Completed-request latencies retained for p50/p99.
    tune:
        Enable tuned-plan resolution (:mod:`repro.tune`): ``True`` for
        the default :class:`~repro.tune.TuneConfig`, or pass one. Each
        shape class resolves its tuned plan once (memory, then the
        on-disk plan cache); a genuinely cold class tunes on a
        background thread **off the request path** — the analytic plan
        serves, bit-identical, until the tuned one lands. Counters
        surface in :meth:`stats`.
    """

    extra_counters = ("executed", "batches", "coalesced")

    def __init__(
        self,
        machine: MachineSpec | None = None,
        *,
        capacity: int = 64,
        executors: int = 2,
        max_batch: int = 8,
        cores: int | None = None,
        default_deadline: float | None = None,
        stats_window: int = 512,
        tune: object = False,
    ) -> None:
        super().__init__(
            capacity=capacity,
            executors=executors,
            default_deadline=default_deadline,
            stats_window=stats_window,
        )
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.machine = intel_i9_10900k() if machine is None else machine
        self.max_batch = max_batch
        self.cores = cores
        #: The host cores one executor's requests may use.
        self.request_cores = max(1, budget.cores() // executors)
        self.engines = EngineCache(self.machine)
        self.plans = None
        if tune:
            from repro.tune import PlanService, TuneConfig

            self.plans = PlanService(
                self.machine,
                tune if isinstance(tune, TuneConfig) else None,
            )
        self._in_flight = 0

    # -- front-door hooks ----------------------------------------------------

    def _entry(self, seq: int, handle) -> _Pending:
        request = handle.request
        shape_class = classify(
            request.engine, request.a, request.b, cores=self.cores
        )
        handle.report.shape_class = shape_class.describe()
        solo = (
            request.verify not in (False, None)
            or request.processes not in (None, 1)
            or not shape_class.small
        )
        key = (shape_class.key, request.backend, request.workers)
        return _Pending(seq, handle, shape_class, None if solo else key)

    def _dispatch_threads(self) -> int:
        return self.executors

    def _close(self, drain: bool, timeout: float | None) -> None:
        """Wait for the executors; every pass already running finishes.

        ``timeout`` bounds the drain of queued work: whatever is still
        queued when it runs out is shed with ``AdmissionError("shutdown")``.
        """
        limit = None if timeout is None else time.monotonic() + timeout
        for thread in self._dispatchers:
            thread.join(
                None if limit is None else max(0.0, limit - time.monotonic())
            )
        with self._cond:
            self._shed_locked(self._queue)
            self._queue.clear()
            self._cond.notify_all()
        for thread in self._dispatchers:
            thread.join()

    # -- client surface ------------------------------------------------------

    def pending_count(self) -> int:
        """Queued + in-flight requests — the fleet heartbeat payload.

        The supervisor polls this through the worker control channel so
        fleet-wide backpressure (``AdmissionError.retry_after``) can
        reflect aggregate depth, not just the front door's own queue.
        """
        with self._cond:
            return len(self._queue) + self._in_flight

    def stats(self) -> ServerStats:
        """A consistent snapshot of queue/health/latency counters."""
        tuner = self.plans.counters() if self.plans is not None else {}
        pool = arena_stats()
        with self._cond:
            return ServerStats(
                in_flight=self._in_flight,
                pool=pool,
                **self._stats_locked(),
                **tuner,
            )

    # -- executors -----------------------------------------------------------

    def _take_batch_locked(self) -> list[_Pending]:
        """Pop the highest-priority request plus coalescable classmates."""
        head = min(
            self._queue, key=lambda p: (-p.request.priority, p.seq)
        )
        self._queue.remove(head)
        batch = [head]
        if head.profile_key is not None:
            mates = sorted(
                (
                    p
                    for p in self._queue
                    if p.profile_key == head.profile_key
                ),
                key=lambda p: p.seq,
            )
            for mate in mates[: self.max_batch - 1]:
                self._queue.remove(mate)
                batch.append(mate)
        self._counters["batches"] += 1
        self._counters["coalesced"] += len(batch) - 1
        return batch

    def _dispatch_loop(self) -> None:
        """One executor: take a batch off the queue, run it, repeat."""
        while True:
            with self._cond:
                while not self._stopping and not self._queue:
                    # An idle executor's periodic wake expires queued
                    # deadlines even when nothing else moves.
                    self._cond.wait(timeout=0.05)
                    self._expire_queued_locked()
                if self._stopping and (not self._drain or not self._queue):
                    return
                self._expire_queued_locked()
                if not self._queue:
                    continue
                batch = self._take_batch_locked()
                self._in_flight += 1
            error = None
            try:
                self._run_batch(batch)
            except Exception as exc:  # noqa: BLE001 - fail structured, keep serving
                error = exc
            finally:
                for pending in batch:
                    # _run_one resolves every handle itself; one still
                    # open means the pass raised — fail it structured
                    # rather than strand the client.
                    if not pending.handle.done():
                        self._finish(
                            pending.handle,
                            error=error
                            or CakeError("request dropped by its executor"),
                        )
                with self._cond:
                    self._in_flight -= 1
                    self._cond.notify_all()

    # -- execution -----------------------------------------------------------

    def _run_batch(self, batch: list[_Pending]) -> None:
        with budget.core_share(self.request_cores):
            for pending in batch:
                self._run_one(pending, batch_size=len(batch))

    def _count(self, name: str) -> None:
        with self._cond:
            self._counters[name] += 1

    def _run_one(self, pending: _Pending, *, batch_size: int) -> None:
        handle = pending.handle
        report = handle.report
        request = pending.request
        deadline = handle.deadline
        report.queue_seconds = time.monotonic() - handle.submitted_at
        report.batch_size = batch_size
        if handle.done():
            return
        if handle.expired():
            self._finish(handle, error=handle.deadline_error("queue"))
            return
        self._count("executed")
        # Tuned-plan resolution is a memory/disk probe at most — a cold
        # class tunes on a background thread and this request (plus any
        # before the winner lands) serves the analytic plan.
        override = None
        if self.plans is not None:
            shards = resolve_shards(request.processes)
            override = self.plans.resolve(
                pending.shape_class,
                backend=resolve_backend(request.backend).name,
                processes=1 if shards is None else shards.processes,
            )
        engine = self.engines.engine_for(
            request,
            pending.shape_class,
            deadline_at=None if deadline is None else deadline.at,
            override=override,
        )
        started = time.perf_counter()
        try:
            run = engine.multiply(request.a, request.b)
        except Exception as err:  # noqa: BLE001 - fail structured, never strand
            report.execute_seconds = time.perf_counter() - started
            self._finish(handle, error=err)
            return
        report.execute_seconds = time.perf_counter() - started
        report.backend = run.backend
        report.workers = run.workers
        report.processes = run.processes
        if handle.expired():
            # The product arrived after the budget: discard it.
            self._finish(handle, error=handle.deadline_error("execute"))
        else:
            self._finish(handle, run=run)
