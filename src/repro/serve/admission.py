"""Admission control: the bounded front door.

A server without admission control does not have a queue, it has a
memory leak with latency attached. The policy here is deliberately
simple and *total* — every submit is answered immediately, either with
a queued handle or a structured :class:`~repro.errors.AdmissionError`
that tells the client what to do next:

* ``reason="deadline"`` — the budget was non-positive at submit time.
  Executing it could only ever produce a stale result, so it is shed
  *before* queueing; retrying with the same budget cannot help
  (``retry_after=None``).
* ``reason="capacity"`` — the bounded queue is full. ``retry_after``
  estimates when a slot should free up from the recent per-request
  service latency and the current backlog.
* ``reason="shutdown"`` — the server is stopping; no retry hint.

The decision is a pure function of its numeric inputs
(:func:`admission_decision`), which is what the hypothesis suite
drives: *no* combination of queue depth, capacity, latency estimate
and clock may admit a request whose deadline has already passed.

:class:`FrontDoor` is the one door both servers stand behind — the
in-process :class:`~repro.serve.server.MultiplyServer` and the
multi-process :class:`~repro.serve.fleet.FleetServer`. It owns the
bounded queue, the counters, the latency window, ``submit()``,
queued-deadline expiry, the shutdown shed, the dispatch threads and
the lifecycle; a server supplies only what its dispatch threads do with
admitted work.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.errors import AdmissionError, CakeError, DeadlineExceededError
from repro.gemm.backends import resolve_backend
from repro.gemm.parallel import check_multiply_operands
from repro.gemm.result import GemmRun
from repro.runtime.deadline import Deadline
from repro.serve.request import MultiplyRequest, ResponseHandle, ServeReport

#: Fallback per-request service estimate before any latency history
#: exists (seconds). Only feeds the retry-after hint, never admission.
DEFAULT_SERVICE_ESTIMATE = 0.05


def retry_after_hint(
    queue_depth: int,
    executors: int,
    service_estimate: "float | None",
) -> float:
    """Estimated seconds until a queue slot frees up.

    Backlog divided by drain rate: ``depth / executors`` requests must
    complete ahead of a retry, each taking roughly the recent p50
    service latency.
    """
    estimate = (
        DEFAULT_SERVICE_ESTIMATE
        if service_estimate is None or service_estimate <= 0
        else service_estimate
    )
    waves = max(1.0, queue_depth / max(1, executors))
    return waves * estimate


def admission_decision(
    *,
    queue_depth: int,
    capacity: int,
    deadline_budget: "float | None",
    executors: int = 1,
    service_estimate: "float | None" = None,
    stopping: bool = False,
) -> AdmissionError | None:
    """Admit (``None``) or refuse (the error to raise) one request.

    Checks run in severity order — shutdown, then spent deadline, then
    capacity — so a non-positive budget is *always* shed as
    ``reason="deadline"`` regardless of queue state (the property the
    hypothesis suite pins: shed at the door, never executed).
    """
    if stopping:
        return AdmissionError(
            "shutdown",
            "server is stopping",
            queue_depth,
            capacity,
            None,
        )
    if deadline_budget is not None and deadline_budget <= 0:
        return AdmissionError(
            "deadline",
            f"deadline budget {deadline_budget:.6g}s is already spent",
            queue_depth,
            capacity,
            None,
        )
    if queue_depth >= capacity:
        return AdmissionError(
            "capacity",
            "queue is full",
            queue_depth,
            capacity,
            retry_after_hint(queue_depth, executors, service_estimate),
        )
    return None


def percentile(values, q: float) -> float:
    """The nearest-rank ``q``-th percentile of a sample (0.0 if empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[min(len(ordered), max(1, rank)) - 1]


@dataclass(slots=True)
class Pending:
    """One admitted request while a front door holds it."""

    seq: int
    handle: ResponseHandle

    @property
    def request(self) -> MultiplyRequest:
        return self.handle.request


class FrontDoor:
    """The admission-controlled front door both servers share.

    Owns the bounded queue (``_queue``, guarded by ``_cond``, whose
    lock is re-entrant so a test can freeze dispatch and still submit),
    the counters, the latency window, :meth:`submit`, queued-deadline
    expiry, the shutdown shed, the dispatch threads and the lifecycle
    (:meth:`start`/:meth:`stop`, context manager, :meth:`multiply`).
    Queued deadlines expire wherever a thread already holds ``_cond``:
    on a dispatch thread's periodic wake, and in :meth:`submit` before
    it sheds for capacity. A server supplies:

    * ``_entry(seq, handle)`` — the queue entry for an admitted request;
    * ``_dispatch_loop()`` — the body of each dispatch thread, which
      :meth:`start` starts ``_dispatch_threads()`` of (default one);
    * ``_close(drain, timeout)`` — wind down the dispatch threads and
      whatever they execute on;
    * optionally ``_open()`` (bring up what the dispatch threads
      execute on), ``_backlog_locked()`` (the depth admission measures
      and how many requests drain in parallel) and ``_refusal_locked()``
      (an error refusing every submit).
    """

    #: Dispatch thread-name prefix.
    name = "cake-serve"
    #: Counters a server keeps beyond the shared ones.
    extra_counters: "tuple[str, ...]" = ()

    def __init__(
        self,
        *,
        capacity: int,
        executors: int,
        default_deadline: "float | None",
        stats_window: int,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if executors < 1:
            raise ValueError(f"executors must be >= 1, got {executors}")
        self.capacity = capacity
        self.executors = executors
        self.default_deadline = default_deadline
        self._cond = threading.Condition()
        self._queue: list = []
        self._seq = 0
        self._running = False
        self._stopping = False
        self._drain = True
        self._dispatchers: "list[threading.Thread]" = []
        self._counters = dict.fromkeys(
            (
                "submitted", "admitted", "completed", "failed",
                "shed_capacity", "shed_deadline", "shed_shutdown",
                "deadline_exceeded", *self.extra_counters,
            ),
            0,
        )
        self._latencies: "deque[float]" = deque(maxlen=stats_window)

    # -- lifecycle -----------------------------------------------------------

    def start(self):
        """Start the execution side and the dispatch threads (idempotent)."""
        with self._cond:
            if self._running:
                return self
            self._running = True
            self._stopping = False
            self._drain = True
        self._open()
        self._dispatchers = [
            threading.Thread(
                target=self._dispatch_loop,
                name=f"{self.name}-dispatch-{i}",
                daemon=True,
            )
            for i in range(self._dispatch_threads())
        ]
        for thread in self._dispatchers:
            thread.start()
        return self

    def stop(
        self, *, drain: bool = True, timeout: "float | None" = None
    ) -> None:
        """Stop serving; every admitted handle resolves, none is stranded.

        ``drain=True`` finishes queued work first; ``drain=False``
        resolves queued requests with ``AdmissionError("shutdown")`` at
        once. What ``timeout`` bounds, and what happens to requests
        still executing, is the server's ``_close``.
        """
        with self._cond:
            if not self._running:
                return
            self._stopping = True
            self._drain = drain
            if not drain:
                self._shed_locked(self._queue)
                self._queue.clear()
            self._cond.notify_all()
        self._close(drain, timeout)
        with self._cond:
            self._running = False

    def __enter__(self):
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # -- client surface ------------------------------------------------------

    def submit(
        self,
        a: np.ndarray,
        b: np.ndarray,
        *,
        engine: str = "cake",
        deadline: "float | None" = None,
        priority: int = 0,
        verify=False,
        backend: "str | None" = None,
        workers: "int | None" = None,
        processes=None,
    ) -> ResponseHandle:
        """Admit one multiply; returns its handle or sheds structured.

        Validation (engine, shape/dtype, backend capability) happens
        here, synchronously, so a request that can never execute is
        refused with the same structured errors the engines raise — the
        queue only ever holds executable work.
        """
        a = np.asarray(a)
        b = np.asarray(b)
        if engine not in ("cake", "goto"):
            raise ValueError(
                f"engine must be 'cake' or 'goto', got {engine!r}"
            )
        check_multiply_operands(a, b, backend=resolve_backend(backend))
        budget = self.default_deadline if deadline is None else deadline
        with self._cond:
            self._counters["submitted"] += 1
            refusal = self._refusal_locked()
            if refusal is not None:
                raise refusal
            depth, parallel = self._backlog_locked()
            if depth >= self.capacity:
                # While every dispatch thread is busy nothing else
                # expires the queue: a request whose deadline passed
                # must not cost a live one its slot.
                self._expire_queued_locked()
                depth, parallel = self._backlog_locked()
            decision = admission_decision(
                queue_depth=depth,
                capacity=self.capacity,
                deadline_budget=budget,
                executors=parallel,
                # Only a capacity shed reads the estimate (a sort of the
                # latency window), so only a full queue pays for it.
                service_estimate=(
                    percentile(self._latencies, 50.0)
                    if depth >= self.capacity
                    else None
                ),
                stopping=self._stopping or not self._running,
            )
            if decision is not None:
                self._counters["shed_" + decision.reason] += 1
                raise decision
            seq = self._seq
            self._seq += 1
            now = time.monotonic()
            request = MultiplyRequest(
                a=a, b=b, engine=engine, deadline=budget, priority=priority,
                verify=verify, backend=backend, workers=workers,
                processes=processes,
            )
            report = ServeReport(
                request_id=seq, engine=engine, deadline=budget,
                priority=priority, backend=backend, workers=workers,
            )
            handle = ResponseHandle(
                request,
                report,
                None if budget is None else Deadline.after(budget, now=now),
                now,
            )
            self._queue.append(self._entry(seq, handle))
            self._counters["admitted"] += 1
            self._cond.notify_all()
        return handle

    def multiply(self, a: np.ndarray, b: np.ndarray, **kwargs) -> GemmRun:
        """Submit-and-wait convenience: one blocking round trip."""
        return self.submit(a, b, **kwargs).result()

    # -- shared machinery ----------------------------------------------------

    def _dispatch_threads(self) -> int:
        """How many threads run ``_dispatch_loop``: one router by default."""
        return 1

    def _open(self) -> None:
        """Bring up what the dispatch threads execute on (default: nothing)."""

    def _backlog_locked(self) -> "tuple[int, int]":
        """(requests ahead of a new one, requests served in parallel)."""
        return len(self._queue), self.executors

    def _refusal_locked(self) -> "CakeError | None":
        return None

    def _stats_locked(self) -> dict:
        """The stats fields every server reports."""
        return {
            "queue_depth": len(self._queue),
            "capacity": self.capacity,
            "p50_seconds": percentile(self._latencies, 50.0),
            "p99_seconds": percentile(self._latencies, 99.0),
            **self._counters,
        }

    def _finish(
        self,
        handle: ResponseHandle,
        run: "GemmRun | None" = None,
        error: "BaseException | None" = None,
    ) -> bool:
        """Resolve ``handle`` and count the outcome; False if already done."""
        if not handle.resolve(run=run, error=error):
            return False
        with self._cond:
            if error is None:
                self._counters["completed"] += 1
                self._latencies.append(handle.report.total_seconds)
            elif isinstance(error, DeadlineExceededError):
                self._counters["deadline_exceeded"] += 1
            else:
                self._counters["failed"] += 1
        return True

    def _expire_queued_locked(self, now: "float | None" = None) -> None:
        """Resolve queued requests whose deadline passed; free the slots."""
        now = time.monotonic() if now is None else now
        kept = []
        for pending in self._queue:
            if not pending.handle.expired(now):
                kept.append(pending)
            else:
                self._finish(
                    pending.handle,
                    error=pending.handle.deadline_error("queue", now),
                )
        if len(kept) < len(self._queue):
            self._queue[:] = kept
            self._cond.notify_all()

    def _shed_locked(self, pendings: list) -> None:
        """Resolve ``pendings`` with ``AdmissionError("shutdown")``."""
        for pending in pendings:
            error = AdmissionError(
                "shutdown",
                "server stopped before completion",
                len(pendings),
                self.capacity,
                None,
            )
            if pending.handle.resolve(error=error):
                self._counters["shed_shutdown"] += 1
