"""Request, response-handle and per-request report types for serving.

A client interacts with the server through exactly two objects: the
:class:`MultiplyRequest` it submits (operands plus the service contract
— deadline, priority, verification, backend) and the
:class:`ResponseHandle` it gets back, a future-like object whose
``result()`` blocks until the server resolves it with a
:class:`~repro.gemm.result.GemmRun` or a structured error. Every handle
also carries a :class:`ServeReport` recording what the server actually
did — queueing time, batch, execute time, and the backend, workers and
processes that ran it — so a response is auditable without trusting
logs.

Resolution is **first-wins and final**: an executor racing a
client-side deadline can never overwrite an already-resolved handle, so
a request that expired can never later surface a stale product.
"""

from __future__ import annotations

import threading
import time
import zlib
from dataclasses import dataclass

import numpy as np

from repro.errors import DeadlineExceededError
from repro.gemm.result import GemmRun
from repro.gemm.sharded import ShardConfig
from repro.gemm.verify import VerifyConfig
from repro.runtime.deadline import Deadline


def content_seed(a: np.ndarray, b: np.ndarray) -> int:
    """A stable seed derived from the operands' content.

    The fleet's request ids carry it (:mod:`repro.serve.fleet`), so a
    re-dispatched request keeps its identity. Hashing the full operands
    would cost a pass over the data per request; shape/dtype plus a
    corner sample is stable, cheap, and decorrelated enough across
    requests.
    """
    descriptor = repr(
        (a.shape, a.dtype.str, b.shape, b.dtype.str)
    ).encode()
    seed = zlib.crc32(descriptor)
    for operand in (a, b):
        if operand.size:
            corner = np.ascontiguousarray(operand[:4, :4])
            seed = zlib.crc32(corner.tobytes(), seed)
    return seed


@dataclass(frozen=True, slots=True)
class MultiplyRequest:
    """One multiply submitted to the server.

    Attributes
    ----------
    a, b:
        2-D floating-point operands with matching inner dimension
        (any layout; every backend takes every float dtype).
    engine:
        ``"cake"`` or ``"goto"``.
    deadline:
        Budget in seconds from submit, or ``None`` for the server
        default (possibly unbounded). A non-positive budget is shed at
        admission; an expired one terminates with
        :class:`~repro.errors.DeadlineExceededError`, never a stale
        result.
    priority:
        Higher runs earlier among queued requests; ties preserve
        submission order.
    verify:
        ABFT verified execution, as on the engines (``True``/``False``
        or a :class:`~repro.gemm.verify.VerifyConfig`).
    backend:
        Registered backend name, or ``None`` for the numpy oracle.
    workers:
        Threads inside the executing engine (``None``: the core budget's
        default within the executor's share of the host,
        :mod:`repro.gemm.budget`).
    processes:
        Shard processes (``None``/1: in-process). A per-request
        :class:`~repro.gemm.sharded.ShardConfig` deadline is derived
        from ``deadline`` automatically.
    """

    a: np.ndarray
    b: np.ndarray
    engine: str = "cake"
    deadline: float | None = None
    priority: int = 0
    verify: "bool | VerifyConfig" = False
    backend: str | None = None
    workers: int | None = None
    processes: "int | ShardConfig | None" = None


@dataclass(slots=True)
class ServeReport:
    """What the server did with one request (attached to its handle)."""

    request_id: int
    shape_class: str = ""
    engine: str = "cake"
    status: str = "pending"  # pending | ok | failed | deadline | shed
    error: str | None = None
    deadline: float | None = None
    priority: int = 0
    queue_seconds: float = 0.0
    execute_seconds: float = 0.0
    total_seconds: float = 0.0
    batch_size: int = 1
    backend: str | None = None
    workers: int | None = None
    processes: int = 1

    def as_dict(self) -> dict:
        return {
            "request_id": self.request_id,
            "shape_class": self.shape_class,
            "engine": self.engine,
            "status": self.status,
            "error": self.error,
            "deadline": self.deadline,
            "priority": self.priority,
            "queue_seconds": self.queue_seconds,
            "execute_seconds": self.execute_seconds,
            "total_seconds": self.total_seconds,
            "batch_size": self.batch_size,
            "backend": self.backend,
            "workers": self.workers,
            "processes": self.processes,
        }


class ResponseHandle:
    """A future for one admitted request.

    ``result()`` blocks until the server resolves the handle — with
    a :class:`~repro.gemm.result.GemmRun` or a structured error — or
    until the request's deadline passes, whichever is first. Expiry on
    the waiter's side resolves the handle itself (first-wins), so a
    client is never stranded by an executor that got wedged: the
    deadline is enforced by the party holding the clock, not the party
    being timed.
    """

    def __init__(
        self,
        request: MultiplyRequest,
        report: ServeReport,
        deadline: Deadline | None,
        submitted_at: float,
    ) -> None:
        self.request = request
        self.report = report
        self.deadline = deadline
        self.submitted_at = submitted_at
        self._event = threading.Event()
        self._lock = threading.Lock()
        self._run: GemmRun | None = None
        self._error: BaseException | None = None

    def done(self) -> bool:
        """Whether the handle has been resolved (result or error)."""
        return self._event.is_set()

    @property
    def error(self) -> BaseException | None:
        """The terminal error, or ``None`` (unresolved or succeeded)."""
        return self._error

    def resolve(
        self,
        run: GemmRun | None = None,
        error: BaseException | None = None,
    ) -> bool:
        """Terminate the handle; returns False if already resolved.

        First resolution wins and is final — the no-stale-results
        guarantee rests on this being the only mutation path.
        """
        if run is None and error is None:
            raise ValueError("resolve needs a run or an error")
        with self._lock:
            if self._event.is_set():
                return False
            self._run = run
            self._error = error
            now = time.monotonic()
            self.report.total_seconds = now - self.submitted_at
            if error is None:
                self.report.status = "ok"
            else:
                self.report.error = type(error).__name__
                if isinstance(error, DeadlineExceededError):
                    self.report.status = "deadline"
                else:
                    self.report.status = "failed"
            self._event.set()
            return True

    def expired(self, now: float | None = None) -> bool:
        """Whether this request's deadline has passed."""
        return self.deadline is not None and self.deadline.expired(now)

    def deadline_error(
        self, stage: str, now: float | None = None
    ) -> DeadlineExceededError:
        """The error for this request's budget running out at ``stage``."""
        now = time.monotonic() if now is None else now
        return DeadlineExceededError(
            stage,
            budget=None if self.deadline is None else self.deadline.budget,
            elapsed=now - self.submitted_at,
        )

    def result(self, timeout: float | None = None) -> GemmRun:
        """Block for the product; raise the structured terminal error.

        ``timeout`` bounds this *call* (raising a plain ``TimeoutError``
        without resolving the handle); the request's own deadline
        resolves the handle with
        :class:`~repro.errors.DeadlineExceededError` when it passes
        first.
        """
        call_deadline = (
            None if timeout is None else Deadline.after(timeout)
        )
        while not self._event.is_set():
            now = time.monotonic()
            waits = []
            if self.deadline is not None:
                remaining = self.deadline.remaining(now)
                if remaining == 0.0:
                    self.resolve(error=self.deadline_error("result-wait", now))
                    break
                waits.append(remaining)
            if call_deadline is not None:
                remaining = call_deadline.remaining(now)
                if remaining == 0.0:
                    raise TimeoutError(
                        f"no response within the {timeout}s wait "
                        f"(request still pending)"
                    )
                waits.append(remaining)
            self._event.wait(timeout=min(waits) if waits else None)
        if self._error is not None:
            raise self._error
        assert self._run is not None
        return self._run
