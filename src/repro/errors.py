"""Exception hierarchy for the repro package.

All library-raised exceptions derive from :class:`CakeError` so callers can
catch one type at the API boundary. ``ValueError``/``TypeError`` are still
raised for plain argument-contract violations where that is the idiomatic
Python behaviour; the subclasses here mark *domain* failures (inconsistent
machine configuration, malformed schedules, simulator protocol violations).
"""

from __future__ import annotations


class CakeError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigurationError(CakeError):
    """A machine spec, block shape, or tiling parameter is inconsistent.

    Examples: a CB block that cannot fit into the last-level cache under the
    LRU sizing rule of Section 4.3; a cache level smaller than one line; a
    core count exceeding what the machine provides.
    """


class BackendCapabilityError(CakeError, TypeError):
    """A compute backend cannot satisfy the requested operation.

    Raised at the API boundary (operand validation, backend selection)
    instead of a bare ``TypeError`` deep in a kernel, so callers can see
    *which* backend refused and why. Subclasses ``TypeError`` because the
    pre-backend operand contract raised that type for dtype rejections —
    existing ``except TypeError`` handlers keep working.

    Attributes
    ----------
    backend:
        Name of the backend that rejected the request (``"numpy"``,
        ``"blas-group"``, or an unknown name).
    dtype:
        The offending accumulation dtype, when the rejection is about
        the operands' dtype; ``None`` otherwise (e.g. an unknown backend
        name).
    """

    def __init__(self, backend: str, message: str, dtype=None):
        self.backend = backend
        self.dtype = dtype
        self._message = message
        super().__init__(f"backend {backend!r}: {message}")

    def __reduce__(self):
        # The multi-argument signature defeats the default exception
        # reduce (which replays only the formatted message); shard and
        # serve workers raise this across process/thread boundaries, so
        # rebuild positionally — ``dtype`` included — and through
        # ``type(self)`` so subclasses round-trip as themselves.
        return (type(self), (self.backend, self._message, self.dtype))


class AdmissionError(CakeError):
    """The serve front door refused a request before queueing it.

    Load shedding is a *feature*: a bounded queue that rejects work it
    cannot finish in time beats an unbounded one that accepts
    everything and strands most of it. The structured payload tells the
    client whether to retry (``reason="capacity"`` plus a
    ``retry_after`` hint) or to give up (``reason="deadline"`` — the
    budget was already spent at submit time; ``reason="shutdown"`` —
    the server is stopping).

    Attributes
    ----------
    reason:
        ``"capacity"``, ``"deadline"`` or ``"shutdown"``.
    queue_depth:
        Requests queued at the moment of rejection.
    capacity:
        The bounded queue's limit.
    retry_after:
        Suggested client backoff in seconds (an estimate from recent
        service latency and the current backlog), or ``None`` when
        retrying cannot help.
    """

    def __init__(
        self,
        reason: str,
        message: str,
        queue_depth: int = 0,
        capacity: int = 0,
        retry_after: "float | None" = None,
    ):
        self.reason = reason
        self.queue_depth = queue_depth
        self.capacity = capacity
        self.retry_after = retry_after
        self._message = message
        hint = (
            f"; retry after {retry_after:.3f}s" if retry_after is not None
            else ""
        )
        super().__init__(
            f"admission refused ({reason}): {message} "
            f"[queue {queue_depth}/{capacity}{hint}]"
        )

    def __reduce__(self):
        return (
            type(self),
            (
                self.reason,
                self._message,
                self.queue_depth,
                self.capacity,
                self.retry_after,
            ),
        )


class DeadlineExceededError(CakeError):
    """A request's deadline expired before a result could be returned.

    The serving contract is *no stale results*: once the budget is
    spent the request terminates with this error whether it was still
    queued, mid-execution, or waiting on a hung shard worker — a late
    product computed after expiry is discarded, never returned.

    Attributes
    ----------
    stage:
        Where the budget ran out: ``"queue"`` (expired before
        execution started), ``"execute"`` (expired while an engine ran
        it), ``"shard"`` (the sharded executor's deadline fired and the
        pool was killed), or ``"result-wait"`` (the waiter's clock
        expired before the server resolved the handle).
    budget:
        The request's deadline budget in seconds, when known.
    elapsed:
        Seconds between submit and expiry, when known.
    """

    def __init__(
        self,
        stage: str,
        budget: "float | None" = None,
        elapsed: "float | None" = None,
    ):
        self.stage = stage
        self.budget = budget
        self.elapsed = elapsed
        detail = ""
        if budget is not None:
            detail += f" budget={budget:.3f}s"
        if elapsed is not None:
            detail += f" elapsed={elapsed:.3f}s"
        super().__init__(f"deadline exceeded during {stage}{detail}")

    def __reduce__(self):
        return (type(self), (self.stage, self.budget, self.elapsed))


class FleetError(CakeError):
    """The serving fleet, as a whole, cannot take or finish a request.

    Distinct from :class:`AdmissionError` (one server's bounded queue
    saying *not now*): a ``FleetError`` means the supervisor layer has
    no healthy worker to hand the request to — every slot is terminal
    after exhausting its restart budget, or the fleet was torn down
    with work still unassigned. Like every serve-path error it is
    pickle-safe, because it crosses the worker/supervisor process
    boundary.

    Attributes
    ----------
    reason:
        ``"no-workers"`` (all worker slots terminal), ``"worker-crash"``
        (see :class:`WorkerCrashError`), or ``"stopped"`` (fleet torn
        down before the request could be dispatched).
    workers:
        Fleet size (configured worker-slot count) at the time of the
        failure, for the operator reading the message.
    """

    def __init__(self, reason: str, message: str, workers: int = 0):
        self.reason = reason
        self.workers = workers
        self._message = message
        super().__init__(
            f"fleet {reason}: {message} [workers={workers}]"
        )

    def __reduce__(self):
        return (type(self), (self.reason, self._message, self.workers))


class WorkerCrashError(FleetError):
    """A fleet worker process died (or hung past its heartbeat) with a
    request in flight, and the re-dispatch budget could not save it.

    The supervisor re-dispatches in-flight requests from a dead worker
    to a healthy one (bit-identity makes re-execution safe); only when
    a request has burned through ``max_redispatch`` workers — or the
    fleet is draining — does it surface this error instead. The
    attributes identify the *last* worker that took the request down
    with it.

    Attributes
    ----------
    worker:
        Slot index of the worker that died.
    pid:
        OS pid of the dead process, when known.
    exitcode:
        Its exit code (negative = killed by that signal), when known.
    restarts:
        How many times that slot had been restarted when it died.
    request_id:
        The content-hash request id that was in flight, or ``None``
        when the crash is being reported for the slot itself.
    """

    def __init__(
        self,
        worker: int,
        pid: "int | None" = None,
        exitcode: "int | None" = None,
        restarts: int = 0,
        request_id: "str | None" = None,
    ):
        self.worker = worker
        self.pid = pid
        self.exitcode = exitcode
        self.restarts = restarts
        self.request_id = request_id
        detail = f"worker {worker} (pid={pid}, exitcode={exitcode}) died"
        if request_id is not None:
            detail += f" holding request {request_id}"
        detail += f" after {restarts} restart(s)"
        super().__init__("worker-crash", detail, workers=0)

    def __reduce__(self):
        return (
            type(self),
            (
                self.worker,
                self.pid,
                self.exitcode,
                self.restarts,
                self.request_id,
            ),
        )


class ProtocolError(CakeError):
    """A ``cake-serve/v1`` frame on the socket front door was malformed.

    Examples: wrong magic bytes, a truncated frame, a header or blob
    over the size limit, or a hello announcing an unknown protocol
    version. The connection is closed after raising; the fleet behind
    it is unaffected.
    """


class ScheduleError(CakeError):
    """A block schedule violates a structural invariant.

    Examples: a schedule that does not cover every block exactly once, or a
    traversal step between non-adjacent blocks where adjacency is required.
    """


class SimulationError(CakeError):
    """The discrete-event or cache simulator reached an invalid state.

    Examples: a packet routed to a module that cannot accept it, an event
    scheduled in the past, or an accumulation arriving for a retired block.
    """
