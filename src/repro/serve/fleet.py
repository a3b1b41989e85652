"""The serving fleet: N supervised worker processes, one front door.

:class:`FleetServer` scales :class:`~repro.serve.server.MultiplyServer`
past one Python process while keeping the whole serving contract: every
answer bit-identical to direct ``cake_matmul`` or a structured
:class:`~repro.errors.CakeError`, every request terminating — through
process death included. The division of labour:

* Each worker process hosts an untouched ``MultiplyServer`` (admission,
  coalescing, deadlines), built and supervised by
  :class:`~repro.serve.supervisor.Supervisor`.
* The fleet owns **routing**: a bounded fleet queue, least-loaded slot
  choice among heartbeat-live workers whose circuit breaker allows
  traffic, and fleet-wide backpressure — ``AdmissionError.retry_after``
  is computed from the *aggregate* depth (fleet queue + every worker's
  last-reported pending count).
* The fleet owns **re-dispatch**: when a worker dies holding requests,
  each in-flight request is either re-queued to a healthy worker (up to
  ``max_redispatch`` times) or resolved with a structured
  :class:`~repro.errors.WorkerCrashError`. Re-execution is safe because
  results are bit-identical by construction, and *at-most-once-answer*
  is enforced by first-wins :class:`~repro.serve.request.ResponseHandle`
  resolution keyed by content-hash request ids — if a presumed-dead
  worker's answer arrives after a re-dispatch already resolved the
  handle, the late answer is discarded.
* Graceful drain: ``stop(drain=True)`` waits (bounded) for in-flight
  work, then resolves anything left with ``AdmissionError("shutdown")``
  — a submit racing shutdown always gets a structured outcome, never a
  hung handle.

Admission, the bounded queue, queued-deadline expiry and the lifecycle
are the :class:`~repro.serve.admission.FrontDoor` both servers share.

:class:`FleetFrontDoor` exposes a fleet over TCP speaking
``cake-serve/v1`` (:mod:`repro.serve.protocol`);
:class:`FleetClient` is the matching stdlib client.
"""

from __future__ import annotations

import socket
import socketserver
import threading
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.errors import (
    AdmissionError,
    FleetError,
    ProtocolError,
    WorkerCrashError,
)
from repro.gemm import budget
from repro.runtime.restart import RestartPolicy
from repro.serve.admission import FrontDoor, Pending
from repro.serve.protocol import (
    PROTOCOL,
    decode_arrays,
    decode_error,
    encode_arrays,
    encode_error,
    recv_frame,
    send_frame,
)
from repro.serve.request import content_seed
from repro.serve.supervisor import Supervisor, WorkerOptions


#: What a worker's report says about executing a request, copied into
#: the fleet's: the request id, status, deadline, queue wait and total
#: time stay the fleet's own.
WORKER_REPORT_FIELDS = (
    "shape_class", "execute_seconds", "backend", "workers", "processes",
)


@dataclass(frozen=True, slots=True)
class FleetStats:
    """A consistent snapshot of fleet-level health and throughput."""

    workers: int
    live_workers: int
    workers_terminal: int
    queue_depth: int
    in_flight: int
    capacity: int
    submitted: int
    admitted: int
    completed: int
    failed: int
    shed_capacity: int
    shed_deadline: int
    shed_shutdown: int
    deadline_exceeded: int
    redispatched: int
    worker_crashes: int
    worker_hangs: int
    worker_restarts: int
    p50_seconds: float
    p99_seconds: float
    worker_states: list = field(default_factory=list)

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(slots=True)
class _FleetPending(Pending):
    """One admitted request while it is queued or assigned."""

    #: Content-hash id: re-dispatching the same request keeps the same
    #: identity, which is what makes duplicate answers from a
    #: presumed-dead worker safely ignorable.
    req_id: str
    redispatches: int = 0


class FleetServer(FrontDoor):
    """Supervised multi-process multiply service (drop-in ``submit``).

    Shares :class:`~repro.serve.admission.FrontDoor` with
    :class:`~repro.serve.server.MultiplyServer` — the same ``submit``,
    ``multiply``, ``start``/``stop`` and counters — so the load
    generator and soak harness drive either interchangeably. The fleet
    adds aggregate-depth admission, slot choice, re-dispatch and the
    supervisor callbacks.

    Each worker's server queue holds ``max_inflight_per_worker``
    requests: slot choice never leaves more than that many unresolved
    on one worker (its queued entries among them), so a worker never
    sheds for capacity.
    """

    name = "cake-fleet"
    extra_counters = ("redispatched", "worker_crashes", "worker_hangs")

    def __init__(
        self,
        machine=None,
        *,
        workers: int = 2,
        capacity: int = 64,
        executors: int = 2,
        max_batch: int = 8,
        cores: "int | None" = None,
        default_deadline: "float | None" = None,
        heartbeat_interval: float = 0.25,
        heartbeat_timeout: float = 2.0,
        startup_timeout: float = 120.0,
        restart_policy: "RestartPolicy | None" = None,
        max_redispatch: int = 2,
        breaker_threshold: int = 3,
        breaker_cooldown: float = 1.0,
        max_inflight_per_worker: int = 4,
        start_method: str = "spawn",
        stats_window: int = 512,
    ) -> None:
        super().__init__(
            capacity=capacity,
            executors=executors,
            default_deadline=default_deadline,
            stats_window=stats_window,
        )
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if max_redispatch < 0:
            raise ValueError(
                f"max_redispatch must be >= 0, got {max_redispatch}"
            )
        if max_inflight_per_worker < 1:
            raise ValueError(
                "max_inflight_per_worker must be >= 1, "
                f"got {max_inflight_per_worker}"
            )
        self.workers = workers
        self.max_redispatch = max_redispatch
        self.max_inflight_per_worker = max_inflight_per_worker
        self._options = WorkerOptions(
            machine=machine,
            capacity=max_inflight_per_worker,
            executors=executors,
            max_batch=max_batch,
            cores=cores,
            default_deadline=default_deadline,
            # Each request then gets cores // (workers * executors).
            host_cores=max(1, budget.cores() // workers),
        )
        self.supervisor = Supervisor(
            workers,
            self._options,
            on_message=self._on_worker_message,
            on_down=self._on_worker_down,
            heartbeat_interval=heartbeat_interval,
            heartbeat_timeout=heartbeat_timeout,
            startup_timeout=startup_timeout,
            restart_policy=restart_policy,
            breaker_threshold=breaker_threshold,
            breaker_cooldown=breaker_cooldown,
            start_method=start_method,
        )
        #: req_id → (slot index, pending); the fleet's in-flight map.
        self._assigned: "dict[str, tuple[int, _FleetPending]]" = {}

    # -- front-door hooks ----------------------------------------------------

    def _entry(self, seq: int, handle) -> _FleetPending:
        request = handle.request
        return _FleetPending(
            seq, handle, f"{seq}:{content_seed(request.a, request.b):08x}"
        )

    def _backlog_locked(self) -> "tuple[int, int]":
        """Aggregate depth: fleet queue, assignments, every worker's own."""
        depth = (
            len(self._queue)
            + len(self._assigned)
            + self.supervisor.pending_total()
        )
        return depth, self.workers * self.executors

    def _refusal_locked(self) -> "FleetError | None":
        if self.supervisor.all_terminal() and not self._stopping:
            return self._no_workers()
        return None

    def _no_workers(self) -> FleetError:
        return FleetError(
            "no-workers",
            "every worker slot exhausted its restart budget",
            self.workers,
        )

    def _open(self) -> None:
        self.supervisor.start()

    def _close(self, drain: bool, timeout: "float | None") -> None:
        """Wait (bounded by ``timeout``, default 30 s) for queued and
        in-flight requests when draining; shed whatever remains with
        ``AdmissionError("shutdown")`` before the workers are torn down.
        """
        deadline = time.monotonic() + (30.0 if timeout is None else timeout)
        with self._cond:
            while (
                drain
                and (self._queue or self._assigned)
                and time.monotonic() < deadline
            ):
                self._cond.wait(timeout=0.05)
            leftovers = self._queue + [p for _, p in self._assigned.values()]
            self._queue.clear()
            self._assigned.clear()
            self._shed_locked(leftovers)
            self._cond.notify_all()
        self.supervisor.stop()
        for thread in self._dispatchers:
            thread.join(5.0)

    # -- client surface ------------------------------------------------------

    def stats(self) -> FleetStats:
        snapshot = self.supervisor.snapshot()
        live = sum(
            1 for s in snapshot if s["state"] in ("ready", "starting")
        )
        terminal = sum(1 for s in snapshot if s["state"] == "terminal")
        restarts = sum(s["restarts"] for s in snapshot)
        with self._cond:
            return FleetStats(
                workers=self.workers,
                live_workers=live,
                workers_terminal=terminal,
                in_flight=len(self._assigned),
                worker_restarts=restarts,
                worker_states=snapshot,
                **self._stats_locked(),
            )

    # -- chaos passthroughs (fault injection for soak/tests) -----------------

    def kill_worker(self, index: int) -> None:
        self.supervisor.kill_worker(index)

    def hang_worker(self, index: int, seconds: float) -> None:
        self.supervisor.hang_worker(index, seconds)

    # -- dispatch ------------------------------------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            with self._cond:
                if self._stopping and not self._queue:
                    return
                if not self._queue:
                    self._cond.wait(timeout=0.05)
                    continue
                now = time.monotonic()
                self._expire_queued_locked(now)
                if not self._queue:
                    continue
                if self.supervisor.all_terminal():
                    # No worker will ever come back: fail queued work
                    # structurally instead of letting deadlines burn.
                    error = self.supervisor.slot_error(0) or self._no_workers()
                    for pending in self._queue:
                        self._finish(pending.handle, error=error)
                    self._queue.clear()
                    self._cond.notify_all()
                    continue
                slot = self._pick_slot_locked(now)
                if slot is None:
                    self._cond.wait(timeout=0.02)
                    continue
                pending = self._pop_next_locked()
                self._assigned[pending.req_id] = (slot, pending)
                # The fleet's own queue wait, submit to this send: a
                # re-dispatched request counts its time back in the queue.
                handle = pending.handle
                handle.report.queue_seconds = (
                    time.monotonic() - handle.submitted_at
                )
            # Send outside the fleet lock: pipes can block.
            if not self._dispatch_one(slot, pending):
                with self._cond:
                    # The worker died between pick and send; requeue
                    # without burning the re-dispatch budget (the
                    # request never reached a worker).
                    if self._assigned.pop(pending.req_id, None) is not None:
                        self._queue.insert(0, pending)
                        self._cond.notify_all()

    def _pick_slot_locked(self, now: float) -> "int | None":
        """Least-loaded READY worker whose breaker admits traffic."""
        loads: "dict[int, int]" = {}
        for index, _ in self._assigned.values():
            loads[index] = loads.get(index, 0) + 1
        best = None
        best_load = None
        for index in self.supervisor.ready_indices():
            if not self.supervisor.breaker(index).allows(now):
                continue
            load = loads.get(index, 0)
            if load >= self.max_inflight_per_worker:
                continue
            if best_load is None or load < best_load:
                best, best_load = index, load
        return best

    def _pop_next_locked(self) -> _FleetPending:
        best = 0
        for i in range(1, len(self._queue)):
            if self._queue[i].request.priority > self._queue[best].request.priority:
                best = i
        return self._queue.pop(best)

    def _dispatch_one(self, slot: int, pending: _FleetPending) -> bool:
        request = pending.request
        remaining = None
        if pending.handle.deadline is not None:
            remaining = pending.handle.deadline.remaining()
        payload = {
            "a": request.a,
            "b": request.b,
            "engine": request.engine,
            "deadline": remaining,
            "priority": request.priority,
            "verify": request.verify,
            "backend": request.backend,
            "workers": request.workers,
            "processes": request.processes,
        }
        return self.supervisor.send_exec(slot, pending.req_id, payload)

    # -- supervisor callbacks ------------------------------------------------

    def _on_worker_message(self, index: int, msg) -> None:
        if msg[0] != "result":
            return
        req_id, status, payload, worker_report = msg[1:5]
        with self._cond:
            entry = self._assigned.pop(req_id, None)
            if entry is None:
                # Late duplicate: a presumed-dead worker answered after
                # re-dispatch. First-wins resolution already guarantees
                # at-most-once-answer; nothing to do.
                return
            handle = entry[1].handle
            if worker_report is not None and not handle.done():
                for name in WORKER_REPORT_FIELDS:
                    setattr(handle.report, name, worker_report[name])
            self.supervisor.breaker(index).record_success()
            if status == "ok" and handle.expired():
                error = handle.deadline_error("result-wait")
                self._finish(handle, error=error)
            elif status == "ok":
                self._finish(handle, run=payload)
            elif isinstance(payload, AdmissionError) and payload.reason == (
                "deadline"
            ):
                # The worker's own admission shed it for a spent budget:
                # surface the fleet-level truth (the budget ran out in
                # transit/queue), not a nested admission.
                self._finish(handle, error=handle.deadline_error("queue"))
            else:
                self._finish(handle, error=payload)
            self._cond.notify_all()

    def _on_worker_down(
        self, index: int, cause: str, error: WorkerCrashError, terminal: bool
    ) -> None:
        """Re-dispatch or structurally fail a dead worker's requests."""
        with self._cond:
            if cause == "hang":
                self._counters["worker_hangs"] += 1
            else:
                self._counters["worker_crashes"] += 1
            self.supervisor.breaker(index).record_failure()
            victims = [
                (req_id, pending)
                for req_id, (slot, pending) in self._assigned.items()
                if slot == index
            ]
            for req_id, pending in victims:
                del self._assigned[req_id]
                handle = pending.handle
                if handle.done():
                    continue
                if handle.expired():
                    error = handle.deadline_error("execute")
                    self._finish(handle, error=error)
                elif (
                    pending.redispatches < self.max_redispatch
                    and not self._stopping
                ):
                    pending.redispatches += 1
                    self._counters["redispatched"] += 1
                    self._queue.insert(0, pending)
                else:
                    crash = WorkerCrashError(
                        worker=error.worker,
                        pid=error.pid,
                        exitcode=error.exitcode,
                        restarts=error.restarts,
                        request_id=req_id,
                    )
                    self._finish(handle, error=crash)
            self._cond.notify_all()


# -- socket front door -------------------------------------------------------


class _FrontDoorHandler(socketserver.BaseRequestHandler):
    """One connection: hello handshake, then exec frames until EOF."""

    def handle(self) -> None:  # noqa: C901 - linear protocol walk
        sock = self.request
        fleet: FleetServer = self.server.fleet  # type: ignore[attr-defined]
        try:
            frame = recv_frame(sock)
            if frame is None:
                return
            header, _ = frame
            if header.get("kind") != "hello" or header.get("proto") != (
                PROTOCOL
            ):
                raise ProtocolError(
                    f"expected hello for {PROTOCOL}, got {header!r}"
                )
            send_frame(
                sock,
                {
                    "kind": "hello",
                    "proto": PROTOCOL,
                    "workers": fleet.workers,
                },
            )
            while True:
                frame = recv_frame(sock)
                if frame is None:
                    return
                header, blob = frame
                if header.get("kind") != "exec":
                    raise ProtocolError(
                        f"unexpected frame kind {header.get('kind')!r}"
                    )
                self._serve_one(sock, fleet, header, blob)
        except ProtocolError as exc:
            self._try_send_error(sock, exc)
        except (BrokenPipeError, ConnectionResetError, OSError):
            pass

    def _serve_one(
        self, sock, fleet: FleetServer, header: dict, blob: bytes
    ) -> None:
        remote_id = header.get("id")
        try:
            a, b = decode_arrays(header["arrays"], blob)
            handle = fleet.submit(
                a,
                b,
                engine=header.get("engine", "cake"),
                deadline=header.get("deadline"),
                priority=int(header.get("priority", 0)),
                backend=header.get("backend"),
                workers=header.get("workers"),
            )
            run = handle.result(
                timeout=self.server.result_timeout  # type: ignore[attr-defined]
            )
        except ProtocolError:
            raise
        except BaseException as exc:  # noqa: BLE001 - crosses the wire
            send_frame(
                sock,
                {"kind": "error", "id": remote_id, "error": encode_error(exc)},
            )
            return
        manifest, out_blob = encode_arrays([run.c])
        send_frame(
            sock,
            {
                "kind": "result",
                "id": remote_id,
                "arrays": manifest,
                "report": handle.report.as_dict(),
            },
            out_blob,
        )

    def _try_send_error(self, sock, exc: BaseException) -> None:
        try:
            send_frame(sock, {"kind": "error", "error": encode_error(exc)})
        except OSError:
            pass


class FleetFrontDoor:
    """TCP front door for a fleet, speaking ``cake-serve/v1``.

    Thread-per-connection (stdlib :class:`socketserver`); each request
    frame blocks its connection until the fleet resolves the handle, so
    concurrency comes from concurrent connections — matching the
    one-multiply-at-a-time shape of the client API.
    """

    def __init__(
        self,
        fleet: FleetServer,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        result_timeout: float = 300.0,
    ) -> None:
        class _Server(socketserver.ThreadingTCPServer):
            daemon_threads = True
            allow_reuse_address = True

        self.fleet = fleet
        self._server = _Server((host, port), _FrontDoorHandler)
        self._server.fleet = fleet  # type: ignore[attr-defined]
        self._server.result_timeout = result_timeout  # type: ignore[attr-defined]
        self._thread: "threading.Thread | None" = None

    @property
    def address(self) -> "tuple[str, int]":
        return self._server.server_address[:2]

    def start(self) -> "FleetFrontDoor":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._server.serve_forever,
                name="cake-fleet-frontdoor",
                daemon=True,
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(5.0)
            self._thread = None

    def __enter__(self) -> "FleetFrontDoor":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()


@dataclass(frozen=True, slots=True)
class RemoteRun:
    """What a remote multiply returns: the product + the serve report."""

    c: np.ndarray
    report: dict


class FleetClient:
    """Stdlib TCP client for :class:`FleetFrontDoor`.

    One connection, sequential requests; structured serve errors are
    rebuilt client-side as the same exception types the in-process API
    raises (:func:`repro.serve.protocol.decode_error`).
    """

    def __init__(
        self, host: str, port: int, *, timeout: float = 300.0
    ) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._seq = 0
        send_frame(self._sock, {"kind": "hello", "proto": PROTOCOL})
        frame = recv_frame(self._sock)
        if frame is None:
            raise ProtocolError("server closed during hello")
        header, _ = frame
        if header.get("kind") == "error":
            raise decode_error(header["error"])
        if header.get("proto") != PROTOCOL:
            raise ProtocolError(
                f"server speaks {header.get('proto')!r}, want {PROTOCOL!r}"
            )

    def multiply(
        self,
        a: np.ndarray,
        b: np.ndarray,
        *,
        engine: str = "cake",
        deadline: "float | None" = None,
        priority: int = 0,
        backend: "str | None" = None,
        workers: "int | None" = None,
    ) -> RemoteRun:
        self._seq += 1
        manifest, blob = encode_arrays([np.asarray(a), np.asarray(b)])
        send_frame(
            self._sock,
            {
                "kind": "exec",
                "id": self._seq,
                "arrays": manifest,
                "engine": engine,
                "deadline": deadline,
                "priority": priority,
                "backend": backend,
                "workers": workers,
            },
            blob,
        )
        frame = recv_frame(self._sock)
        if frame is None:
            raise ProtocolError("server closed before responding")
        header, out_blob = frame
        if header.get("kind") == "error":
            raise decode_error(header["error"])
        if header.get("kind") != "result":
            raise ProtocolError(
                f"unexpected frame kind {header.get('kind')!r}"
            )
        (c,) = decode_arrays(header["arrays"], out_blob)
        return RemoteRun(c=c, report=header.get("report", {}))

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "FleetClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
