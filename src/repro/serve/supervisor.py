"""Worker-process supervision: heartbeats, crash/hang detection, restarts.

The fleet's robustness story lives here, deliberately separated from
request routing (:mod:`repro.serve.fleet`). A :class:`Supervisor` owns N
worker *slots*; each slot runs :func:`worker_main` in its own spawned
process hosting a full :class:`~repro.serve.server.MultiplyServer` —
admission, coalescing, deadlines and all — and talks to the
parent over a duplex :func:`multiprocessing.Pipe`.

Per slot the supervisor runs the classic state machine::

    STARTING ──ready──▶ READY ──crash/hang──▶ RESTARTING ──▶ STARTING
        │                  │                       │
        └──────────────────┴── budget exhausted ──▶ TERMINAL

* **Liveness** is active: a ping thread sends ``("ping", seq)`` every
  ``heartbeat_interval``; the worker answers ``("pong", seq, pending)``
  from its control loop. No pong for ``heartbeat_timeout`` seconds
  means the process is hung (even if the OS still shows it alive) and
  it is killed and restarted exactly like a crash.
* **Crash detection** is passive: the receiver thread sees EOF on the
  pipe the moment the child dies, no polling latency.
* **Restarts** walk the shared capped-backoff ladder
  (:class:`~repro.runtime.restart.RestartTracker` — the same machinery
  as the shard executor's pool rebuilds), with a health reset so a
  long-lived worker that dies occasionally is not marched toward
  TERMINAL by sheer uptime. An exhausted budget is *structured*: the
  slot goes TERMINAL and the fleet is told via ``on_down(...,
  terminal=True)``.

The supervisor never touches request semantics — it reports worker
death upward (``on_down``) and forwards worker messages upward
(``on_message``); the fleet decides what re-dispatch means. Callbacks
are invoked **without** the supervisor lock held; lock order is always
fleet-lock → supervisor-lock, never the reverse.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import threading
import time
from dataclasses import dataclass, field

from repro.errors import CakeError, WorkerCrashError
from repro.runtime.restart import RestartPolicy, RestartTracker

#: Slot states (strings for cheap snapshots / JSON reports).
STARTING = "starting"
READY = "ready"
RESTARTING = "restarting"
TERMINAL = "terminal"
STOPPED = "stopped"


@dataclass(frozen=True)
class WorkerOptions:
    """Picklable constructor bundle for the per-worker MultiplyServer.

    ``machine=None`` resolves to the default machine *inside* the
    worker; a custom :class:`~repro.machine.MachineSpec` is a frozen
    dataclass and pickles fine across spawn. ``host_cores`` is the
    worker's share of the host's usable cores (``None``: all of them);
    its server divides the share among its executors.
    """

    machine: object = None
    capacity: int = 16
    executors: int = 2
    max_batch: int = 8
    cores: "int | None" = None
    default_deadline: "float | None" = None
    result_timeout: float = 300.0
    host_cores: "int | None" = None


def worker_main(conn, index: int, options: WorkerOptions) -> None:
    """Entry point of one worker process (top-level: spawn pickles it).

    Runs a MultiplyServer and a control loop over the pipe:

    * ``("ping", seq)`` → ``("pong", seq, pending_count)``
    * ``("exec", req_id, kwargs)`` → submit to the local server; a
      daemon waiter thread sends ``("result", req_id, "ok", run,
      report)`` or ``("result", req_id, "error", exc, report)`` when the
      handle resolves, ``report`` being the worker's
      :class:`~repro.serve.request.ServeReport` as a dict (``None`` when
      the local server refused the submit).
    * ``("hang", seconds)`` → sleep in the control loop (fault
      injection: heartbeats stop, the supervisor must notice).
    * ``("die",)`` → ``os._exit`` (fault injection: hard crash).
    * ``("stop",)`` → drain=False server stop, then exit.
    """
    from repro.gemm.budget import core_share
    from repro.serve.server import MultiplyServer

    with core_share(options.host_cores):
        server = MultiplyServer(
            options.machine,
            capacity=options.capacity,
            executors=options.executors,
            max_batch=options.max_batch,
            cores=options.cores,
            default_deadline=options.default_deadline,
        )
    server.start()
    send_lock = threading.Lock()

    def send(msg) -> None:
        # One pipe, many waiter threads: serialize sends, and never let
        # an unpicklable payload kill the worker — degrade it to a
        # structured CakeError instead.
        try:
            with send_lock:
                conn.send(msg)
        except (BrokenPipeError, OSError):
            pass
        except (pickle.PicklingError, TypeError, AttributeError):
            if msg and msg[0] == "result":
                fallback = CakeError(
                    f"worker {index}: result for {msg[1]} not picklable"
                )
                with send_lock:
                    conn.send((msg[0], msg[1], "error", fallback, msg[4]))

    def wait_and_send(req_id: str, handle) -> None:
        try:
            run = handle.result(timeout=options.result_timeout)
        except BaseException as exc:  # noqa: BLE001 - forwarded upward
            send(("result", req_id, "error", exc, handle.report.as_dict()))
            return
        send(("result", req_id, "ok", run, handle.report.as_dict()))

    send(("ready", index, os.getpid()))
    try:
        while True:
            if not conn.poll(0.2):
                continue
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            kind = msg[0]
            if kind == "ping":
                send(("pong", msg[1], server.pending_count()))
            elif kind == "exec":
                req_id, kwargs = msg[1], msg[2]
                try:
                    handle = server.submit(
                        kwargs.pop("a"), kwargs.pop("b"), **kwargs
                    )
                except BaseException as exc:  # noqa: BLE001
                    send(("result", req_id, "error", exc, None))
                    continue
                threading.Thread(
                    target=wait_and_send,
                    args=(req_id, handle),
                    daemon=True,
                ).start()
            elif kind == "hang":
                time.sleep(msg[1])
            elif kind == "die":
                os._exit(17)
            elif kind == "stop":
                break
    finally:
        server.stop(drain=False)


class CircuitBreaker:
    """Per-worker trip wire: shed to siblings before hammering a flake.

    ``threshold`` consecutive failures open the breaker for
    ``cooldown`` seconds; a success closes it. The fleet consults
    :meth:`allows` when choosing a slot, so a worker that keeps dying
    stops receiving traffic before its restart budget runs out.
    """

    def __init__(self, threshold: int = 3, cooldown: float = 1.0) -> None:
        self.threshold = threshold
        self.cooldown = cooldown
        self.failures = 0
        self.open_until = 0.0

    def record_failure(self, now: "float | None" = None) -> None:
        now = time.monotonic() if now is None else now
        self.failures += 1
        if self.failures >= self.threshold:
            self.open_until = now + self.cooldown

    def record_success(self) -> None:
        self.failures = 0
        self.open_until = 0.0

    def allows(self, now: "float | None" = None) -> bool:
        now = time.monotonic() if now is None else now
        return now >= self.open_until


@dataclass
class _Slot:
    """One worker slot: process + channel + ladder + liveness clock."""

    index: int
    state: str = STARTING
    process: object = None
    conn: object = None
    pid: "int | None" = None
    generation: int = 0
    started_at: float = 0.0
    ready_at: float = 0.0
    last_pong: float = 0.0
    restart_at: float = 0.0
    pending: int = 0
    tracker: RestartTracker = None
    breaker: CircuitBreaker = field(default_factory=CircuitBreaker)
    last_error: "WorkerCrashError | None" = None


class Supervisor:
    """Owns N worker slots; detects death, restarts with capped backoff.

    ``on_message(index, msg)`` forwards worker traffic (results) to the
    fleet; ``on_down(index, cause, error, terminal)`` reports a lost
    worker so the fleet can re-dispatch its in-flight requests. Both
    are called from supervisor threads with **no supervisor lock held**.
    """

    def __init__(
        self,
        workers: int,
        options: WorkerOptions,
        *,
        on_message=None,
        on_down=None,
        heartbeat_interval: float = 0.25,
        heartbeat_timeout: float = 2.0,
        startup_timeout: float = 120.0,
        restart_policy: "RestartPolicy | None" = None,
        breaker_threshold: int = 3,
        breaker_cooldown: float = 1.0,
        start_method: str = "spawn",
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if heartbeat_timeout <= heartbeat_interval:
            raise ValueError(
                "heartbeat_timeout must exceed heartbeat_interval"
            )
        self.workers = workers
        self.options = options
        self.on_message = on_message or (lambda index, msg: None)
        self.on_down = on_down or (lambda index, cause, error, terminal: None)
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self.startup_timeout = startup_timeout
        self.restart_policy = restart_policy or RestartPolicy()
        # spawn, not fork: the parent runs router and executor threads,
        # and forking a threaded process can deadlock in the child.
        self._ctx = mp.get_context(start_method)
        self._lock = threading.Lock()
        self._slots = [
            _Slot(
                index=i,
                tracker=RestartTracker(self.restart_policy, seed=i),
                breaker=CircuitBreaker(breaker_threshold, breaker_cooldown),
            )
            for i in range(workers)
        ]
        self._send_locks = [threading.Lock() for _ in range(workers)]
        self._running = False
        self._threads: list[threading.Thread] = []

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "Supervisor":
        with self._lock:
            if self._running:
                return self
            self._running = True
        for slot in self._slots:
            self._launch(slot)
        for target, name in (
            (self._ping_loop, "cake-fleet-ping"),
            (self._monitor_loop, "cake-fleet-monitor"),
        ):
            thread = threading.Thread(target=target, name=name, daemon=True)
            thread.start()
            self._threads.append(thread)
        return self

    def stop(self, timeout: float = 10.0) -> None:
        with self._lock:
            if not self._running:
                return
            self._running = False
            slots = list(self._slots)
        for slot in slots:
            self._send(slot, ("stop",))
        deadline = time.monotonic() + timeout
        for slot in slots:
            process = slot.process
            if process is None:
                continue
            process.join(max(0.0, deadline - time.monotonic()))
            if process.is_alive():
                process.terminate()
                process.join(2.0)
            if process.is_alive():  # pragma: no cover - last resort
                process.kill()
                process.join(1.0)
            with self._lock:
                slot.state = STOPPED
        for thread in self._threads:
            thread.join(2.0)

    # -- queries -------------------------------------------------------------

    def ready_indices(self) -> "list[int]":
        with self._lock:
            return [s.index for s in self._slots if s.state == READY]

    def live_count(self) -> int:
        with self._lock:
            return sum(
                1 for s in self._slots if s.state in (READY, STARTING)
            )

    def all_terminal(self) -> bool:
        with self._lock:
            return all(s.state == TERMINAL for s in self._slots)

    def pending_total(self) -> int:
        """Sum of last-reported per-worker pending counts (pong payload)."""
        with self._lock:
            return sum(s.pending for s in self._slots if s.state == READY)

    def total_restarts(self) -> int:
        with self._lock:
            return sum(s.tracker.total_restarts for s in self._slots)

    def breaker(self, index: int) -> CircuitBreaker:
        return self._slots[index].breaker

    def slot_error(self, index: int) -> "WorkerCrashError | None":
        with self._lock:
            return self._slots[index].last_error

    def snapshot(self) -> "list[dict]":
        with self._lock:
            return [
                {
                    "index": s.index,
                    "state": s.state,
                    "pid": s.pid,
                    "generation": s.generation,
                    "restarts": s.tracker.total_restarts,
                    "pending": s.pending,
                }
                for s in self._slots
            ]

    # -- worker I/O ----------------------------------------------------------

    def send_exec(self, index: int, req_id: str, payload: dict) -> bool:
        """Dispatch one request to a worker; False if the send failed.

        A failed send means the worker just died — the receiver thread
        will see EOF and run the full ``on_down`` path; the caller only
        needs to keep the request queued.
        """
        return self._send(self._slots[index], ("exec", req_id, payload))

    def kill_worker(self, index: int) -> None:
        """Fault injection: SIGKILL the slot's process (no cleanup)."""
        process = self._slots[index].process
        if process is not None and process.is_alive():
            process.kill()

    def hang_worker(self, index: int, seconds: float) -> None:
        """Fault injection: stall the worker's control loop (no pongs)."""
        self._send(self._slots[index], ("hang", seconds))

    def _send(self, slot: _Slot, msg) -> bool:
        conn = slot.conn
        if conn is None:
            return False
        try:
            with self._send_locks[slot.index]:
                conn.send(msg)
            return True
        except (BrokenPipeError, OSError, ValueError):
            return False

    # -- slot machinery ------------------------------------------------------

    def _launch(self, slot: _Slot) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        with self._lock:
            slot.generation += 1
            generation = slot.generation
            slot.conn = parent_conn
            slot.state = STARTING
            slot.started_at = time.monotonic()
            slot.last_pong = slot.started_at
            slot.pending = 0
            process = self._ctx.Process(
                target=worker_main,
                args=(child_conn, slot.index, self.options),
                name=f"cake-fleet-worker-{slot.index}",
                daemon=True,
            )
            slot.process = process
        process.start()
        # Close the child's pipe end in the parent: otherwise EOF is
        # never delivered when the child dies and crashes go unnoticed.
        child_conn.close()
        receiver = threading.Thread(
            target=self._receive_loop,
            args=(slot, generation, parent_conn),
            name=f"cake-fleet-recv-{slot.index}",
            daemon=True,
        )
        receiver.start()

    def _receive_loop(self, slot: _Slot, generation: int, conn) -> None:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                self._worker_lost(slot, generation, "crash")
                return
            with self._lock:
                if slot.generation != generation:
                    return  # stale receiver from a replaced process
                kind = msg[0]
                if kind == "ready":
                    slot.state = READY
                    slot.pid = msg[2]
                    slot.ready_at = time.monotonic()
                    slot.last_pong = slot.ready_at
                    continue
                if kind == "pong":
                    slot.last_pong = time.monotonic()
                    slot.pending = msg[2]
                    continue
            # "result" frames go upward without any supervisor lock.
            self.on_message(slot.index, msg)

    def _ping_loop(self) -> None:
        while True:
            time.sleep(self.heartbeat_interval)
            with self._lock:
                if not self._running:
                    return
                targets = [s for s in self._slots if s.state == READY]
            for slot in targets:
                self._send(slot, ("ping", time.monotonic()))

    def _monitor_loop(self) -> None:
        while True:
            time.sleep(self.heartbeat_interval / 2)
            now = time.monotonic()
            hung = []
            relaunch = []
            with self._lock:
                if not self._running:
                    return
                for slot in self._slots:
                    if (
                        slot.state == READY
                        and now - slot.last_pong > self.heartbeat_timeout
                    ):
                        hung.append((slot, slot.generation))
                    elif (
                        slot.state == STARTING
                        and now - slot.started_at > self.startup_timeout
                    ):
                        hung.append((slot, slot.generation))
                    elif (
                        slot.state == RESTARTING and now >= slot.restart_at
                    ):
                        relaunch.append(slot)
            for slot, generation in hung:
                self._worker_lost(slot, generation, "hang")
            for slot in relaunch:
                self._launch(slot)

    def _worker_lost(self, slot: _Slot, generation: int, cause: str) -> None:
        """One worker death: tear down, schedule restart (or TERMINAL).

        Idempotent per generation — the receiver's EOF and the
        monitor's hang verdict can both fire for the same death; only
        the first claims the generation.
        """
        with self._lock:
            if slot.generation != generation or slot.state in (
                RESTARTING,
                TERMINAL,
                STOPPED,
            ):
                return
            if not self._running:
                slot.state = STOPPED
                return
            process = slot.process
            pid = slot.pid
            healthy = (
                time.monotonic() - slot.ready_at
                if slot.state == READY
                else 0.0
            )
            slot.state = RESTARTING
        if process is not None:
            process.terminate()
            process.join(2.0)
            if process.is_alive():
                process.kill()
                process.join(1.0)
        exitcode = None if process is None else process.exitcode
        with self._lock:
            slot.tracker.note_healthy_seconds(healthy)
            delay = slot.tracker.next_delay()
            error = WorkerCrashError(
                worker=slot.index,
                pid=pid,
                exitcode=exitcode,
                restarts=slot.tracker.total_restarts,
            )
            slot.last_error = error
            terminal = delay is None
            if terminal:
                slot.state = TERMINAL
                slot.conn = None
            else:
                slot.restart_at = time.monotonic() + delay
        # Callback outside the lock: the fleet will take its own lock
        # to re-dispatch, and may call back into supervisor queries.
        self.on_down(slot.index, cause, error, terminal)
