"""Closed-loop clients against a server, with every response audited.

One function, :func:`drive`, runs every client loop in the serving
layer: the load generator (:func:`run_load`, a fixed number of
requests per client — ``benchmarks/bench_serve.py`` and the
``cake-serve`` CLI) and the fault-injected soak
(:func:`repro.serve.soak.run_soak`, requests until a clock runs out
while faults fire). N client threads each take their
next request from a source, submit it to anything with the
``submit()`` front-door contract — a
:class:`~repro.serve.server.MultiplyServer` or a
:class:`~repro.serve.fleet.FleetServer` — block on the handle, and
sort the outcome, per request label, into exactly one class:

``ok``                 bit-identical to the request's reference product;
``shed``               refused at submit with an ``AdmissionError``;
``deadline_exceeded``  resolved with a ``DeadlineExceededError``;
``structured``         resolved with another ``CakeError``;
``unstructured``       any other exception — a contract violation;
``mismatches``         a bit-different product — a silent wrong answer;
``unresolved``         still pending after the bounded wait — a deadlock.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from repro.errors import AdmissionError, CakeError, DeadlineExceededError
from repro.serve.admission import percentile

#: The outcome classes, in the module docstring's order.
OUTCOMES = (
    "ok", "shed", "deadline_exceeded", "structured", "unstructured",
    "mismatches", "unresolved",
)


@dataclass(slots=True)
class OperandSet:
    """A fixed pool of operand pairs plus their reference products."""

    pairs: list[tuple[np.ndarray, np.ndarray]]
    #: Engine name (``"cake"``, ``"goto"``) → reference product per pair.
    references: dict[str, list[np.ndarray]]

    @classmethod
    def figure8_skewed(
        cls,
        n: int = 256,
        *,
        variants: int = 3,
        dtype=np.float32,
        seed: int = 20218,
        machine=None,
        cores: int | None = None,
    ) -> "OperandSet":
        """Operands in the paper's Fig-8 skewed regime (short M, deep K).

        ``variants`` distinct pairs share one shape, so served traffic
        exercises shape-class reuse (one plan, one cached engine) while
        still proving responses are not cross-wired between requests.
        References come from direct CAKE and GOTO engine calls — the
        bit-identity oracle every response is checked against.
        """
        from repro.api import cake_matmul, goto_matmul

        rng = np.random.default_rng(seed)
        m, p, k = max(n // 4, 1), n, 2 * n
        pairs = [
            (
                rng.standard_normal((m, k)).astype(dtype),
                rng.standard_normal((k, p)).astype(dtype),
            )
            for _ in range(variants)
        ]
        references = {
            name: [fn(a, b, machine=machine, cores=cores).c for a, b in pairs]
            for name, fn in (("cake", cake_matmul), ("goto", goto_matmul))
        }
        return cls(pairs=pairs, references=references)


class Call(NamedTuple):
    """One client request: its label, operands, oracle and submit kwargs."""

    label: str
    a: np.ndarray
    b: np.ndarray
    reference: np.ndarray
    kwargs: dict


@dataclass(slots=True)
class LoadReport:
    """What one closed loop produced, per outcome class and per label."""

    clients: int
    requests: int = 0
    ok: int = 0
    shed: int = 0
    deadline_exceeded: int = 0
    structured: int = 0
    unstructured: int = 0
    mismatches: int = 0
    unresolved: int = 0
    #: Request label → outcome class → count.
    labels: dict[str, dict[str, int]] = field(default_factory=dict)
    latencies: list[float] = field(default_factory=list)
    errors: dict[str, int] = field(default_factory=dict)
    wall_seconds: float = 0.0
    #: A client thread outlived its bounded join (a wedged client).
    stuck: bool = False

    @property
    def failed(self) -> int:
        """Terminal errors other than sheds and deadlines."""
        return self.structured + self.unstructured

    @property
    def throughput_rps(self) -> float:
        """Successful responses per second of wall clock."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.ok / self.wall_seconds

    def count(self, label: str, outcome: str, error: str | None) -> None:
        self.requests += 1
        setattr(self, outcome, getattr(self, outcome) + 1)
        self.labels.setdefault(label, dict.fromkeys(OUTCOMES, 0))[outcome] += 1
        if error is not None:
            self.errors[error] = self.errors.get(error, 0) + 1

    def as_dict(self) -> dict:
        return {
            "clients": self.clients,
            "requests": self.requests,
            "ok": self.ok,
            "shed": self.shed,
            "deadline_exceeded": self.deadline_exceeded,
            "failed": self.failed,
            "mismatches": self.mismatches,
            "unresolved": self.unresolved,
            "errors": dict(self.errors),
            "wall_seconds": self.wall_seconds,
            "throughput_rps": self.throughput_rps,
            "p50_seconds": percentile(self.latencies, 50.0),
            "p99_seconds": percentile(self.latencies, 99.0),
        }


def _audit(server, call: Call, result_timeout: float):
    """Submit one call: ``(outcome, error name, latency of an ok)``."""
    started = time.monotonic()
    try:
        try:
            handle = server.submit(call.a, call.b, **call.kwargs)
        except AdmissionError as err:
            return "shed", f"submit:{err.reason}", None
        run = handle.result(timeout=result_timeout)
    except TimeoutError:
        return "unresolved", "unresolved-handle", None
    except DeadlineExceededError as err:
        return "deadline_exceeded", type(err).__name__, None
    except CakeError as err:
        return "structured", type(err).__name__, None
    except Exception as err:  # noqa: BLE001 - audit every outcome
        return "unstructured", type(err).__name__, None
    latency = time.monotonic() - started
    if not np.array_equal(run.c, call.reference):
        return "mismatches", "bit-mismatch", None
    return "ok", None, latency


def drive(
    server,
    source: Callable[[int, int], "Call | None"],
    *,
    clients: int,
    result_timeout: float = 120.0,
    join_timeout: float | None = None,
) -> LoadReport:
    """Run ``clients`` closed-loop threads and audit every response.

    ``source(client, i)`` is client ``client``'s ``i``-th request, or
    ``None`` once that client is done. Each client submits, then blocks
    on the handle for at most ``result_timeout`` — so concurrency
    equals the thread count, and a handle still pending after that
    wait is counted ``unresolved``. A thread still running
    ``join_timeout`` seconds after the start (``None``: wait forever)
    marks the report ``stuck``.
    """
    report = LoadReport(clients=clients)
    lock = threading.Lock()

    def client(worker: int) -> None:
        i = 0
        while (call := source(worker, i)) is not None:
            i += 1
            outcome, error, latency = _audit(server, call, result_timeout)
            with lock:
                report.count(call.label, outcome, error)
                if latency is not None:
                    report.latencies.append(latency)

    threads = [
        threading.Thread(
            target=client, args=(worker,), name=f"loadgen-{worker}"
        )
        for worker in range(clients)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(
            None
            if join_timeout is None
            else max(0.0, started + join_timeout - time.perf_counter())
        )
    report.stuck = any(thread.is_alive() for thread in threads)
    report.wall_seconds = time.perf_counter() - started
    return report


def run_load(
    server,
    operands: OperandSet,
    *,
    clients: int,
    requests_per_client: int,
    deadline: float | None = None,
    engine: str = "cake",
    result_timeout: float = 120.0,
) -> LoadReport:
    """``clients`` threads of ``requests_per_client`` requests each.

    Each client cycles through the operand set with the given engine
    and per-request ``deadline``; :func:`drive` audits every response.
    """

    def source(worker: int, i: int) -> "Call | None":
        if i >= requests_per_client:
            return None
        index = (worker + i * clients) % len(operands.pairs)
        a, b = operands.pairs[index]
        return Call(
            engine,
            a,
            b,
            operands.references[engine][index],
            {"engine": engine, "deadline": deadline},
        )

    return drive(
        server, source, clients=clients, result_timeout=result_timeout
    )
