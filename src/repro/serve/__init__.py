"""GEMM-as-a-service: the admission-controlled multiply front door.

ROADMAP item 1's serving layer. Clients submit multiply requests to a
:class:`~repro.serve.server.MultiplyServer` and get future-like
handles back; the server classifies requests by shape class
(:mod:`repro.serve.classifier`), coalesces compatible small problems
into one engine pass per class, sharing its plan
(:mod:`repro.serve.batching`), and executes them on the existing
engines. Robustness is the design center — bounded admission
(:mod:`repro.serve.admission`), per-request deadlines that propagate
into the shard executor, content-seeded retry with backoff, and a
graceful degradation ladder — with the repo-wide bit-identity
contract intact: a served product is bit-identical to a direct
engine call, or the request terminates with a structured error.

PR 10 scales the same front door across processes:
:class:`~repro.serve.fleet.FleetServer` runs N supervised worker
processes (heartbeats, capped-backoff restarts, crash-safe re-dispatch
— :mod:`repro.serve.supervisor`) behind an optional ``cake-serve/v1``
TCP front door (:mod:`repro.serve.protocol`,
:class:`~repro.serve.fleet.FleetFrontDoor` /
:class:`~repro.serve.fleet.FleetClient`).

Quick start::

    from repro.serve import MultiplyServer

    with MultiplyServer() as server:
        handle = server.submit(a, b, deadline=0.5)
        run = handle.result()          # GemmRun, or structured error
        print(server.stats().as_dict())
"""

from repro.errors import (
    AdmissionError,
    DeadlineExceededError,
    FleetError,
    ProtocolError,
    WorkerCrashError,
)
from repro.runtime.executor import RetryPolicy
from repro.runtime.restart import RestartPolicy, RestartTracker
from repro.serve.admission import admission_decision, retry_after_hint
from repro.serve.batching import EngineCache, Rung, degradation_rungs
from repro.serve.classifier import ShapeClass, classify
from repro.serve.fleet import (
    FleetClient,
    FleetFrontDoor,
    FleetServer,
    FleetStats,
    RemoteRun,
)
from repro.serve.loadgen import LoadReport, OperandSet, run_load
from repro.serve.protocol import (
    PROTOCOL,
    decode_arrays,
    decode_error,
    encode_arrays,
    encode_error,
    recv_frame,
    send_frame,
)
from repro.serve.request import (
    MultiplyRequest,
    ResponseHandle,
    ServeReport,
    content_seed,
)
from repro.serve.server import MultiplyServer, ServerStats
from repro.serve.supervisor import CircuitBreaker, Supervisor, WorkerOptions

__all__ = [
    "AdmissionError",
    "DeadlineExceededError",
    "FleetError",
    "ProtocolError",
    "WorkerCrashError",
    "RestartPolicy",
    "RestartTracker",
    "FleetClient",
    "FleetFrontDoor",
    "FleetServer",
    "FleetStats",
    "RemoteRun",
    "PROTOCOL",
    "decode_arrays",
    "decode_error",
    "encode_arrays",
    "encode_error",
    "recv_frame",
    "send_frame",
    "CircuitBreaker",
    "Supervisor",
    "WorkerOptions",
    "RetryPolicy",
    "admission_decision",
    "retry_after_hint",
    "EngineCache",
    "Rung",
    "degradation_rungs",
    "ShapeClass",
    "classify",
    "LoadReport",
    "OperandSet",
    "run_load",
    "MultiplyRequest",
    "ResponseHandle",
    "ServeReport",
    "content_seed",
    "MultiplyServer",
    "ServerStats",
    "run_soak",
]


def __getattr__(name: str):
    # ``run_soak`` loads lazily: ``python -m repro.serve.soak`` imports this
    # package before running the module, and an eager import here makes
    # runpy warn that the module was imported first — in the parent and
    # again in every spawned shard worker.
    if name == "run_soak":
        from repro.serve.soak import run_soak

        return run_soak
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
