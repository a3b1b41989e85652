"""Tests for the exception hierarchy contract."""

import pickle

import numpy as np
import pytest

from repro.errors import (
    AdmissionError,
    BackendCapabilityError,
    CakeError,
    ConfigurationError,
    DeadlineExceededError,
    FleetError,
    ProtocolError,
    ScheduleError,
    SimulationError,
    WorkerCrashError,
)
from repro.gemm.verify import IdentityFailure, NumericFaultError


class TestHierarchy:
    @pytest.mark.parametrize(
        "exc", [ConfigurationError, ScheduleError, SimulationError]
    )
    def test_subclasses_base(self, exc):
        assert issubclass(exc, CakeError)
        assert issubclass(exc, Exception)

    def test_catchable_at_boundary(self):
        """A caller catching CakeError sees every domain failure."""
        from repro.core.shaping import alpha_from_bandwidth_ratio

        with pytest.raises(CakeError):
            alpha_from_bandwidth_ratio(0.5)

    def test_distinct_types(self):
        assert not issubclass(ScheduleError, ConfigurationError)
        assert not issubclass(SimulationError, ScheduleError)


#: One representative instance per CakeError subclass. Every entry must
#: survive ``pickle.loads(pickle.dumps(exc))`` with its payload intact:
#: shard workers and the serve dispatcher move these across
#: process/thread boundaries, and an exception that arrives as a bare
#: ``TypeError`` from its own constructor is a silent loss of the
#: structured failure the whole robustness story depends on.
_EXAMPLES = {
    CakeError: lambda: CakeError("base failure"),
    ConfigurationError: lambda: ConfigurationError("cache too small"),
    ScheduleError: lambda: ScheduleError("block visited twice"),
    SimulationError: lambda: SimulationError("event in the past"),
    BackendCapabilityError: lambda: BackendCapabilityError(
        "blas-group", "accumulation dtype not supported",
        np.dtype(np.float16),
    ),
    AdmissionError: lambda: AdmissionError(
        "capacity", "queue is full", queue_depth=8, capacity=8,
        retry_after=0.25,
    ),
    DeadlineExceededError: lambda: DeadlineExceededError(
        "shard", budget=1.5, elapsed=2.75
    ),
    FleetError: lambda: FleetError(
        "no-workers", "every slot exhausted its restart budget",
        workers=4,
    ),
    WorkerCrashError: lambda: WorkerCrashError(
        worker=2, pid=4242, exitcode=-9, restarts=3,
        request_id="17:0badc0de",
    ),
    ProtocolError: lambda: ProtocolError("bad frame magic b'XXXX'"),
    NumericFaultError: lambda: NumericFaultError(
        "CB(1, 2, 3)", (1, 2, 3),
        IdentityFailure(
            identity="row", strip=4, residual=0.5, tolerance=1e-6
        ),
    ),
}


def _all_cake_errors() -> list[type]:
    """Every CakeError subclass importable from the package, found by
    walking the live class hierarchy — a new subclass that is not given
    an example above fails the suite rather than dodging the contract.
    """
    seen: list[type] = [CakeError]
    frontier = [CakeError]
    while frontier:
        for sub in frontier.pop().__subclasses__():
            if sub not in seen:
                seen.append(sub)
                frontier.append(sub)
    return seen


class TestPickleRoundTrip:
    def test_every_subclass_has_an_example(self):
        missing = [
            cls.__name__
            for cls in _all_cake_errors()
            if cls not in _EXAMPLES
        ]
        assert not missing, (
            f"CakeError subclasses without a pickle round-trip example: "
            f"{missing}"
        )

    @pytest.mark.parametrize(
        "cls", list(_EXAMPLES), ids=lambda cls: cls.__name__
    )
    def test_round_trip(self, cls):
        original = _EXAMPLES[cls]()
        clone = pickle.loads(pickle.dumps(original))
        assert type(clone) is cls
        assert str(clone) == str(original)
        # Payload attributes survive, not just the formatted message.
        for name, value in vars(original).items():
            got = getattr(clone, name)
            assert got == value, f"{cls.__name__}.{name} lost in transit"

    def test_backend_capability_dtype_survives(self):
        # The regression this class exists for: __reduce__ used to drop
        # the dtype keyword, so unpickled copies lost which dtype the
        # backend refused.
        original = BackendCapabilityError(
            "torch", "needs float32", np.dtype(np.float64)
        )
        clone = pickle.loads(pickle.dumps(original))
        assert clone.dtype == np.dtype(np.float64)
        assert clone.backend == "torch"
        assert isinstance(clone, TypeError)  # dual inheritance intact

    def test_worker_crash_forensics_survive(self):
        # The attributes the fleet operator actually reads — which slot,
        # which pid, which signal, how many restarts, which request —
        # must cross the supervisor/worker process boundary intact.
        original = WorkerCrashError(
            worker=1, pid=31337, exitcode=-9, restarts=2,
            request_id="3:deadbeef",
        )
        clone = pickle.loads(pickle.dumps(original))
        assert (clone.worker, clone.pid, clone.exitcode) == (1, 31337, -9)
        assert clone.restarts == 2
        assert clone.request_id == "3:deadbeef"
        assert isinstance(clone, FleetError)  # catchable as the family
