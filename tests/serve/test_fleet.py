"""Tests for the supervised multi-process serving fleet.

The fleet's contract is the serve contract under process death: every
response bit-identical to a direct engine call or a structured
``CakeError``, every admitted handle resolving — while workers are
killed, hung, and restarted underneath. Spawning a worker costs real
time (numpy import per process), so most tests share one module-scoped
two-worker fleet; the terminal/drain tests build their own small fleets
because they destroy them.
"""

import threading
import time

import numpy as np
import pytest

from repro.errors import (
    AdmissionError,
    CakeError,
    FleetError,
    ProtocolError,
    WorkerCrashError,
)
from repro.gemm.cake import CakeGemm
from repro.gemm.goto import GotoGemm
from repro.machines.presets import intel_i9_10900k
from repro.runtime.restart import RestartPolicy
from repro.serve.fleet import FleetClient, FleetFrontDoor, FleetServer
from repro.serve.protocol import (
    PROTOCOL,
    decode_error,
    recv_frame,
    send_frame,
)
from repro.serve.soak import run_soak

RESULT_TIMEOUT = 60.0


def _wait_until(predicate, timeout=15.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


@pytest.fixture(scope="module")
def machine():
    return intel_i9_10900k()


@pytest.fixture(scope="module")
def operands(machine):
    rng = np.random.default_rng(20210)
    a = rng.standard_normal((24, 96)).astype(np.float32)
    b = rng.standard_normal((96, 64)).astype(np.float32)
    return {
        "a": a,
        "b": b,
        "cake": CakeGemm(machine, cores=1).multiply(a, b).c,
        "goto": GotoGemm(machine, cores=1).multiply(a, b).c,
    }


@pytest.fixture(scope="module")
def fleet(machine):
    server = FleetServer(
        machine,
        workers=2,
        capacity=32,
        cores=1,
        heartbeat_interval=0.1,
        heartbeat_timeout=1.0,
        restart_policy=RestartPolicy(
            max_restarts=100,
            base_delay=0.05,
            max_delay=0.2,
            reset_after=5.0,
        ),
        max_redispatch=3,
        max_inflight_per_worker=8,
    )
    server.start()
    assert _wait_until(
        lambda: len(server.supervisor.ready_indices()) == 2, timeout=60.0
    ), "fleet workers never became ready"
    yield server
    server.stop(drain=False)


class TestBitIdentity:
    @pytest.mark.parametrize("engine", ["cake", "goto"])
    def test_engine_results_match_direct_call(self, fleet, operands, engine):
        run = fleet.multiply(
            operands["a"], operands["b"], engine=engine,
        )
        assert np.array_equal(run.c, operands[engine])

    def test_threaded_request_matches_direct_call(self, fleet, operands):
        run = fleet.multiply(operands["a"], operands["b"], workers=2)
        assert np.array_equal(run.c, operands["cake"])

    def test_validation_runs_in_parent(self, fleet, operands):
        with pytest.raises(ValueError, match="engine"):
            fleet.submit(operands["a"], operands["b"], engine="nope")
        with pytest.raises(ValueError, match="2-D"):
            fleet.submit(operands["a"][0], operands["b"])  # 1-D operand


class TestBackpressure:
    def test_capacity_shed_carries_aggregate_retry_hint(
        self, fleet, operands
    ):
        # Freeze the fleet dispatcher (its Condition is re-entrant for
        # this thread) and fill the queue to capacity: the next submit
        # must shed with reason="capacity" and an aggregate-backlog
        # retry_after, and every frozen request must still resolve
        # after release. The backlog also counts each worker's
        # heartbeat-reported queue, which can still show the previous
        # test's last request for one heartbeat: wait until it is idle.
        assert _wait_until(lambda: fleet.supervisor.pending_total() == 0)
        handles = []
        with fleet._cond:
            free = fleet.capacity - len(fleet._queue) - len(fleet._assigned)
            for _ in range(free):
                handles.append(
                    fleet.submit(
                        operands["a"], operands["b"], deadline=RESULT_TIMEOUT
                    )
                )
            with pytest.raises(AdmissionError) as excinfo:
                fleet.submit(
                    operands["a"], operands["b"], deadline=RESULT_TIMEOUT
                )
        assert excinfo.value.reason == "capacity"
        assert excinfo.value.retry_after is not None
        assert excinfo.value.retry_after > 0
        assert excinfo.value.queue_depth >= fleet.capacity
        for handle in handles:
            run = handle.result(timeout=RESULT_TIMEOUT)
            assert np.array_equal(run.c, operands["cake"])

    def test_spent_deadline_sheds_at_the_door(self, fleet, operands):
        with pytest.raises(AdmissionError) as excinfo:
            fleet.submit(operands["a"], operands["b"], deadline=-1.0)
        assert excinfo.value.reason == "deadline"

    def test_queued_request_reports_the_fleet_queue_wait(
        self, fleet, operands
    ):
        # Freeze the fleet dispatcher with two requests queued: the
        # second waits behind the first for at least `wait` seconds
        # before the fleet sends it to a worker.
        wait = 0.3
        with fleet._cond:
            first = fleet.submit(
                operands["a"], operands["b"], deadline=RESULT_TIMEOUT
            )
            second = fleet.submit(
                operands["a"], operands["b"], deadline=RESULT_TIMEOUT
            )
            time.sleep(wait)
        for handle in (first, second):
            run = handle.result(timeout=RESULT_TIMEOUT)
            assert np.array_equal(run.c, operands["cake"])
        report = second.report
        assert wait <= report.queue_seconds <= report.total_seconds


class TestFaultRecovery:
    def test_hang_is_detected_and_requests_survive(self, fleet, operands):
        before = fleet.stats()
        # Stall one worker's control loop far past the heartbeat
        # timeout: the supervisor must declare it hung, restart it, and
        # re-dispatch anything it held — no request may hang with it.
        fleet.hang_worker(0, 30.0)
        handles = [
            fleet.submit(
                operands["a"], operands["b"], deadline=RESULT_TIMEOUT
            )
            for _ in range(4)
        ]
        for handle in handles:
            run = handle.result(timeout=RESULT_TIMEOUT)
            assert np.array_equal(run.c, operands["cake"])
        assert _wait_until(
            lambda: fleet.stats().worker_hangs > before.worker_hangs
        )
        assert _wait_until(
            lambda: len(fleet.supervisor.ready_indices()) == 2, timeout=60.0
        ), "hung worker never came back"

    def test_kill_restarts_worker_and_service_continues(
        self, fleet, operands
    ):
        before = fleet.stats()
        fleet.kill_worker(0)
        assert _wait_until(
            lambda: fleet.stats().worker_crashes > before.worker_crashes
        ), "crash never detected"
        run = fleet.multiply(
            operands["a"], operands["b"], deadline=RESULT_TIMEOUT
        )
        assert np.array_equal(run.c, operands["cake"])
        assert _wait_until(
            lambda: len(fleet.supervisor.ready_indices()) == 2, timeout=60.0
        ), "killed worker never restarted"
        assert fleet.stats().worker_restarts > before.worker_restarts


class TestBoundedRestarts:
    def test_crash_mid_request_and_terminal_after_budget(
        self, machine, operands
    ):
        # One worker, one restart, no re-dispatch: the first kill with a
        # request in flight must resolve that handle with a structured
        # WorkerCrashError; the second kill exhausts the budget and the
        # slot goes TERMINAL; submits then fail fast with FleetError.
        fleet = FleetServer(
            machine,
            workers=1,
            capacity=8,
            cores=1,
            heartbeat_interval=0.1,
            heartbeat_timeout=1.0,
            restart_policy=RestartPolicy(
                max_restarts=1,
                base_delay=0.05,
                max_delay=0.1,
                reset_after=None,
            ),
            max_redispatch=0,
        )
        fleet.start()
        try:
            assert _wait_until(
                lambda: fleet.supervisor.ready_indices() == [0], timeout=60.0
            )
            # Stall the worker's control loop so the dispatched request
            # deterministically stays in flight, then kill the process
            # out from under it.
            fleet.hang_worker(0, 30.0)
            handle = fleet.submit(
                operands["a"], operands["b"], deadline=RESULT_TIMEOUT
            )
            assert _wait_until(lambda: fleet.stats().in_flight >= 1)
            fleet.kill_worker(0)
            with pytest.raises(WorkerCrashError) as excinfo:
                handle.result(timeout=RESULT_TIMEOUT)
            assert excinfo.value.worker == 0
            assert excinfo.value.request_id is not None
            assert fleet.stats().failed >= 1

            # Second kill: budget spent -> TERMINAL, structured refusal.
            assert _wait_until(
                lambda: fleet.supervisor.ready_indices() == [0], timeout=60.0
            ), "worker did not restart after first kill"
            fleet.kill_worker(0)
            assert _wait_until(
                lambda: fleet.supervisor.all_terminal(), timeout=30.0
            ), "slot never went terminal"
            with pytest.raises(FleetError) as excinfo:
                fleet.submit(operands["a"], operands["b"])
            assert excinfo.value.reason == "no-workers"
            assert fleet.stats().workers_terminal == 1
        finally:
            fleet.stop(drain=False)


class TestGracefulDrain:
    def test_submit_racing_shutdown_never_hangs(self, machine, operands):
        # The satellite regression: submits racing stop(drain=True) must
        # each end in a structured AdmissionError or a resolved handle —
        # never a hung ResponseHandle — and the shed_shutdown counter
        # must account for exactly the shutdown-shed outcomes.
        fleet = FleetServer(
            machine,
            workers=1,
            capacity=16,
            cores=1,
            heartbeat_interval=0.1,
            heartbeat_timeout=1.0,
        )
        fleet.start()
        assert _wait_until(
            lambda: fleet.supervisor.ready_indices() == [0], timeout=60.0
        )
        outcomes = {
            "ok": 0,
            "shed_shutdown_raise": 0,
            "shed_other": 0,
            "resolved_shutdown": 0,
            "resolved_other": 0,
            "hung": 0,
        }
        lock = threading.Lock()
        stop_submitting = threading.Event()

        def submitter():
            while not stop_submitting.is_set():
                try:
                    handle = fleet.submit(
                        operands["a"], operands["b"], deadline=RESULT_TIMEOUT
                    )
                except AdmissionError as exc:
                    with lock:
                        if exc.reason == "shutdown":
                            outcomes["shed_shutdown_raise"] += 1
                            if outcomes["shed_shutdown_raise"] >= 3:
                                stop_submitting.set()
                        else:
                            outcomes["shed_other"] += 1
                    continue
                try:
                    run = handle.result(timeout=RESULT_TIMEOUT)
                    with lock:
                        outcomes["ok"] += 1
                except AdmissionError as exc:
                    with lock:
                        if exc.reason == "shutdown":
                            outcomes["resolved_shutdown"] += 1
                        else:
                            outcomes["resolved_other"] += 1
                except TimeoutError:
                    with lock:
                        outcomes["hung"] += 1
                    stop_submitting.set()
                except CakeError:
                    with lock:
                        outcomes["resolved_other"] += 1

        threads = [
            threading.Thread(target=submitter, name=f"drain-race-{i}")
            for i in range(3)
        ]
        for thread in threads:
            thread.start()
        time.sleep(0.5)  # let traffic build before pulling the plug
        fleet.stop(drain=True, timeout=10.0)
        stop_submitting.set()
        for thread in threads:
            thread.join(timeout=2 * RESULT_TIMEOUT)
        assert not any(t.is_alive() for t in threads), "submitter wedged"
        assert outcomes["hung"] == 0, f"hung handles: {outcomes}"
        total = sum(v for k, v in outcomes.items() if k != "hung")
        assert total > 0
        # Pin the counter path: shed_shutdown counts the submit-raised
        # sheds plus the handles resolved with AdmissionError("shutdown").
        expected = (
            outcomes["shed_shutdown_raise"] + outcomes["resolved_shutdown"]
        )
        assert fleet.stats().shed_shutdown == expected, outcomes


class TestFrontDoor:
    def test_remote_round_trip_is_bit_identical(self, fleet, operands):
        with FleetFrontDoor(fleet) as door:
            host, port = door.address
            with FleetClient(host, port) as client:
                out = client.multiply(operands["a"], operands["b"])
                assert np.array_equal(out.c, operands["cake"])
                assert out.report["status"] == "ok"

    def test_remote_report_is_the_workers(self, fleet, operands):
        with FleetFrontDoor(fleet) as door:
            host, port = door.address
            with FleetClient(host, port) as client:
                out = client.multiply(
                    operands["a"], operands["b"], engine="goto"
                )
        assert np.array_equal(out.c, operands["goto"])
        report = out.report
        # What the worker did executing it...
        assert report["execute_seconds"] > 0.0
        assert report["backend"] == "numpy"
        assert report["workers"] == 1
        assert report["processes"] == 1
        assert report["shape_class"] == "goto:24x64x96:f4"
        # ...under the fleet's own identity, outcome and wall time.
        assert isinstance(report["request_id"], int)
        assert report["status"] == "ok"
        assert report["deadline"] is None
        assert report["total_seconds"] > report["execute_seconds"]

    def test_remote_errors_arrive_structured(self, fleet, operands):
        with FleetFrontDoor(fleet) as door:
            host, port = door.address
            with FleetClient(host, port) as client:
                with pytest.raises(ValueError, match="engine"):
                    client.multiply(
                        operands["a"], operands["b"], engine="nope"
                    )
                with pytest.raises(AdmissionError) as excinfo:
                    client.multiply(
                        operands["a"], operands["b"], deadline=-1.0
                    )
                assert excinfo.value.reason == "deadline"
                # The connection survives structured errors.
                out = client.multiply(operands["a"], operands["b"])
                assert np.array_equal(out.c, operands["cake"])

    def test_wrong_protocol_version_is_refused(self, fleet):
        import socket

        with FleetFrontDoor(fleet) as door:
            host, port = door.address
            with socket.create_connection((host, port), timeout=10) as sock:
                send_frame(sock, {"kind": "hello", "proto": "cake-serve/v0"})
                header, _ = recv_frame(sock)
                assert header["kind"] == "error"
                with pytest.raises(ProtocolError):
                    raise decode_error(header["error"])

    def test_hello_announces_protocol_and_fleet_size(self, fleet):
        import socket

        with FleetFrontDoor(fleet) as door:
            host, port = door.address
            with socket.create_connection((host, port), timeout=10) as sock:
                send_frame(sock, {"kind": "hello", "proto": PROTOCOL})
                header, _ = recv_frame(sock)
                assert header["proto"] == PROTOCOL
                assert header["workers"] == fleet.workers


class TestFleetSoakSmoke:
    def test_short_kill_injected_soak_is_clean(self):
        report = run_soak(
            fleet=2,
            seconds=4.0,
            clients=2,
            n=96,
            kill_every=1.5,
            hang_every=3.0,
            hang_seconds=1.5,
        )
        assert report["silent_wrong"] == 0
        assert report["unstructured_failures"] == 0
        assert not report["deadlocked"]
        assert report["ok"] > 0
        assert report["kills_injected"] >= 1
