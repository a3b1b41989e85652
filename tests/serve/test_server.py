"""The multiply server's core contracts.

Every admitted request terminates exactly one way — a product
bit-identical to the direct engine call, or a structured error. An
executor runs each request once, on the configuration it asked for;
its batching may change latency but never bits.
"""

import tempfile
import threading
import time

import numpy as np
import pytest

from repro.errors import AdmissionError, CakeError, DeadlineExceededError
from repro.gemm.cake import CakeGemm
from repro.gemm.goto import GotoGemm
from repro.gemm.verify import NumericFaultError, VerifyConfig
from repro.runtime.faults import NumericFaultPlan, NumericFaultRule
from repro.serve.loadgen import OperandSet, run_load
from repro.serve.server import MultiplyServer


@pytest.fixture
def operands(rng):
    a = rng.standard_normal((48, 256)).astype(np.float32)
    b = rng.standard_normal((256, 96)).astype(np.float32)
    return a, b


class TestBitIdentity:
    def test_served_equals_direct_for_every_profile(
        self, intel, operands
    ):
        a, b = operands
        references = {
            "cake": CakeGemm(intel, cores=1).multiply(a, b).c,
            "goto": GotoGemm(intel, cores=1).multiply(a, b).c,
        }
        profiles = [
            dict(engine="cake"),
            dict(engine="goto"),
            dict(engine="cake", workers=2),
            dict(engine="cake", verify=True),
            dict(engine="cake", backend="blas-group"),
        ]
        with MultiplyServer(intel, cores=1) as server:
            for profile in profiles:
                run = server.multiply(a, b, **profile)
                reference = references[profile.get("engine", "cake")]
                assert np.array_equal(run.c, reference), profile

    def test_multiply_is_submit_plus_result(self, intel, operands):
        a, b = operands
        with MultiplyServer(intel, cores=1) as server:
            handle = server.submit(a, b)
            run = handle.result(timeout=60.0)
            assert handle.done()
            assert handle.report.status == "ok"
            assert server.stats().executed == 1
            assert np.array_equal(
                run.c, CakeGemm(intel, cores=1).multiply(a, b).c
            )

    def test_load_generator_audits_every_response(self, intel):
        """Two closed-loop clients on the Fig. 8 skewed shape: every
        response bit-identical to its direct engine call."""
        operands = OperandSet.figure8_skewed(128, machine=intel)
        with MultiplyServer(intel, executors=2) as server:
            load = run_load(
                server, operands, clients=2, requests_per_client=3
            )
        assert load.ok == 6
        assert load.mismatches == 0
        assert load.failed == 0
        assert load.unresolved == 0
        assert not load.stuck


class TestCoalescing:
    def test_same_class_requests_share_one_batch(self, intel, operands):
        a, b = operands
        with MultiplyServer(
            intel, cores=1, executors=1, max_batch=8
        ) as server:
            # Freeze the dispatcher (the condition is an RLock) so all
            # four same-class requests are queued before it wakes: they
            # must leave in one coalesced scoop.
            with server._cond:
                handles = [server.submit(a, b) for _ in range(4)]
            runs = [h.result(timeout=60.0) for h in handles]
        reference = CakeGemm(intel, cores=1).multiply(a, b).c
        for run in runs:
            assert np.array_equal(run.c, reference)
        stats = server.stats()
        assert stats.batches == 1
        assert stats.coalesced == 3
        assert all(h.report.batch_size == 4 for h in handles)

    def test_stats_pool_counts_the_shard_arena_leases(self, intel, operands):
        # A served multiply reads its operands in place; only a sharded
        # one leases buffers: A, B and C from the process-wide arena.
        a, b = operands
        with MultiplyServer(intel, cores=1, executors=1) as server:
            before = server.stats().pool
            assert set(before) == {"leases", "hits", "misses", "retained_bytes"}
            with server._cond:
                handles = [server.submit(a, b) for _ in range(3)]
            for handle in handles:
                handle.result(timeout=60.0)
            plain = server.stats().pool
            for _ in range(2):
                server.submit(a, b, processes=2).result(timeout=60.0)
            sharded = server.stats().pool
        assert plain["leases"] == before["leases"]
        assert sharded["leases"] == before["leases"] + 6
        assert sharded["hits"] >= before["hits"]
        assert sharded["misses"] >= before["misses"]

    def test_verified_requests_run_solo(self, intel, operands):
        a, b = operands
        with MultiplyServer(intel, cores=1, executors=1) as server:
            with server._cond:
                handles = [
                    server.submit(a, b, verify=True) for _ in range(3)
                ]
            for handle in handles:
                handle.result(timeout=60.0)
        stats = server.stats()
        assert stats.batches == 3
        assert stats.coalesced == 0

    def test_priority_orders_the_queue(self, intel, operands):
        a, b = operands
        server = MultiplyServer(intel, cores=1, executors=1)
        with server:
            with server._cond:
                low = server.submit(a, b, priority=0, verify=True)
                high = server.submit(a, b, priority=5, verify=True)
                mid = server.submit(a, b, priority=1, verify=True)
                batch = server._take_batch_locked()
                assert batch[0].handle is high
                batch2 = server._take_batch_locked()
                assert batch2[0].handle is mid
                # Put them back so the dispatcher resolves everything.
                server._queue.extend(batch + batch2)
                server._cond.notify_all()
            for handle in (low, mid, high):
                handle.result(timeout=60.0)


class TestRetries:
    """A request runs once: the engine's own recovery ladder is its only
    retry, and what that ladder cannot heal fails the request."""

    def test_exhausted_retries_fail_structured(self, intel, operands):
        a, b = operands
        # No state_dir: the in-process rule re-fires on every attempt,
        # so the verifier's retries exhaust and the request must fail
        # structured.
        verify = VerifyConfig(
            max_retries=0,
            oracle_fallback=False,
            inject=NumericFaultPlan(
                rules=(
                    NumericFaultRule(
                        block=0,
                        strip=0,
                        kind="scale",
                        factor=3.0,
                        times=1_000_000,
                    ),
                ),
            ),
        )
        with MultiplyServer(intel, cores=1) as server:
            handle = server.submit(a, b, verify=verify)
            with pytest.raises(NumericFaultError):
                handle.result(timeout=60.0)
        assert handle.report.status == "failed"
        assert handle.report.error == "NumericFaultError"
        assert server.stats().failed == 1

    def test_unhealed_fault_never_switches_backend(self, intel, rng):
        # At this shape the blas-group and numpy backends return
        # different bits, so a product from any backend but the one
        # asked for would break bit-identity with the direct call. The
        # fault fires on three attempts; the verifier makes one.
        a = rng.standard_normal((300, 211))
        b = rng.standard_normal((211, 257))
        verify = VerifyConfig(
            max_retries=0,
            oracle_fallback=False,
            inject=NumericFaultPlan(
                rules=(
                    NumericFaultRule(
                        block=0, strip=0, kind="scale", factor=3.0, times=3
                    ),
                ),
                state_dir=tempfile.mkdtemp(prefix="serve-backend-"),
            ),
        )
        with MultiplyServer(intel) as server:
            handle = server.submit(a, b, backend="blas-group", verify=verify)
            with pytest.raises(NumericFaultError):
                handle.result(timeout=60.0)
        assert handle.report.status == "failed"
        assert server.stats().executed == 1

    @pytest.mark.parametrize("engine", ["cake", "goto"])
    @pytest.mark.parametrize("operand", ["A", "B"])
    def test_non_finite_operand_fails_verified_once(
        self, intel, operands, engine, operand
    ):
        # inf in A, NaN in B: the verified request fails on its one
        # run with the checksum pass's error; unverified, it returns
        # the IEEE product like the direct call.
        a, b = (x.copy() for x in operands)
        if operand == "A":
            a[5, 7] = np.inf
        else:
            b[7, 5] = np.nan
        with MultiplyServer(intel, cores=1) as server:
            handle = server.submit(a, b, engine=engine, verify=True)
            with pytest.raises(ValueError, match=f"operand {operand} block"):
                handle.result(timeout=60.0)
            run = server.multiply(a, b, engine=engine)
        assert handle.report.status == "failed"
        assert server.stats().executed == 2
        direct = {"cake": CakeGemm, "goto": GotoGemm}[engine]
        assert np.array_equal(
            run.c, direct(intel, cores=1).multiply(a, b).c, equal_nan=True
        )
        np.testing.assert_allclose(run.c, a @ b, rtol=1e-5, atol=1e-5)


class TestLifecycle:
    def test_stop_without_drain_sheds_queued_structured(
        self, intel, operands
    ):
        a, b = operands
        server = MultiplyServer(intel, cores=1, executors=1)
        server.start()
        with server._cond:
            handles = [
                server.submit(a, b, verify=True) for _ in range(3)
            ]
        server.stop(drain=False)
        resolved = {"ok": 0, "shed": 0}
        for handle in handles:
            try:
                handle.result(timeout=5.0)
                resolved["ok"] += 1
            except AdmissionError as err:
                assert err.reason == "shutdown"
                resolved["shed"] += 1
        # Every handle terminated — some may have slipped into execution
        # before stop, but none is stranded and none failed unstructured.
        assert resolved["ok"] + resolved["shed"] == 3
        assert server.stats().shed_shutdown == resolved["shed"]

    def test_stop_with_drain_finishes_queued_work(self, intel, operands):
        a, b = operands
        reference = CakeGemm(intel, cores=1).multiply(a, b).c
        server = MultiplyServer(intel, cores=1, executors=1)
        server.start()
        with server._cond:
            handles = [server.submit(a, b) for _ in range(3)]
        server.stop(drain=True)
        for handle in handles:
            assert np.array_equal(
                handle.result(timeout=5.0).c, reference
            )

    def test_start_is_idempotent_and_restartable(self, intel, operands):
        a, b = operands
        server = MultiplyServer(intel, cores=1)
        assert server.start() is server.start()
        server.multiply(a, b)
        server.stop()
        server.start()  # a stopped server can serve again
        run = server.multiply(a, b)
        server.stop()
        assert np.array_equal(
            run.c, CakeGemm(intel, cores=1).multiply(a, b).c
        )

    def test_constructor_validates_bounds(self, intel):
        with pytest.raises(ValueError):
            MultiplyServer(intel, capacity=0)
        with pytest.raises(ValueError):
            MultiplyServer(intel, executors=0)
        with pytest.raises(ValueError):
            MultiplyServer(intel, max_batch=0)


class TestOneHop:
    """Executor threads take batches straight off the admission queue."""

    def test_serves_on_exactly_its_executor_threads(self, intel, operands):
        a, b = operands
        before = set(threading.enumerate())
        server = MultiplyServer(intel, cores=1, executors=3).start()
        try:
            server.multiply(a, b)
            server.multiply(a, b, engine="goto")
            serving = [
                t for t in threading.enumerate()
                if t not in before and t.name.startswith(server.name)
            ]
            # No dispatcher and no pool workers (both would carry the
            # server's prefix): the executors are all there is.
            assert len(serving) == 3
        finally:
            server.stop()
        for thread in serving:
            thread.join(timeout=5.0)
            assert not thread.is_alive()

    def test_concurrent_passes_never_exceed_executors(self, intel, operands):
        a, b = operands
        executors = 2
        server = MultiplyServer(intel, cores=1, executors=executors)
        lock = threading.Lock()
        running = [0]
        peak = [0]
        run_batch = server._run_batch

        def counted(batch):
            with lock:
                running[0] += 1
                peak[0] = max(peak[0], running[0])
            try:
                time.sleep(0.005)  # hold the pass so passes overlap
                run_batch(batch)
            finally:
                with lock:
                    running[0] -= 1

        server._run_batch = counted
        handles = []
        with server:

            def client():
                # Verified requests run solo: one pass per request.
                for _ in range(8):
                    handle = server.submit(a, b, verify=True)
                    with lock:
                        handles.append(handle)

            clients = [threading.Thread(target=client) for _ in range(3)]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(timeout=60.0)
                assert not thread.is_alive()
            for handle in handles:
                handle.result(timeout=60.0)
        assert len(handles) == 24
        assert server.stats().batches == 24
        assert peak[0] == executors

    def test_raising_pass_fails_its_batch_and_serving_goes_on(
        self, intel, operands
    ):
        a, b = operands
        with MultiplyServer(intel, cores=1, executors=1) as server:
            engines = server.engines

            class Broken:
                def engine_for(self, *args, **kwargs):
                    raise RuntimeError("engine construction failed")

            server.engines = Broken()
            with server._cond:
                handles = [server.submit(a, b) for _ in range(3)]
            for handle in handles:
                with pytest.raises(RuntimeError, match="construction"):
                    handle.result(timeout=60.0)
            server.engines = engines
            run = server.multiply(a, b)
        assert np.array_equal(
            run.c, CakeGemm(intel, cores=1).multiply(a, b).c
        )
        stats = server.stats()
        assert stats.batches == 2 and stats.coalesced == 2
        assert stats.failed == 3 and stats.completed == 1

    def test_expired_request_does_not_shed_a_live_one(self, intel, operands):
        a, b = operands
        reference = CakeGemm(intel, cores=1).multiply(a, b).c
        server = MultiplyServer(intel, cores=1, executors=1, capacity=1)
        busy, release = threading.Event(), threading.Event()
        run_batch = server._run_batch

        def blocking(batch):
            busy.set()
            release.wait(timeout=60.0)
            run_batch(batch)

        server._run_batch = blocking
        with server:
            blocker = server.submit(a, b)
            assert busy.wait(timeout=10.0)  # the only executor is busy
            stale = server.submit(a, b, deadline=0.05)
            time.sleep(0.1)
            # The queue is full of an expired request: admission must
            # expire it, not shed this live one for capacity.
            live = server.submit(a, b)
            assert stale.done()
            with pytest.raises(DeadlineExceededError):
                stale.result(timeout=1.0)
            release.set()
            for handle in (blocker, live):
                assert np.array_equal(
                    handle.result(timeout=60.0).c, reference
                )
        stats = server.stats()
        assert stats.shed_capacity == 0
        assert stats.deadline_exceeded == 1
        assert stats.executed == 2


class TestHandleContract:
    def test_first_resolution_wins(self, intel, operands):
        a, b = operands
        with MultiplyServer(intel, cores=1) as server:
            handle = server.submit(a, b)
            run = handle.result(timeout=60.0)
            # A later resolution attempt must be a no-op.
            assert not handle.resolve(error=CakeError("too late"))
            assert handle.error is None
            assert handle.result() is run

    def test_result_timeout_does_not_resolve(self, intel, operands):
        a, b = operands
        server = MultiplyServer(intel, cores=1, executors=1)
        with server:
            with server._cond:
                handle = server.submit(a, b)
                # Dispatcher frozen: the call times out, the request
                # stays pending and completes after release.
                with pytest.raises(TimeoutError):
                    handle.result(timeout=0.05)
                assert not handle.done()
            run = handle.result(timeout=60.0)
        assert handle.report.status == "ok"
        assert run.c is not None

    def test_stats_snapshot_is_coherent(self, intel, operands):
        a, b = operands
        with MultiplyServer(intel, cores=1) as server:
            for _ in range(3):
                server.multiply(a, b)
            stats = server.stats()
        d = stats.as_dict()
        assert d["submitted"] == d["admitted"] == 3
        assert d["completed"] == 3
        assert d["failed"] == 0
        assert d["p50_seconds"] > 0.0
        assert d["p99_seconds"] >= d["p50_seconds"]
        assert d["pool"]["leases"] == (
            d["pool"]["hits"] + d["pool"]["misses"]
        )
