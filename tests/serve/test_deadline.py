"""Deadline propagation: spent budgets terminate, generous ones don't.

Satellite 3b of ISSUE 8: the property suite pins that a deadline can
only fire once its budget is genuinely spent — a generous budget never
expires early at any layer (pure arithmetic, the shard executor, the
server) — and the concrete tests pin the other direction: a hung shard
worker cannot outlive the budget, and a request that expires while
queued never executes.
"""

import tempfile
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import DeadlineExceededError
from repro.gemm.cake import CakeGemm
from repro.gemm.sharded import ShardConfig
from repro.gemm.verify import VerifyConfig
from repro.runtime.deadline import Deadline
from repro.runtime.faults import NumericFaultPlan, NumericFaultRule
from repro.serve.server import MultiplyServer

_clock = st.floats(
    min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False
)
_budget = st.floats(
    min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestDeadlineArithmetic:
    @given(now=_clock, budget=_budget)
    def test_fresh_deadline_is_never_expired(self, now, budget):
        deadline = Deadline.after(budget, now=now)
        assert deadline.at == now + budget
        assert deadline.budget == budget
        assert not deadline.expired(now)
        # remaining == (now + budget) - now, exact up to one rounding
        # of the sum at the clock's magnitude.
        assert abs(deadline.remaining(now) - budget) <= 4 * np.spacing(
            now + budget
        )

    @given(
        now=_clock,
        budget=st.floats(min_value=1.0, max_value=1e6, allow_nan=False),
        fraction=st.floats(min_value=0.0, max_value=0.99),
    )
    def test_generous_budget_never_fires_early(
        self, now, budget, fraction
    ):
        # The heart of the satellite: while a meaningful share of the
        # budget remains, no layer asking the deadline may see expiry.
        deadline = Deadline.after(budget, now=now)
        later = now + fraction * budget
        assert not deadline.expired(later)
        assert deadline.remaining(later) > 0.0

    @given(now=_clock, budget=_budget, elapsed=_clock)
    def test_expiry_matches_the_absolute_instant(
        self, now, budget, elapsed
    ):
        deadline = Deadline.after(budget, now=now)
        later = now + elapsed
        if later < deadline.at:
            assert not deadline.expired(later)
            assert deadline.remaining(later) > 0.0
        else:
            assert deadline.expired(later)
            assert deadline.remaining(later) == 0.0

    @given(now=_clock, budget=_budget, elapsed=_clock)
    def test_remaining_is_clamped_and_consistent(
        self, now, budget, elapsed
    ):
        deadline = Deadline.after(budget, now=now)
        remaining = deadline.remaining(now + elapsed)
        assert remaining >= 0.0
        assert (remaining == 0.0) == deadline.expired(now + elapsed)

    def test_default_clock_is_monotonic(self):
        deadline = Deadline.after(60.0)
        assert not deadline.expired()
        assert 59.0 < deadline.remaining() <= 60.0


class TestShardDeadline:
    def test_generous_budget_never_fires_early(self, intel, rng):
        # A real sharded run under a budget that dwarfs its runtime:
        # the deadline plumbing must be invisible — same bits, no error.
        a = rng.standard_normal((48, 384)).astype(np.float32)
        b = rng.standard_normal((384, 192)).astype(np.float32)
        reference = CakeGemm(intel, cores=1).multiply(a, b).c
        run = CakeGemm(
            intel,
            cores=1,
            processes=ShardConfig(
                processes=2, deadline=time.monotonic() + 600.0
            ),
        ).multiply(a, b)
        assert np.array_equal(run.c, reference)

    def test_hung_worker_cannot_outlive_the_budget(self, intel, rng):
        # One shard worker sleeps far past the budget; the shard
        # executor's bounded wait must kill the pool and raise the
        # structured deadline error instead of stranding the caller.
        a = rng.standard_normal((48, 384)).astype(np.float32)
        b = rng.standard_normal((384, 192)).astype(np.float32)
        hang = VerifyConfig(
            enabled=False,
            inject=NumericFaultPlan(
                rules=(
                    NumericFaultRule(kind="hang", hang_seconds=30.0),
                ),
                state_dir=tempfile.mkdtemp(prefix="serve-hang-"),
            ),
        )
        engine = CakeGemm(
            intel,
            cores=1,
            verify=hang,
            processes=ShardConfig(
                processes=2,
                deadline=time.monotonic() + 1.0,
            ),
        )
        started = time.monotonic()
        with pytest.raises(DeadlineExceededError) as exc:
            engine.multiply(a, b)
        assert exc.value.stage == "shard"
        # Fired at the budget, not after the 30 s hang drained.
        assert time.monotonic() - started < 15.0

    def test_already_spent_budget_fails_before_dispatch(
        self, intel, rng
    ):
        a = rng.standard_normal((32, 128)).astype(np.float32)
        b = rng.standard_normal((128, 64)).astype(np.float32)
        engine = CakeGemm(
            intel,
            cores=1,
            processes=ShardConfig(
                processes=2, deadline=time.monotonic() - 1.0
            ),
        )
        with pytest.raises(DeadlineExceededError):
            engine.multiply(a, b)


class TestServerDeadline:
    def test_generous_budgets_always_complete(self, intel, rng):
        a = rng.standard_normal((32, 128)).astype(np.float32)
        b = rng.standard_normal((128, 64)).astype(np.float32)
        reference = CakeGemm(intel, cores=1).multiply(a, b).c
        with MultiplyServer(intel, cores=1) as server:
            for budget in (5.0, 60.0, 3600.0):
                run = server.multiply(a, b, deadline=budget)
                assert np.array_equal(run.c, reference)
        assert server.stats().deadline_exceeded == 0

    def test_expiry_while_queued_never_executes(self, intel, rng):
        a = rng.standard_normal((32, 128)).astype(np.float32)
        b = rng.standard_normal((128, 64)).astype(np.float32)
        server = MultiplyServer(intel, cores=1, executors=1)
        with server:
            with server._cond:
                # Admitted with a live budget, then the dispatcher is
                # kept frozen until the budget is gone.
                handle = server.submit(a, b, deadline=0.05)
                time.sleep(0.1)
            with pytest.raises(DeadlineExceededError):
                handle.result(timeout=10.0)
        assert handle.report.status == "deadline"
        # executed counts engine passes; an expired-in-queue request
        # must never have reached one.
        stats = server.stats()
        assert stats.executed == 0
        assert stats.completed == 0

    def test_default_deadline_applies_to_submits(self, intel, rng):
        a = rng.standard_normal((32, 128)).astype(np.float32)
        b = rng.standard_normal((128, 64)).astype(np.float32)
        with MultiplyServer(
            intel, cores=1, default_deadline=60.0
        ) as server:
            handle = server.submit(a, b)
            handle.result(timeout=60.0)
        assert handle.deadline is not None
        assert handle.deadline.budget == 60.0
        assert handle.report.deadline == 60.0
