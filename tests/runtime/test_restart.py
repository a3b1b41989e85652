"""Tests for the shared capped-backoff restart ladder.

Both the shard executor's pool rebuilds and the fleet supervisor's
worker restarts walk a :class:`~repro.runtime.restart.RestartTracker`;
these tests pin the ladder's arithmetic on its own: the cap, the
deterministic backoff schedule, the zero-delay fast path, and the
health reset that keeps long-lived workers off the terminal track.
"""

import random

import pytest

from repro.runtime.restart import RestartPolicy, RestartTracker


class TestRestartPolicy:
    def test_defaults_are_sane(self):
        policy = RestartPolicy()
        assert policy.max_restarts == 5
        assert (policy.base_delay, policy.max_delay) == (0.1, 5.0)
        assert policy.reset_after == 30.0

    def test_backoff_schedule_is_deterministic_and_capped(self):
        policy = RestartPolicy(base_delay=0.05, max_delay=2.0)
        d1 = policy.delay(seed=12345, attempt=1)
        assert d1 == policy.delay(seed=12345, attempt=1)
        assert d1 != policy.delay(seed=12345, attempt=2)
        assert d1 != policy.delay(seed=54321, attempt=1)
        for attempt in range(1, 50):
            assert 0.0 <= policy.delay(seed=7, attempt=attempt) <= 2.0 * 1.5

    def test_backoff_curve_keeps_its_jitter(self):
        # Pinned values, so supervisor and soak restart schedules stay
        # reproducible: doubling from base_delay, capped at max_delay,
        # scaled by a factor drawn from Random(seed * 1_000_003 + attempt).
        policy = RestartPolicy()
        for seed, attempt in [(0, 1), (3, 2), (7, 6), (12345, 10)]:
            base = min(5.0, 0.1 * 2 ** (attempt - 1))
            jitter = random.Random(seed * 1_000_003 + attempt).random()
            assert policy.delay(seed, attempt) == base * (0.5 + jitter)

    @pytest.mark.parametrize("field", ["base_delay", "max_delay"])
    def test_negative_delays_rejected(self, field):
        with pytest.raises(ValueError, match="backoff delays"):
            RestartPolicy(**{field: -0.1})

    @pytest.mark.parametrize("bad", [-1, -5])
    def test_negative_max_restarts_rejected(self, bad):
        with pytest.raises(ValueError, match="max_restarts"):
            RestartPolicy(max_restarts=bad)

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_nonpositive_reset_after_rejected(self, bad):
        with pytest.raises(ValueError, match="reset_after"):
            RestartPolicy(reset_after=bad)

    def test_none_reset_after_allowed(self):
        assert RestartPolicy(reset_after=None).reset_after is None


class TestRestartTracker:
    def _policy(self, max_restarts, base_delay=0.1):
        return RestartPolicy(
            max_restarts=max_restarts,
            base_delay=base_delay,
            max_delay=5.0,
            reset_after=None,
        )

    def test_cap_then_terminal(self):
        tracker = RestartTracker(self._policy(2))
        assert tracker.next_delay() is not None
        assert tracker.next_delay() is not None
        assert tracker.exhausted
        assert tracker.next_delay() is None  # terminal, forever
        assert tracker.next_delay() is None
        assert tracker.total_restarts == 2

    def test_zero_budget_is_immediately_terminal(self):
        tracker = RestartTracker(self._policy(0))
        assert tracker.exhausted
        assert tracker.next_delay() is None
        assert tracker.total_restarts == 0

    def test_zero_base_delay_restarts_immediately(self):
        # A zero-delay ladder: no backoff, just a capped count.
        tracker = RestartTracker(self._policy(3, base_delay=0.0))
        assert tracker.next_delay() == 0.0

    def test_backoff_schedule_is_deterministic_per_seed(self):
        first = RestartTracker(self._policy(4), seed=7)
        second = RestartTracker(self._policy(4), seed=7)
        schedule = [first.next_delay() for _ in range(4)]
        assert schedule == [second.next_delay() for _ in range(4)]
        # Sibling slots decorrelate through their seeds.
        other = RestartTracker(self._policy(4), seed=8)
        assert schedule != [other.next_delay() for _ in range(4)]

    def test_health_reset_refreshes_budget(self):
        policy = RestartPolicy(
            max_restarts=1,
            base_delay=0.0,
            max_delay=0.0,
            reset_after=10.0,
        )
        tracker = RestartTracker(policy)
        assert tracker.next_delay() is not None
        assert tracker.exhausted
        # A long healthy stretch before the next failure forgives the
        # old incident; a short one does not.
        tracker.note_healthy_seconds(10.0)
        assert not tracker.exhausted
        assert tracker.next_delay() is not None
        tracker.note_healthy_seconds(9.9)
        assert tracker.exhausted
        assert tracker.next_delay() is None
        # The lifetime total keeps counting through resets.
        assert tracker.total_restarts == 2
