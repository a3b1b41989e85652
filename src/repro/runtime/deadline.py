"""Monotonic deadline arithmetic shared by the serve and shard layers.

A deadline is a single absolute instant on ``time.monotonic()``'s
clock. Every layer that enforces one — the serve front door shedding
already-expired requests, the server's executors discarding stale work, the
sharded executor bounding its futures wait, the client blocking on a
response handle — converts to this form once at submit time and then
compares against the same clock, so a request's budget is spent exactly
once no matter how many layers it crosses.

The arithmetic is deliberately tiny and total: ``remaining()`` never
goes negative (waits take it directly), ``expired()`` is a pure
comparison, and both accept an explicit ``now`` so property tests can
drive them with a fake clock.
"""

from __future__ import annotations

import time
from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class Deadline:
    """An absolute instant on the monotonic clock.

    Attributes
    ----------
    at:
        ``time.monotonic()`` value at which the budget is spent.
    budget:
        The original relative budget in seconds (kept for error
        payloads; plays no part in the arithmetic).
    """

    at: float
    budget: float | None = None

    @classmethod
    def after(cls, budget: float, *, now: float | None = None) -> "Deadline":
        """The deadline ``budget`` seconds from ``now`` (default: the clock)."""
        if now is None:
            now = time.monotonic()
        return cls(at=now + budget, budget=budget)

    def remaining(self, now: float | None = None) -> float:
        """Seconds left before expiry, clamped at zero."""
        if now is None:
            now = time.monotonic()
        return max(0.0, self.at - now)

    def expired(self, now: float | None = None) -> bool:
        """Whether the instant has passed (``remaining() == 0``)."""
        if now is None:
            now = time.monotonic()
        return now >= self.at
