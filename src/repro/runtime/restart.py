"""Capped-backoff restart ladders: the shared shape of self-healing.

Every recovery loop in the repo follows one ladder: something crashed
or hung → tear it down → wait a bounded, deterministically-jittered
backoff → rebuild → and after a capped number of rebuilds stop
pretending and fail *structured*. The shard executor walks it for
killed shard workers (:mod:`repro.gemm.sharded`), and the serving
fleet's supervisor for dead or hung worker processes
(:mod:`repro.serve.supervisor`). This module is that ladder as a
reusable object.

Three pieces:

* :class:`RestartPolicy` — the immutable knobs: how many restarts
  before the terminal state, the capped exponential backoff between
  them (deterministically jittered per seed), and an optional *health
  reset* (an incident after ``reset_after`` healthy seconds starts a
  fresh budget, so a long-lived worker that dies once a day is not
  marched toward terminal by sheer uptime).
* :class:`RestartTracker` — one ladder instance's mutable state
  (restart count), owned by whatever is being supervised. ``None``
  from :meth:`RestartTracker.next_delay` *is* the terminal signal.
* :func:`kill_pool` — the forced teardown of a broken or hung process
  pool, the "tear it down" step of the shard ladder.
"""

from __future__ import annotations

import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class RestartPolicy:
    """Knobs for one capped-backoff restart ladder.

    Attributes
    ----------
    max_restarts:
        Restarts granted before :meth:`RestartTracker.next_delay`
        returns ``None`` (the structured-terminal signal). ``0`` means
        the first failure is terminal.
    base_delay, max_delay:
        The backoff curve between restarts (:meth:`delay`): doubling
        from ``base_delay``, capped at ``max_delay``. A zero
        ``base_delay`` restarts immediately.
    reset_after:
        Healthy seconds after which the next failure starts a fresh
        budget (see :meth:`RestartTracker.note_healthy_seconds`);
        ``None`` never resets — every failure over the whole lifetime
        counts against the cap.
    """

    max_restarts: int = 5
    base_delay: float = 0.1
    max_delay: float = 5.0
    reset_after: float | None = 30.0

    def __post_init__(self) -> None:
        if self.max_restarts < 0:
            raise ValueError(
                f"max_restarts must be >= 0, got {self.max_restarts}"
            )
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("backoff delays must be >= 0")
        if self.reset_after is not None and self.reset_after <= 0:
            raise ValueError(
                f"reset_after must be positive or None, got {self.reset_after}"
            )

    def delay(self, seed: int, attempt: int) -> float:
        """Seconds to back off before restart ``attempt`` (1-based).

        ``min(max_delay, base_delay * 2**(attempt-1))`` scaled by a
        jitter factor in ``[0.5, 1.5)`` drawn from ``random.Random``
        seeded by ``(seed, attempt)``: reproducible for a given seed,
        decorrelated across seeds so sibling restarts do not
        re-synchronize.
        """
        base = min(self.max_delay, self.base_delay * (2 ** (attempt - 1)))
        jitter = random.Random(seed * 1_000_003 + attempt).random()
        return base * (0.5 + jitter)


class RestartTracker:
    """Mutable state of one restart ladder (not thread-safe; callers lock).

    ``seed`` decorrelates the backoff jitter between sibling ladders
    (e.g. fleet worker slots).
    """

    def __init__(self, policy: RestartPolicy, seed: int = 0) -> None:
        self.policy = policy
        self.seed = seed
        self.restarts = 0
        #: Lifetime total, never reset — for reporting, not the cap.
        self.total_restarts = 0

    @property
    def exhausted(self) -> bool:
        """Whether the budget is spent (the next failure is terminal)."""
        return self.restarts >= self.policy.max_restarts

    def note_healthy_seconds(self, healthy_seconds: float) -> None:
        """Credit a healthy stretch before the current failure.

        Called when the supervised thing fails *after* running cleanly
        for ``healthy_seconds``: past ``policy.reset_after`` the ladder
        forgets old incidents and the new failure starts budget-fresh.
        """
        reset_after = self.policy.reset_after
        if reset_after is not None and healthy_seconds >= reset_after:
            self.restarts = 0

    def next_delay(self) -> float | None:
        """Claim one restart: the backoff to wait, or ``None`` = terminal.

        Deterministic for a given ``(seed, restart-count)`` — replaying
        a crash sequence replays its backoff schedule.
        """
        if self.exhausted:
            return None
        self.restarts += 1
        self.total_restarts += 1
        if self.policy.base_delay == 0:
            return 0.0
        return self.policy.delay(self.seed, self.restarts)


def kill_pool(pool: ProcessPoolExecutor) -> None:
    """Tear down a process pool whose workers may be hung or dead.

    ``shutdown(wait=True)`` would block on a hung worker forever, so the
    teardown is forced: cancel queued work, terminate every worker, and
    reap them briefly.
    """
    procs = list((getattr(pool, "_processes", None) or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for proc in procs:
        if proc.is_alive():
            proc.terminate()
    for proc in procs:
        proc.join(timeout=2.0)
