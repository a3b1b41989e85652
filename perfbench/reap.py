"""Wait for every process a benchmark run started, on every way out.

A run starts processes at several depths: set-up probes (fresh
interpreters), shard pools of ``processes=2`` calls, fleet workers, and
``multiprocessing``'s resource tracker, which by design outlives the
process that started it. A tracker started inside a probe is orphaned
when the probe exits, so waiting for direct children is not enough.

:func:`become_subreaper` makes this process adopt such orphans (Linux
``PR_SET_CHILD_SUBREAPER``); :func:`reap_descendants` then closes this
process's end of its resource tracker and waits, escalating to SIGTERM
and SIGKILL after a grace period, until no child is left.
"""

from __future__ import annotations

import ctypes
import os
import signal
import time

PR_SET_CHILD_SUBREAPER = 36
#: Seconds children get to exit by themselves before SIGTERM; SIGKILL
#: follows one second after that (the resource tracker ignores SIGTERM).
GRACE_S = 3.0
#: Upper bound on the whole wait, so a process that cannot be reaped
#: never turns into a hung benchmark.
LIMIT_S = 15.0


def become_subreaper() -> None:
    """Adopt orphaned descendants, so they can be waited for here."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _child_pids() -> "list[int] | None":
    """Pids whose parent is this process (zombies included); None without /proc."""
    me = os.getpid()
    try:
        entries = os.listdir("/proc")
    except OSError:
        return None
    pids = []
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as fh:
                stat = fh.read()
        except OSError:
            continue
        # The command name may hold spaces; the fields after it do not.
        fields = stat.rsplit(")", 1)[-1].split()
        if len(fields) > 1 and int(fields[1]) == me:
            pids.append(int(entry))
    return pids


def _close_resource_tracker() -> None:
    """Drop this process's end of the tracker pipe; it exits once all ends close."""
    try:
        from multiprocessing import resource_tracker
    except ImportError:
        return
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    lock = getattr(tracker, "_lock", None)
    if tracker is None or lock is None:
        return
    with lock:
        if tracker._fd is not None:
            try:
                os.close(tracker._fd)
            except OSError:
                pass
        tracker._fd = None
        tracker._pid = None  # waited for below, with every other child


def reap_descendants() -> int:
    """Wait until this process has no children; returns how many were signalled."""
    _close_resource_tracker()
    start = time.monotonic()
    signalled: dict[int, float] = {}
    while True:
        pids = _child_pids()
        if not pids:
            return len(signalled)
        now = time.monotonic()
        if now - start > LIMIT_S:
            return len(signalled)
        for pid in pids:
            try:
                done, _ = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                continue
            if done or now - start < GRACE_S:
                continue
            sig = signal.SIGTERM
            if pid in signalled and now - signalled[pid] > 1.0:
                sig = signal.SIGKILL
            elif pid in signalled:
                continue
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                continue
            signalled.setdefault(pid, now)
        time.sleep(0.01)
