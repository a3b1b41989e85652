"""The warm shard runtime's lifecycle (see ``repro.gemm.sharded``).

Shard worker pools and the shared-memory arena outlive one multiply.
What must still hold: workers die with their parent, idle pools and
the arena retire without leaving processes or segments behind, and a
pool that died while idle is replaced without charging the caller's
rebuild budget.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import subprocess
import sys
import time
from multiprocessing.connection import wait
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.gemm import CakeGemm
from repro.gemm.sharded import POOL_IDLE_SECONDS, ShardConfig

needs_proc = pytest.mark.skipif(
    not Path("/proc/self/stat").exists(), reason="needs /proc"
)

SHAPE = (300, 420, 170)  # a 2x2 CB block grid at cores=1


@pytest.fixture
def operands(rng):
    m, n, k = SHAPE
    return rng.standard_normal((m, k)), rng.standard_normal((k, n))


def _sharded(intel, a, b, **kw):
    return CakeGemm(intel, cores=1, processes=2, **kw).multiply(a, b)


def _children(pid: int) -> list[int]:
    """Live (non-zombie) processes whose parent is ``pid``."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[-1].split()
        if int(fields[1]) == pid and fields[0] != "Z":
            found.append(int(entry))
    return found


def _running(pid: int) -> bool:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[-1].split()[0] != "Z"


def _wait_until(predicate, seconds: float) -> bool:
    deadline = time.monotonic() + seconds
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)
    return True


def _shm_names() -> set[str]:
    return set(os.listdir("/dev/shm"))


@needs_proc
def test_workers_exit_when_the_parent_is_killed():
    code = (
        "import time\n"
        "import numpy as np\n"
        "from repro.gemm import CakeGemm\n"
        "from repro.machines import intel_i9_10900k\n"
        "rng = np.random.default_rng(0)\n"
        "a = rng.standard_normal((300, 170))\n"
        "b = rng.standard_normal((170, 420))\n"
        "CakeGemm(intel_i9_10900k(), cores=1, processes=2).multiply(a, b)\n"
        "print('warm', flush=True)\n"
        "time.sleep(60)\n"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", code],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    try:
        assert proc.stdout.readline().strip() == "warm"
        # The warm pool's two workers (and the resource tracker).
        workers = _children(proc.pid)
        assert len(workers) >= 2
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=10)
        assert _wait_until(
            lambda: not any(_running(pid) for pid in workers), 5.0
        ), [pid for pid in workers if _running(pid)]
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


@pytest.mark.skipif(not Path("/dev/shm").is_dir(), reason="needs /dev/shm")
def test_idle_pools_and_the_arena_retire(intel, rng):
    # A shape no other test uses, so the arena cannot reuse segments.
    a, b = rng.standard_normal((310, 190)), rng.standard_normal((190, 430))
    before = _shm_names()
    run = _sharded(intel, a, b)
    assert run.shards.processes == 2
    created = {name for name in _shm_names() - before if name.startswith("psm_")}
    assert created, "the arena keeps the run's segments for reuse"
    assert mp.active_children()
    assert _wait_until(
        lambda: not mp.active_children(), POOL_IDLE_SECONDS + 10.0
    ), mp.active_children()
    assert _wait_until(lambda: not created & _shm_names(), 5.0), (
        created & _shm_names()
    )


def test_a_pool_that_died_idle_is_replaced_for_free(intel, operands):
    a, b = operands
    serial = CakeGemm(intel, cores=1).multiply(a, b)
    _sharded(intel, a, b)
    victims = mp.active_children()
    assert victims
    for proc in victims:  # every warm worker, so the next lease hits one
        os.kill(proc.pid, signal.SIGKILL)
    for proc in victims:
        assert wait([proc.sentinel], timeout=10)
    run = _sharded(intel, a, b)
    assert np.array_equal(run.c, serial.c)
    assert run.shards.pool_rebuilds == 0
    assert run.shards.inline_shards == 0
