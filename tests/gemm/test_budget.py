"""The core budget: the worker split, the BLAS lease and grouped in-place ``?gemm``.

The split is checked in process on a host pretending to have two usable
cores. The lease is process state that depends on how OpenBLAS was
loaded, so it is checked in fresh interpreters, once with
``OPENBLAS_NUM_THREADS`` unset (OpenBLAS starts with a thread per core)
and once pinned to 1; the two runs must also return the same bits.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.gemm import CakeGemm, GotoGemm, budget
from repro.gemm.backends.blas_group import BlasGroupBackend
from repro.gemm.plan import CakePlan, GotoPlan, PlanOverride
from repro.schedule.space import ComputationSpace
from repro.serve import FleetServer, MultiplyServer
from tests.gemm.test_backends import _band

SRC = str(Path(budget.__file__).resolve().parents[2])


def _managed() -> bool:
    """Whether the budget can set this process's BLAS thread count."""
    return budget.blas_threads_now() is not None


@pytest.fixture
def two_cores(monkeypatch):
    monkeypatch.setattr(budget, "usable_cores", lambda: 2)


class TestSplit:
    """The budget's split on a two-core host."""

    def test_large_strips_get_both_cores(self, two_cores, intel):
        if not _managed():
            pytest.skip("the BLAS thread count cannot be set here")
        assert CakeGemm(intel).workers_for(768, 768, 768) == 2
        assert CakeGemm(intel).workers_for(256, 1024, 2048) == 2
        assert GotoGemm(intel).workers_for(768, 768, 768) == 2

    def test_only_tasks_worth_a_thread_count(self, two_cores, intel):
        """GOTO's 256 rows are a 252-row mc strip and a 4-row one: one
        task worth a thread, so one worker."""
        assert GotoGemm(intel).workers_for(256, 1024, 2048) == 1

    @pytest.mark.parametrize("engine_cls", [CakeGemm, GotoGemm])
    def test_small_strips_stay_on_one_worker(self, two_cores, intel, engine_cls):
        assert engine_cls(intel).workers_for(128, 128, 128) == 1
        assert engine_cls(intel).workers_for(64, 256, 512) == 1

    def test_rule_reads_the_plan(self, two_cores, intel):
        """A strip task's work decides, against MIN_STRIP_FLOPS."""
        for shape in [(128, 128, 128), (64, 256, 512), (768, 768, 768)]:
            plan = CakePlan.from_problem(intel, ComputationSpace(*shape))
            rows = -(-min(shape[0], plan.grid().nominal.m) // plan.cores)
            block = plan.grid().nominal
            flops = 2 * rows * min(block.k, shape[2]) * min(block.n, shape[1])
            expected = 2 if flops >= budget.MIN_STRIP_FLOPS else 1
            if not _managed():
                expected = 1
            assert CakeGemm(intel).workers_for(*shape) == expected

    def test_processes_split_the_cores(self, two_cores, intel):
        assert CakeGemm(intel, processes=2).workers_for(768, 768, 768) == 1

    def test_grouped_backend_runs_one_thread(self, two_cores, intel):
        engine = CakeGemm(intel, backend="blas-group")
        assert engine.workers_for(768, 768, 768) == 1

    def test_explicit_and_tuned_workers_win(self, two_cores, intel):
        assert CakeGemm(intel, workers=3).workers_for(128, 128, 128) == 3
        tuned = CakeGemm(intel, plan=PlanOverride(workers=3))
        assert tuned.workers_for(128, 128, 128) == 3
        both = CakeGemm(intel, workers=1, plan=PlanOverride(workers=3))
        assert both.workers_for(768, 768, 768) == 1

    def test_unmanaged_blas_runs_one_worker(self, two_cores, intel, monkeypatch):
        monkeypatch.setattr(budget, "_blas", lambda: None)
        assert CakeGemm(intel).workers_for(768, 768, 768) == 1
        with budget.blas_lease() as count:
            assert count is None

    def test_core_share_caps_the_default(self, two_cores, intel):
        with budget.core_share(1):
            assert budget.cores() == 1
            assert CakeGemm(intel).workers_for(768, 768, 768) == 1
        with budget.core_share(None):
            assert budget.cores() == 2

    def test_server_executors_split_the_host(self, two_cores, intel, rng):
        a = rng.standard_normal((384, 384))
        b = rng.standard_normal((384, 384))
        direct = CakeGemm(intel, workers=1).multiply(a, b)
        with MultiplyServer(intel, executors=2) as server:
            assert server.request_cores == 1
            handle = server.submit(a, b)
            run = handle.result(timeout=60.0)
        assert handle.report.workers == 1
        assert np.array_equal(run.c, direct.c)
        if _managed():
            with MultiplyServer(intel, executors=1) as server:
                assert server.request_cores == 2
                handle = server.submit(a, b)
                run = handle.result(timeout=60.0)
            assert handle.report.workers == 2
            assert np.array_equal(run.c, direct.c)

    def test_fleet_workers_get_their_share(self, two_cores, intel):
        fleet = FleetServer(intel, workers=2, executors=2)
        assert fleet._options.host_cores == 1
        with budget.core_share(fleet._options.host_cores):
            assert MultiplyServer(intel, executors=2).request_cores == 1

    def test_degenerate_run_reports_no_blas(self, intel):
        run = CakeGemm(intel).multiply(np.ones((4, 0)), np.ones((0, 3)))
        assert run.workers == 1
        assert run.blas_threads is None

    def test_run_reports_its_blas_threads(self, intel, rng):
        a = rng.standard_normal((64, 48))
        run = CakeGemm(intel).multiply(a, a.T)
        assert run.blas_threads == (1 if _managed() else None)


class _FakeBlas:
    """A BLAS thread count held in Python, recording every value set."""

    def __init__(self, threads: int) -> None:
        self.threads = threads
        self.history = [threads]

    def get_threads(self) -> int:
        return self.threads

    def set_threads(self, threads: int) -> None:
        self.threads = threads
        self.history.append(threads)


class TestLeaseLogic:
    @pytest.fixture
    def fake(self, monkeypatch):
        fake = _FakeBlas(4)
        monkeypatch.setattr(budget, "_blas", lambda: fake)
        return fake

    def test_lowers_to_one_and_restores_on_a_raise(self, fake):
        with pytest.raises(RuntimeError):
            with budget.blas_lease() as count:
                assert count == 1 == fake.threads
                raise RuntimeError("a failing multiply")
        assert fake.threads == 4

    def test_never_raises_the_count(self, fake):
        fake.threads = 1  # the process already runs one thread
        with budget.blas_lease() as count:
            assert count == 1
        assert fake.history == [4]  # the lease set nothing

    def test_concurrent_leases_share_one_lowering(self, fake):
        """More threads than cores, a short switch interval: a lost
        update to the holder count would restore the count while a
        lease is still held, or leave it lowered at the end."""
        errors = []

        def hammer():
            try:
                for _ in range(300):
                    with budget.blas_lease():
                        if fake.threads != 1:
                            errors.append(fake.threads)
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert fake.threads == 4
        assert max(fake.history) == 4


# -- the lease, in fresh interpreters ------------------------------------------

_LEASE_SCRIPT = r"""
import hashlib, json, threading
import numpy as np
from repro.gemm import CakeGemm, GotoGemm, ShardConfig, budget
from repro.gemm.verify import NumericFaultError, VerifyConfig
from repro.machines import intel_i9_10900k
from repro.runtime import NumericFaultPlan, NumericFaultRule

machine = intel_i9_10900k()
start = budget.blas_threads_now()
digest = hashlib.sha256()

def restored(label):
    now = budget.blas_threads_now()
    assert now == start, f"{label}: BLAS threads {now}, started at {start}"

rng = np.random.default_rng(11)
# N = 457 in float64: products whose bits moved with the BLAS thread count.
a = rng.standard_normal((384, 320))
b = rng.standard_normal((320, 457))
cells = 0
for engine_cls in (CakeGemm, GotoGemm):
    for backend in ("numpy", "blas-group"):
        for extra in ({}, {"verify": True}, {"processes": 2}):
            default = engine_cls(machine, backend=backend, **extra).multiply(a, b)
            restored(f"{engine_cls.__name__} {backend} {extra}")
            serial = engine_cls(
                machine, backend=backend, workers=1, **extra
            ).multiply(a, b)
            assert np.array_equal(default.c, serial.c), (engine_cls, backend, extra)
            assert default.blas_threads == (None if start is None else 1)
            digest.update(default.c.tobytes())
            cells += 1

# Workers killed on every attempt: the shards end up inline in this
# process, which must run them over one BLAS thread too.
killing = VerifyConfig(inject=NumericFaultPlan(rules=(
    NumericFaultRule(block=0, strip="*", kind="kill", times=10**6),
)))
inline = CakeGemm(
    machine, processes=ShardConfig(processes=2, max_pool_rebuilds=0),
    verify=killing,
).multiply(a, b)
restored("after an inline fallback")
assert inline.shards.inline_shards > 0
assert inline.blas_threads == (None if start is None else 1)
digest.update(inline.c.tobytes())

faulty = VerifyConfig(
    max_retries=0, oracle_fallback=False,
    inject=NumericFaultPlan(rules=(
        NumericFaultRule(block=0, strip=0, kind="scale", factor=3.0, times=10**6),
    )),
)
try:
    CakeGemm(machine, verify=faulty).multiply(a, b)
except NumericFaultError:
    pass
else:
    raise AssertionError("the persistent fault did not raise")
restored("after a raising multiply")

if start is not None:
    with budget.blas_lease() as count:
        assert count == 1 == budget.blas_threads_now()
    restored("after a bare lease")

seen, done = [], threading.Event()

def watch():
    while not done.wait(0.0005):
        seen.append(budget.blas_threads_now())

def multiply_some():
    for _ in range(4):
        CakeGemm(machine).multiply(a, b)

watcher = threading.Thread(target=watch)
watcher.start()
threads = [threading.Thread(target=multiply_some) for _ in range(2)]
for t in threads:
    t.start()
for t in threads:
    t.join()
done.set()
watcher.join()
restored("after two concurrent threads")
if start is not None:
    assert max(seen) <= start, f"count rose to {max(seen)} above {start}"
print(json.dumps({"start": start, "cells": cells, "digest": digest.hexdigest()}))
"""

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


@pytest.fixture(scope="module")
def lease_runs() -> dict:
    runs = {}
    for label, pin in (("unset", None), ("pinned", "1")):
        env = {k: v for k, v in os.environ.items() if k not in _THREAD_VARS}
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [SRC, env.get("PYTHONPATH")])
        )
        if pin is not None:
            env["OPENBLAS_NUM_THREADS"] = pin
        proc = subprocess.run(
            [sys.executable, "-c", _LEASE_SCRIPT],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, f"{label}:\n{proc.stderr[-3000:]}"
        runs[label] = json.loads(proc.stdout.strip().splitlines()[-1])
    return runs


class TestBlasLease:
    @pytest.mark.parametrize("label", ["unset", "pinned"])
    def test_count_returns_and_never_rises(self, lease_runs, label):
        """Default workers match workers=1 in every cell, and the count
        is back where it started after success, a raise and concurrency
        (asserted inside the run)."""
        assert lease_runs[label]["cells"] == 12

    def test_pinned_start_is_one(self, lease_runs):
        assert lease_runs["pinned"]["start"] in (1, None)

    def test_bits_do_not_depend_on_the_environment(self, lease_runs):
        assert lease_runs["unset"]["digest"] == lease_runs["pinned"]["digest"]


# -- grouped in-place accumulation ----------------------------------------------


def _scratch_and_add(a, b, c) -> None:
    """The pre-budget group update: a product scratch, then an add."""
    scratch = np.empty(c.shape, dtype=c.dtype)
    np.matmul(a, b, out=scratch)
    np.add(c, scratch, out=c)


def _require_gemm():
    handle = budget._blas()
    if handle is None or not handle.gemm:
        pytest.skip("no CBLAS ?gemm entry point in this BLAS")
    return handle


class TestGroupedInPlace:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("engine", ["cake", "goto"])
    def test_in_place_matches_scratch_and_add_at_plan_depth(
        self, intel, rng, engine, dtype
    ):
        _require_gemm()
        plan_cls = CakePlan if engine == "cake" else GotoPlan
        kc = plan_cls.from_problem(intel, ComputationSpace(768, 768, 768)).kc
        for rows, cols in [(768, 768), (77, 768), (252, 1024), (13, 128), (211, 457)]:
            a = rng.standard_normal((rows, kc)).astype(dtype)
            b = rng.standard_normal((kc, cols)).astype(dtype)
            # The C panel is a strided view into a wider C, as in the engine.
            wide = rng.standard_normal((rows, cols + 9)).astype(dtype)
            expected = wide.copy()
            _scratch_and_add(a, b, expected[:, 3 : 3 + cols])
            assert budget.accumulate_gemm(a, b, wide[:, 3 : 3 + cols])
            assert np.array_equal(wide, expected), (rows, kc, cols)

    @pytest.mark.parametrize("k", [509, 1000, 2048])
    def test_size_one_axis_may_carry_any_stride(self, rng, k):
        _require_gemm()
        row = rng.standard_normal((1, k))
        col = row.T  # C-contiguous (k, 1), strides (8, 8k)
        assert col.flags["C_CONTIGUOUS"] and col.strides[1] != col.itemsize
        flipped = rng.standard_normal((2, k))[::-1][:1]  # strides (-8k, 8)
        for a, b in ((row, col), (col, row), (flipped, col)):
            c_view = np.zeros((a.shape[0], b.shape[1]))
            c_copy = np.zeros_like(c_view)
            assert budget.accumulate_gemm(a, b, c_view)
            assert budget.accumulate_gemm(a.copy(), b.copy(), c_copy)
            assert c_view.tobytes() == c_copy.tobytes()

    def _fallback_cases(self, rng):
        m, k, n = 24, 40, 18
        a = rng.standard_normal((m, k))
        b = rng.standard_normal((k, n))
        c = rng.standard_normal((m, n))
        cplx = np.complex128
        yield "complex", a.astype(cplx), b.astype(cplx), c.astype(cplx)
        yield "mixed", a.astype(np.float32), b, c
        yield "strided", rng.standard_normal((m, 2 * k))[:, ::2], b, c
        shared = rng.standard_normal((m, k + n))
        yield "overlap", shared[:, :k], b, shared[:, k:]

    def test_every_fallback_agrees_with_matmul(self, rng):
        for label, a, b, c in self._fallback_cases(rng):
            expected = c + np.matmul(a, b)
            assert not budget.accumulate_gemm(a, b, c), label  # touches nothing
            BlasGroupBackend().matmul_group(a, b, c)
            worst = float(np.abs(c - expected).max())
            assert worst <= _band(a, b), (label, worst)

    def test_missing_gemm_symbol_falls_back(self, rng, monkeypatch):
        handle = _require_gemm()
        monkeypatch.setattr(handle, "gemm", {})
        a, b = rng.standard_normal((16, 24)), rng.standard_normal((24, 12))
        c = np.zeros((16, 12))
        assert not budget.accumulate_gemm(a, b, c)
        BlasGroupBackend().matmul_group(a, b, c)
        assert float(np.abs(c - a @ b).max()) <= _band(a, b)

    def test_in_place_path_agrees_with_matmul(self, rng):
        _require_gemm()
        for dtype in (np.float32, np.float64):
            a = rng.standard_normal((50, 70)).astype(dtype)
            b = rng.standard_normal((70, 30)).astype(dtype)
            c = rng.standard_normal((50, 30)).astype(dtype)
            expected = c.astype(np.float64) + a.astype(np.float64) @ b
            BlasGroupBackend().matmul_group(a, b, c)
            assert float(np.abs(c - expected).max()) <= _band(a, b)

    def test_shapes_are_checked_before_the_call(self, rng):
        a, b = rng.standard_normal((8, 5)), rng.standard_normal((6, 4))
        with pytest.raises(ValueError, match="shapes disagree"):
            BlasGroupBackend().matmul_group(a, b, np.zeros((8, 4)))
        with pytest.raises(ValueError, match="shapes disagree"):
            BlasGroupBackend().matmul_group(
                a, rng.standard_normal((5, 4)), np.zeros((7, 4))
            )
