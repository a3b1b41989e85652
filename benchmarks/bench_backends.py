"""Compute-backend benchmark: the schedule/compute seam measured.

Runs the CAKE engine (plus one GOTO row per backend, which shares the
strip-group executor) through every registered backend
(:mod:`repro.gemm.backends`) on two shapes: a cube and the skewed
Figure 8-style shape (short M, deep K) where whole-group panel products
pay off most. The per-strip ``numpy`` oracle is the baseline.

Every measured run is asserted **exact** — at every scale, on every
host:

* deterministic backends must be bit-identical to the oracle
  (``np.array_equal`` on C);
* non-deterministic backends must agree within their declared
  ABFT-shaped band (``8 * eps * (k + 2)`` scaled by ``|A| @ |B|``);
* traffic counters must be equal for all backends (the schedule is
  backend-invariant by construction).

The wall-clock floor is the acceptance criterion of the backend
subsystem: at full scale, ``blas-group`` must beat the per-strip numpy
path on the skewed shape by ``FULL_SCALE_FLOOR``; at reduced scale the
CI smoke sets ``CAKE_BACKEND_BENCH_FLOOR`` explicitly.

A verified self-healing row closes the loop on the headline ABFT
scenario: ``blas-group`` with an injected strip corruption must heal
back to the bit-identical clean blas-group product.

Results land in ``benchmarks/results/BENCH_backends.json``
(cake-bench/v2), one row per (shape, engine, backend) plus the verified
row, each with wall seconds and the speedup over the oracle baseline.

Environment knobs:

``CAKE_BACKEND_BENCH_N``
    Cube edge (default 1536; the skewed shape is derived as
    ``N/4 x N x 2N``). Below 1536 the full-scale floor is off.
``CAKE_BACKEND_BENCH_FLOOR``
    Explicit blas-group-over-numpy floor on the skewed shape (used by
    the CI smoke step).
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.gemm.backends import backend_spec, registered_backends
from repro.gemm.cake import CakeGemm
from repro.gemm.goto import GotoGemm
from repro.gemm.verify import VerifyConfig
from repro.machines import intel_i9_10900k
from repro.runtime import write_bench_json
from repro.runtime.faults import NumericFaultPlan, NumericFaultRule

from .conftest import RESULTS_DIR

FULL_N = 1536
N = int(os.environ.get("CAKE_BACKEND_BENCH_N", str(FULL_N)))

#: Acceptance floor: on the full-scale skewed shape, the whole-group
#: BLAS backend must beat the per-strip numpy oracle.
FULL_SCALE_FLOOR = 1.2

REPEATS = 2
_BAND_SAFETY = 8.0


def _timed_multiply(engine, a, b):
    best, run = float("inf"), None
    for _ in range(REPEATS):
        start = time.perf_counter()
        run = engine.multiply(a, b)
        best = min(best, time.perf_counter() - start)
    return run, best


def _assert_exact(label, name, run, oracle, band):
    spec = backend_spec(name)
    if spec.capabilities.deterministic:
        assert np.array_equal(run.c, oracle.c), (
            f"{label}: deterministic backend {name!r} drifted from the oracle"
        )
    else:
        worst = float(np.abs(run.c - oracle.c).max())
        assert worst <= band, (
            f"{label}: backend {name!r} error {worst:.3e} exceeds its "
            f"agreement band {band:.3e}"
        )
    assert run.counters == oracle.counters, (
        f"{label}: backend {name!r} changed the traffic accounting"
    )


def _bench_shape(machine, label, m, n, k, rows):
    rng = np.random.default_rng(20217 + m)
    a = rng.standard_normal((m, k)).astype(np.float32)
    b = rng.standard_normal((k, n)).astype(np.float32)
    # ABFT-shaped elementwise agreement bound for non-deterministic
    # backends, collapsed to its worst cell.
    band = float(
        _BAND_SAFETY
        * np.finfo(a.dtype).eps
        * (k + 2)
        * (np.abs(a) @ np.abs(b)).max()
    )

    oracle_engine = CakeGemm(machine, backend="numpy")
    oracle, oracle_s = _timed_multiply(oracle_engine, a, b)
    goto_oracle, goto_oracle_s = _timed_multiply(
        GotoGemm(machine, backend="numpy"), a, b
    )

    speedups: dict[str, float] = {}
    for name in registered_backends():
        run, seconds = (
            (oracle, oracle_s)
            if name == "numpy"
            else _timed_multiply(CakeGemm(machine, backend=name), a, b)
        )
        _assert_exact(label, name, run, oracle, band)
        speedups[name] = oracle_s / seconds
        rows.append(
            {
                "shape": label, "engine": "cake", "backend": name,
                "m": m, "n": n, "k": k,
                "seconds": seconds, "speedup": speedups[name],
                "deterministic": backend_spec(name).capabilities.deterministic,
                "phases": dict(run.phase_seconds),
            }
        )

        g_run, g_seconds = (
            (goto_oracle, goto_oracle_s)
            if name == "numpy"
            else _timed_multiply(GotoGemm(machine, backend=name), a, b)
        )
        _assert_exact(f"{label}/goto", name, g_run, goto_oracle, band)
        rows.append(
            {
                "shape": label, "engine": "goto", "backend": name,
                "m": m, "n": n, "k": k,
                "seconds": g_seconds, "speedup": goto_oracle_s / g_seconds,
                "deterministic": backend_spec(name).capabilities.deterministic,
                "phases": dict(g_run.phase_seconds),
            }
        )
    return speedups


def _bench_verified_healing(machine, rows):
    """The headline ABFT row: non-oracle backend, injected fault, healed."""
    n = max(N // 2, 64)
    rng = np.random.default_rng(31415)
    a = rng.standard_normal((n, n)).astype(np.float32)
    b = rng.standard_normal((n, n)).astype(np.float32)
    clean, clean_s = _timed_multiply(CakeGemm(machine, backend="blas-group"), a, b)
    plan = NumericFaultPlan(
        rules=(NumericFaultRule(block=0, strip=0, kind="scale", factor=3.0),)
    )
    healed_engine = CakeGemm(
        machine, backend="blas-group", verify=VerifyConfig(inject=plan)
    )
    healed, healed_s = _timed_multiply(healed_engine, a, b)
    assert np.array_equal(healed.c, clean.c), (
        "injected corruption on blas-group was not healed bit-exactly"
    )
    assert healed.verify.mismatches >= 1
    assert healed.verify.retry_recoveries + healed.verify.oracle_recoveries >= 1
    rows.append(
        {
            "shape": "cube-verified", "engine": "cake", "backend": "blas-group",
            "m": n, "n": n, "k": n,
            "seconds": healed_s, "speedup": clean_s / healed_s,
            "deterministic": False,
            "verify": healed.verify.as_dict(),
        }
    )


def test_backends(benchmark):
    machine = intel_i9_10900k()
    rows: list[dict] = []
    speedups: dict[str, dict[str, float]] = {}

    def run():
        rows.clear()
        speedups["cube"] = _bench_shape(machine, "cube", N, N, N, rows)
        speedups["skewed"] = _bench_shape(
            machine, "skewed", max(N // 4, 1), N, 2 * N, rows
        )
        _bench_verified_healing(machine, rows)
        return rows

    start = time.perf_counter()
    benchmark.pedantic(run, rounds=1, iterations=1)
    wall = time.perf_counter() - start

    scale = "full" if N >= FULL_N else "quick"
    env_floor = os.environ.get("CAKE_BACKEND_BENCH_FLOOR")
    floor = float(env_floor) if env_floor else (
        FULL_SCALE_FLOOR if scale == "full" else None
    )

    RESULTS_DIR.mkdir(exist_ok=True)
    write_bench_json(
        RESULTS_DIR,
        "backends",
        rows,
        wall_seconds=wall,
        scale=scale,
        extra={
            "backends": list(registered_backends()),
            "speedup_floor": floor,
            "floor_shape": "skewed",
        },
    )
    for row in rows:
        print(
            f"\n{row['shape']:>13} {row['engine']}/{row['backend']:<11} "
            f"{row['seconds']:.3f}s ({row['speedup']:.2f}x vs oracle)"
        )

    if floor is not None:
        got = speedups["skewed"]["blas-group"]
        assert got >= floor, (
            f"skewed shape: blas-group at {got:.2f}x over the per-strip "
            f"numpy oracle; the floor is {floor:.1f}x"
        )
