"""Thread-scaling benchmark for the parallel numeric execution engine.

Measures ``multiply()`` wall-clock for the CAKE engine (plus one GOTO
row, which shares the executor) against the **serial path** — the
default engine at ``workers=1``, i.e. the inline per-strip walk over
in-place operand views. Two shapes run: a cube and a skewed Figure
8-style shape (short M, deep K, where CAKE's per-block M-decomposition
is the interesting case).

Every measured run is asserted **bit-identical** to the serial baseline
(``np.array_equal`` on C, equal traffic counters) — at every scale, on
every host. The wall-clock speedup floor is additionally asserted when
the host can express it:

* full scale (``N >= 1536``): the 4-worker run must be >= 2x the serial
  path, asserted when the host grants >= 4 usable cores;
* reduced scale (CI smoke): ``CAKE_MULT_BENCH_FLOOR`` sets the floor
  (the workflow asserts >= 1.2x at 2 workers), gated on the host
  granting at least as many cores as the floor's worker count.

Thread scaling cannot exist on hardware without cores: a 1-CPU container
still runs everything (exactness always asserted) but records the curve
without failing on physics.

Results land in ``benchmarks/results/BENCH_multiply_parallel.json``
(cake-bench/v1), one row per (shape, engine, workers) with the speedup
and the pack/compute/reduce phase breakdown from ``GemmRun``.

Environment knobs:

``CAKE_MULT_BENCH_N``
    Cube edge (default 1536; the skewed shape is derived as
    ``N/4 x N x 2N``). Below 1536 the 2x full-scale floor is off.
``CAKE_MULT_BENCH_WORKERS``
    Comma-separated worker counts for the curve (default ``1,2,4``).
``CAKE_MULT_BENCH_FLOOR``
    Explicit speedup floor applied to the largest measured worker count
    (used by the CI smoke step).
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.gemm.budget import usable_cores
from repro.gemm.cake import CakeGemm
from repro.gemm.goto import GotoGemm
from repro.machines import intel_i9_10900k
from repro.runtime import write_bench_json

from .conftest import RESULTS_DIR

FULL_N = 1536
N = int(os.environ.get("CAKE_MULT_BENCH_N", str(FULL_N)))
WORKER_COUNTS = tuple(
    int(w) for w in os.environ.get("CAKE_MULT_BENCH_WORKERS", "1,2,4").split(",")
)

#: Acceptance floor: 4 workers on the full-scale cube must halve the
#: serial wall-clock (requires a host with >= 4 usable cores).
FULL_SCALE_FLOOR = 2.0
FULL_SCALE_WORKERS = 4

REPEATS = 2


def _timed_multiply(engine, a, b):
    best, run = float("inf"), None
    for _ in range(REPEATS):
        start = time.perf_counter()
        run = engine.multiply(a, b)
        best = min(best, time.perf_counter() - start)
    return run, best


def _bench_shape(machine, label, m, n, k, rows):
    rng = np.random.default_rng(20210 + m)
    a = rng.standard_normal((m, k)).astype(np.float32)
    b = rng.standard_normal((k, n)).astype(np.float32)

    # workers=1, not the budget's default.
    serial = CakeGemm(machine, workers=1)
    serial_run, serial_s = _timed_multiply(serial, a, b)
    rows.append(
        {
            "shape": label, "engine": "cake", "path": "serial",
            "m": m, "n": n, "k": k, "workers": 1,
            "seconds": serial_s, "speedup": 1.0,
            "phases": dict(serial_run.phase_seconds),
        }
    )

    speedups: dict[int, float] = {}
    for workers in WORKER_COUNTS:
        engine = CakeGemm(machine, workers=workers)
        run, seconds = _timed_multiply(engine, a, b)
        assert np.array_equal(run.c, serial_run.c), (
            f"{label}: workers={workers} drifted from the serial product"
        )
        assert run.counters == serial_run.counters, (
            f"{label}: workers={workers} changed the traffic accounting"
        )
        speedups[workers] = serial_s / seconds
        rows.append(
            {
                "shape": label, "engine": "cake", "path": "parallel",
                "m": m, "n": n, "k": k, "workers": workers,
                "seconds": seconds, "speedup": speedups[workers],
                "phases": dict(run.phase_seconds),
            }
        )

    # One GOTO row at the top worker count: both engines share the
    # executor; this keeps the shared path measured release to release.
    goto_serial = GotoGemm(machine, workers=1)
    goto_serial_run, goto_serial_s = _timed_multiply(goto_serial, a, b)
    goto = GotoGemm(machine, workers=max(WORKER_COUNTS))
    goto_run, goto_s = _timed_multiply(goto, a, b)
    assert np.array_equal(goto_run.c, goto_serial_run.c)
    assert goto_run.counters == goto_serial_run.counters
    rows.append(
        {
            "shape": label, "engine": "goto", "path": "parallel",
            "m": m, "n": n, "k": k, "workers": max(WORKER_COUNTS),
            "seconds": goto_s, "speedup": goto_serial_s / goto_s,
            "phases": dict(goto_run.phase_seconds),
        }
    )
    return speedups


def test_multiply_parallel(benchmark):
    machine = intel_i9_10900k()
    host_cores = usable_cores()
    rows: list[dict] = []
    speedups: dict[str, dict[int, float]] = {}

    def run():
        rows.clear()
        speedups["cube"] = _bench_shape(machine, "cube", N, N, N, rows)
        speedups["skewed"] = _bench_shape(
            machine, "skewed", max(N // 4, 1), N, 2 * N, rows
        )
        return rows

    start = time.perf_counter()
    benchmark.pedantic(run, rounds=1, iterations=1)
    wall = time.perf_counter() - start

    scale = "full" if N >= FULL_N else "quick"
    env_floor = os.environ.get("CAKE_MULT_BENCH_FLOOR")
    floor = float(env_floor) if env_floor else (
        FULL_SCALE_FLOOR if scale == "full" else None
    )
    floor_workers = (
        max(WORKER_COUNTS) if env_floor
        else (FULL_SCALE_WORKERS if scale == "full" else None)
    )

    RESULTS_DIR.mkdir(exist_ok=True)
    write_bench_json(
        RESULTS_DIR,
        "multiply_parallel",
        rows,
        wall_seconds=wall,
        scale=scale,
        extra={
            "host_cores": host_cores,
            "worker_counts": list(WORKER_COUNTS),
            "speedup_floor": floor,
            "floor_workers": floor_workers,
        },
    )
    for row in rows:
        print(
            f"\n{row['shape']:>6} {row['engine']}/{row['path']:<13} "
            f"workers={row['workers']}: {row['seconds']:.3f}s "
            f"({row['speedup']:.2f}x) phases={{"
            f"pack {row['phases']['pack']:.3f}, "
            f"compute {row['phases']['compute']:.3f}, "
            f"reduce {row['phases']['reduce']:.3f}}}"
        )

    if floor is not None and floor_workers in speedups["cube"]:
        if host_cores >= min(floor_workers, 4):
            got = speedups["cube"][floor_workers]
            assert got >= floor, (
                f"cube {N}^3 at {floor_workers} workers: {got:.2f}x over the "
                f"serial path; the floor is {floor:.1f}x "
                f"(host grants {host_cores} cores)"
            )
        else:
            print(
                f"\nspeedup floor skipped: host grants {host_cores} core(s), "
                f"thread scaling needs >= {min(floor_workers, 4)}"
            )
