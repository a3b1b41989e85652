"""Process-sharded execution benchmark: CAKE-on-CAKE measured.

Runs the CAKE engine (plus GOTO rows, which share the shard runner)
with the M x N grid of CB blocks partitioned across worker processes
(:mod:`repro.gemm.sharded`): packed operands live in shared-memory
segments the workers attach zero-copy, each shard executes the
threaded strip-group executor on its disjoint C panel, and the parent
reassembles nothing — C is written in place.

Two shapes: a cube and the skewed Figure 8-style shape (short M, deep
K) where the near-square shard grid departs most from the naive
row-split. Process counts 1, 2 and 4 per shape.

Every measured run is asserted **exact** — at every scale, on every
host:

* the sharded product must be bit-identical to the 1-process run
  (``np.array_equal`` on C) for every process count;
* the schedule-derived traffic counters must be equal once the
  IPC term is masked (``TrafficCounters.without_ipc``) — sharding may
  add inter-process traffic but must not change the schedule;
* the measured inter-process bytes must sit within
  ``IPC_SLACK_FACTOR`` of the memory-independent communication lower
  bound ``2*K*sqrt(M*N*P) + M*N`` elements, and never below it.

The wall-clock floor is the acceptance criterion of the shard
subsystem: at full scale on a host with at least 2 physical cores,
2 processes must beat the 1-process threaded path on the skewed shape
by ``FULL_SCALE_FLOOR``. Single-core hosts (and reduced scales) record
the speedup without enforcing it; CI sets ``CAKE_SHARDED_BENCH_FLOOR``
explicitly on its multi-core runners.

Results land in ``benchmarks/results/BENCH_sharded.json``
(cake-bench/v2), one row per (shape, engine, processes), each with the
shard grid, wall seconds, speedup over the 1-process baseline, and the
measured-vs-bound IPC traffic.

Environment knobs:

``CAKE_SHARDED_BENCH_N``
    Cube edge (default 1024; the skewed shape is derived as
    ``N/4 x N x 2N``). Below 1024 the full-scale floor is off.
``CAKE_SHARDED_BENCH_FLOOR``
    Explicit 2-process-over-1-process floor on the skewed shape (used
    by the CI smoke step); enforced regardless of scale but still
    gated on the host core count.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.gemm.cake import CakeGemm
from repro.gemm.goto import GotoGemm
from repro.gemm.sharded import IPC_SLACK_FACTOR
from repro.machines import intel_i9_10900k
from repro.runtime import write_bench_json

from .conftest import RESULTS_DIR

FULL_N = 1024
N = int(os.environ.get("CAKE_SHARDED_BENCH_N", str(FULL_N)))

#: Acceptance floor: on the full-scale skewed shape, 2 shard processes
#: must beat the 1-process threaded path (needs >= 2 host cores).
FULL_SCALE_FLOOR = 1.2

#: Shard-speedup floors only make sense when the host can actually run
#: the shards concurrently.
MIN_CORES_FOR_FLOOR = 2

PROCESS_COUNTS = (1, 2, 4)
REPEATS = 2


def _host_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def _timed_multiply(engine, a, b):
    best, run = float("inf"), None
    for _ in range(REPEATS):
        start = time.perf_counter()
        run = engine.multiply(a, b)
        best = min(best, time.perf_counter() - start)
    return run, best


def _engine(kind, processes):
    # cores=1 keeps CB blocks small enough that the block grid has
    # several rows/columns to shard; multi-core plans grow blocks until
    # one covers these problem sizes whole.
    cls = CakeGemm if kind == "cake" else GotoGemm
    return cls(intel_i9_10900k(), cores=1, processes=processes)


def _bench_shape(label, m, n, k, rows):
    rng = np.random.default_rng(20219 + m)
    a = rng.standard_normal((m, k)).astype(np.float32)
    b = rng.standard_normal((k, n)).astype(np.float32)

    speedups: dict[str, dict[int, float]] = {}
    for kind in ("cake", "goto"):
        base, base_s = _timed_multiply(_engine(kind, 1), a, b)
        assert base.shards is None and base.processes == 1
        speedups[kind] = {1: 1.0}
        rows.append(
            {
                "shape": label, "engine": kind, "processes": 1,
                "m": m, "n": n, "k": k, "grid": "1x1",
                "seconds": base_s, "speedup": 1.0,
                "ipc_bytes": 0, "ipc_lower_bound_bytes": 0.0,
                "phases": dict(base.phase_seconds),
            }
        )
        for processes in PROCESS_COUNTS[1:]:
            run, seconds = _timed_multiply(_engine(kind, processes), a, b)
            assert np.array_equal(run.c, base.c), (
                f"{label}/{kind}: P={processes} product drifted from the "
                "1-process run"
            )
            assert (
                run.counters.without_ipc() == base.counters.without_ipc()
            ), (
                f"{label}/{kind}: P={processes} changed the schedule-derived "
                "traffic accounting"
            )
            report = run.shards
            assert report is not None
            bound = report.ipc_lower_bound_bytes
            assert bound <= report.ipc_bytes <= IPC_SLACK_FACTOR * bound, (
                f"{label}/{kind}: P={processes} IPC traffic "
                f"{report.ipc_bytes}B outside [1, {IPC_SLACK_FACTOR}]x of "
                f"the lower bound {bound:.0f}B"
            )
            speedups[kind][processes] = base_s / seconds
            rows.append(
                {
                    "shape": label, "engine": kind, "processes": processes,
                    "m": m, "n": n, "k": k,
                    "grid": f"{report.rows}x{report.cols}",
                    "seconds": seconds,
                    "speedup": speedups[kind][processes],
                    "ipc_bytes": report.ipc_bytes,
                    "ipc_lower_bound_bytes": bound,
                    "ipc_slack": report.slack,
                    "pool_rebuilds": report.pool_rebuilds,
                    "phases": dict(run.phase_seconds),
                }
            )
    return speedups


def test_sharded(benchmark):
    rows: list[dict] = []
    speedups: dict[str, dict[str, dict[int, float]]] = {}

    def run():
        rows.clear()
        speedups["cube"] = _bench_shape("cube", N, N, N, rows)
        speedups["skewed"] = _bench_shape(
            "skewed", max(N // 4, 1), N, 2 * N, rows
        )
        return rows

    start = time.perf_counter()
    benchmark.pedantic(run, rounds=1, iterations=1)
    wall = time.perf_counter() - start

    cores = _host_cores()
    scale = "full" if N >= FULL_N else "quick"
    env_floor = os.environ.get("CAKE_SHARDED_BENCH_FLOOR")
    floor = float(env_floor) if env_floor else (
        FULL_SCALE_FLOOR if scale == "full" else None
    )
    if cores < MIN_CORES_FOR_FLOOR:
        floor = None  # a single core cannot run two shards concurrently

    RESULTS_DIR.mkdir(exist_ok=True)
    write_bench_json(
        RESULTS_DIR,
        "sharded",
        rows,
        wall_seconds=wall,
        scale=scale,
        extra={
            "host_cores": cores,
            "speedup_floor": floor,
            "floor_shape": "skewed",
            "floor_processes": 2,
            "ipc_slack_factor": IPC_SLACK_FACTOR,
        },
    )
    for row in rows:
        print(
            f"\n{row['shape']:>7} {row['engine']}/P={row['processes']} "
            f"grid {row['grid']:>3}  {row['seconds']:.3f}s "
            f"({row['speedup']:.2f}x vs 1-process)"
        )

    if floor is not None:
        got = speedups["skewed"]["cake"][2]
        assert got >= floor, (
            f"skewed shape: 2 shard processes at {got:.2f}x over the "
            f"1-process threaded path; the floor is {floor:.1f}x"
        )
