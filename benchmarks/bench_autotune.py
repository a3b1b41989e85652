"""Plan-autotuner benchmark: tuned plans must actually be faster.

Runs the :class:`~repro.tune.PlanTuner` pipeline end to end on two
shapes — a cube and the skewed Figure 8-style shape (short M, deep K)
where coarser host granularity pays off most — against a throwaway plan
cache, then *re-executes* the winning override head-to-head with the
analytic plan:

* the tuned product is asserted **bit-identical** to the analytic
  engine's C (`np.array_equal`) on every shape — the tuner's contract
  is speed without a single differing bit;
* the second resolution of every key must be a pure cache hit
  (``source == "cache"``), i.e. the search is paid once and amortized;
* at full scale, the best shape's re-measured tuned-over-analytic
  speedup must clear ``FULL_SCALE_FLOOR`` (the subsystem's acceptance
  criterion); CI relaxes it via ``CAKE_AUTOTUNE_BENCH_FLOOR=1.0``.

Results land in ``benchmarks/results/BENCH_autotune.json``
(cake-bench/v2): one row per shape with the re-measured analytic and
tuned seconds, the winning override, the cold-tune cost, and the
cache-hit cost it amortizes down to.

Environment knobs:

``CAKE_AUTOTUNE_BENCH_N``
    Cube edge (default 512; the skewed shape is derived as
    ``N/4 x N x 2N``). Below 512 the full-scale floor is off.
``CAKE_AUTOTUNE_BENCH_FLOOR``
    Explicit tuned-over-analytic floor on the best shape (used by the
    CI smoke step, which sets 1.0: no regression, floor not enforced).
"""

from __future__ import annotations

import os
import tempfile
import time

import numpy as np

from repro.gemm.cake import CakeGemm
from repro.machines import intel_i9_10900k
from repro.runtime import write_bench_json
from repro.tune import PlanTuner, TuneConfig, TuneKey

from .conftest import RESULTS_DIR

FULL_N = 512
N = int(os.environ.get("CAKE_AUTOTUNE_BENCH_N", str(FULL_N)))

#: Acceptance floor: at full scale the best shape's tuned execution must
#: beat the analytic plan by at least this re-measured factor.
FULL_SCALE_FLOOR = 1.05

REPEATS = 3


def _timed_multiply(engine, a, b):
    best, run = float("inf"), None
    for _ in range(REPEATS):
        start = time.perf_counter()
        run = engine.multiply(a, b)
        best = min(best, time.perf_counter() - start)
    return run, best


def _bench_shape(machine, tuner, label, m, n, k, rows):
    key = TuneKey(
        engine="cake", m=m, n=n, k=k, dtype="<f4",
        machine=machine.name, cores=None, backend="numpy", processes=1,
    )
    start = time.perf_counter()
    cold = tuner.tune(key)
    cold_seconds = time.perf_counter() - start
    assert cold.source == "search", f"{label}: first tune was not a search"

    start = time.perf_counter()
    hit = tuner.tune(key)
    hit_seconds = time.perf_counter() - start
    assert hit.source == "cache", (
        f"{label}: second resolution re-searched instead of hitting the cache"
    )
    assert hit.override == cold.override, (
        f"{label}: cached winner differs from the searched one"
    )

    rng = np.random.default_rng(20219 + m)
    a = rng.standard_normal((m, k)).astype(np.float32)
    b = rng.standard_normal((k, n)).astype(np.float32)

    analytic, analytic_s = _timed_multiply(
        CakeGemm(machine, tuned=False), a, b
    )
    tuned, tuned_s = _timed_multiply(
        CakeGemm(machine, plan=cold.override, tuned=False), a, b
    )
    assert np.array_equal(tuned.c, analytic.c), (
        f"{label}: tuned product drifted from the analytic plan"
    )
    speedup = analytic_s / tuned_s
    rows.append(
        {
            "shape": label, "engine": "cake",
            "m": m, "n": n, "k": k,
            "analytic_seconds": analytic_s,
            "tuned_seconds": tuned_s,
            "speedup": speedup,
            "override": (
                None if cold.override is None else cold.override.as_dict()
            ),
            "cold_tune_seconds": cold_seconds,
            "cache_hit_seconds": hit_seconds,
            "amortization": cold_seconds / hit_seconds if hit_seconds else None,
        }
    )
    return speedup


def test_autotune(benchmark):
    machine = intel_i9_10900k()
    rows: list[dict] = []
    speedups: dict[str, float] = {}

    def run():
        rows.clear()
        speedups.clear()
        with tempfile.TemporaryDirectory(prefix="cake-tune-bench-") as root:
            tuner = PlanTuner(
                machine, TuneConfig(cache_root=root, repeats=REPEATS)
            )
            speedups["cube"] = _bench_shape(
                machine, tuner, "cube", N, N, N, rows
            )
            speedups["skewed"] = _bench_shape(
                machine, tuner, "skewed", max(N // 4, 1), N, 2 * N, rows
            )
        return rows

    start = time.perf_counter()
    benchmark.pedantic(run, rounds=1, iterations=1)
    wall = time.perf_counter() - start

    scale = "full" if N >= FULL_N else "quick"
    env_floor = os.environ.get("CAKE_AUTOTUNE_BENCH_FLOOR")
    floor = float(env_floor) if env_floor else (
        FULL_SCALE_FLOOR if scale == "full" else None
    )

    RESULTS_DIR.mkdir(exist_ok=True)
    write_bench_json(
        RESULTS_DIR,
        "autotune",
        rows,
        wall_seconds=wall,
        scale=scale,
        extra={
            "speedup_floor": floor,
            "floor_shape": "best",
        },
    )
    for row in rows:
        print(
            f"\n{row['shape']:>7} {row['m']}x{row['n']}x{row['k']:<6} "
            f"analytic {row['analytic_seconds']:.3f}s -> tuned "
            f"{row['tuned_seconds']:.3f}s ({row['speedup']:.2f}x), "
            f"cold tune {row['cold_tune_seconds']:.2f}s, "
            f"cache hit {row['cache_hit_seconds'] * 1e3:.2f}ms"
        )

    if floor is not None:
        best = max(speedups.values())
        assert best >= floor, (
            f"best tuned speedup {best:.2f}x is under the {floor:.2f}x floor "
            f"(per-shape: { {s: round(v, 2) for s, v in speedups.items()} })"
        )
