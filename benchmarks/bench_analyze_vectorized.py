"""Batch analyzer vs. scalar schedule walk: equivalence and speedup.

Runs both engines' ``analyze()`` twice per shape — once through the
scalar per-block walk (``exact_walk=True``) and once through the
vectorized batch path — asserts the two are bit-for-bit identical, and
records the wall-clock of each in
``benchmarks/results/BENCH_analyze_vectorized.json``.

At the full scale (the Figure 10 Intel problem, 23040 x 23040 x 23040)
the CAKE batch path must be at least 10x faster than the scalar walk;
CI runs it there on every push. ``CAKE_ANALYZE_BENCH_N`` reduces the
shape for a quick local run, where only the equivalence assertions
apply.

Environment knobs:

``CAKE_ANALYZE_BENCH_N``
    Square problem edge (default 23040, the Figure 10 Intel scale).
    Values below the default skip the speedup floor assertion.
"""

from __future__ import annotations

import os
import time

from repro.gemm.cake import CakeGemm
from repro.gemm.goto import GotoGemm
from repro.machines import intel_i9_10900k
from repro.runtime import write_bench_json

from .conftest import RESULTS_DIR

FULL_N = 23040  # Figure 10's Intel problem edge
N = int(os.environ.get("CAKE_ANALYZE_BENCH_N", str(FULL_N)))

#: The CAKE analyze() speedup the batch path must deliver at full scale.
SPEEDUP_FLOOR = 10.0

COUNTER_FIELDS = (
    "ext_a_read", "ext_b_read", "ext_c_write", "ext_c_spill",
    "ext_c_read", "ext_pack", "internal", "tile_cycles", "macs",
)


def _assert_identical(scalar, batch, label):
    for field in COUNTER_FIELDS:
        got, want = getattr(batch.counters, field), getattr(scalar.counters, field)
        assert got == want, f"{label}.{field}: batch {got} != scalar {want}"
    assert batch.time.seconds == scalar.time.seconds, label
    assert batch.time.compute_seconds == scalar.time.compute_seconds, label
    assert batch.time.external_seconds == scalar.time.external_seconds, label
    assert batch.time.internal_seconds == scalar.time.internal_seconds, label
    assert batch.bound_blocks == scalar.bound_blocks, label
    assert batch.plan_summary == scalar.plan_summary, label


#: Timing repeats per path; the row records the minimum (standard
#: practice for deterministic compute — the min is the least-noise run).
REPEATS = 3


def _measure(engine_cls, machine, n, **kwargs):
    scalar_engine = engine_cls(machine, exact_walk=True, **kwargs)
    batch_engine = engine_cls(machine, **kwargs)
    batch_engine.analyze(n, n, n)  # warm plan memo + numpy for both paths
    scalar_s = batch_s = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        scalar_run = scalar_engine.analyze(n, n, n)
        scalar_s = min(scalar_s, time.perf_counter() - start)
        start = time.perf_counter()
        batch_run = batch_engine.analyze(n, n, n)
        batch_s = min(batch_s, time.perf_counter() - start)
    return scalar_run, batch_run, scalar_s, batch_s


def test_analyze_vectorized(benchmark):
    machine = intel_i9_10900k()
    rows = []

    def run():
        rows.clear()
        for engine_name, engine_cls in (("cake", CakeGemm), ("goto", GotoGemm)):
            scalar_run, batch_run, scalar_s, batch_s = _measure(
                engine_cls, machine, N
            )
            _assert_identical(scalar_run, batch_run, f"{engine_name}@{N}")
            rows.append(
                {
                    "engine": engine_name,
                    "machine": machine.name,
                    "n": N,
                    "blocks": int(
                        scalar_run.plan_summary.get("blocks", 0)
                        or scalar_run.plan_summary.get("m_strips", 0)
                    ),
                    "scalar_seconds": scalar_s,
                    "batch_seconds": batch_s,
                    "speedup": scalar_s / batch_s,
                }
            )
        return rows

    start = time.perf_counter()
    benchmark.pedantic(run, rounds=1, iterations=1)
    wall = time.perf_counter() - start

    RESULTS_DIR.mkdir(exist_ok=True)
    scale = "full" if N >= FULL_N else "quick"
    write_bench_json(
        RESULTS_DIR,
        "analyze_vectorized",
        rows,
        wall_seconds=wall,
        scale=scale,
        extra={"speedup_floor": SPEEDUP_FLOOR if scale == "full" else None},
    )
    for row in rows:
        print(
            f"\n{row['engine']} n={row['n']}: scalar {row['scalar_seconds']:.4f}s, "
            f"batch {row['batch_seconds']:.4f}s, speedup {row['speedup']:.1f}x"
        )

    if scale == "full":
        cake_row = rows[0]
        assert cake_row["speedup"] >= SPEEDUP_FLOOR, (
            f"CAKE batch analyze() only {cake_row['speedup']:.1f}x faster than "
            f"the scalar walk at n={N}; the acceptance floor is "
            f"{SPEEDUP_FLOOR:.0f}x"
        )
