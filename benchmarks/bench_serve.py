"""GEMM-as-a-service benchmark: the serving layer under load and faults.

Three phases, all audited bit-for-bit:

* **Concurrency sweep.** Closed-loop clients (1, 2, 4 by default)
  stream Fig-8 skewed multiplies through one
  :class:`~repro.serve.server.MultiplyServer` per level. Every
  successful response is checked ``np.array_equal`` against a direct
  ``cake_matmul`` reference — the server may coalesce, but it may not
  change bits. With a deadline configured,
  the p99 latency of admitted-and-completed requests must sit under
  it (the deadline machinery would have expired anything slower).
* **Fleet sweep.** The same closed-loop load driven through the
  supervised multi-process :class:`~repro.serve.fleet.FleetServer` at
  one or more worker-process counts (``workers`` axis) — same contract
  assertions, plus zero worker restarts expected under fault-free load.
* **Fault soak.** A short :func:`~repro.serve.soak.run_soak` with
  kill/hang/bitflip/detect-and-raise rules firing while traffic flows. Zero
  silent wrong answers and zero deadlocks are hard assertions; the
  hang variant must expire via its deadline rather than stall the run.

Results land in ``benchmarks/results/BENCH_serve.json``
(cake-bench/v2), one row per concurrency level plus one soak row.

Environment knobs:

``CAKE_SERVE_BENCH_N``
    Fig-8 scale (default 256: the skewed shape is ``N/4 x N x 2N``).
``CAKE_SERVE_CLIENTS``
    Comma-separated concurrency levels (default ``1,2,4``).
``CAKE_SERVE_REQUESTS``
    Requests per client per level (default 6).
``CAKE_SERVE_DEADLINE_MS``
    Per-request deadline for the sweep (default 30000 ms — generous,
    so admitted work completes and the p99-under-deadline assertion is
    about the *accounting*, not the host's speed).
``CAKE_SERVE_SOAK_SECONDS``
    Fault-soak duration (default 6 s; CI's dedicated soak step runs
    longer).
``CAKE_SERVE_WORKERS``
    Comma-separated worker-process counts for the fleet phase
    (default ``1,2``).
"""

from __future__ import annotations

import os
import time

from repro.machines import intel_i9_10900k
from repro.runtime import write_bench_json
from repro.serve.fleet import FleetServer
from repro.serve.loadgen import OperandSet, run_load
from repro.serve.server import MultiplyServer
from repro.serve.soak import run_soak

from .conftest import RESULTS_DIR

FULL_N = 256
N = int(os.environ.get("CAKE_SERVE_BENCH_N", str(FULL_N)))
CLIENT_LEVELS = tuple(
    int(part)
    for part in os.environ.get("CAKE_SERVE_CLIENTS", "1,2,4").split(",")
    if part.strip()
)
REQUESTS_PER_CLIENT = int(os.environ.get("CAKE_SERVE_REQUESTS", "6"))
DEADLINE_SECONDS = (
    float(os.environ.get("CAKE_SERVE_DEADLINE_MS", "30000")) / 1000.0
)
SOAK_SECONDS = float(os.environ.get("CAKE_SERVE_SOAK_SECONDS", "6"))
WORKER_LEVELS = tuple(
    int(part)
    for part in os.environ.get("CAKE_SERVE_WORKERS", "1,2").split(",")
    if part.strip()
)
FLEET_CLIENTS = 2


def test_serve(benchmark):
    machine = intel_i9_10900k()
    rows: list[dict] = []
    soak_report: dict = {}

    def run():
        rows.clear()
        operands = OperandSet.figure8_skewed(N, machine=machine)
        for clients in CLIENT_LEVELS:
            with MultiplyServer(
                machine,
                capacity=max(64, 4 * clients),
                executors=2,
                default_deadline=DEADLINE_SECONDS,
            ) as server:
                report = run_load(
                    server,
                    operands,
                    clients=clients,
                    requests_per_client=REQUESTS_PER_CLIENT,
                    deadline=DEADLINE_SECONDS,
                )
                stats = server.stats()
            rows.append(
                {
                    "phase": "sweep",
                    **report.as_dict(),
                    "deadline_seconds": DEADLINE_SECONDS,
                    "batches": stats.batches,
                    "coalesced": stats.coalesced,
                    "pool_hits": stats.pool.get("hits", 0),
                    "pool_misses": stats.pool.get("misses", 0),
                }
            )
        for workers in WORKER_LEVELS:
            with FleetServer(
                machine,
                workers=workers,
                capacity=max(64, 4 * FLEET_CLIENTS),
                default_deadline=DEADLINE_SECONDS,
            ) as fleet:
                report = run_load(
                    fleet,
                    operands,
                    clients=FLEET_CLIENTS,
                    requests_per_client=REQUESTS_PER_CLIENT,
                    deadline=DEADLINE_SECONDS,
                )
                fleet_stats = fleet.stats()
            rows.append(
                {
                    "phase": "fleet",
                    "workers": workers,
                    **report.as_dict(),
                    "deadline_seconds": DEADLINE_SECONDS,
                    "redispatched": fleet_stats.redispatched,
                    "worker_restarts": fleet_stats.worker_restarts,
                    "worker_crashes": fleet_stats.worker_crashes,
                    "live_workers": fleet_stats.live_workers,
                }
            )
        soak_report.clear()
        soak_report.update(
            run_soak(
                seconds=SOAK_SECONDS,
                clients=3,
                n=max(N // 2, 64),
                machine=machine,
            )
        )
        rows.append(
            {
                "phase": "soak",
                "clients": soak_report["clients"],
                "requests": soak_report["requests"],
                "ok": soak_report["ok"],
                "shed": soak_report["shed"],
                "deadline_exceeded": soak_report["deadline_exceeded"],
                "expected_deadlines": soak_report["expected_deadlines"],
                "silent_wrong": soak_report["silent_wrong"],
                "unstructured_failures": soak_report[
                    "unstructured_failures"
                ],
                "unresolved": soak_report["unresolved"],
                "deadlocked": soak_report["deadlocked"],
                "wall_seconds": soak_report["wall_seconds"],
            }
        )
        return rows

    start = time.perf_counter()
    benchmark.pedantic(run, rounds=1, iterations=1)
    wall = time.perf_counter() - start

    sweep = [row for row in rows if row["phase"] == "sweep"]
    fleet_rows = [row for row in rows if row["phase"] == "fleet"]
    soak = next(row for row in rows if row["phase"] == "soak")

    # -- the serving contract, asserted at every scale ----------------------
    for row in sweep + fleet_rows:
        # Every response either succeeded bit-identically or terminated
        # with a structured shed/deadline error; nothing else is legal.
        assert row["mismatches"] == 0, f"{row['phase']}: bit drift"
        assert row["failed"] == 0, f"{row['clients']} clients: {row['errors']}"
        assert row["unresolved"] == 0, (
            f"{row['clients']} clients: stranded handles"
        )
        assert (
            row["ok"] + row["shed"] + row["deadline_exceeded"]
            == row["requests"]
        )
        assert row["ok"] > 0, f"{row['clients']} clients: nothing succeeded"
        # Admitted-and-completed p99 sits under the configured deadline
        # (anything slower would have been expired, not returned).
        assert row["p99_seconds"] <= DEADLINE_SECONDS, (
            f"{row['clients']} clients: p99 {row['p99_seconds']:.3f}s "
            f"exceeds the {DEADLINE_SECONDS:.3f}s deadline"
        )

    # The process boundary is transparent under fault-free load: no
    # crashes to recover from, so no restarts and no re-dispatches.
    for row in fleet_rows:
        assert row["worker_crashes"] == 0, row
        assert row["live_workers"] == row["workers"], row

    # -- fault soak: the two unforgivable outcomes --------------------------
    assert soak["silent_wrong"] == 0, "soak returned a silently wrong product"
    assert soak["unstructured_failures"] == 0
    assert not soak["deadlocked"], "soak stranded a request"
    assert soak["ok"] > 0, "soak never completed a request"
    # The hang variant exists to prove deadlines preempt stalls.
    assert soak["expected_deadlines"] == soak["deadline_exceeded"], (
        "a request without an injected hang lost its deadline race"
    )

    RESULTS_DIR.mkdir(exist_ok=True)
    write_bench_json(
        RESULTS_DIR,
        "serve",
        rows,
        wall_seconds=wall,
        scale="full" if N >= FULL_N else "quick",
        extra={
            "n": N,
            "client_levels": list(CLIENT_LEVELS),
            "requests_per_client": REQUESTS_PER_CLIENT,
            "deadline_seconds": DEADLINE_SECONDS,
            "soak_seconds": SOAK_SECONDS,
            "worker_levels": list(WORKER_LEVELS),
            "soak_variants": soak_report.get("variants", {}),
        },
    )
    for row in sweep:
        print(
            f"\nclients={row['clients']:<3d} ok={row['ok']:<4d} "
            f"shed={row['shed']:<3d} "
            f"p50={1e3 * row['p50_seconds']:7.1f}ms "
            f"p99={1e3 * row['p99_seconds']:7.1f}ms "
            f"{row['throughput_rps']:6.1f} req/s "
            f"coalesced={row['coalesced']} pool_hits={row['pool_hits']}"
        )
    for row in fleet_rows:
        print(
            f"\nworkers={row['workers']:<2d} clients={row['clients']:<3d} "
            f"ok={row['ok']:<4d} shed={row['shed']:<3d} "
            f"p50={1e3 * row['p50_seconds']:7.1f}ms "
            f"p99={1e3 * row['p99_seconds']:7.1f}ms "
            f"{row['throughput_rps']:6.1f} req/s "
            f"restarts={row['worker_restarts']}"
        )
    print(
        f"\n   soak ok={soak['ok']}/{soak['requests']} "
        f"expired={soak['deadline_exceeded']} "
        f"silent_wrong={soak['silent_wrong']} "
        f"deadlocked={soak['deadlocked']}"
    )
