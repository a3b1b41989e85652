"""Shared helpers for the benchmark harness.

Each figure bench runs one experiment generator (the exact code behind a
paper table/figure) inline, times it with pytest-benchmark, writes the
paper-style rows to ``benchmarks/results/<id>.txt`` plus machine-readable
rows (:func:`~repro.runtime.jsonout.rows_from_report`) to
``benchmarks/results/BENCH_<id>.json``, prints them, and asserts the
figure's qualitative claims (who wins, by what factor, where crossovers
fall).
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.bench import ExperimentReport, run_experiment
from repro.runtime import rows_from_report, write_bench_json

RESULTS_DIR = Path(__file__).parent / "results"


def run_and_emit(benchmark, experiment_id: str, scale: str = "full") -> ExperimentReport:
    """Benchmark one experiment generator and persist its report + rows."""
    start = time.perf_counter()
    report = benchmark.pedantic(
        run_experiment, args=(experiment_id, scale), rounds=1, iterations=1
    )
    wall = time.perf_counter() - start
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{experiment_id}.txt").write_text(report.text())
    write_bench_json(
        RESULTS_DIR,
        experiment_id,
        rows_from_report(report),
        wall_seconds=wall,
        scale=scale,
    )
    print()
    print(report.text())
    return report
