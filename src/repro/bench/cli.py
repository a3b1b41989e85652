"""``cake-bench``: run paper experiments from the command line.

Examples::

    cake-bench --list
    cake-bench fig10
    cake-bench all --scale quick --out results/
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.bench.ablations import ABLATIONS
from repro.bench.experiments import EXPERIMENTS, run_experiment


def describe_experiment(fn) -> str:
    """One-line description for ``--list``: the docstring's first
    non-blank line, or a placeholder when the docstring is missing,
    empty, or all-whitespace (``.splitlines()[0]`` would raise)."""
    for line in (fn.__doc__ or "").strip().splitlines():
        if line.strip():
            return line.strip()
    return "(no description)"


def main(argv: list[str] | None = None) -> int:
    """Entry point for the ``cake-bench`` console script."""
    registry = {**EXPERIMENTS, **ABLATIONS}
    parser = argparse.ArgumentParser(
        prog="cake-bench",
        description="Reproduce the tables and figures of the CAKE paper "
        "(Kung, Natesh, Sabot — SC '21) on the simulated substrate.",
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        default="all",
        help="experiment id (see --list) or 'all'",
    )
    parser.add_argument(
        "--scale",
        choices=("full", "quick"),
        default="full",
        help="problem sizes: paper scale or reduced",
    )
    parser.add_argument(
        "--out", type=Path, default=None, help="also write reports to this dir"
    )
    parser.add_argument(
        "--csv",
        action="store_true",
        help="with --out, additionally write each report's tables as CSV",
    )
    parser.add_argument(
        "--list", action="store_true", help="list experiment ids and exit"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="fan experiment grids over this many worker processes "
        "(default: serial); crashed or hung pools are rebuilt for the "
        "unfinished cells, degrading to inline serial execution if "
        "rebuilding keeps failing",
    )
    parser.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="memoize completed experiment cells in this directory; "
        "rows checkpoint as they finish, so an interrupted run resumes "
        "from its partial progress",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=0,
        metavar="N",
        help="retry each failed cell up to N times with capped "
        "exponential backoff (jitter is deterministic per task)",
    )
    parser.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-task time budget; a worker shard exceeding "
        "len(shard)*SECONDS is presumed hung, its pool is torn down and "
        "the unfinished cells re-run (needs --workers >= 2)",
    )
    parser.add_argument(
        "--on-error",
        choices=("raise", "collect"),
        default="raise",
        help="'raise': abort an experiment on a permanently failed cell; "
        "'collect': finish the remaining cells, report the failures, "
        "mark BENCH output incomplete, and exit nonzero",
    )
    parser.add_argument(
        "--inject-faults",
        nargs="?",
        const="env",
        default=None,
        metavar="PLAN",
        help="deterministic fault injection for smoke-testing recovery: "
        "inline JSON plan, @file, or bare flag to read CAKE_FAULT_PLAN",
    )
    parser.add_argument(
        "--json",
        type=Path,
        default=None,
        metavar="DIR",
        help="write machine-readable BENCH_<id>.json rows to this dir",
    )
    args = parser.parse_args(argv)

    if args.list:
        for name, fn in sorted(registry.items()):
            print(f"{name:20s} {describe_experiment(fn)}")
        return 0

    fault_plan = None
    if args.inject_faults is not None:
        from repro.runtime import FAULT_PLAN_ENV, FaultPlan

        try:
            if args.inject_faults == "env":
                fault_plan = FaultPlan.from_env()
                if fault_plan is None:
                    parser.error(f"--inject-faults: {FAULT_PLAN_ENV} is not set")
            else:
                fault_plan = FaultPlan.from_spec(args.inject_faults)
        except (ValueError, OSError) as exc:
            parser.error(f"--inject-faults: {exc}")

    runtime = None
    wants_runtime = (
        args.workers is not None
        or args.cache_dir is not None
        or args.json is not None
        or args.retries > 0
        or args.task_timeout is not None
        or args.on_error != "raise"
        or fault_plan is not None
    )
    if wants_runtime:
        from repro.runtime import ExperimentRuntime

        try:
            runtime = ExperimentRuntime(
                workers=args.workers,
                cache_dir=args.cache_dir,
                retries=args.retries,
                task_timeout=args.task_timeout,
                on_error=args.on_error,
                faults=fault_plan,
            )
        except ValueError as exc:
            parser.error(str(exc))

    if runtime is not None:
        from repro.runtime import IncompleteRunError, TaskExecutionError

        run_errors: tuple[type, ...] = (IncompleteRunError, TaskExecutionError)
    else:
        run_errors = ()

    exit_status = 0
    names = sorted(registry) if args.experiment == "all" else [args.experiment]
    for name in names:
        start = time.perf_counter()
        failed = None
        report = None
        try:
            report = run_experiment(name, args.scale, runtime=runtime)
        except ValueError as exc:
            print(exc, file=sys.stderr)
            return 2
        except run_errors as exc:
            failed = exc
        elapsed = time.perf_counter() - start

        if failed is not None:
            exit_status = 1
            failures = getattr(failed, "failures", None)
            if failures is None:
                failures = failed.report.failures
            print(f"[{name} FAILED after {elapsed:.1f}s] {failed}", file=sys.stderr)
            for outcome in failures:
                print(
                    f"  task {outcome.task_id}: {outcome.error_type}: "
                    f"{outcome.error_message} ({outcome.attempts} attempt(s))",
                    file=sys.stderr,
                )
        else:
            print(report.text())
            print(f"[{name} generated in {elapsed:.1f}s]\n")
            if args.out is not None:
                args.out.mkdir(parents=True, exist_ok=True)
                (args.out / f"{name}.txt").write_text(report.text())
                if args.csv:
                    (args.out / f"{name}.csv").write_text(report.csv())
        if args.json is not None:
            from repro.runtime import rows_from_report, write_bench_json

            rows = runtime.drain_rows() if runtime is not None else []
            stats = runtime.last_stats if runtime is not None and rows else None
            if failed is not None:
                # Partial emission: completed rows only, marked incomplete.
                path = write_bench_json(
                    args.json,
                    name,
                    rows,
                    wall_seconds=elapsed,
                    scale=args.scale,
                    runtime_stats=runtime.last_stats if runtime else None,
                    complete=False,
                    failures=failures,
                )
            else:
                path = write_bench_json(
                    args.json,
                    name,
                    rows or rows_from_report(report),
                    wall_seconds=elapsed,
                    scale=args.scale,
                    runtime_stats=stats,
                )
            print(f"[{name} rows -> {path}]\n")
    return exit_status


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
