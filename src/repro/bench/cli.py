"""``cake-bench``: run paper experiments from the command line.

Each experiment runs inline and prints its report; ``--out`` also saves
the report text (and CSV tables with ``--csv``), and ``--json`` writes
the report's tables as ``BENCH_<id>.json`` rows
(:mod:`repro.runtime.jsonout`).

Examples::

    cake-bench --list
    cake-bench fig10
    cake-bench all --scale quick --out results/ --json results/
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.bench.ablations import ABLATIONS
from repro.bench.experiments import EXPERIMENTS, run_experiment
from repro.runtime.jsonout import rows_from_report, write_bench_json


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

    names = sorted(registry) if args.experiment == "all" else [args.experiment]
    for name in names:
        start = time.perf_counter()
        try:
            report = run_experiment(name, args.scale)
        except ValueError as exc:
            print(exc, file=sys.stderr)
            return 2
        elapsed = time.perf_counter() - start
        print(report.text())
        print(f"[{name} generated in {elapsed:.1f}s]\n")
        if args.out is not None:
            args.out.mkdir(parents=True, exist_ok=True)
            (args.out / f"{name}.txt").write_text(report.text())
            if args.csv:
                (args.out / f"{name}.csv").write_text(report.csv())
        if args.json is not None:
            path = write_bench_json(
                args.json,
                name,
                rows_from_report(report),
                wall_seconds=elapsed,
                scale=args.scale,
            )
            print(f"[{name} rows -> {path}]\n")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
