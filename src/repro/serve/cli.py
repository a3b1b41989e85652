"""``cake-serve``: drive the multiply server from the command line.

Three modes:

* default — start a server, run the closed-loop load generator over
  the Fig-8 skewed operand set for one or more client-concurrency
  levels, print a per-level summary, and exit nonzero if any response
  violated the serving contract (a bit-different product or an
  unstructured error). ``--workers N`` (N > 0) drives the supervised
  multi-process fleet instead of the single in-process server;
* ``--port P`` — serve remote clients: start a fleet of ``--workers``
  supervised worker processes behind the ``cake-serve/v1`` socket
  front door and block until interrupted;
* ``--soak SECONDS`` — run the fault-injected soak instead
  (:mod:`repro.serve.soak`); with ``--workers N`` it becomes the
  supervisor-level fleet soak (worker processes killed and hung).

Examples::

    cake-serve --clients 1,2,4 --requests 8 --deadline-ms 30000
    cake-serve --workers 2 --clients 2 --requests 6
    cake-serve --workers 2 --port 7474
    cake-serve --soak 30
    cake-serve --workers 2 --soak 20
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.machines.presets import intel_i9_10900k
from repro.serve.fleet import FleetFrontDoor, FleetServer
from repro.serve.loadgen import OperandSet, run_load
from repro.serve.server import MultiplyServer
from repro.serve.soak import main as soak_main


def _parse_levels(text: str) -> list[int]:
    levels = [int(part) for part in text.split(",") if part.strip()]
    if not levels or any(level < 1 for level in levels):
        raise argparse.ArgumentTypeError(
            f"client levels must be positive integers, got {text!r}"
        )
    return levels


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="cake-serve",
        description="Load-generate against the admission-controlled "
        "multiply server and audit every response.",
    )
    parser.add_argument(
        "--clients",
        type=_parse_levels,
        default=[1, 2, 4],
        help="comma-separated concurrency levels (default 1,2,4)",
    )
    parser.add_argument(
        "--requests", type=int, default=6, help="requests per client"
    )
    parser.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="per-request deadline in milliseconds (default: none)",
    )
    parser.add_argument(
        "--n", type=int, default=256, help="Fig-8 shape scale (N)"
    )
    parser.add_argument(
        "--capacity", type=int, default=64, help="admission queue bound"
    )
    parser.add_argument(
        "--executors", type=int, default=2, help="concurrent engine passes"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help="supervised worker processes (0: single in-process server)",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=None,
        help="serve remote clients on this TCP port (0: ephemeral); "
        "implies --workers (default 2 when unset)",
    )
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address for --port (default 127.0.0.1)",
    )
    parser.add_argument(
        "--soak",
        type=float,
        default=None,
        metavar="SECONDS",
        help="run the fault-injected soak for SECONDS instead",
    )
    parser.add_argument(
        "--json", type=Path, default=None, help="write per-level rows here"
    )
    args = parser.parse_args(argv)

    if args.soak is not None:
        soak_argv = ["--seconds", str(args.soak)]
        if args.workers > 0:
            soak_argv += ["--fleet", str(args.workers)]
        return soak_main(soak_argv)

    if args.port is not None:
        return _serve_forever(args)

    deadline = (
        None if args.deadline_ms is None else args.deadline_ms / 1000.0
    )
    machine = intel_i9_10900k()
    operands = OperandSet.figure8_skewed(args.n, machine=machine)
    rows = []
    violations = 0
    for clients in args.clients:
        server = _build_server(args, machine, deadline)
        with server:
            report = run_load(
                server,
                operands,
                clients=clients,
                requests_per_client=args.requests,
                deadline=deadline,
            )
            stats = server.stats()
        summary = report.as_dict()
        row = {**summary, "server": stats.as_dict()}
        if args.workers > 0:
            row["workers"] = args.workers
        rows.append(row)
        violations += report.mismatches + report.failed + report.unresolved
        line = (
            f"clients={clients:<3d} ok={report.ok:<4d} "
            f"shed={report.shed:<3d} expired={report.deadline_exceeded:<3d} "
            f"p50={1e3 * summary['p50_seconds']:7.1f}ms "
            f"p99={1e3 * summary['p99_seconds']:7.1f}ms "
            f"{report.throughput_rps:6.1f} req/s "
        )
        if args.workers > 0:
            line += (
                f"workers={stats.live_workers}/{stats.workers} "
                f"redispatched={stats.redispatched} "
                f"restarts={stats.worker_restarts}"
            )
        else:
            line += f"batches={stats.batches} coalesced={stats.coalesced}"
        print(line)
    if args.json is not None:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps(rows, indent=2, default=str))
    if violations:
        print(
            f"SERVE CONTRACT VIOLATED: {violations} bad responses",
            file=sys.stderr,
        )
        return 1
    return 0


def _build_server(args, machine, deadline):
    if args.workers > 0:
        return FleetServer(
            machine,
            workers=args.workers,
            capacity=args.capacity,
            executors=args.executors,
            default_deadline=deadline,
        )
    return MultiplyServer(
        machine,
        capacity=args.capacity,
        executors=args.executors,
        default_deadline=deadline,
    )


def _serve_forever(args) -> int:
    workers = args.workers if args.workers > 0 else 2
    deadline = (
        None if args.deadline_ms is None else args.deadline_ms / 1000.0
    )
    fleet = FleetServer(
        intel_i9_10900k(),
        workers=workers,
        capacity=args.capacity,
        executors=args.executors,
        default_deadline=deadline,
    )
    with fleet, FleetFrontDoor(fleet, args.host, args.port) as door:
        host, port = door.address
        print(
            f"cake-serve/v1 fleet: {workers} workers on {host}:{port} "
            "(Ctrl-C to stop)",
            flush=True,
        )
        try:
            while True:
                time.sleep(1.0)
        except KeyboardInterrupt:
            print("draining...", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
