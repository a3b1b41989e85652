"""Fault-injected soak: traffic and failures flowing at the same time.

The acceptance bar of the serving layer: while concurrent clients
stream multiplies, scripted faults fire continuously, and every
admitted request must end in exactly one of two ways:

* a product **bit-identical** to the direct engine reference, or
* a **structured** terminal error (``AdmissionError``,
  ``DeadlineExceededError``, or another ``CakeError``).

Silent wrong answers and deadlocks are the two unforgivable outcomes;
the soak counts both and :func:`main` exits nonzero on either, which is
what CI runs. The clients are the load generator's one audited closed
loop (:func:`repro.serve.loadgen.drive`).

:func:`run_soak` has two targets. By default it drives one
``MultiplyServer`` with shard kills and hangs, bit flips that
verification heals, and numeric corruption it detects and raises; the
shard faults are scripted through ``state_dir``-backed
:class:`~repro.runtime.faults.NumericFaultPlan` budgets (unique per
request), so "fail once, heal on rebuild" is deterministic across
process boundaries. ``fleet=N`` drives a supervised
:class:`~repro.serve.fleet.FleetServer` of N worker processes instead,
SIGKILLing and hanging whole workers on timers while traffic flows, to
audit that crash-safe re-dispatch keeps the same contract. Run either
directly::

    PYTHONPATH=src python -m repro.serve.soak --seconds 30 --clients 3
    PYTHONPATH=src python -m repro.serve.soak --fleet 2 --seconds 20
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import tempfile
import threading
import time
from pathlib import Path

from repro.gemm.sharded import ShardConfig
from repro.gemm.verify import VerifyConfig
from repro.machines.presets import intel_i9_10900k
from repro.runtime.faults import NumericFaultPlan, NumericFaultRule
from repro.runtime.restart import RestartPolicy
from repro.serve.fleet import FleetServer
from repro.serve.loadgen import Call, OperandSet, drive
from repro.serve.server import MultiplyServer

#: Budget for the hang-under-deadline variant: generous enough to admit
#: and spawn a shard pool, far shorter than the injected 8 s hang.
HANG_DEADLINE_SECONDS = 1.5
HANG_SECONDS = 8.0

#: A single-server soak client gives up on a handle after this long; an
#: unresolved handle is counted as a deadlock (the contract says every
#: admitted request terminates). The fleet soak waits ``deadline + 30``.
RESULT_TIMEOUT_SECONDS = 60.0


def _variants(state_root: Path | None, include_sharded: bool) -> list[dict]:
    """The request mix, cycled per client iteration.

    ``kwargs`` may be a callable of a unique request id — the shard
    fault variants need a fresh ``state_dir`` per request so each one
    experiences its own fail-once budget. Without a ``state_root``
    (the fleet soak, whose faults are whole-worker kills and hangs)
    only the four healing variants run.
    """

    def kill(uid: str) -> dict:
        # A shard worker dies mid-group; run_sharded's rebuild ladder
        # heals it inside the engine call. spawn, not fork: the server
        # is multi-threaded, and forking a threaded parent
        # can deadlock a child on an inherited lock — the exact class
        # of hang this soak exists to catch, so it must not cause one.
        return dict(
            engine="cake",
            processes=ShardConfig(processes=2, start_method="spawn"),
            verify=VerifyConfig(
                enabled=False,
                inject=NumericFaultPlan(
                    rules=(NumericFaultRule(kind="kill"),),
                    state_dir=str(state_root / f"kill-{uid}"),
                ),
            ),
        )

    def hang(uid: str) -> dict:
        # A shard worker stalls far past the request deadline; the
        # ShardConfig deadline (derived per request by the server)
        # must kill the hung pool and surface DeadlineExceededError.
        return dict(
            engine="cake",
            deadline=HANG_DEADLINE_SECONDS,
            processes=ShardConfig(processes=2, start_method="spawn"),
            verify=VerifyConfig(
                enabled=False,
                inject=NumericFaultPlan(
                    rules=(
                        NumericFaultRule(
                            kind="hang", hang_seconds=HANG_SECONDS
                        ),
                    ),
                    state_dir=str(state_root / f"hang-{uid}"),
                ),
            ),
        )

    variants = [
        {"name": "plain-cake", "kwargs": dict(engine="cake")},
        {"name": "plain-goto", "kwargs": dict(engine="goto")},
        {"name": "threaded", "kwargs": dict(engine="cake", workers=2)},
        {
            "name": "bitflip-heal",
            # ABFT detects the flipped bit at the block barrier and
            # recomputes the strip inside the engine call.
            "kwargs": dict(
                engine="cake",
                verify=VerifyConfig(
                    inject=NumericFaultPlan(
                        rules=(
                            NumericFaultRule(
                                block=0, strip=0, kind="bitflip"
                            ),
                        )
                    )
                ),
            ),
        },
    ]
    if state_root is None:
        return variants
    variants.append(
        {
            "name": "detect-raise",
            # Detection without recovery: the engine raises
            # NumericFaultError on the corrupted group, and the server
            # resolves the handle with it — a structured failure.
            "kwargs": dict(
                engine="cake",
                verify=VerifyConfig(
                    max_retries=0,
                    oracle_fallback=False,
                    inject=NumericFaultPlan(
                        rules=(
                            NumericFaultRule(
                                block=0, strip=0, kind="scale", factor=3.0
                            ),
                        )
                    ),
                ),
            ),
        }
    )
    if include_sharded:
        variants.append({"name": "kill-rebuild", "kwargs": kill})
        variants.append(
            {"name": "hang-deadline", "kwargs": hang, "expect": "deadline"}
        )
    return variants


def run_soak(
    *,
    seconds: float = 10.0,
    clients: int = 3,
    n: int = 192,
    machine=None,
    include_sharded: bool = True,
    state_root: str | None = None,
    fleet: int = 0,
    kill_every: float = 2.0,
    hang_every: float = 5.0,
    hang_seconds: float = 2.5,
    deadline: float = 30.0,
) -> dict:
    """Run the soak and return its audit report (no exiting/printing).

    ``fleet=0`` soaks one ``MultiplyServer`` with the shard-level fault
    mix (``include_sharded`` adds the shard kill/hang variants;
    ``state_root`` holds their fail-once budgets). ``fleet=N`` soaks a
    fleet of N worker processes with the four stateless variants while
    a chaos thread kills a worker every ``kill_every`` seconds and
    hangs one for ``hang_seconds`` every ``hang_every`` seconds (``0``
    disables either). Every fleet request carries ``deadline``, so a
    crash mid-request must resolve within that budget, never hang. The
    single-server soak sets no deadline beyond the hang variant's: a
    handle the server strands stays pending and counts as a deadlock.
    """
    machine = intel_i9_10900k() if machine is None else machine
    root = None
    if not fleet:
        root = Path(state_root or tempfile.mkdtemp(prefix="cake-soak-"))
        root.mkdir(parents=True, exist_ok=True)
    variants = _variants(root, include_sharded)
    # The bit-identity oracle every served response is audited against.
    # cores=1 keeps CB blocks small enough that the sharded variants get
    # a real multi-block shard grid at this problem size.
    operands = OperandSet.figure8_skewed(
        n, seed=2021_08, machine=machine, cores=1
    )
    result_timeout = RESULT_TIMEOUT_SECONDS
    if fleet:
        result_timeout = deadline + 30.0
        server = FleetServer(
            machine,
            workers=fleet,
            capacity=4 * clients + 8,
            executors=2,
            cores=1,
            heartbeat_interval=0.1,
            heartbeat_timeout=1.0,
            # The chaos thread kills workers for the whole run: a huge
            # cap plus a short health-reset keeps restarts effectively
            # unbounded here (tests pin the bounded/terminal path).
            restart_policy=RestartPolicy(
                max_restarts=1_000_000,
                base_delay=0.05,
                max_delay=0.5,
                reset_after=5.0,
            ),
            max_redispatch=3,
            max_inflight_per_worker=2 * clients,
        )
    else:
        server = MultiplyServer(
            machine,
            capacity=4 * clients + 8,
            executors=2,
            cores=1,
        )

    stop_at = time.monotonic() + seconds
    injected = {"kills": 0, "hangs": 0}
    chaos_stop = threading.Event()

    def chaos() -> None:
        chooser = random.Random(1337)
        next_kill = time.monotonic() + kill_every
        next_hang = time.monotonic() + hang_every
        while not chaos_stop.wait(0.05):
            now = time.monotonic()
            ready = server.supervisor.ready_indices()
            if not ready:
                continue
            if kill_every > 0 and now >= next_kill:
                server.kill_worker(chooser.choice(ready))
                next_kill = now + kill_every
                injected["kills"] += 1
            if hang_every > 0 and now >= next_hang:
                server.hang_worker(chooser.choice(ready), hang_seconds)
                next_hang = now + hang_every
                injected["hangs"] += 1

    def source(worker: int, i: int) -> "Call | None":
        if time.monotonic() >= stop_at:
            return None
        variant = variants[(worker + i) % len(variants)]
        kwargs = variant["kwargs"]
        if callable(kwargs):
            kwargs = kwargs(f"{worker}-{i + 1}")
        if fleet:
            kwargs = {"deadline": deadline, **kwargs}
        index = (i + 1) % len(operands.pairs)
        a, b = operands.pairs[index]
        reference = operands.references[kwargs["engine"]][index]
        return Call(variant["name"], a, b, reference, kwargs)

    chaos_thread = threading.Thread(target=chaos, name="soak-chaos")
    wall_start = time.perf_counter()
    server.start()
    try:
        if fleet:
            chaos_thread.start()
        # Generous join bound: every handle wait is itself bounded, so
        # a client outliving this is wedged — a deadlock by definition.
        load = drive(
            server,
            source,
            clients=clients,
            result_timeout=result_timeout,
            join_timeout=seconds + result_timeout + HANG_SECONDS + 30,
        )
    finally:
        chaos_stop.set()
        if chaos_thread.is_alive():
            chaos_thread.join(5.0)
        server.stop(drain=False)
    wall = time.perf_counter() - wall_start

    per_variant = {}
    expected_deadlines = 0
    for variant in variants:
        tally = load.labels.get(variant["name"], {})
        deadlines = tally.get("deadline_exceeded", 0)
        if variant.get("expect") == "deadline":
            expected_deadlines += deadlines
            deadlines = 0
        per_variant[variant["name"]] = {
            "requests": sum(tally.values()),
            "ok": tally.get("ok", 0),
            "errors": deadlines
            + tally.get("structured", 0)
            + tally.get("unstructured", 0),
        }
    return {
        "seconds": seconds,
        "clients": clients,
        "workers": fleet,
        "n": n,
        "include_sharded": include_sharded and not fleet,
        "wall_seconds": wall,
        "deadlocked": load.stuck or load.unresolved > 0,
        "requests": load.requests,
        "ok": load.ok,
        "shed": load.shed,
        "deadline_exceeded": load.deadline_exceeded,
        "expected_deadlines": expected_deadlines,
        "structured_failures": load.structured,
        "unstructured_failures": load.unstructured,
        "silent_wrong": load.mismatches,
        "unresolved": load.unresolved,
        "kills_injected": injected["kills"],
        "hangs_injected": injected["hangs"],
        "variants": per_variant,
        "fleet" if fleet else "server": server.stats().as_dict(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Fault-injected soak of the multiply server "
        "(nonzero exit on silent wrong answers or deadlocks)."
    )
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--clients", type=int, default=3)
    parser.add_argument("--n", type=int, default=192)
    parser.add_argument(
        "--no-sharded",
        action="store_true",
        help="skip the kill/hang shard variants (single-core hosts)",
    )
    parser.add_argument(
        "--json", type=Path, default=None, help="write the report here"
    )
    parser.add_argument(
        "--fleet",
        type=int,
        default=0,
        metavar="WORKERS",
        help="soak a fleet of this many worker processes being "
        "killed/hung under load (0: one in-process server)",
    )
    args = parser.parse_args(argv)

    report = run_soak(
        seconds=args.seconds,
        clients=args.clients,
        n=args.n,
        include_sharded=not args.no_sharded,
        fleet=args.fleet,
    )
    print(json.dumps(report, indent=2, default=str))
    if args.json is not None:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps(report, indent=2, default=str))

    if report["deadlocked"]:
        print("SOAK FAILED: deadlock (unresolved requests)", file=sys.stderr)
        return 2
    if report["silent_wrong"] or report["unstructured_failures"]:
        print(
            "SOAK FAILED: "
            f"{report['silent_wrong']} silent wrong answers, "
            f"{report['unstructured_failures']} unstructured failures",
            file=sys.stderr,
        )
        return 1
    if report["ok"] == 0:
        print("SOAK FAILED: no request succeeded", file=sys.stderr)
        return 1
    print(
        f"soak OK: {report['ok']}/{report['requests']} bit-identical, "
        f"{report['shed']} shed, "
        f"{report['deadline_exceeded']} deadline-expired, "
        f"{report['structured_failures']} structured failures, "
        f"0 silent wrong answers, no deadlocks"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
