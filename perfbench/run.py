"""The repository benchmark: one command, three workloads, audited outputs.

Run from the repository root::

    python3 perfbench/run.py --workload direct-large --seed 1 --seconds 10 --trace 0

Workloads (see ``workloads.py``): ``direct-large``, ``serve-small`` and
``model-sweep``; the socket fleet is measured as a rung of the traced
ladder. With ``--trace 0`` the last line of standard output is a JSON
object carrying every end-to-end metric named in ``BENCHMARK.json``;
with ``--trace 1`` the window runs twice, first untraced and then traced
(half the seconds each), then the per-layer probes and the ladder
(``ladder.py``) run, and the JSON carries every per-layer metric
instead. The lines before it are a readable report: the host block, the
metrics, and in traced runs the ladder verdict and per-span self times.
The full result, host block and unscaled times included, is also
written to ``perfbench_out/``, together with the spans as JSON lines.

Every operation is paired with a bare ``np.matmul``: ``numpy_ratio`` is
their time ratio, and ``ops_per_s`` and ``latency_p50_ms`` are scaled by
the paired multiplies' speed to a 40 GFLOP/s reference host, because on
a shared host absolute times drift by up to 40% between processes (see
``workloads.BareClock``).

BLAS threads are pinned before NumPy is imported, in this process and,
through the environment, in every process it starts. ``setup_s`` is the
median of five set-ups: four in fresh child processes started with
``--setup-probe`` and the one this process performs.

Every run, probes included, waits before it exits for every process
started under it, orphaned grandchildren too (``reap.py``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / "perfbench_out"
SETUP_PROBES = 4


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--corrupt", type=int, default=0,
        help="perturb this many outputs before the audit (smoke test)",
    )
    parser.add_argument(
        "--setup-probe", action="store_true",
        help="only set up, print the set-up time as JSON, and exit",
    )
    return parser.parse_args(argv)


def _setup_probe(args) -> float:
    """One set-up in a fresh interpreter; returns its ``setup_s`` sample."""
    proc = subprocess.run(
        [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", args.workload, "--seed", str(args.seed),
            "--setup-probe",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=150, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed:\n{proc.stderr[-2000:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def _metric_block(names_units, values: dict) -> dict:
    block = {}
    for name, unit in names_units:
        if name not in values:
            raise KeyError(f"metric {name!r} was not measured")
        value = float(values[name])
        if not math.isfinite(value):
            raise ValueError(f"metric {name!r} is not finite: {value}")
        block[name] = {"value": value, "unit": unit}
    return block


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"perfbench: unknown workload {args.workload!r}; one of {names}",
              file=sys.stderr)
        return 2

    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    import reap

    reap.become_subreaper()
    try:
        return _run(args, spec)
    finally:
        reap.reap_descendants()


def _run(args, spec) -> int:
    """Set up (or only probe set-up), measure and report one run."""
    import host

    host.pin_blas_threads()
    tmp = OUT_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)

    probes = []
    if not args.setup_probe:
        probes = [_setup_probe(args) for _ in range(SETUP_PROBES)]

    start = time.perf_counter()
    import workloads  # NumPy and the package: charged to setup_s

    import_s = time.perf_counter() - start
    workload = workloads.WORKLOADS[args.workload](args.seed)
    workload.prepare()
    start = time.perf_counter()
    try:
        workload.start()
        setup_sample = import_s + time.perf_counter() - start
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_sample}))
            return 0
        result = _measure(args, workload)
    finally:
        workload.stop()
    result["e2e"]["setup_s"] = statistics.median(probes + [setup_sample])
    result["setup_samples_s"] = probes + [setup_sample]
    return _report(args, spec, result)


def _measure(args, workload) -> dict:
    """The timed window (twice in a traced run), with the host probe around it."""
    import host
    import workloads
    from spans import Tracer

    gflops_start = host.numpy_gflops()
    audit = workloads.Audit(args.corrupt)
    if isinstance(workload, workloads.ModelSweep):
        workload.exact_walk_audit(audit)
    untraced = Tracer(enabled=False)
    result: dict = {"host": host.host_block()}
    if not args.trace:
        e2e = workload.window(args.seconds, untraced, audit)
    else:
        plain = workload.window(args.seconds / 2, untraced, audit)
        tracer = Tracer()
        e2e = workload.window(args.seconds / 2, tracer, audit)
        result["untraced"] = {k: v for k, v in plain.items() if k != "detail"}
        result["tracer"] = tracer
    if isinstance(workload, workloads.ServeSmall) and args.trace:
        e2e["layers"]["serve.server.added_ms"] = (
            e2e["latency_p50_ms"] - workload.direct_p50_ms()
        )
    e2e["peak_rss_mb"] = host.peak_rss_mb()
    result["e2e"] = e2e
    result["audit"] = audit
    result["gflops_start"] = gflops_start
    return result


def _report(args, spec, result) -> int:
    """Per-layer probes (traced runs), the result file, and the printed report."""
    import host
    import ladder
    from spans import summarize

    audit = result["audit"]
    e2e = result["e2e"]
    layers = {}
    lines = []
    if args.trace:
        probe_metrics, rows = ladder.probe(args.seed, audit)
        verdict_lines, never = ladder.verdict(rows)
        lines += ["ladder (cake, numpy backend; median ms per rung):"] + verdict_lines
        tracer = result["tracer"]
        summary = summarize(tracer.spans)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
        lines.append("span self time, p50 ms:")
        lines += [f"   {k:<34} {v:10.4f}" for k, v in summary["self_ms_p50"].items()]
        layers.update(probe_metrics)
        layers.update(e2e["layers"])  # the window's own view wins
        layers.update({
            "ladder.rungs_never_faster": never,
            "trace.overhead_ratio":
                e2e["numpy_ratio"] / result["untraced"]["numpy_ratio"] - 1.0,
            "trace.self_over_wall_max": summary["self_over_wall_max"],
            "trace.spans": summary["spans"],
        })
    gflops_end = host.numpy_gflops()
    block = result["host"]
    block["numpy_gflops_start"] = result["gflops_start"]
    block["numpy_gflops_end"] = gflops_end
    layers.update({
        "host.numpy_gflops": (result["gflops_start"] + gflops_end) / 2,
        "host.drift_ratio": gflops_end / result["gflops_start"],
        "host.blas_threads": block["blas_threads_runtime"] or block["blas_threads_pinned"],
        "fail_ratio": audit.failed / max(1, audit.attempted),
        "latency_p99_ms": e2e["latency_p99_ms"],
    })

    section = "per_layer" if args.trace else "end_to_end"
    metrics = _metric_block(
        [(m["name"], m["unit"]) for m in spec[section]],
        layers if args.trace else e2e,
    )
    out = {
        "correct": audit.wrong == 0 and audit.attempted > 0,
        "attempted": audit.attempted,
        "failed": audit.failed,
        "metrics": metrics,
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": block, "outcomes": dict(audit.counts),
        "setup_samples_s": result["setup_samples_s"],
        "end_to_end": {k: v for k, v in e2e.items() if k not in ("layers", "detail")},
        "per_layer": layers, "detail": e2e.get("detail", {}), **out,
    }
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str), encoding="utf-8")

    print(f"host: {json.dumps(block)}")
    print(f"outcomes: {dict(audit.counts)}  detail: {json.dumps(e2e.get('detail', {}))}")
    for line in lines:
        print(line)
    for name, entry in metrics.items():
        print(f"{name:<40} {entry['value']:14.6g} {entry['unit']}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
