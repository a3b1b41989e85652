"""Experiment generators: one per table/figure of the paper.

Every generator returns an :class:`~repro.bench.report.ExperimentReport`
whose ``lines`` print the same rows/series the paper reports and whose
``data`` dict carries the raw values the bench assertions check. The
``scale`` argument selects ``"full"`` (paper problem sizes) or ``"quick"``
(reduced sizes with identical structure, for fast iteration).
"""

from __future__ import annotations

from typing import Callable

from repro.analysis.scaling import scaling_series
from repro.analysis.speedup import speedup_series
from repro.analysis.sweep import relative_throughput_grid
from repro.bench.report import ExperimentReport
from repro.core.requirements import (
    external_bandwidth_min,
    internal_memory_required,
)
from repro.core.shaping import cb_block_shape
from repro.machines.presets import (
    amd_ryzen_9_5950x,
    arm_cortex_a53,
    intel_i9_10900k,
)
from repro.memsim.profile import profile_cake, profile_goto
from repro.util.units import bytes_to_gib, bytes_to_mib


def table2_machines(scale: str = "full", *, runtime=None) -> ExperimentReport:
    """Table 2: the CPUs used in the evaluation."""
    rep = ExperimentReport("table2", "CPUs used in CAKE evaluation")
    rows = []
    for spec in (intel_i9_10900k(), amd_ryzen_9_5950x(), arm_cortex_a53()):
        rows.append(
            [
                spec.name,
                f"{spec.l1_bytes // 1024} KiB",
                f"{spec.l2_bytes // 1024} KiB",
                "N/A (L2 shared)" if spec.llc_is_l2 else f"{bytes_to_mib(spec.llc_bytes):.0f} MiB",
                f"{bytes_to_gib(spec.dram_bytes):.0f} GB",
                spec.cores,
                f"{spec.dram_gb_per_s:.0f} GB/s",
            ]
        )
    rep.add_table(
        ["CPU", "L1", "L2", "LLC", "DRAM", "Cores", "DRAM bandwidth"], rows
    )
    rep.data["machines"] = rows
    return rep


def fig4_cb_scaling(scale: str = "full", *, runtime=None) -> ExperimentReport:
    """Figure 4: growing CB blocks keep external bandwidth constant.

    Blocks (a)-(c) of the figure: core count grows 1x, 2x, px; volume and
    arithmetic intensity grow proportionally; Eq. 2's required bandwidth
    stays fixed while Eq. 1's memory grows quadratically.
    """
    rep = ExperimentReport(
        "fig4", "CB block scaling at constant external bandwidth"
    )
    k, alpha = 4, 1.0
    rows = []
    bws = []
    for p in (1, 2, 4, 8, 16):
        block = cb_block_shape(p, k, alpha)
        bw = external_bandwidth_min(k, alpha)
        mem = internal_memory_required(p, k, alpha)
        ai = block.volume / block.input_io
        rows.append(
            [p * k, f"{block.m}x{block.n}x{block.k}", block.volume, ai, bw, mem]
        )
        bws.append(bw)
    rep.add_table(
        ["cores", "block (m x n x k)", "volume", "arith intensity",
         "BW_min (Eq.2, tiles/cyc)", "MEM (Eq.1, tiles)"],
        rows,
    )
    rep.data["bandwidths"] = bws
    rep.data["intensities"] = [r[3] for r in rows]
    rep.data["memories"] = [r[5] for r in rows]
    return rep


def fig7a_intel_stalls(scale: str = "full", *, runtime=None) -> ExperimentReport:
    """Figure 7a: memory-request stalls per level, CAKE vs MKL (Intel).

    The paper uses 10000x10000; any size whose C surface exceeds the
    20 MiB LLC shows the same mechanism, so we use 2304 (C = 21 MB) to
    keep the trace fast — the *contrast*, not the absolute tick count,
    is the result.
    """
    size = 2304 if scale == "full" else 1536
    machine = intel_i9_10900k()
    rep = ExperimentReport(
        "fig7a", f"Memory request stalls on Intel i9 ({size}^2 MM, 10 cores)"
    )
    cake = profile_cake(machine, size, size, size)
    goto = profile_goto(machine, size, size, size)
    rows = []
    for level in ("L1", "L2", "LLC", "DRAM"):
        rows.append(
            [level, cake.stall_profile[level], goto.stall_profile[level]]
        )
    rep.add_table(["level", "CAKE stall cycles", "MKL(GOTO) stall cycles"], rows)
    rep.add_line(
        f"local stall fraction: CAKE {cake.local_stall_fraction:.2f}, "
        f"MKL(GOTO) {goto.local_stall_fraction:.2f}"
    )
    rep.data["cake"] = cake
    rep.data["goto"] = goto
    return rep


def fig7b_arm_accesses(scale: str = "full", *, runtime=None) -> ExperimentReport:
    """Figure 7b: cache hits and DRAM accesses, CAKE vs ARMPL (ARM).

    Paper size is 3000x3000; the full scale uses 1920 (same mechanism,
    C and B panels far beyond the 512 KiB shared L2) to keep the pure-
    Python trace in seconds.
    """
    size = 1920 if scale == "full" else 960
    machine = arm_cortex_a53()
    rep = ExperimentReport(
        "fig7b", f"Cache and DRAM accesses on ARM ({size}^2 MM, 4 cores)"
    )
    cake = profile_cake(machine, size, size, size)
    goto = profile_goto(machine, size, size, size)
    rep.add_table(
        ["counter", "CAKE", "ARMPL(GOTO)"],
        [
            ["L1 hits", cake.l1_hits, goto.l1_hits],
            ["L2 hits", cake.l2_hits, goto.l2_hits],
            ["DRAM requests", cake.dram_accesses, goto.dram_accesses],
        ],
    )
    ratio = goto.dram_accesses / max(cake.dram_accesses, 1)
    rep.add_line(f"ARMPL(GOTO) performs {ratio:.1f}x more DRAM requests than CAKE")
    rep.data["cake"] = cake
    rep.data["goto"] = goto
    rep.data["dram_ratio"] = ratio
    return rep


def fig8_shape_contours(scale: str = "full", *, runtime=None) -> ExperimentReport:
    """Figure 8: relative throughput CAKE/MKL over matrix shapes (Intel)."""
    machine = intel_i9_10900k()
    if scale == "full":
        values = tuple(range(1000, 8001, 1000))
    else:
        values = (1000, 3000, 5000, 8000)
    rep = ExperimentReport(
        "fig8", "Relative throughput CAKE vs MKL(GOTO) over matrix shapes"
    )
    panels = {}
    for aspect in (1.0, 2.0, 4.0, 8.0):
        panel = relative_throughput_grid(
            machine, aspect=aspect, m_values=values, k_values=values,
            runtime=runtime,
        )
        panels[aspect] = panel
        rep.add_line(f"-- panel M = {aspect:.0f}N --")
        headers = ["K \\ M"] + [str(m) for m in panel.m_values]
        rows = [
            [str(k)] + [f"{panel.ratio[ki, mi]:.2f}x" for mi in range(len(panel.m_values))]
            for ki, k in enumerate(panel.k_values)
        ]
        rep.add_table(headers, rows)
        rep.add_line(
            f"cells with CAKE >= 1.25x: {panel.fraction_above(1.25):.0%}; "
            f">= 1.0x: {panel.fraction_above(1.0):.0%}"
        )
        rep.add_line()
    rep.data["panels"] = panels
    return rep


def _speedup_report(machine, sizes, rep: ExperimentReport, goto_label: str, runtime=None):
    series = {}
    for n in sizes:
        cake = speedup_series(machine, n, engine="cake", runtime=runtime)
        goto = speedup_series(machine, n, engine="goto", runtime=runtime)
        series[n] = (cake, goto)
        headers = ["cores"] + [str(p) for p in cake.cores]
        rep.add_line(f"-- M = N = K = {n} --")
        rep.add_table(
            headers,
            [
                ["CAKE"] + [f"{s:.2f}" for s in cake.speedups],
                [goto_label] + [f"{s:.2f}" for s in goto.speedups],
            ],
        )
        rep.add_line()
    rep.data["series"] = series
    return rep


def fig9a_intel_speedup(scale: str = "full", *, runtime=None) -> ExperimentReport:
    """Figure 9a: speedup for square matrices, CAKE vs MKL (Intel)."""
    rep = ExperimentReport("fig9a", "Speedup for square matrices, Intel i9")
    sizes = (1000, 2000, 3000) if scale == "full" else (1000, 2000)
    return _speedup_report(intel_i9_10900k(), sizes, rep, "MKL(GOTO)", runtime)


def fig9b_arm_speedup(scale: str = "full", *, runtime=None) -> ExperimentReport:
    """Figure 9b: speedup for square matrices, CAKE vs ARMPL (ARM)."""
    rep = ExperimentReport("fig9b", "Speedup for square matrices, ARM A53")
    sizes = (1000, 2000, 3000) if scale == "full" else (1000, 2000)
    return _speedup_report(arm_cortex_a53(), sizes, rep, "ARMPL(GOTO)", runtime)


def _scaling_report(
    rep: ExperimentReport,
    machine,
    n: int,
    *,
    extrapolate_to: int,
    core_step: int,
    goto_label: str,
    runtime=None,
) -> ExperimentReport:
    points = scaling_series(
        machine, n, extrapolate_to=extrapolate_to, core_step=core_step,
        runtime=runtime,
    )
    rows = []
    for pt in points:
        rows.append(
            [
                pt.cores,
                "extrap" if pt.extrapolated else "meas",
                f"{pt.cake.gflops:.0f}",
                f"{pt.goto.gflops:.0f}",
                f"{pt.cake.dram_gb_per_s:.2f}",
                f"{pt.goto.dram_gb_per_s:.2f}",
                f"{pt.cake_optimal_dram_gb_per_s:.2f}",
                f"{pt.internal_bw_gb_per_s:.0f}",
            ]
        )
    rep.add_table(
        [
            "cores", "kind",
            "CAKE GFLOP/s", f"{goto_label} GFLOP/s",
            "CAKE DRAM GB/s", f"{goto_label} DRAM GB/s",
            "CAKE optimal GB/s", "internal BW GB/s",
        ],
        rows,
    )
    rep.data["points"] = points
    return rep


def fig10_intel_scaling(scale: str = "full", *, runtime=None) -> ExperimentReport:
    """Figure 10: Intel i9, 23040^2 MM — DRAM BW, throughput, internal BW."""
    n = 23040 if scale == "full" else 5760
    rep = ExperimentReport(
        "fig10", f"Intel i9-10900K scaling ({n}x{n} MM), CAKE vs MKL(GOTO)"
    )
    return _scaling_report(
        rep, intel_i9_10900k(), n, extrapolate_to=20, core_step=1,
        goto_label="MKL", runtime=runtime,
    )


def fig11_arm_scaling(scale: str = "full", *, runtime=None) -> ExperimentReport:
    """Figure 11: ARM A53, 3000^2 MM — DRAM BW, throughput, internal BW."""
    n = 3000 if scale == "full" else 1000
    rep = ExperimentReport(
        "fig11", f"ARM Cortex-A53 scaling ({n}x{n} MM), CAKE vs ARMPL(GOTO)"
    )
    return _scaling_report(
        rep, arm_cortex_a53(), n, extrapolate_to=8, core_step=1,
        goto_label="ARMPL", runtime=runtime,
    )


def fig12_amd_scaling(scale: str = "full", *, runtime=None) -> ExperimentReport:
    """Figure 12: AMD 5950X, 23040^2 MM — CAKE vs OpenBLAS(GOTO)."""
    n = 23040 if scale == "full" else 5760
    rep = ExperimentReport(
        "fig12", f"AMD Ryzen 9 5950X scaling ({n}x{n} MM), CAKE vs OpenBLAS(GOTO)"
    )
    return _scaling_report(
        rep, amd_ryzen_9_5950x(), n, extrapolate_to=32, core_step=2,
        goto_label="OpenBLAS", runtime=runtime,
    )


def verify_overhead(scale: str = "full", *, runtime=None) -> ExperimentReport:
    """ABFT verified execution: overhead, bit-identity, and self-healing.

    Not a paper figure — the robustness companion to the performance
    experiments: the same CAKE run with checksum verification on must
    return the bit-identical product for a bounded wall-clock premium,
    and an injected strip corruption must heal back to the clean result.
    The full-scale overhead floor is enforced by
    ``benchmarks/bench_verify_overhead.py``; this report records the
    measured ratio at either scale.
    """
    import time as _time

    import numpy as np

    from repro.gemm.cake import CakeGemm
    from repro.gemm.verify import VerifyConfig
    from repro.runtime.faults import NumericFaultPlan, NumericFaultRule

    n = 768 if scale == "full" else 192
    machine = intel_i9_10900k()
    rep = ExperimentReport(
        "verify", f"ABFT verified-execution overhead ({n}^3 MM, Intel i9)"
    )
    rng = np.random.default_rng(20210)
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))

    rows = []
    for workers in (1, 2):
        plain = CakeGemm(machine, workers=workers)
        verified = CakeGemm(machine, workers=workers, verify=True)
        t0 = _time.perf_counter()
        base = plain.multiply(a, b)
        t_off = _time.perf_counter() - t0
        t0 = _time.perf_counter()
        ver = verified.multiply(a, b)
        t_on = _time.perf_counter() - t0
        if not np.array_equal(base.c, ver.c):
            raise AssertionError("verified product drifted from baseline")
        if base.counters != ver.counters:
            raise AssertionError("verified counters drifted from baseline")
        ratio = t_on / t_off if t_off > 0 else float("inf")
        rows.append(
            [
                workers,
                f"{t_off * 1e3:.1f} ms",
                f"{t_on * 1e3:.1f} ms",
                f"{ratio:.2f}x",
                ver.verify.blocks,
                f"{ver.verify.checksum_bytes(machine.element_bytes) / 1e3:.0f} kB",
            ]
        )
        rep.data.setdefault("ratios", {})[workers] = ratio
    rep.add_table(
        [
            "workers", "verify off", "verify on", "overhead",
            "blocks checked", "checksum traffic",
        ],
        rows,
    )

    # Self-healing demonstration: one corrupted strip, recovered to the
    # bit-identical clean product.
    plan = NumericFaultPlan(
        rules=(NumericFaultRule(block=0, strip=0, kind="scale", factor=3.0),)
    )
    clean = CakeGemm(machine, workers=2).multiply(a, b)
    healed = CakeGemm(
        machine, workers=2, verify=VerifyConfig(inject=plan)
    ).multiply(a, b)
    if not np.array_equal(clean.c, healed.c):
        raise AssertionError("injected corruption was not healed bit-exactly")
    rep.add_line(
        f"fault injection: {healed.verify.mismatches} corrupted block(s) "
        f"detected, {healed.verify.retry_recoveries} healed by retry, "
        f"{healed.verify.oracle_recoveries} by oracle — product bit-identical"
    )
    rep.data["healed"] = healed.verify.as_dict()
    return rep


def backends_matrix(scale: str = "full", *, runtime=None) -> ExperimentReport:
    """Compute-backend matrix: wall time and exactness per backend.

    Not a paper figure — the schedule/compute seam companion: the same
    CAKE schedule executed through every available compute backend
    (:mod:`repro.gemm.backends`) must produce the same product (bit-exact
    for deterministic backends, within the declared agreement band
    otherwise) and identical traffic counters, while wall time is free
    to differ. The full-scale speedup floor is enforced by
    ``benchmarks/bench_backends.py``; this report records the measured
    times at either scale and re-checks exactness at every cell.
    """
    import time as _time

    import numpy as np

    from repro.gemm.backends import available_backends, backend_spec
    from repro.gemm.cake import CakeGemm
    from repro.gemm.verify import VerifyConfig
    from repro.runtime.faults import NumericFaultPlan, NumericFaultRule

    n = 512 if scale == "full" else 160
    machine = intel_i9_10900k()
    rep = ExperimentReport(
        "backends", f"Compute-backend matrix ({n}^3 MM, Intel i9)"
    )
    rng = np.random.default_rng(20217)
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))

    oracle = CakeGemm(machine, backend="numpy").multiply(a, b)
    band = 8.0 * np.finfo(a.dtype).eps * (n + 2) * float(
        np.abs(a).dot(np.abs(b)).max()
    )
    rows = []
    for name in available_backends():
        spec = backend_spec(name)
        engine = CakeGemm(machine, backend=name)
        t0 = _time.perf_counter()
        run = engine.multiply(a, b)
        dt = _time.perf_counter() - t0
        if spec.capabilities.deterministic:
            exact = bool(np.array_equal(run.c, oracle.c))
            if not exact:
                raise AssertionError(
                    f"deterministic backend {name!r} drifted from the oracle"
                )
        else:
            exact = bool(np.abs(run.c - oracle.c).max() <= band)
            if not exact:
                raise AssertionError(
                    f"backend {name!r} outside its agreement band"
                )
        if run.counters != oracle.counters:
            raise AssertionError(f"backend {name!r} changed traffic counters")
        rows.append(
            [
                name,
                "bit-exact" if spec.capabilities.deterministic else "banded",
                f"{dt * 1e3:.1f} ms",
                run.backend,
                "yes" if spec.capabilities.grouped else "no",
            ]
        )
        rep.data.setdefault("seconds", {})[name] = dt
    rep.add_table(
        ["backend", "agreement", "wall time", "recorded", "grouped"], rows
    )

    # The headline ABFT scenario: a fast non-oracle backend with an
    # injected corruption, healed back to ITS OWN clean product exactly.
    plan = NumericFaultPlan(
        rules=(NumericFaultRule(block=0, strip=0, kind="scale", factor=3.0),)
    )
    clean = CakeGemm(machine, backend="blas-group").multiply(a, b)
    healed = CakeGemm(
        machine, backend="blas-group", verify=VerifyConfig(inject=plan)
    ).multiply(a, b)
    if not np.array_equal(clean.c, healed.c):
        raise AssertionError(
            "injected corruption on blas-group was not healed bit-exactly"
        )
    rep.add_line(
        f"verified blas-group: {healed.verify.mismatches} corrupted block(s) "
        f"detected, {healed.verify.retry_recoveries} healed by retry, "
        f"{healed.verify.oracle_recoveries} by oracle — product bit-identical "
        "to the clean blas-group run"
    )
    rep.data["healed"] = healed.verify.as_dict()
    return rep


def sharded_execution(scale: str = "full", *, runtime=None) -> ExperimentReport:
    """Process-sharded execution: exactness, shard grid, and IPC traffic.

    Not a paper figure — the CAKE-on-CAKE companion: the M x N grid of
    CB blocks is partitioned into a near-square shard grid
    (:mod:`repro.gemm.sharded`), packed operands live in shared-memory
    segments that workers attach zero-copy, and each shard runs the
    threaded executor in its own process. The product and the
    schedule-derived counters must be bit-identical to the serial run
    at every process count, and the measured inter-process bytes must
    sit within the documented slack of the memory-independent
    communication lower bound. The full-scale speedup floor is
    enforced by ``benchmarks/bench_sharded.py``; this report records
    the measured times at either scale and re-checks exactness at
    every cell.
    """
    import time as _time

    import numpy as np

    from repro.gemm.cake import CakeGemm
    from repro.gemm.sharded import IPC_SLACK_FACTOR

    # cores=1 keeps the CB blocks small enough that the block grid has
    # several rows and columns to shard (multi-core plans grow blocks
    # until one covers these problem sizes whole).
    m, n, k = (600, 840, 340) if scale == "full" else (300, 420, 170)
    machine = intel_i9_10900k()
    rep = ExperimentReport(
        "sharded", f"Process-sharded CAKE execution ({m}x{n}x{k} MM, Intel i9)"
    )
    rng = np.random.default_rng(20218)
    a = rng.standard_normal((m, k))
    b = rng.standard_normal((k, n))

    serial = CakeGemm(machine, cores=1).multiply(a, b)
    rows = []
    for processes in (1, 2, 4):
        engine = CakeGemm(machine, cores=1, processes=processes)
        t0 = _time.perf_counter()
        run = engine.multiply(a, b)
        dt = _time.perf_counter() - t0
        if not np.array_equal(run.c, serial.c):
            raise AssertionError(
                f"sharded product drifted from serial at P={processes}"
            )
        if run.counters.without_ipc() != serial.counters.without_ipc():
            raise AssertionError(
                f"sharded counters drifted from serial at P={processes}"
            )
        if run.shards is not None:
            grid = f"{run.shards.rows}x{run.shards.cols}"
            slack = run.shards.slack
            if slack > IPC_SLACK_FACTOR:
                raise AssertionError(
                    f"IPC slack {slack:.3f} exceeds the documented "
                    f"{IPC_SLACK_FACTOR}x bound at P={processes}"
                )
            ipc = f"{run.counters.ipc_bytes / 1e6:.1f} MB"
            slack_s = f"{slack:.3f}x"
            rep.data.setdefault("slack", {})[processes] = slack
        else:
            grid, ipc, slack_s = "-", "-", "-"
        rows.append(
            [processes, grid, f"{dt * 1e3:.1f} ms", ipc, slack_s]
        )
        rep.data.setdefault("seconds", {})[processes] = dt
        rep.data.setdefault("grids", {})[processes] = grid
    rep.add_table(
        ["processes", "shard grid", "wall time", "IPC traffic",
         "IPC / lower bound"],
        rows,
    )
    rep.add_line(
        "product and schedule-derived counters bit-identical to serial "
        "at every process count"
    )
    return rep


def serve_load(scale: str = "full", *, runtime=None) -> ExperimentReport:
    """GEMM-as-a-service under concurrent clients, audited bit-for-bit.

    Not a paper figure — the serving-layer companion (ISSUE 8): for
    each client-concurrency level, closed-loop clients stream Fig-8
    skewed multiplies through one admission-controlled
    :class:`~repro.serve.server.MultiplyServer`, and every successful
    response is checked bit-identical to a direct engine call. Sheds
    and deadline expiries are reported as their own columns — they are
    the server doing its job — while a bit-mismatch, an unstructured
    error, or a stranded handle fails the experiment.

    Environment knobs (also settable via ``cake-bench serve --clients /
    --deadline``): ``CAKE_SERVE_CLIENTS`` (comma-separated levels),
    ``CAKE_SERVE_DEADLINE_MS`` (per-request budget; default none).
    """
    import os as _os

    from repro.serve.loadgen import OperandSet, run_load
    from repro.serve.server import MultiplyServer

    levels_env = _os.environ.get("CAKE_SERVE_CLIENTS", "1,2,4")
    levels = [int(p) for p in levels_env.split(",") if p.strip()]
    deadline_env = _os.environ.get("CAKE_SERVE_DEADLINE_MS")
    deadline = float(deadline_env) / 1000.0 if deadline_env else None
    n = 256 if scale == "full" else 128
    requests_per_client = 6 if scale == "full" else 3

    machine = intel_i9_10900k()
    deadline_label = (
        "no deadline" if deadline is None else f"{deadline:.3f}s deadline"
    )
    rep = ExperimentReport(
        "serve",
        f"GEMM-as-a-service load sweep (Fig-8 skewed N={n}, "
        f"{deadline_label}, Intel i9)",
    )
    operands = OperandSet.figure8_skewed(n, machine=machine)
    rows = []
    for clients in levels:
        with MultiplyServer(
            machine, executors=2, default_deadline=deadline
        ) as server:
            load = run_load(
                server,
                operands,
                clients=clients,
                requests_per_client=requests_per_client,
                deadline=deadline,
            )
            stats = server.stats()
        if load.mismatches or load.failed or load.unresolved:
            raise AssertionError(
                f"serving contract violated at {clients} clients: "
                f"{load.mismatches} bit-mismatches, {load.failed} "
                f"unstructured failures, {load.unresolved} stranded "
                f"handles ({load.errors})"
            )
        summary = load.as_dict()
        rows.append(
            [
                clients,
                load.ok,
                load.shed,
                load.deadline_exceeded,
                f"{1e3 * summary['p50_seconds']:.1f} ms",
                f"{1e3 * summary['p99_seconds']:.1f} ms",
                f"{load.throughput_rps:.1f}/s",
                stats.coalesced,
                stats.retries,
            ]
        )
        rep.data.setdefault("levels", {})[clients] = {
            **summary,
            "server": stats.as_dict(),
        }
    rep.add_table(
        ["clients", "ok", "shed", "expired", "p50", "p99",
         "throughput", "coalesced", "retries"],
        rows,
    )
    rep.add_line(
        "every successful response bit-identical to a direct engine "
        "call; sheds and expiries are structured, never silent"
    )
    return rep


def autotune(scale: str = "full", *, runtime=None) -> ExperimentReport:
    """Plan autotuner: tuned-vs-analytic speedup and cache amortization.

    Not a paper figure — the autotuner companion (ISSUE 9): for a cube
    and the Fig-8 skewed shape (short M, deep K), one cold
    :class:`~repro.tune.PlanTuner` search finds a bit-identical faster
    execution plan, persists it in a versioned plan cache, and a second
    resolution is a pure cache hit (no search). The tuned product is
    re-executed and asserted bit-identical to the analytic engine's;
    the report records measured speedup, the cold-tune cost it
    amortizes, and the cache-hit cost it amortizes down to. The
    full-scale speedup floor is enforced by
    ``benchmarks/bench_autotune.py``.
    """
    import tempfile
    import time as _time

    import numpy as np

    from repro.gemm.cake import CakeGemm
    from repro.tune import PlanTuner, TuneConfig, TuneKey

    n = 256 if scale == "full" else 128
    machine = intel_i9_10900k()
    rep = ExperimentReport(
        "autotune", f"Online plan autotuning (cube + skewed, N={n}, Intel i9)"
    )
    shapes = [
        ("cube", n, n, n),
        ("skewed", max(n // 4, 1), n, 2 * n),
    ]
    rows = []
    with tempfile.TemporaryDirectory(prefix="cake-tune-exp-") as root:
        tuner = PlanTuner(machine, TuneConfig(cache_root=root, repeats=2))
        for label, m, nn, k in shapes:
            key = TuneKey(
                engine="cake", m=m, n=nn, k=k, dtype="<f4",
                machine=machine.name, cores=None, backend="numpy",
                processes=1,
            )
            t0 = _time.perf_counter()
            cold = tuner.tune(key)
            cold_s = _time.perf_counter() - t0
            t0 = _time.perf_counter()
            hit = tuner.tune(key)
            hit_s = _time.perf_counter() - t0
            if hit.source != "cache":
                raise AssertionError(
                    f"{label}: second resolution re-searched instead of "
                    "hitting the plan cache"
                )
            if hit.override != cold.override:
                raise AssertionError(
                    f"{label}: cached winner differs from the searched one"
                )

            rng = np.random.default_rng(20219 + m)
            a = rng.standard_normal((m, k)).astype(np.float32)
            b = rng.standard_normal((k, nn)).astype(np.float32)
            analytic = CakeGemm(machine, tuned=False).multiply(a, b)
            tuned_run = CakeGemm(
                machine, plan=cold.override, tuned=False
            ).multiply(a, b)
            if not np.array_equal(tuned_run.c, analytic.c):
                raise AssertionError(
                    f"{label}: tuned product drifted from the analytic plan"
                )
            speedup = cold.speedup or 1.0
            winner = (
                "analytic (no candidate beat it)"
                if cold.override is None
                else str(
                    {
                        f: v
                        for f, v in cold.override.as_dict().items()
                        if v is not None
                    }
                )
            )
            rows.append(
                [
                    label, f"{m}x{nn}x{k}", f"{speedup:.2f}x",
                    f"{cold_s * 1e3:.0f} ms", f"{hit_s * 1e3:.2f} ms",
                    winner,
                ]
            )
            rep.data.setdefault("speedups", {})[label] = speedup
            rep.data.setdefault("cold_seconds", {})[label] = cold_s
            rep.data.setdefault("hit_seconds", {})[label] = hit_s
            rep.data.setdefault("overrides", {})[label] = (
                None if cold.override is None else cold.override.as_dict()
            )
        from dataclasses import asdict as _asdict

        cache_stats = _asdict(tuner.cache.stats)
    rep.add_table(
        ["shape", "m x n x k", "tuned speedup", "cold tune", "cache hit",
         "winning override"],
        rows,
    )
    rep.add_line(
        "every tuned product bit-identical to the analytic plan; the "
        "second resolution is a cache hit (search skipped)"
    )
    rep.data["cache_stats"] = cache_stats
    return rep


EXPERIMENTS: dict[str, Callable[..., ExperimentReport]] = {
    "table2": table2_machines,
    "fig4": fig4_cb_scaling,
    "fig7a": fig7a_intel_stalls,
    "fig7b": fig7b_arm_accesses,
    "fig8": fig8_shape_contours,
    "fig9a": fig9a_intel_speedup,
    "fig9b": fig9b_arm_speedup,
    "fig10": fig10_intel_scaling,
    "fig11": fig11_arm_scaling,
    "fig12": fig12_amd_scaling,
    "verify": verify_overhead,
    "backends": backends_matrix,
    "sharded": sharded_execution,
    "serve": serve_load,
    "autotune": autotune,
}


def run_experiment(
    name: str, scale: str = "full", *, runtime=None
) -> ExperimentReport:
    """Run one experiment by id (including the ablations).

    A ``runtime`` (:class:`~repro.runtime.executor.ExperimentRuntime`)
    is forwarded to generators that support grid fan-out; experiments
    that are single cells (or predate the runtime) simply ignore it.

    When a collect-mode runtime ends a grid with permanently failed
    cells, the resulting
    :class:`~repro.runtime.outcome.IncompleteRunError` is re-raised
    tagged with this experiment's name; the completed cells are already
    checkpointed, so a rerun only executes what is missing.
    """
    import inspect

    from repro.bench.ablations import ABLATIONS

    registry = {**EXPERIMENTS, **ABLATIONS}
    try:
        fn = registry[name]
    except KeyError:
        raise ValueError(
            f"unknown experiment {name!r}; available: {sorted(registry)}"
        ) from None
    if runtime is not None and "runtime" in inspect.signature(fn).parameters:
        from repro.runtime.outcome import IncompleteRunError

        try:
            return fn(scale, runtime=runtime)
        except IncompleteRunError as exc:
            raise IncompleteRunError(exc.report, experiment=name) from exc
    return fn(scale)
