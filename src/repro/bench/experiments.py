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


def table2_machines(scale: str = "full") -> ExperimentReport:
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


def fig4_cb_scaling(scale: str = "full") -> ExperimentReport:
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


def fig7a_intel_stalls(scale: str = "full") -> ExperimentReport:
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


def fig7b_arm_accesses(scale: str = "full") -> ExperimentReport:
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


def fig8_shape_contours(scale: str = "full") -> ExperimentReport:
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
            machine, aspect=aspect, m_values=values, k_values=values
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


def _speedup_report(machine, sizes, rep: ExperimentReport, goto_label: str):
    series = {}
    for n in sizes:
        cake = speedup_series(machine, n, engine="cake")
        goto = speedup_series(machine, n, engine="goto")
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


def fig9a_intel_speedup(scale: str = "full") -> ExperimentReport:
    """Figure 9a: speedup for square matrices, CAKE vs MKL (Intel)."""
    rep = ExperimentReport("fig9a", "Speedup for square matrices, Intel i9")
    sizes = (1000, 2000, 3000) if scale == "full" else (1000, 2000)
    return _speedup_report(intel_i9_10900k(), sizes, rep, "MKL(GOTO)")


def fig9b_arm_speedup(scale: str = "full") -> ExperimentReport:
    """Figure 9b: speedup for square matrices, CAKE vs ARMPL (ARM)."""
    rep = ExperimentReport("fig9b", "Speedup for square matrices, ARM A53")
    sizes = (1000, 2000, 3000) if scale == "full" else (1000, 2000)
    return _speedup_report(arm_cortex_a53(), sizes, rep, "ARMPL(GOTO)")


def _scaling_report(
    rep: ExperimentReport,
    machine,
    n: int,
    *,
    extrapolate_to: int,
    core_step: int,
    goto_label: str,
) -> ExperimentReport:
    points = scaling_series(
        machine, n, extrapolate_to=extrapolate_to, core_step=core_step
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


def fig10_intel_scaling(scale: str = "full") -> ExperimentReport:
    """Figure 10: Intel i9, 23040^2 MM — DRAM BW, throughput, internal BW."""
    n = 23040 if scale == "full" else 5760
    rep = ExperimentReport(
        "fig10", f"Intel i9-10900K scaling ({n}x{n} MM), CAKE vs MKL(GOTO)"
    )
    return _scaling_report(
        rep, intel_i9_10900k(), n, extrapolate_to=20, core_step=1,
        goto_label="MKL",
    )


def fig11_arm_scaling(scale: str = "full") -> ExperimentReport:
    """Figure 11: ARM A53, 3000^2 MM — DRAM BW, throughput, internal BW."""
    n = 3000 if scale == "full" else 1000
    rep = ExperimentReport(
        "fig11", f"ARM Cortex-A53 scaling ({n}x{n} MM), CAKE vs ARMPL(GOTO)"
    )
    return _scaling_report(
        rep, arm_cortex_a53(), n, extrapolate_to=8, core_step=1,
        goto_label="ARMPL",
    )


def fig12_amd_scaling(scale: str = "full") -> ExperimentReport:
    """Figure 12: AMD 5950X, 23040^2 MM — CAKE vs OpenBLAS(GOTO)."""
    n = 23040 if scale == "full" else 5760
    rep = ExperimentReport(
        "fig12", f"AMD Ryzen 9 5950X scaling ({n}x{n} MM), CAKE vs OpenBLAS(GOTO)"
    )
    return _scaling_report(
        rep, amd_ryzen_9_5950x(), n, extrapolate_to=32, core_step=2,
        goto_label="OpenBLAS",
    )


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
}


def run_experiment(name: str, scale: str = "full") -> ExperimentReport:
    """Run one experiment by id (including the ablations)."""
    from repro.bench.ablations import ABLATIONS

    registry = {**EXPERIMENTS, **ABLATIONS}
    try:
        fn = registry[name]
    except KeyError:
        raise ValueError(
            f"unknown experiment {name!r}; available: {sorted(registry)}"
        ) from None
    return fn(scale)
