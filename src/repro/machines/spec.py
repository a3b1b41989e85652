"""The MachineSpec value type.

A spec is the *entire* interface between the CAKE/GOTO analysis and a
platform: every performance prediction in this library is a function of a
spec plus a problem size. That mirrors the paper, whose Sections 3-4 derive
all claims from exactly these parameters (cache sizes, core count, DRAM
bandwidth, micro-kernel tile, internal-bandwidth curve).

Time base
---------
The model clock follows the paper: one core retires one ``mr x kc`` by
``kc x nr`` register-tile multiply per *model cycle*. A spec carries the
core's sustained GEMM rate (``clock_hz * flops_per_cycle_per_core``), from
which :meth:`MachineSpec.tile_ops_per_second` converts model cycles to
seconds for a given ``kc``. Calibration of ``flops_per_cycle_per_core`` to
the paper's observed single-core throughputs is documented per preset in
:mod:`repro.machines.presets`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.machines.internal_bw import InternalBandwidthCurve
from repro.util import require_positive
from repro.util.hashing import hash_once
from repro.util.units import FLOAT32_BYTES


@hash_once
@dataclass(frozen=True, slots=True)
class MachineSpec:
    """Parametric model of a CPU platform (one row of Table 2).

    Attributes
    ----------
    name:
        Human-readable identifier (e.g. ``"Intel i9-10900K"``).
    cores:
        Physical cores available.
    clock_hz:
        Core clock used for cycle/second conversions.
    flops_per_cycle_per_core:
        Sustained single-precision FLOPs a core retires per clock inside
        the GEMM micro-kernel (captures SIMD width, FMA issue, and
        measured efficiency).
    l1_bytes, l2_bytes:
        Per-core data-cache capacities.
    llc_bytes:
        Capacity of the last-level cache shared by all cores. On the ARM
        Cortex-A53 this *is* the L2 (``llc_is_l2=True``) and there is no
        private L2.
    llc_is_l2:
        True when the shared LLC is the L2 (no private per-core L2).
    dram_bytes:
        Main-memory capacity (bounds admissible problem sizes).
    dram_gb_per_s:
        Peak external (DRAM) bandwidth, decimal GB/s as in Table 2.
    dram_efficiency:
        Fraction of peak DRAM bandwidth sustainable under GEMM's mixed
        read/write streams (1.0 = ideal). Low-power LPDDR systems sit well
        below peak; this is the knob that encodes it.
    dram_latency_cycles:
        Load-to-use latency of DRAM in model *core clock* cycles; used by
        the stall accounting of Figure 7.
    l1_latency_cycles, l2_latency_cycles, llc_latency_cycles:
        Same, for each cache level.
    mr, nr:
        Register-tile (micro-kernel) extents.
    element_bytes:
        Width of a matrix element (4 for float32, as evaluated in the
        paper).
    internal_bw:
        LLC-to-cores bandwidth curve (see :mod:`repro.machines.internal_bw`).
    internal_traffic_factor:
        Multiplier converting *logical* operand traffic (elements the
        kernel must move between LLC and cores) into *physical* internal
        traffic on the pmbw scale of Figures 10c/11c/12c. Physical traffic
        is larger because of cache-line granularity, write-allocate,
        refills across L2/L1, and coherence; the factor is calibrated per
        preset so internal-bandwidth saturation binds at the core counts
        the paper observed.
    external_traffic_factor:
        Same idea for the DRAM interface: converts counted operand
        elements into the physical traffic a hardware counter would see
        (cache-line granularity, write-allocate on stores, prefetcher
        overfetch, TLB walks). Calibrated against the observed DRAM
        bandwidths of Figures 10a/11a (e.g. the paper's CAKE-on-Intel
        average of 4.5 GB/s against an Eq. 4 operand count near 3).
    """

    name: str
    cores: int
    clock_hz: float
    flops_per_cycle_per_core: float
    l1_bytes: int
    l2_bytes: int
    llc_bytes: int
    dram_bytes: int
    dram_gb_per_s: float
    mr: int
    nr: int
    internal_bw: InternalBandwidthCurve
    internal_traffic_factor: float = 1.0
    external_traffic_factor: float = 1.0
    llc_is_l2: bool = False
    dram_efficiency: float = 1.0
    dram_latency_cycles: int = 300
    l1_latency_cycles: int = 4
    l2_latency_cycles: int = 14
    llc_latency_cycles: int = 40
    element_bytes: int = FLOAT32_BYTES
    _hash: int | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        require_positive("cores", self.cores)
        require_positive("clock_hz", self.clock_hz)
        require_positive("flops_per_cycle_per_core", self.flops_per_cycle_per_core)
        require_positive("l1_bytes", self.l1_bytes)
        require_positive("l2_bytes", self.l2_bytes)
        require_positive("llc_bytes", self.llc_bytes)
        require_positive("dram_bytes", self.dram_bytes)
        require_positive("dram_gb_per_s", self.dram_gb_per_s)
        require_positive("mr", self.mr)
        require_positive("nr", self.nr)
        require_positive("internal_traffic_factor", self.internal_traffic_factor)
        require_positive("external_traffic_factor", self.external_traffic_factor)
        require_positive("dram_efficiency", self.dram_efficiency)
        if self.dram_efficiency > 1.0:
            raise ValueError(
                f"dram_efficiency must be <= 1.0, got {self.dram_efficiency}"
            )
        require_positive("element_bytes", self.element_bytes)

    # -- capacities in elements -------------------------------------------

    @property
    def l1_elements(self) -> int:
        """L1 capacity in matrix elements."""
        return self.l1_bytes // self.element_bytes

    @property
    def l2_elements(self) -> int:
        """Per-core local-memory capacity in elements.

        On machines whose LLC is the shared L2 (ARM A53), the per-core
        private level is the L1, so this returns the L1 capacity — the
        paper's analysis always needs "the cache private to one core".
        """
        if self.llc_is_l2:
            return self.l1_elements
        return self.l2_bytes // self.element_bytes

    @property
    def llc_elements(self) -> int:
        """Shared last-level-cache capacity in elements."""
        return self.llc_bytes // self.element_bytes

    # -- time base ---------------------------------------------------------

    @property
    def core_flops_per_second(self) -> float:
        """Sustained FLOP/s of one core inside the micro-kernel."""
        return self.clock_hz * self.flops_per_cycle_per_core

    def peak_gflops(self, cores: int | None = None) -> float:
        """Aggregate sustained GFLOP/s with ``cores`` cores active."""
        cores = self.cores if cores is None else cores
        require_positive("cores", cores)
        return cores * self.core_flops_per_second / 1e9

    def tile_flops(self, kc: int) -> float:
        """FLOPs of one ``mr x kc`` by ``kc x nr`` register-tile multiply."""
        require_positive("kc", kc)
        return 2.0 * self.mr * self.nr * kc

    def tile_ops_per_second(self, kc: int) -> float:
        """Model cycles per second for depth-``kc`` tiles.

        One model cycle == one tile multiply per core, so this is also the
        rate at which a single core advances through model cycles.
        """
        return self.core_flops_per_second / self.tile_flops(kc)

    # -- bandwidths --------------------------------------------------------

    @property
    def dram_bytes_per_second(self) -> float:
        """Effective external bandwidth in bytes/s (after efficiency)."""
        return self.dram_gb_per_s * self.dram_efficiency * 1e9

    def internal_bytes_per_second(self, cores: int) -> float:
        """Effective LLC-to-cores bandwidth in bytes/s for ``cores`` cores."""
        return self.internal_bw.bandwidth_gb_per_s(cores) * 1e9

    # -- derived machines ---------------------------------------------------

    def with_cores(self, cores: int) -> "MachineSpec":
        """A copy of this spec restricted/expanded to ``cores`` cores.

        Cache sizes and bandwidth curves are unchanged; use
        :func:`repro.machines.extrapolate.extrapolated_machine` for the
        paper's grown-machine assumptions.
        """
        require_positive("cores", cores)
        return replace(self, cores=cores)
