"""repro — reproduction of *CAKE: Matrix Multiplication Using
Constant-Bandwidth Blocks* (Kung, Natesh, Sabot — SC '21).

The package is organised around the paper's structure:

``repro.core``
    Constant-bandwidth (CB) block theory: shaping, sizing, and the
    bandwidth/memory requirement equations of Sections 3 and 4.
``repro.schedule``
    Block partitioning of the M x N x K computation space and the
    K-first boustrophedon schedule of Algorithm 2, plus a
    surface-reuse analyzer.
``repro.machines``
    Parametric models of the CPUs in Table 2 (Intel i9-10900K,
    AMD Ryzen 9 5950X, ARM Cortex-A53), including internal-bandwidth
    scaling curves.
``repro.memsim``
    A trace-driven, multi-level LRU cache-hierarchy simulator at tile
    granularity, used to reproduce the stall/access profiles of
    Figure 7 (the tests validate it against a line-level simulator).
``repro.packing``
    Blocked packing of operands into contiguous buffers (Section 5.2.1).
``repro.gemm``
    Executable GEMM engines: the CAKE executor and a faithful GOTO
    (Goto's algorithm) baseline standing in for MKL/ARMPL/OpenBLAS.
``repro.perfmodel``
    Roofline-style performance evaluation of a schedule on a machine,
    producing the GFLOP/s and DRAM-GB/s series of Figures 9-12.
``repro.archsim``
    The packet-based discrete-event architecture simulator of
    Section 6.2.
``repro.analysis``
    Speedup, extrapolation, and matrix-shape-sweep helpers behind the
    evaluation figures.
``repro.dnn``
    Convolution-to-GEMM lowering used by the DNN-motivated examples.
``repro.bench``
    The experiment registry and harness shared by ``benchmarks/``.
``repro.serve``
    GEMM-as-a-service: an admission-controlled, deadline-aware
    multiply server with request coalescing over the engines above,
    and a supervised fleet of such servers.

Quickstart::

    import numpy as np
    from repro import cake_matmul
    from repro.machines import intel_i9_10900k

    rng = np.random.default_rng(0)
    a = rng.standard_normal((512, 384))
    b = rng.standard_normal((384, 640))
    report = cake_matmul(a, b, machine=intel_i9_10900k(), cores=10)
    np.testing.assert_allclose(report.c, a @ b, rtol=1e-10)
    print(report.gflops, report.dram_gb_per_s)
"""

from repro._version import __version__
from repro.errors import (
    AdmissionError,
    CakeError,
    ConfigurationError,
    DeadlineExceededError,
    ScheduleError,
    SimulationError,
)
from repro.api import cake_matmul, goto_matmul, serve

__all__ = [
    "__version__",
    "AdmissionError",
    "CakeError",
    "ConfigurationError",
    "DeadlineExceededError",
    "ScheduleError",
    "SimulationError",
    "cake_matmul",
    "goto_matmul",
    "serve",
]
