"""Host facts recorded with every result, and the BLAS drift probe.

:func:`pin_blas_threads` must run before NumPy is first imported: the
BLAS library reads its thread count once, at load time. The variables
are set in ``os.environ``, so every child process the benchmark starts
(setup probes, shard processes, fleet workers) inherits the same pin.
"""

from __future__ import annotations

import ctypes
import os
import platform
import resource
import sys
import time

#: BLAS threads per process. With OpenBLAS's default of one thread per
#: core, a 128^3 multiply on a 2-core host stalls for ~16 ms in thread
#: hand-off, so unpinned numbers measure the scheduler.
BLAS_THREADS = 1
_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
#: Calibration multiply for ``host.numpy_gflops``: float64 cube.
CALIBRATION_N = 384


def pin_blas_threads() -> None:
    for var in _THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def _blas_runtime_threads() -> "int | None":
    """Thread count reported by the loaded OpenBLAS, if it can be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {
                line.split()[-1]
                for line in fh
                if "openblas" in line.lower() and ".so" in line
            }
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def numpy_gflops(reps: int = 7) -> float:
    """Median GFLOP/s of a bare float64 ``np.matmul`` at the calibration cube."""
    import numpy as np

    rng = np.random.default_rng(12345)
    a = rng.standard_normal((CALIBRATION_N, CALIBRATION_N))
    b = rng.standard_normal((CALIBRATION_N, CALIBRATION_N))
    np.matmul(a, b)
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        np.matmul(a, b)
        times.append(time.perf_counter() - start)
    times.sort()
    return 2.0 * CALIBRATION_N**3 / times[len(times) // 2] / 1e9


def host_block() -> dict:
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {
            "name": deps.get("name"),
            "version": deps.get("version"),
            "configuration": deps.get("openblas configuration"),
        }
    except (KeyError, TypeError, AttributeError):
        pass
    runtime = _blas_runtime_threads()
    return {
        "cores": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_runtime": runtime,
        "platform": platform.platform(),
    }


def peak_rss_mb() -> float:
    """Peak resident memory of this process."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
