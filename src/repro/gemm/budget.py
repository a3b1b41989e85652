"""The core budget: how one multiply splits the host's cores.

In the paper each of the ``p`` cores runs its own ``mc``-row strip of a
CB block over a single-threaded kernel (Section 4.2), and MOMMS
(Smith & van de Geijn) parallelizes one loop of the nest the same way.
Every execution path (engine, shard process, server executor, fleet
worker, tuner) asks this module how many engine threads, shard
processes and BLAS threads a multiply gets, so that

    workers x processes x BLAS threads <= usable cores.

It is the only code that reads the usable cores
(``os.sched_getaffinity``), and it holds the split policy:

* Every engine thread runs over **one BLAS thread**, for every backend
  and in every shard process. A per-strip backend gets its parallelism
  from engine workers; a ``grouped`` backend runs one engine thread.
* ``workers=None`` resolves to ``min(cores // processes, strip tasks
  per group)``, or to 1 when one strip task is too small to pay for a
  thread (:data:`MIN_STRIP_FLOPS`) or when the BLAS thread count
  cannot be set. The rule reads only the plan.

A server hands each executor thread its share of the host through
:func:`core_share`; the budget then divides that share instead of the
whole host.

The BLAS lease
--------------

The thread count of the OpenBLAS NumPy loaded is process state: in
OpenBLAS 0.3.31 even ``openblas_set_num_threads_local`` on one thread
changed the count a second thread read. So :func:`blas_lease` is
refcounted and process-wide: the first multiply to enter lowers the
count to one, and the last to leave restores the count the first one
found. It never raises the count: raising it above the count OpenBLAS
was loaded with made a 768^3 ``np.matmul`` take 10.8-55 ms against
~20 ms at one thread, while lowering it and restoring it behaved
normally. The entry points are found lazily, on the first multiply;
without them (another BLAS vendor) the engine runs as before, one
worker by default, and reports ``blas_threads=None``.

Why one BLAS thread for every backend: the count changes bits. With
OpenBLAS 0.3.31 (SkylakeX kernels) on a 2-core Xeon, a product at one and
at two threads differed in 104 of 360 probed shapes: every float64
product with N = 457, and every product with K = 509 (deeper than
OpenBLAS's own K blocking). A grouped call run at ``cores // processes``
threads would give the in-process run, a shard (one core each) and a
served request (one executor's share) different bits, and a concurrent
lease could change the count under a running call. One thread
everywhere keeps every path's bits equal, and equal to a run with the
BLAS pinned to one thread through the environment.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Iterable, Iterator

import numpy as np

#: Wall time the executor spends per strip task to hand work to a second
#: thread and wait for it at the barrier, with one task per worker
#: (the executor over trivial 1x1 strips, workers=2 against
#: workers=1): 45-56 us over four runs, median 52 us (2-core Xeon,
#: Python 3.11).
TASK_DISPATCH_SECONDS = 52e-6
#: One-thread OpenBLAS speed on strip-sized float64 products on that
#: host: 19-39 GFLOP/s for strips of 0.4 to 109 MFLOP.
STRIP_FLOPS_PER_SECOND = 25e9
#: Work one strip task needs before a second thread pays for it. Two
#: workers halve a task's time ``t``; that gain beats the dispatch when
#: ``t / 2 > TASK_DISPATCH_SECONDS``, so ~2.6 MFLOP. Measured CAKE
#: multiplies on the 10-core plan, 2 workers against 1, three runs:
#: 0.57-0.59x at 0.4 MFLOP per strip (128^3), 0.60-0.62x at 0.7
#: (64x512.512x256), 0.83-0.98x and 1.14-1.25x at 2.56 (256^3 and
#: 128x1024.1024x512, both just below the constant), 0.93-1.19x at 5.7
#: (384^3), 1.55-1.65x at 23 (768^3).
MIN_STRIP_FLOPS = 2 * TASK_DISPATCH_SECONDS * STRIP_FLOPS_PER_SECOND

_SHARE: ContextVar["int | None"] = ContextVar("repro_core_share", default=None)


def usable_cores() -> int:
    """The cores this process may run on: its CPU affinity."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - no affinity API (macOS)
        return os.cpu_count() or 1


def cores() -> int:
    """The cores a multiply started in this context may use.

    The usable cores, or the share :func:`core_share` set for this
    context, whichever is smaller.
    """
    share = _SHARE.get()
    usable = usable_cores()
    return usable if share is None else max(1, min(share, usable))


@contextmanager
def core_share(share: "int | None") -> Iterator[None]:
    """Give multiplies started in this context ``share`` cores of the host.

    A server wraps each executor's passes in its share, so concurrent
    requests divide the host instead of each claiming all of it.
    ``None`` leaves the share as it is.
    """
    if share is None:
        yield
        return
    token = _SHARE.set(share)
    try:
        yield
    finally:
        _SHARE.reset(token)


def worth_a_thread(task_flops: Iterable[float]) -> int:
    """How many strip tasks, of the given flops, are large enough to pay
    for a thread (:data:`MIN_STRIP_FLOPS`)."""
    return sum(flops >= MIN_STRIP_FLOPS for flops in task_flops)


def default_workers(tasks: int, processes: int = 1) -> int:
    """Engine threads for a per-strip multiply that did not name ``workers``.

    ``tasks`` is the number of strip tasks in one group that are worth
    a thread (:func:`worth_a_thread`), ``processes`` the number of shard
    processes the multiply runs across.
    """
    if tasks < 2 or _blas() is None:
        return 1
    return max(1, min(cores() // processes, tasks))


# -- the handle on NumPy's BLAS -----------------------------------------------

#: (getter, setter) pairs, scipy-openblas 64-bit interface first.
_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)
_ROW_MAJOR, _NO_TRANS = 101, 111


class _Blas:
    """ctypes entry points of the OpenBLAS library NumPy loaded.

    The thread getter and setter are called holding the GIL (through a
    ``PyDLL`` view of the library): they return at once, and dropping
    the GIL on every multiply's lease let other threads in. The CBLAS
    ``?gemm`` symbols release it. They share the thread getter's prefix
    and suffix; their integer width comes from the build configuration
    (``USE64BITINT``), and without that string no ``?gemm`` is used.
    """

    def __init__(self, path: str, getter: str, setter: str) -> None:
        import ctypes

        lib, held = ctypes.CDLL(path), ctypes.PyDLL(path)
        self.get_threads: Callable[[], int] = getattr(held, getter)
        self.get_threads.restype = ctypes.c_int
        self.get_threads.argtypes = []
        self.set_threads: Callable[[int], None] = getattr(held, setter)
        self.set_threads.restype = None
        self.set_threads.argtypes = [ctypes.c_int]
        #: NumPy dtype char ('d', 'f') -> cblas dgemm / sgemm.
        self.gemm: dict[str, Callable] = {}
        config = getattr(lib, getter.replace("get_num_threads", "get_config"), None)
        if config is None:
            return
        config.restype = ctypes.c_char_p
        config.argtypes = []
        index = ctypes.c_int64 if b"USE64BITINT" in (config() or b"") else ctypes.c_int
        prefix = "scipy_cblas_" if getter.startswith("scipy_") else "cblas_"
        suffix = "64_" if getter.endswith("64_") else ""
        for char, letter, scalar in (
            ("d", "d", ctypes.c_double), ("f", "s", ctypes.c_float)
        ):
            fn = getattr(lib, f"{prefix}{letter}gemm{suffix}", None)
            if fn is None:
                continue
            fn.restype = None
            fn.argtypes = [
                ctypes.c_int, ctypes.c_int, ctypes.c_int,
                index, index, index,
                scalar, ctypes.c_void_p, index, ctypes.c_void_p, index,
                scalar, ctypes.c_void_p, index,
            ]
            self.gemm[char] = fn


def _library_paths() -> list[str]:
    """Loaded OpenBLAS libraries, else the copies vendored with NumPy."""
    paths: list[str] = []
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            for line in fh:
                path = line.split()[-1]
                if "openblas" in path.lower() and ".so" in path:
                    if path not in paths:
                        paths.append(path)
    except OSError:  # pragma: no cover - no procfs
        pass
    if not paths:
        libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
        try:
            paths = [
                os.path.join(libs, name)
                for name in sorted(os.listdir(libs))
                if "openblas" in name.lower()
            ]
        except OSError:
            pass
    return paths


def _load() -> "_Blas | None":
    import ctypes

    for path in _library_paths():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for getter, setter in _THREAD_SYMBOLS:
            if hasattr(lib, getter) and hasattr(lib, setter):
                return _Blas(path, getter, setter)
    return None


_UNLOADED = object()
_BLAS: "_Blas | None | object" = _UNLOADED
_LOAD_LOCK = threading.Lock()


def _blas() -> "_Blas | None":
    """The handle, loaded on first use; ``None`` when no setter was found."""
    global _BLAS
    if _BLAS is _UNLOADED:
        with _LOAD_LOCK:
            if _BLAS is _UNLOADED:
                _BLAS = _load()
    return _BLAS  # type: ignore[return-value]


def blas_threads_now() -> "int | None":
    """The BLAS thread count in force right now (``None``: unmanaged)."""
    blas = _blas()
    return None if blas is None else int(blas.get_threads())


# -- the lease -----------------------------------------------------------------


class _Lease:
    """The multiplies running in this process; see :func:`blas_lease`.

    One process-wide context manager: every ``with`` shares its state,
    guarded by one lock, so concurrent multiplies share one lowering.
    """

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.lock = threading.Lock()
        self.holders = 0
        #: The count the first holder found, restored when the last leaves.
        self.restore = 1

    def __enter__(self) -> "int | None":
        blas = _blas()
        if blas is None:
            return None
        with self.lock:
            if not self.holders:
                self.restore = int(blas.get_threads())
                if self.restore > 1:
                    blas.set_threads(1)
            self.holders += 1
            return 1

    def __exit__(self, *exc_info) -> None:
        blas = _blas()
        if blas is None:
            return
        with self.lock:
            self.holders -= 1
            if not self.holders and self.restore > 1:
                blas.set_threads(self.restore)


_LEASE = _Lease()


def _after_fork_in_child() -> None:
    # A forked child inherits no running multiply, and a lock another
    # parent thread held at the fork would never be released.
    global _LOAD_LOCK
    _LOAD_LOCK = threading.Lock()
    _LEASE.reset()


os.register_at_fork(after_in_child=_after_fork_in_child)


def blas_lease() -> _Lease:
    """The lease that runs a ``with`` body over a one-thread BLAS.

    ``with blas_lease() as count`` binds the BLAS threads in force, or
    ``None`` when the BLAS is unmanaged. The count is restored on any
    exit, raising ones included, by the last of the concurrent leases.
    """
    return _LEASE


def pin_blas_thread() -> None:
    """Lower this process's BLAS to one thread for good.

    A shard worker calls this once, at start-up: its shards then run
    over one BLAS thread without a lease of their own.
    """
    blas = _blas()
    if blas is not None:
        with _LEASE.lock:
            if blas.get_threads() > 1:
                blas.set_threads(1)


def accumulate_gemm(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> bool:
    """``c += a @ b`` as one CBLAS ``?gemm`` call with ``beta=1``, if possible.

    Raises ``ValueError`` when the shapes disagree, before any call.
    Returns ``False``, touching nothing, when the call cannot be made:
    no ``?gemm`` entry point, a dtype other than float32/float64 or
    mixed dtypes, an operand whose inner stride is not unit, empty
    extents, or a ``c`` that may share memory with ``a`` or ``b``. A
    size-1 axis may carry any stride (a C-contiguous ``(k, 1)`` view
    such as ``row.T`` has strides ``(8, 8k)``); its stride is never
    stepped, so the check and the leading dimension read its extent
    instead.
    """
    if (
        a.ndim != 2
        or b.ndim != 2
        or c.shape != (a.shape[0], b.shape[1])
        or a.shape[1] != b.shape[0]
    ):
        raise ValueError(
            f"shapes disagree: A {a.shape}, B {b.shape}, C {c.shape}"
        )
    blas = _blas()
    if blas is None:
        return False
    gemm = blas.gemm.get(c.dtype.char)
    if (
        gemm is None
        or a.dtype != c.dtype
        or b.dtype != c.dtype
        or not c.dtype.isnative
        or not c.flags.writeable
        or 0 in c.shape
        or a.shape[1] == 0
    ):
        return False
    item = c.itemsize
    leading = []
    for x in (a, b, c):
        rows, cols = x.shape
        row, col = x.strides
        if cols == 1:
            col = item
        if rows == 1:
            row = cols * item
        if col != item or row % item or row // item < cols or not x.flags.aligned:
            return False
        leading.append(row // item)
    if np.may_share_memory(c, a) or np.may_share_memory(c, b):
        return False
    (m, k), n = a.shape, c.shape[1]
    gemm(
        _ROW_MAJOR, _NO_TRANS, _NO_TRANS, m, n, k,
        1.0, a.ctypes.data, leading[0], b.ctypes.data, leading[1],
        1.0, c.ctypes.data, leading[2],
    )
    return True
