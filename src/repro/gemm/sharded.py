"""Process-level CB-block sharding over shared memory (CAKE-on-CAKE).

The paper's constant-bandwidth blocks compose across memory levels: the
same geometry that tiles one core's cache hierarchy tiles a pool of
*processes* one level up. This module is that next level — it partitions
the M x N grid of C into a near-square **shard grid**, gives each shard
to a worker process, and runs the existing threaded strip-group executor
(:mod:`repro.gemm.parallel`, with a backend rebuilt by name from the
registry) inside each shard.

Transport is ``multiprocessing.shared_memory``: the parent copies A and
B once each, flat, into the process-wide shared-memory arena (a
:class:`~repro.packing.pool.SharedBufferPool`), then ships only *segment
names* — workers attach the segments zero-copy and cut the same
:class:`~repro.gemm.parallel.GridOperand` views an in-process run cuts
(:func:`~repro.gemm.parallel.grid_operands`), with the same strides.
C is a single shared output buffer; every shard writes its disjoint
row x column panel, so no two processes ever touch the same byte of C.

Bit-identity
------------

The sharded product is **bit-identical** to the same engine's
in-process run on the same backend, for any process and thread count,
because of two rules:

* sharding never splits the K dimension, so every C element's full
  ``+=`` accumulation sequence lives inside exactly one shard;
* shards tile **whole backend calls**. Each worker builds its groups
  with the engines' own :func:`~repro.gemm.parallel.build_groups` over
  the *global* loop order, restricted to its span, so it issues the
  serial run's calls on identically-shaped operands. The shard grid may
  therefore cut at every boundary between whole backend calls, and
  only there: between the per-core ``mc``-row strips of a CB block for
  CAKE on per-strip backends (a CB block is p strips sharing one B
  panel, Sec. 4.2, so a shard may hold part of a block); between block
  rows for CAKE on ``grouped`` backends (one call multiplies the whole
  block); between ``mc`` strips for GOTO on per-strip backends; and
  nowhere in M for GOTO on ``grouped`` backends (one call multiplies
  the whole M column of a slice; BLAS may block a different M extent
  differently), which then shard along N only. A strip keeps its
  serial-run index in a shard (``StripGroup.first_strip``), so fault
  keys, error reports and the verify counts match the in-process run.

The conformance suite and the differential test assert this per backend.

Shard-grid selection
--------------------

For P processes the grid ``(pr, pc)`` with ``pr * pc = P`` replicates
A ``pc`` times and B ``pr`` times across processes, so the
measured inter-process traffic is ``pc*M*K + pr*K*N + M*N`` elements.
The memory-independent communication lower bound for matrix
multiplication on P unbounded-memory processors (Red-Blue Pebbling
Revisited / COSMA, and the tight memory-independent bounds of Al Daas,
Ballard et al.) is ``2*K*sqrt(M*N*P) + M*N`` elements in the 2D regime
this executor occupies (K unsplit). By AM-GM the measured traffic is
minimized — and meets the bound within block-quantization slack — when
``M/pr = N/pc``, i.e. the shard grid is near-square in *element* space.
:func:`plan_shards` therefore maximizes usable parallelism first (the
largest ``P' <= P`` with a factor pair that fits the cut grid), then
picks the factor pair minimizing ``pc*M + pr*N``. The achieved traffic
is recorded in ``TrafficCounters.ipc_bytes`` and reported against the
bound in :class:`ShardReport`. It stays within :data:`IPC_SLACK_FACTOR`
of the bound only when the plan has an N panel boundary where the
near-square grid wants a column cut. A plan with a single N panel can
only be cut in rows, which replicates B: 1.54x at 256x2048 . 2048x1024
on two processes of the 10-core CAKE plan, and the same for GOTO, whose
``nc`` spans all of N on that shape. The tests, the sharded bench and
the sharded experiment assert the slack at ``cores=1``, whose small CAKE
blocks leave several N panels to cut.

The warm runtime
----------------

Shard processes and shared-memory segments outlive one multiply:

* **Pools.** A process-wide cache holds idle worker pools keyed by start
  method and process count. A multiply leases one pool exclusively and
  returns it only if every future completed. A broken, timed-out or
  raising call tears its pool down with
  :func:`~repro.runtime.restart.kill_pool` instead; an idle pool found
  dead at lease time is replaced without charging the caller's
  ``max_pool_rebuilds``. Pools retire after
  :data:`POOL_IDLE_SECONDS` idle, and at exit; every worker also exits
  by itself once its parent dies.
* **Arena.** One process-wide :class:`~repro.packing.pool.SharedBufferPool`
  recycles operand and C segments by shape, keeping at most
  :data:`ARENA_RETAINED_BYTES` idle (eviction closes and unlinks). A
  multiply returns its segments only after it fully succeeded; on any
  other exit it destroys them, so a straggling worker never writes into
  a reused C. The arena retires with the last pool.

Fault tolerance
---------------

A shard worker dying (``BrokenProcessPool``) triggers the same
pool-rebuild ladder the experiment runtime uses: the unfinished shards'
C panels are zeroed and resubmitted to a fresh pool, up to
``max_pool_rebuilds`` times, then degraded to inline in-parent execution
(where kill-type faults are inert by construction). With the fallback
disabled, a structured :class:`ShardExecutionError` names the shards
that never completed — a partially-computed C is never returned
silently. ABFT verification (:mod:`repro.gemm.verify`) runs *inside*
each shard worker, so checksum mismatches heal locally through the
usual ladder and unrecoverable ones propagate as
:class:`~repro.gemm.verify.NumericFaultError`.
"""

from __future__ import annotations

import atexit
import math
import multiprocessing as mp
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from concurrent.futures import as_completed
from contextlib import contextmanager
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from multiprocessing.connection import wait as wait_ready
from typing import Callable, Iterator, Sequence

import numpy as np

from repro.errors import CakeError, ConfigurationError, DeadlineExceededError
from repro.gemm.budget import blas_lease, blas_threads_now, pin_blas_thread
from repro.gemm.backends.registry import backend_spec
from repro.gemm.parallel import (
    GroupSlot,
    PhaseTimers,
    build_groups,
    execute_groups,
    grid_operands,
)
from repro.gemm.plan import CakePlan, GotoPlan
from repro.gemm.verify import VerifyConfig, VerifyReport
from repro.packing.pool import SegmentSpec, SharedBufferPool
from repro.runtime.faults import mark_worker_process
from repro.runtime.restart import RestartPolicy, RestartTracker, kill_pool
from repro.util import (
    require_count,
    require_nonnegative,
    require_positive,
    split_even,
)

#: Documented slack on the memory-independent communication lower bound:
#: the shard grid meets the bound up to (a) the AM-GM gap of the best
#: *integer* factor pair of P on the actual M:N aspect ratio and (b)
#: block-granularity quantization of the row/column splits. Both are
#: small for the benchmarked shapes (measured/bound is typically under
#: 1.15); 1.5 leaves honest headroom without letting a wrong formula
#: slip through. Benches assert ``bound <= ipc_bytes <= 1.5 * bound``.
IPC_SLACK_FACTOR = 1.5

#: Seconds a warm shard pool may sit idle before it retires; the arena
#: retires with the last pool (or this long after its last multiply if
#: no pool is left).
POOL_IDLE_SECONDS = 1.0
#: Bytes of idle shared-memory segments the arena keeps for reuse.
ARENA_RETAINED_BYTES = 64 * 1024 * 1024
#: How often a shard worker checks that its parent is still alive.
PARENT_POLL_SECONDS = 0.2


# -- configuration -------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ShardConfig:
    """How a process-sharded run executes.

    Parameters
    ----------
    processes:
        Worker processes requested: a Python or NumPy integer, stored as
        ``int`` (the rule ``workers`` follows). The usable count may be
        smaller when the CB block grid has fewer than ``processes``
        blocks (:func:`plan_shards` clamps); 1 means no sharding at all.
    max_pool_rebuilds:
        How many times a crashed worker pool is rebuilt (unfinished
        shards zeroed and resubmitted) before degrading.
    inline_fallback:
        After the rebuild budget, run the remaining shards inline in the
        parent (kill faults are inert there, so the run still completes
        correctly). ``False`` raises :class:`ShardExecutionError`
        instead — never a silently partial C.
    start_method:
        ``multiprocessing`` start method; ``None`` picks ``fork`` where
        available (cheap, inherits the imported interpreter) and
        ``spawn`` otherwise.
    deadline:
        Absolute ``time.monotonic()`` instant by which the run must
        finish, or ``None`` for no bound. When the instant passes while
        shards are still outstanding the pool is killed — hung workers
        included — and :class:`~repro.errors.DeadlineExceededError`
        (stage ``"shard"``) is raised; a stale or partial C is never
        returned. This is how the serve layer's per-request deadlines
        reach the process-sharded path.
    """

    processes: int = 1
    max_pool_rebuilds: int = 2
    inline_fallback: bool = True
    start_method: str | None = None
    deadline: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "processes", require_count("processes", self.processes)
        )
        require_nonnegative("max_pool_rebuilds", self.max_pool_rebuilds)
        if (
            self.start_method is not None
            and self.start_method not in mp.get_all_start_methods()
        ):
            raise ConfigurationError(
                f"start method {self.start_method!r} not available on this "
                f"host; choose from {mp.get_all_start_methods()}"
            )


def resolve_shards(
    processes: "int | ShardConfig | None",
) -> ShardConfig | None:
    """Normalize an engine's ``processes`` parameter.

    ``None`` and 1 mean in-process, and resolve to ``None``: the engine
    then takes its ordinary in-process path. Any other count (a Python
    or NumPy integer, :func:`~repro.util.require_count`) wraps into a
    default :class:`ShardConfig`; a config passes through, or resolves
    to ``None`` when it asks for one process.
    """
    if processes is None:
        return None
    if not isinstance(processes, ShardConfig):
        processes = ShardConfig(processes=processes)
    return processes if processes.processes > 1 else None


# -- shard-grid selection ------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ShardSpan:
    """One shard's slice of C, in cut indices and elements.

    ``mi0:mi1`` / ``ni0:ni1`` are half-open index ranges into the row and
    column extents :func:`plan_shards` was given; ``m0``/``n0`` and the
    extents are the corresponding element ranges of C, which is what
    :func:`~repro.gemm.parallel.build_groups` filters on.
    """

    index: int
    row: int
    col: int
    mi0: int
    mi1: int
    ni0: int
    ni1: int
    m0: int
    m_extent: int
    n0: int
    n_extent: int


@dataclass(frozen=True)
class ShardPlan:
    """The chosen shard grid plus every shard's span and IPC accounting."""

    rows: int
    cols: int
    spans: tuple[ShardSpan, ...]
    m: int
    n: int
    k: int

    @property
    def processes(self) -> int:
        """Usable worker processes (``rows * cols``)."""
        return self.rows * self.cols

    @property
    def ipc_elements(self) -> int:
        """Deterministic inter-process traffic of this plan, in elements.

        Each shard reads its ``m_s x K`` slice of A, its ``K x n_s``
        slice of B, and writes its ``m_s x n_s`` C
        panel: summed over shards this is exactly
        ``cols*M*K + rows*K*N + M*N``. Derived from the plan, never
        measured — the same number for every run of the same problem.
        """
        return sum(
            s.m_extent * self.k + self.k * s.n_extent + s.m_extent * s.n_extent
            for s in self.spans
        )

    @property
    def ipc_lower_bound_elements(self) -> float:
        """The memory-independent bound for this plan's process count."""
        return ipc_lower_bound_elements(self.m, self.n, self.k, self.processes)


def ipc_lower_bound_elements(m: int, n: int, k: int, processes: int) -> float:
    """Memory-independent communication lower bound, in elements.

    The tight bound for C = A x B on ``P`` processors with unbounded
    local memory, in the 2D regime (K never split — which is structural
    here: splitting K would change summation order and break
    bit-identity): every processor must move at least
    ``2*K*sqrt(M*N/P)`` input elements, and the C surface moves once,
    so the total is ``2*K*sqrt(M*N*P) + M*N``. See Red-Blue Pebbling
    Revisited (COSMA) and "Tight Memory-Independent Parallel Matrix
    Multiplication Communication Lower Bounds".
    """
    require_positive("processes", processes)
    return 2.0 * k * math.sqrt(float(m) * float(n) * processes) + float(m) * n


def select_shard_grid(
    processes: int, mb: int, nb: int, m: int, n: int
) -> tuple[int, int]:
    """The ``(rows, cols)`` shard grid for ``processes`` workers.

    Maximizes usable parallelism first: the largest ``P' <= processes``
    with a factor pair ``(pr, pc)``, ``pr <= mb`` and ``pc <= nb``, wins
    (``P' = 1`` always exists). Among that ``P'``'s factor pairs, the
    pair minimizing replicated input traffic ``pc*M + pr*N`` is chosen
    — the discrete form of the near-square ``M/pr = N/pc`` optimum of
    the communication bound — with near-squareness in *block* space as
    the deterministic tie-break.
    """
    require_positive("processes", processes)
    require_positive("mb", mb)
    require_positive("nb", nb)
    for p_eff in range(min(processes, mb * nb), 0, -1):
        pairs = [
            (r, p_eff // r)
            for r in range(1, p_eff + 1)
            if p_eff % r == 0 and r <= mb and p_eff // r <= nb
        ]
        if pairs:
            return min(
                pairs,
                key=lambda rc: (rc[1] * m + rc[0] * n, abs(rc[0] - rc[1]), rc[0]),
            )
    raise AssertionError("unreachable: (1, 1) always fits")  # pragma: no cover


def plan_shards(
    processes: int,
    row_extents: Sequence[int],
    col_extents: Sequence[int],
    k: int,
) -> ShardPlan:
    """Partition a block grid into shards for ``processes`` workers.

    ``row_extents``/``col_extents`` are the element heights/widths the
    shard grid may cut between — the row ranges of whole backend calls
    (CAKE: per-core strips, or CB block rows on grouped backends; GOTO:
    ``mc`` strips, or all of M on grouped backends) and the plan's N
    panels. They are split into balanced contiguous runs — every shard
    gets at least one row and one column, so the spans tile the grid
    exactly (asserted by hypothesis in the tests).
    """
    mb, nb = len(row_extents), len(col_extents)
    m, n = int(sum(row_extents)), int(sum(col_extents))
    rows, cols = select_shard_grid(processes, mb, nb, m, n)
    row_blocks = split_even(mb, rows)
    col_blocks = split_even(nb, cols)
    spans: list[ShardSpan] = []
    mi0 = m0 = 0
    for r, rb in enumerate(row_blocks):
        mi1 = mi0 + rb
        m_extent = int(sum(row_extents[mi0:mi1]))
        ni0 = n0 = 0
        for c_idx, cb in enumerate(col_blocks):
            ni1 = ni0 + cb
            n_extent = int(sum(col_extents[ni0:ni1]))
            spans.append(
                ShardSpan(
                    index=len(spans),
                    row=r,
                    col=c_idx,
                    mi0=mi0,
                    mi1=mi1,
                    ni0=ni0,
                    ni1=ni1,
                    m0=m0,
                    m_extent=m_extent,
                    n0=n0,
                    n_extent=n_extent,
                )
            )
            ni0, n0 = ni1, n0 + n_extent
        mi0, m0 = mi1, m0 + m_extent
    return ShardPlan(
        rows=rows, cols=cols, spans=tuple(spans), m=m, n=n, k=int(k)
    )


# -- results and errors --------------------------------------------------------


class ShardExecutionError(CakeError):
    """Shard workers did not complete and the inline fallback is off.

    Carries the ``(row, col)`` grid coordinates of every unfinished
    shard and the rebuilds attempted — the structured "C was not
    computed" signal, as opposed to silently returning a partial
    product.
    """

    def __init__(
        self, shards: Sequence[tuple[int, int]], rebuilds: int
    ) -> None:
        self.shards = tuple(shards)
        self.rebuilds = rebuilds
        names = ", ".join(f"({r}, {c})" for r, c in self.shards)
        super().__init__(
            f"{len(self.shards)} shard worker(s) did not complete after "
            f"{rebuilds} pool rebuild(s) [shards {names}]; refusing to "
            f"return a partially-computed C (enable inline_fallback to "
            f"degrade to in-process execution instead)"
        )

    def __reduce__(self):
        return (ShardExecutionError, (self.shards, self.rebuilds))


@dataclass(slots=True)
class ShardReport:
    """What a process-sharded run did, for ``GemmRun.shards``.

    ``shard_phase_seconds`` holds one dict per shard (ordered by shard
    index) with the shard's grid coordinates and its worker's
    pack/compute/reduce/verify/recover wall-clock. ``ipc_bytes`` is the
    plan-derived inter-process traffic, ``ipc_lower_bound_bytes`` the
    memory-independent bound for the same process count
    (:func:`ipc_lower_bound_elements`); their ratio — :attr:`slack` —
    is asserted under :data:`IPC_SLACK_FACTOR` by the bench.
    """

    rows: int
    cols: int
    workers: int
    start_method: str
    shard_phase_seconds: list[dict] = field(default_factory=list)
    ipc_bytes: int = 0
    ipc_lower_bound_bytes: float = 0.0
    pool_rebuilds: int = 0
    inline_shards: int = 0
    #: BLAS threads the shards ran under (``None``: BLAS unmanaged).
    blas_threads: int | None = None

    @property
    def processes(self) -> int:
        """Usable worker processes (``rows * cols``)."""
        return self.rows * self.cols

    @property
    def slack(self) -> float:
        """Measured IPC over the lower bound (>= 1.0 by construction)."""
        if self.ipc_lower_bound_bytes == 0.0:
            return 0.0
        return self.ipc_bytes / self.ipc_lower_bound_bytes

    def as_dict(self) -> dict:
        """Flat dict for bench rows and JSON emission."""
        return {
            "rows": self.rows,
            "cols": self.cols,
            "processes": self.processes,
            "workers": self.workers,
            "start_method": self.start_method,
            "ipc_bytes": self.ipc_bytes,
            "ipc_lower_bound_bytes": self.ipc_lower_bound_bytes,
            "ipc_slack": self.slack,
            "pool_rebuilds": self.pool_rebuilds,
            "inline_shards": self.inline_shards,
            "blas_threads": self.blas_threads,
            "shards": list(self.shard_phase_seconds),
        }


# -- shared-memory transport ---------------------------------------------------


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to a named segment without taking tracker ownership.

    The parent owns (and unlinks) every segment. Python 3.13's
    ``track=False`` expresses that directly. Earlier versions register
    the attach with the resource tracker, which is harmless: fork and
    spawn workers alike share the parent's tracker (a spawn child adopts
    the parent's tracker fd in ``spawn_main``), whose set-typed cache
    already holds the create registration. Unregistering the attach
    would delete that registration — the parent's later unlink then
    fails in the tracker, and a parent that dies before
    ``arena.destroy()`` leaks the segment.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track parameter
        return shared_memory.SharedMemory(name=name)


@dataclass(frozen=True)
class _ShardTask:
    """Everything one worker needs, in picklable primitives + segments.

    ``plan``, ``order`` and ``strips`` are exactly what the parent engine
    hands :func:`~repro.gemm.parallel.build_groups` for an in-process
    run; the worker calls the same builder with its ``span``, over views
    of the flat A and B segments.
    """

    plan: CakePlan | GotoPlan
    order: Sequence[GroupSlot]
    strips: int
    span: ShardSpan
    a_segment: SegmentSpec
    b_segment: SegmentSpec
    c_segment: SegmentSpec
    workers: int
    backend: str
    verify: VerifyConfig | None


# -- worker side ---------------------------------------------------------------


def _run_attached(
    task: _ShardTask, attach: Callable[[SegmentSpec], np.ndarray]
) -> dict:
    """The shard body: zero its C panel, cut views, build groups, run.

    The shard starts from a zeroed panel on every attempt (a rebuilt
    pool's or the inline fallback's included), so the parent never
    zero-fills C. Every array built here (operand views, C views,
    verifier state) is local to this frame, so when it returns only the
    segment handles remain and :func:`_execute_shard` can close the
    mappings cleanly. A verified shard computes the checksum material of
    its own blocks, as an in-process run does.
    """
    verifying = task.verify is not None and task.verify.enabled
    a, b = grid_operands(
        task.plan, attach(task.a_segment), attach(task.b_segment)
    )
    c = attach(task.c_segment)
    span = task.span
    c[span.m0 : span.m0 + span.m_extent, span.n0 : span.n0 + span.n_extent] = 0
    built = build_groups(
        task.order,
        task.plan,
        a,
        b,
        c,
        span=span,
        strips=task.strips,
        verifying=verifying,
    )
    timers = PhaseTimers()
    timers.verify_seconds = built.checksum_seconds
    kernel = task.plan.kernel
    report = execute_groups(
        built.groups,
        backend_spec(task.backend).create(kernel=kernel),
        workers=task.workers,
        timers=timers,
        verify=task.verify,
        kernel=kernel,
        checksum_elements=built.checksum_elements,
    )
    return {
        "shard": task.span.index,
        "row": task.span.row,
        "col": task.span.col,
        "groups": len(built.groups),
        "phases": timers.as_dict(),
        "workers": timers.workers,
        "blas_threads": blas_threads_now(),
        "verify": None if report is None else report.as_dict(),
    }


def _execute_shard(task: _ShardTask) -> dict:
    """Worker entry point (also the inline-fallback body in the parent)."""
    segments: list[shared_memory.SharedMemory] = []

    def attach(spec: SegmentSpec) -> np.ndarray:
        segment = _attach_segment(spec.name)
        segments.append(segment)
        return np.ndarray(
            spec.shape, dtype=np.dtype(spec.dtype_str), buffer=segment.buf
        )

    try:
        return _run_attached(task, attach)
    finally:
        for segment in segments:
            try:
                segment.close()
            except BufferError:  # pragma: no cover - error-path traceback
                pass  # frames still view the mapping; process exit frees it


def _watch_parent(parent: int) -> None:
    while os.getppid() == parent:
        time.sleep(PARENT_POLL_SECONDS)
    os._exit(0)


def _worker_init() -> None:
    """Pool initializer: a one-BLAS-thread worker that dies with its parent.

    The core budget runs every engine thread over one BLAS thread
    (:mod:`repro.gemm.budget`); a shard worker sets that once, for its
    whole life. An idle worker blocks on its task queue, which stays
    open after the parent dies (the sibling workers hold its other end),
    so a warm pool would outlive a killed parent. Each worker instead
    polls its parent pid, which changes when it is reparented, and
    exits on its own.
    """
    mark_worker_process()
    pin_blas_thread()
    threading.Thread(
        target=_watch_parent,
        args=(os.getppid(),),
        name="cake-shard-parent-watch",
        daemon=True,
    ).start()


def _unlink_segments(names: Sequence[str]) -> None:
    """Unlink a retiring arena's segments from inside a worker.

    See :func:`_retire`: the unlink must reach the resource tracker, and
    a worker's connection to it outlives the parent's.
    """
    for name in names:
        try:
            segment = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            continue
        segment.close()
        segment.unlink()


# -- the warm runtime ----------------------------------------------------------


def _alive(pool: ProcessPoolExecutor) -> bool:
    """Whether no worker of an idle pool has died."""
    if getattr(pool, "_broken", False):
        return False
    procs = (getattr(pool, "_processes", None) or {}).values()
    return not wait_ready([proc.sentinel for proc in procs], timeout=0)


def _retire(
    pools: Sequence[ProcessPoolExecutor], arena: SharedBufferPool | None
) -> None:
    """Shut retiring pools down; destroy a retiring arena first.

    The arena's segments are unlinked through a live retiring worker when
    there is one: a supervisor that reaps this process tree may already
    have closed the parent's resource-tracker connection, and an unlink
    from the parent would then start a second tracker for it to kill.
    The parent's own unlinks skip the segments a worker already removed.
    """
    if arena is not None:
        names = arena.segment_names()
        live = next((pool for pool in pools if _alive(pool)), None)
        if names and live is not None:
            try:
                live.submit(_unlink_segments, names).result(timeout=5.0)
            except Exception:  # noqa: BLE001 - the parent unlinks the rest
                pass
        arena.destroy()
    for pool in pools:
        if _alive(pool):
            pool.shutdown(wait=True)
        else:
            kill_pool(pool)


#: (start method, worker processes).
PoolKey = tuple[str, int]


class _WarmRuntime:
    """The process-wide warm shard pools and shared-memory arena.

    Everything is guarded by ``lock``. ``idle`` holds each key's pools
    waiting for a lease with the instant each was returned; ``sessions``
    counts multiplies holding the arena. One daemon thread retires what
    idled for :data:`POOL_IDLE_SECONDS` and exits when nothing is left.
    A retirement and a pool's fork (on its first submit) never overlap
    (``fork_lock``): retiring unregisters segments or a spawn pool's
    semaphores with the resource tracker, and a worker forked while
    another thread holds the tracker's lock waits on it forever.
    """

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.fork_lock = threading.Lock()
        self.idle: dict[PoolKey, list[tuple[ProcessPoolExecutor, float]]] = {}
        self.sessions = 0
        self.arena: SharedBufferPool | None = None
        self.arena_used = 0.0
        #: Hits and misses of the arenas already retired.
        self.retired_leases = (0, 0)
        self.retirer: threading.Thread | None = None

    @contextmanager
    def arena_session(self) -> Iterator[SharedBufferPool]:
        with self.lock:
            if self.arena is None:
                self.arena = SharedBufferPool(ARENA_RETAINED_BYTES)
            arena = self.arena
            self.sessions += 1
        try:
            yield arena
        finally:
            with self.lock:
                self.sessions -= 1
                self.arena_used = time.monotonic()
                self._ensure_retirer()

    def lease(self, key: PoolKey) -> ProcessPoolExecutor:
        """An idle pool for ``key`` or a new one; a dead one is replaced."""
        while True:
            with self.lock:
                bucket = self.idle.get(key)
                pool = bucket.pop()[0] if bucket else None
            if pool is None:
                start_method, processes = key
                return ProcessPoolExecutor(
                    max_workers=processes,
                    mp_context=mp.get_context(start_method),
                    initializer=_worker_init,
                )
            if _alive(pool):
                return pool
            kill_pool(pool)

    def give_back(self, key: PoolKey, pool: ProcessPoolExecutor) -> None:
        with self.lock:
            self.idle.setdefault(key, []).append((pool, time.monotonic()))
            self._ensure_retirer()

    def _ensure_retirer(self) -> None:
        """Start the retiring thread unless it runs (``lock`` held)."""
        if self.retirer is None:
            self.retirer = threading.Thread(
                target=self._retire_idle, name="cake-shard-retire", daemon=True
            )
            self.retirer.start()

    def _due(
        self, now: float, everything: bool = False
    ) -> tuple[
        list[ProcessPoolExecutor], SharedBufferPool | None, float | None
    ]:
        """Take what is due to retire (``lock`` held) and the next due time."""
        due: list[ProcessPoolExecutor] = []
        wake: float | None = None
        for key in list(self.idle):
            keep = []
            for pool, since in self.idle[key]:
                if everything or now - since >= POOL_IDLE_SECONDS:
                    due.append(pool)
                else:
                    keep.append((pool, since))
                    at = since + POOL_IDLE_SECONDS
                    wake = at if wake is None else min(wake, at)
            if keep:
                self.idle[key] = keep
            else:
                del self.idle[key]
        arena = None
        if self.arena is not None and not self.sessions and not self.idle:
            if everything or due or now - self.arena_used >= POOL_IDLE_SECONDS:
                arena, self.arena = self.arena, None
                hits, misses = self.retired_leases
                self.retired_leases = (hits + arena.hits, misses + arena.misses)
            else:
                wake = self.arena_used + POOL_IDLE_SECONDS
        return due, arena, wake

    def _retire_idle(self) -> None:
        while True:
            with self.lock:
                due, arena, wake = self._due(time.monotonic())
                if wake is None and not due and arena is None:
                    self.retirer = None
                    return
            with self.fork_lock:
                _retire(due, arena)
            if wake is not None:
                time.sleep(max(wake - time.monotonic(), 0.0))

    def arena_stats(self) -> dict:
        """The arena's lease counters, summed over this process's arenas."""
        with self.lock:
            hits, misses = self.retired_leases
            live = {"hits": 0, "misses": 0, "retained_bytes": 0}
            if self.arena is not None:
                live = self.arena.stats()
        hits += live["hits"]
        misses += live["misses"]
        return {
            "leases": hits + misses,
            "hits": hits,
            "misses": misses,
            "retained_bytes": live["retained_bytes"],
        }

    def shutdown(self) -> None:
        """Retire every idle pool and the arena now (at interpreter exit)."""
        with self.lock:
            due, arena, _ = self._due(time.monotonic(), everything=True)
        with self.fork_lock:
            _retire(due, arena)


_RUNTIME = _WarmRuntime()
atexit.register(_RUNTIME.shutdown)
if hasattr(os, "register_at_fork"):
    # A forked child owns none of its parent's pools or segments.
    os.register_at_fork(after_in_child=_RUNTIME.__init__)


def shard_arena():
    """Hold the process-wide shared-memory arena for one sharded multiply.

    A context manager yielding the arena; it does not retire while held.
    The caller releases its buffers to it after a fully successful run
    and discards them otherwise
    (:meth:`~repro.packing.pool.SharedBufferPool.discard`).
    """
    return _RUNTIME.arena_session()


def arena_stats() -> dict:
    """Lease counters of the process-wide shared-memory arena.

    The :meth:`~repro.packing.pool.BufferPool.stats` keys, counted over
    every arena this process held, so they never fall when an idle
    arena retires; ``retained_bytes`` is the live arena's. All zeros
    before the first sharded multiply.
    """
    return _RUNTIME.arena_stats()


# -- orchestrator --------------------------------------------------------------


def _default_start_method() -> str:
    return "fork" if "fork" in mp.get_all_start_methods() else "spawn"


def run_sharded(
    *,
    plan: CakePlan | GotoPlan,
    order: Sequence[GroupSlot],
    strips: int,
    shards: ShardPlan,
    a: np.ndarray,
    b: np.ndarray,
    pool: SharedBufferPool,
    c: np.ndarray,
    config: ShardConfig,
    workers: int,
    backend: str,
    verify: VerifyConfig | None,
    timers: PhaseTimers,
    element_bytes: int,
) -> tuple[ShardReport, VerifyReport | None]:
    """Execute a shard plan over a process pool; heal or fail structured.

    ``plan``/``order``/``strips`` are the engine's group-builder inputs
    (each worker builds its span's groups from them); ``shards`` is the
    shard grid; ``workers`` is each shard's engine threads, and
    ``backend`` the registered name each worker rebuilds its backend
    from. ``a``, ``b`` and ``c`` must have been leased from ``pool``
    (the arena of :func:`shard_arena`), with A and B filled; each shard
    zeroes its own C panel. On return, ``c`` holds the product — the
    caller copies it out before releasing its segments.
    The worker pool is leased from the warm runtime and returned only if
    every shard completed in it. Worker phase timers are summed into
    ``timers``; per-shard breakdowns, rebuild counts and the IPC-vs-bound
    comparison come back in the :class:`ShardReport`.
    """
    a_segment, b_segment, c_segment = (pool.segment_of(x) for x in (a, b, c))
    tasks = {
        span.index: _ShardTask(
            plan=plan,
            order=order,
            strips=strips,
            span=span,
            a_segment=a_segment,
            b_segment=b_segment,
            c_segment=c_segment,
            workers=workers,
            backend=backend,
            verify=verify,
        )
        for span in shards.spans
    }
    start_method = config.start_method or _default_start_method()

    def _remaining() -> float | None:
        """Seconds left on the config deadline; raises once it passes."""
        if config.deadline is None:
            return None
        remaining = config.deadline - time.monotonic()
        if remaining <= 0:
            raise DeadlineExceededError("shard")
        return remaining

    pending = dict(tasks)
    results: dict[int, dict] = {}
    # Pool deaths climb one restart ladder (rebuilds are immediate: its
    # delay is never slept). The death it refuses is terminal and still
    # counts as a rebuild in the report.
    ladder = RestartTracker(
        RestartPolicy(max_restarts=config.max_pool_rebuilds, reset_after=None)
    )
    exhausted = False
    inline = 0
    pool_exec: ProcessPoolExecutor | None = None
    pool_key: PoolKey = (start_method, 0)
    barrier_start = time.perf_counter()
    try:
        while pending:
            _remaining()
            if exhausted:
                if not config.inline_fallback:
                    raise ShardExecutionError(
                        shards=tuple(
                            (tasks[i].span.row, tasks[i].span.col)
                            for i in sorted(pending)
                        ),
                        rebuilds=ladder.total_restarts + 1,
                    )
                # Degraded mode: run the unfinished shards in-parent,
                # over one BLAS thread like a shard worker. Kill-type
                # numeric faults are inert here, so a persistently-killing
                # plan still converges to the correct C (or raises
                # through the verify ladder).
                with blas_lease():
                    for index in sorted(pending):
                        _remaining()
                        results[index] = _execute_shard(pending.pop(index))
                        inline += 1
                break
            if pool_exec is None:
                pool_key = (start_method, min(config.processes, len(pending)))
                pool_exec = _RUNTIME.lease(pool_key)
            broken = False
            try:
                # A warm pool can also break between its lease and the
                # submit. The timeout bounds the whole barrier wait: a
                # worker that hangs (not just crashes) past the deadline
                # is killed by the teardown below rather than stranding
                # this call forever.
                with _RUNTIME.fork_lock:  # a new pool forks here
                    futures = {
                        pool_exec.submit(_execute_shard, task): index
                        for index, task in sorted(pending.items())
                    }
                for future in as_completed(futures, timeout=_remaining()):
                    index = futures[future]
                    results[index] = future.result()
                    pending.pop(index)
            except BrokenProcessPool:
                broken = True
            except FuturesTimeoutError:
                raise DeadlineExceededError("shard") from None
            if broken:
                # Completed shards' disjoint C panels stand; every
                # unfinished shard restarts (from a zeroed panel).
                kill_pool(pool_exec)
                pool_exec = None
                exhausted = ladder.next_delay() is None
    except BaseException:
        if pool_exec is not None:
            kill_pool(pool_exec)
        raise
    if pool_exec is not None:
        _RUNTIME.give_back(pool_key, pool_exec)

    timers.reduce_seconds += time.perf_counter() - barrier_start
    ordered = [results[index] for index in sorted(results)]
    merged: VerifyReport | None = None
    for res in ordered:
        phases = res["phases"]
        timers.compute_seconds += phases["compute"]
        timers.verify_seconds += phases["verify"]
        timers.recover_seconds += phases["recover"]
        timers.workers = max(timers.workers, res["workers"])
        v = res["verify"]
        if v is not None:
            if merged is None:
                merged = VerifyReport()
            merged.blocks += v["blocks"]
            merged.verified += v["verified"]
            merged.mismatches += v["mismatches"]
            merged.retries += v["retries"]
            merged.retry_recoveries += v["retry_recoveries"]
            merged.oracle_recoveries += v["oracle_recoveries"]
            merged.checksum_elements += v["checksum_elements"]
    report = ShardReport(
        rows=shards.rows,
        cols=shards.cols,
        workers=workers,
        start_method=start_method,
        shard_phase_seconds=[
            {
                "shard": res["shard"],
                "row": res["row"],
                "col": res["col"],
                "groups": res["groups"],
                **res["phases"],
            }
            for res in ordered
        ],
        ipc_bytes=shards.ipc_elements * element_bytes,
        ipc_lower_bound_bytes=shards.ipc_lower_bound_elements * element_bytes,
        pool_rebuilds=ladder.total_restarts + exhausted,
        inline_shards=inline,
        blas_threads=max(
            (res["blas_threads"] for res in ordered
             if res["blas_threads"] is not None),
            default=None,
        ),
    )
    return report, merged
