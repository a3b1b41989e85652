"""Process-level CB-block sharding over shared memory (CAKE-on-CAKE).

The paper's constant-bandwidth blocks compose across memory levels: the
same geometry that tiles one core's cache hierarchy tiles a pool of
*processes* one level up. This module is that next level — it partitions
the M x N grid of CB blocks into a near-square **shard grid**, gives each
shard to a worker process, and runs the existing threaded strip-group
executor (:mod:`repro.gemm.parallel`, with any registered backend)
inside each shard.

Transport is ``multiprocessing.shared_memory``: the parent packs A and B
once through a :class:`~repro.packing.pool.SharedBufferPool`, then ships
only *segment names* — workers attach the packed buffers zero-copy and
rebuild the identical block-view grids with
:func:`repro.packing.pack.grid_views`. C is a single shared output
buffer; every shard writes its disjoint row x column panel, so no two
processes ever touch the same byte of C.

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
  therefore only cut between the row ranges one call covers: CB block
  rows for CAKE, ``mc`` strips for GOTO on per-strip backends, and no
  row cut at all for GOTO on ``grouped`` backends (one call multiplies
  the whole M column of a slice; BLAS may block a different M extent
  differently), which then shard along N only.

The conformance suite and the differential test assert this per backend.

Shard-grid selection
--------------------

For P processes the grid ``(pr, pc)`` with ``pr * pc = P`` replicates
packed A ``pc`` times and packed B ``pr`` times across processes, so the
measured inter-process traffic is ``pc*M*K + pr*K*N + M*N`` elements.
The memory-independent communication lower bound for matrix
multiplication on P unbounded-memory processors (Red-Blue Pebbling
Revisited / COSMA, and the tight memory-independent bounds of Al Daas,
Ballard et al.) is ``2*K*sqrt(M*N*P) + M*N`` elements in the 2D regime
this executor occupies (K unsplit). By AM-GM the measured traffic is
minimized — and meets the bound within block-quantization slack — when
``M/pr = N/pc``, i.e. the shard grid is near-square in *element* space.
:func:`plan_shards` therefore maximizes usable parallelism first (the
largest ``P' <= P`` with a factor pair that fits the block grid), then
picks the factor pair minimizing ``pc*M + pr*N``. The achieved traffic
is recorded in ``TrafficCounters.ipc_bytes`` and reported against the
bound in :class:`ShardReport`; benches assert it stays within
:data:`IPC_SLACK_FACTOR`.

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

import math
import multiprocessing as mp
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from concurrent.futures import as_completed
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from typing import Callable, NamedTuple, Sequence

import numpy as np

from repro.errors import CakeError, ConfigurationError, DeadlineExceededError
from repro.gemm.backends.registry import backend_spec, registered_backends
from repro.gemm.parallel import (
    GroupSlot,
    PhaseTimers,
    build_groups,
    execute_groups,
)
from repro.gemm.plan import CakePlan, GotoPlan
from repro.gemm.verify import VerifyConfig, VerifyReport
from repro.packing.pack import (
    GridParts,
    PackedA,
    PackedB,
    grid_views,
)
from repro.packing.pool import SegmentSpec, SharedBufferPool
from repro.runtime.faults import mark_worker_process
from repro.util import require_nonnegative, require_positive, split_even

#: Documented slack on the memory-independent communication lower bound:
#: the shard grid meets the bound up to (a) the AM-GM gap of the best
#: *integer* factor pair of P on the actual M:N aspect ratio and (b)
#: block-granularity quantization of the row/column splits. Both are
#: small for the benchmarked shapes (measured/bound is typically under
#: 1.15); 1.5 leaves honest headroom without letting a wrong formula
#: slip through. Benches assert ``bound <= ipc_bytes <= 1.5 * bound``.
IPC_SLACK_FACTOR = 1.5


# -- configuration -------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ShardConfig:
    """How a process-sharded run executes.

    Parameters
    ----------
    processes:
        Worker processes requested. The usable count may be smaller when
        the CB block grid has fewer than ``processes`` blocks
        (:func:`plan_shards` clamps); 1 means no sharding at all.
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
        require_positive("processes", self.processes)
        require_nonnegative("max_pool_rebuilds", self.max_pool_rebuilds)
        if (
            self.start_method is not None
            and self.start_method not in mp.get_all_start_methods()
        ):
            raise ConfigurationError(
                f"start method {self.start_method!r} not available on this "
                f"host; choose from {mp.get_all_start_methods()}"
            )


_DEFAULT_PROCESSES = 1


def default_processes() -> int:
    """The process-wide default shard count (what ``processes=None`` means)."""
    return _DEFAULT_PROCESSES


def set_default_processes(processes: int) -> int:
    """Change what ``processes=None`` resolves to, returning the old default.

    This is how ``cake-bench --processes N`` threads process sharding
    through code that constructs engines without an explicit
    ``processes`` argument, mirroring
    :func:`repro.gemm.backends.set_default_backend`.
    """
    global _DEFAULT_PROCESSES
    require_positive("processes", processes)
    old = _DEFAULT_PROCESSES
    _DEFAULT_PROCESSES = processes
    return old


def resolve_shards(
    processes: "int | ShardConfig | None",
) -> ShardConfig | None:
    """Normalize an engine's ``processes`` parameter.

    ``None`` means the process default (1 unless
    :func:`set_default_processes` changed it); an int wraps into a
    default :class:`ShardConfig`; a config passes through. ``None`` is
    returned whenever the effective process count is 1 — the engine then
    takes its ordinary in-process path.
    """
    if processes is None:
        processes = _DEFAULT_PROCESSES
    if isinstance(processes, ShardConfig):
        return processes if processes.processes > 1 else None
    if isinstance(processes, bool) or not isinstance(processes, int):
        raise TypeError(
            f"processes must be an int or ShardConfig, "
            f"got {type(processes).__name__}"
        )
    require_positive("processes", processes)
    if processes == 1:
        return None
    return ShardConfig(processes=processes)


# -- shard-grid selection ------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ShardSpan:
    """One shard's slice of the CB block grid, in blocks and elements.

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

        Each shard attaches its ``m_s x K`` slice of packed A, its
        ``K x n_s`` slice of packed B, and writes its ``m_s x n_s`` C
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
    (CAKE: CB block rows; GOTO: ``mc`` strips, or all of M on grouped
    backends) and the plan's N panels. They are split into balanced
    contiguous runs — every shard gets at least one row and one column,
    so the spans tile the grid exactly (asserted by hypothesis in the
    tests).
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
            "shards": list(self.shard_phase_seconds),
        }


# -- shared-memory transport ---------------------------------------------------


class PackedHandle(NamedTuple):
    """Picklable description of one packed matrix in shared memory.

    ``segments`` are the (up to four) :class:`GridParts` buffers in
    ``(main, right, bottom, corner)`` order; with the grid extents (and
    the plan's block shape, shipped alongside) a worker rebuilds the
    parent's exact packed block views.
    """

    segments: tuple[SegmentSpec | None, ...]
    r_full: int
    c_full: int


def _pack_handle(
    packed: "PackedA | PackedB", pool: SharedBufferPool
) -> PackedHandle:
    parts = packed.parts
    if parts is None:  # pragma: no cover - engines force vectorized packs
        raise ConfigurationError(
            "sharded execution requires the vectorized pack "
            "(exact_pack is incompatible with processes > 1)"
        )
    segments = tuple(
        None if part is None else pool.segment_of(part)
        for part in (parts.main, parts.right, parts.bottom, parts.corner)
    )
    return PackedHandle(segments, parts.r_full, parts.c_full)


#: Whether attaching a segment in *this* process must undo the resource
#: tracker's registration (pre-3.13 fallback only). True exactly in
#: spawn-started workers, which own a private tracker that would
#: otherwise unlink the parent's segments when the worker exits. Fork
#: workers and the parent itself share one tracker holding the create
#: registration — unregistering there would break the parent's own
#: cleanup. Set by :func:`_worker_init`.
_UNTRACK_ATTACH = False


def _worker_init(untrack_attach: bool) -> None:
    """Pool initializer: worker marking + tracker policy for attaches."""
    global _UNTRACK_ATTACH
    _UNTRACK_ATTACH = untrack_attach
    mark_worker_process()


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to a named segment without taking tracker ownership.

    The parent owns (and unlinks) every segment. Python 3.13's
    ``track=False`` expresses that directly; earlier versions register
    the attach with a resource tracker, which is harmless when that
    tracker is shared with the parent (fork, or inline execution — a
    set-typed duplicate of the create registration) but fatal under
    spawn, where the worker's *private* tracker would unlink the
    segment on worker exit — hence the conditional unregister.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track parameter
        segment = shared_memory.SharedMemory(name=name)
        if _UNTRACK_ATTACH:
            try:
                from multiprocessing import resource_tracker

                resource_tracker.unregister(
                    getattr(segment, "_name", segment.name), "shared_memory"
                )
            except Exception:  # pragma: no cover - best-effort hygiene
                pass
        return segment


@dataclass(frozen=True)
class _ShardTask:
    """Everything one worker needs, in picklable primitives + handles.

    ``plan``, ``order`` and ``strips`` are exactly what the parent engine
    hands :func:`~repro.gemm.parallel.build_groups` for an in-process
    run; the worker calls the same builder with its ``span``.
    """

    plan: CakePlan | GotoPlan
    order: Sequence[GroupSlot]
    strips: int
    span: ShardSpan
    a_handle: PackedHandle
    b_handle: PackedHandle
    c_segment: SegmentSpec
    workers: int
    backend: str
    verify: VerifyConfig | None
    exact_tiles: bool


# -- worker side ---------------------------------------------------------------


def _attach_parts(
    handle: PackedHandle, attach: Callable[[SegmentSpec], np.ndarray]
) -> GridParts:
    buffers = [None if s is None else attach(s) for s in handle.segments]
    return GridParts(*buffers, handle.r_full, handle.c_full)


def _run_attached(
    task: _ShardTask, attach: Callable[[SegmentSpec], np.ndarray]
) -> dict:
    """The shard body: rebuild views, build groups, run the executor.

    Every array built here (packed views, C views, verifier state) is
    local to this frame, so when it returns only the segment handles
    remain and :func:`_execute_shard` can close the mappings cleanly.
    Checksum material is computed here from the attached blocks
    (shipping the parent's would double the descriptor surface for no
    gain — the identities are self-consistent within the worker).
    """
    verifying = task.verify is not None and task.verify.enabled
    spec = backend_spec(task.backend)
    block = task.plan.grid().nominal
    a_parts = _attach_parts(task.a_handle, attach)
    b_parts = _attach_parts(task.b_handle, attach)
    built = build_groups(
        task.order,
        task.plan,
        PackedA(grid_views(a_parts), block.m, block.k, parts=a_parts),
        PackedB(grid_views(b_parts), block.k, block.n, parts=b_parts),
        attach(task.c_segment),
        span=task.span,
        strips=task.strips,
        verifying=verifying,
        grouped=spec.capabilities.grouped,
    )
    timers = PhaseTimers()
    kernel = task.plan.kernel
    report = execute_groups(
        built.groups,
        kernel,
        verify=task.verify,
        checksum_elements=built.checksum_elements,
        workers=task.workers,
        backend=spec.create(kernel=kernel, exact_tiles=task.exact_tiles),
        exact_tiles=task.exact_tiles,
        timers=timers,
    )
    return {
        "shard": task.span.index,
        "row": task.span.row,
        "col": task.span.col,
        "groups": len(built.groups),
        "phases": timers.as_dict(),
        "workers": timers.workers,
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


# -- orchestrator --------------------------------------------------------------


def _default_start_method() -> str:
    return "fork" if "fork" in mp.get_all_start_methods() else "spawn"


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Force-tear-down a pool whose workers may be dead or wedged."""
    procs = list((getattr(pool, "_processes", None) or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for proc in procs:
        if proc.is_alive():
            proc.terminate()
    for proc in procs:
        proc.join(timeout=2.0)


def _zero_panel(c: np.ndarray, span: ShardSpan) -> None:
    c[span.m0 : span.m0 + span.m_extent, span.n0 : span.n0 + span.n_extent] = 0


def run_sharded(
    *,
    plan: CakePlan | GotoPlan,
    order: Sequence[GroupSlot],
    strips: int,
    shards: ShardPlan,
    packed_a: PackedA,
    packed_b: PackedB,
    pool: SharedBufferPool,
    c: np.ndarray,
    config: ShardConfig,
    workers: int,
    backend: str,
    verify: VerifyConfig | None,
    exact_tiles: bool,
    timers: PhaseTimers,
    element_bytes: int,
) -> tuple[ShardReport, VerifyReport | None]:
    """Execute a shard plan over a process pool; heal or fail structured.

    ``plan``/``order``/``strips`` are the engine's group-builder inputs
    (each worker builds its span's groups from them); ``shards`` is the
    shard grid. ``packed_a``/``packed_b`` must have been packed through
    ``pool`` (a :class:`~repro.packing.pool.SharedBufferPool`) and ``c``
    leased from it, zero-filled. On return, ``c`` holds the product —
    the caller copies it out before destroying the arena. Worker phase
    timers are summed into ``timers``; per-shard breakdowns, rebuild
    counts and the IPC-vs-bound comparison come back in the
    :class:`ShardReport`.
    """
    if backend not in registered_backends():
        raise ConfigurationError(
            f"sharded execution requires a registered backend name "
            f"(worker processes rebuild the backend from its registry "
            f"entry); {backend!r} is not registered"
        )
    handle_a = _pack_handle(packed_a, pool)
    handle_b = _pack_handle(packed_b, pool)
    c_segment = pool.segment_of(c)
    tasks = {
        span.index: _ShardTask(
            plan=plan,
            order=order,
            strips=strips,
            span=span,
            a_handle=handle_a,
            b_handle=handle_b,
            c_segment=c_segment,
            workers=workers,
            backend=backend,
            verify=verify,
            exact_tiles=exact_tiles,
        )
        for span in shards.spans
    }
    start_method = config.start_method or _default_start_method()
    ctx = mp.get_context(start_method)

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
    rebuilds = 0
    inline = 0
    pool_exec: ProcessPoolExecutor | None = None
    barrier_start = time.perf_counter()
    try:
        while pending:
            _remaining()
            if rebuilds > config.max_pool_rebuilds:
                if not config.inline_fallback:
                    raise ShardExecutionError(
                        shards=tuple(
                            (tasks[i].span.row, tasks[i].span.col)
                            for i in sorted(pending)
                        ),
                        rebuilds=rebuilds,
                    )
                # Degraded mode: run the unfinished shards in-parent.
                # Kill-type numeric faults are inert here, so a
                # persistently-killing plan still converges to the
                # correct C (or raises through the verify ladder).
                for index in sorted(pending):
                    _remaining()
                    task = pending.pop(index)
                    _zero_panel(c, task.span)
                    results[index] = _execute_shard(task)
                    inline += 1
                break
            if pool_exec is None:
                pool_exec = ProcessPoolExecutor(
                    max_workers=min(config.processes, len(pending)),
                    mp_context=ctx,
                    initializer=_worker_init,
                    initargs=(start_method != "fork",),
                )
            futures = {
                pool_exec.submit(_execute_shard, task): index
                for index, task in sorted(pending.items())
            }
            broken = False
            try:
                # The timeout bounds the whole barrier wait: a worker
                # that hangs (not just crashes) past the deadline is
                # killed via the finally-clause teardown rather than
                # stranding this call forever.
                for future in as_completed(futures, timeout=_remaining()):
                    index = futures[future]
                    try:
                        results[index] = future.result()
                    except BrokenProcessPool:
                        broken = True
                        break
                    pending.pop(index)
            except FuturesTimeoutError:
                raise DeadlineExceededError("shard") from None
            if broken:
                _kill_pool(pool_exec)
                pool_exec = None
                rebuilds += 1
                # Completed shards' disjoint C panels stand; every
                # unfinished shard restarts from a zeroed panel.
                for task in pending.values():
                    _zero_panel(c, task.span)
    finally:
        if pool_exec is not None:
            _kill_pool(pool_exec)

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
        pool_rebuilds=rebuilds,
        inline_shards=inline,
    )
    return report, merged
