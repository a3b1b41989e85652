"""The shared multi-core numeric execution engine.

Section 2's headline claim is that computation throughput scales with the
core count ``p`` while external bandwidth stays constant. The analytic
side of that claim lives in the schedule walk and the roofline; this
module is the *wall-clock* side: it executes the engines' block schedules
with real threads, using the paper's per-core M-decomposition.

Execution model
---------------

Both engines hand the executor an ordered sequence of **strip groups**,
built by the one :func:`build_groups` from the engine's loop order
(a sequence of :class:`GroupSlot`) over its plan's block grid:

* For CAKE, one group per CB block of the K-first schedule. Within the
  group, each strip is one core's ``mc``-row slab of packed A multiplied
  against the block's B panel, accumulating into that core's *disjoint*
  C row panel — lock-free by construction, exactly the CB shaping of
  Section 4.2.
* For GOTO, one group per ``(nc, kc)`` slice of the Figure 5 loop nest;
  strips are the ``mc x kc`` A sub-blocks of that slice (all M waves),
  again with disjoint C row panels.

The same builder serves the in-process path and every shard worker of
:mod:`repro.gemm.sharded` (restricted to the shard's span), so the two
paths cannot drift apart.

Groups are barriers: group ``g+1`` starts only after every strip of group
``g`` completed. That ordering is what makes the parallel product
**bit-identical** to the serial walk — each C element sees the same
``+=`` sequence of identically-shaped matmuls in the same order, only
the (independent) strips within one group run concurrently. NumPy's
matmul releases the GIL, so a ``ThreadPoolExecutor`` scales on real
cores with zero pickling or shared-memory setup.

*How* a strip (or a whole group) multiplies is delegated to a pluggable
:class:`~repro.gemm.backends.Backend`. The default is the per-strip
NumPy oracle; ``grouped`` backends (``blas-group``, ``torch``) instead
execute each group as one whole-panel library call on the orchestrator
thread — the barrier structure, the accumulation order per C element,
and the traffic accounting are identical either way. For any *fixed*
backend the result is bit-identical across worker counts; across
*backends* results agree within each backend's declared agreement band
(bit-exact for backends declaring determinism).

Traffic/timing accounting never runs here — counters come from the
batch analyzer's pricing of the plan (:mod:`repro.analysis.batch`), so
``GemmRun`` rows are identical whether numerics ran serial, threaded or
sharded (asserted in tests).

Phase timers
------------

:class:`PhaseTimers` captures per-phase wall-clock so future PRs can
profile the engine:

* ``pack`` — building the packed operands (orchestrator wall time);
* ``compute`` — per-strip kernel time, **summed across workers** (with
  ``w`` workers on ``w`` idle cores this exceeds the elapsed wall time
  by up to ``w``; the ratio is the achieved parallelism);
* ``reduce`` — orchestrator time blocked on group barriers waiting for
  workers to finish (load imbalance + GIL contention indicator; zero on
  the inline ``workers=1`` path);
* ``verify`` / ``recover`` — ABFT checksum validation and recovery-ladder
  time when the run executes verified (:mod:`repro.gemm.verify`); zero
  otherwise.

Verified execution
------------------

When the engine passes a :class:`~repro.gemm.verify.GroupVerifier`, each
group asks the verifier for a restore point before its strips are
submitted (usually free: a fresh or fully-verified panel is rebuilt by
replaying its history, so only unknown mid-accumulation panels are
copied) and the checksum identities are checked **at the group
barrier**, on the orchestrator thread. Recovery (strip recompute,
oracle fallback) therefore
completes before the next group starts — the ``+=`` order every C element
sees is unchanged, which is what keeps a healed run bit-identical to a
clean one for any worker count. Fault injection
(:class:`~repro.runtime.faults.NumericFaultInjector`) hooks the same
seam: a strip's output panel is corrupted right after its kernel call,
keyed deterministically by ``(group, strip)``.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Sequence

import numpy as np

from repro.errors import BackendCapabilityError
from repro.gemm.backends.base import (
    Backend,
    execute_group,
    group_eligible,
)
from repro.gemm.backends.numpy_backend import NumpyBackend
from repro.gemm.microkernel import MicroKernel
from repro.gemm.verify import GroupVerifier, VerifyConfig, VerifyReport
from repro.util import ceil_div, require_positive, split_length

if TYPE_CHECKING:  # pragma: no cover - hints only
    from repro.gemm.backends.registry import BackendSpec
    from repro.gemm.plan import CakePlan, GotoPlan
    from repro.gemm.sharded import ShardSpan
    from repro.packing.pack import PackedA, PackedB
    from repro.packing.pool import BufferPool
    from repro.runtime.faults import NumericFaultInjector


class StripTask(NamedTuple):
    """One core's slab of work: ``c += a @ b`` on disjoint C rows."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray


class StripGroup(NamedTuple):
    """One barrier's worth of strips, plus its ABFT identity material.

    Engines that run unverified may keep handing the executor plain
    sequences of :class:`StripTask`; the executor wraps them. ``index``
    is the group's position in the schedule (the fault-injection key),
    ``coord``/``label`` identify the block in error reports, and the
    checksum vectors are the pack-time ``colsum(A_group)`` (length ``k``)
    and ``rowsum(B_group)`` (length ``k``) driving the column/row
    identities. ``checksum_a is None`` means the group runs unverified.
    ``panel``, when an engine can provide it, is the single C view whose
    rows are exactly the tasks' C strips stacked in task order — it lets
    the verifier snapshot and reduce the whole panel in one numpy call
    each instead of stacking the strips itself. ``operand_a`` plays the
    same role for the A side: one array whose rows are the tasks' A
    strips in task order. ``mag_a``/``mag_b`` are the group operands'
    pack-time absolute-value sums ``(|X|.sum(axis=0), |X|.sum(axis=1))``
    — with them the verifier's tolerance band costs O(m + n) vector
    arithmetic per group instead of a fresh ``|A|``/``|B|`` scan.
    """

    tasks: Sequence[StripTask]
    index: int = 0
    coord: tuple = ()
    label: str = "block"
    checksum_a: np.ndarray | None = None
    checksum_b: np.ndarray | None = None
    panel: np.ndarray | None = None
    #: True when this group is the first update of its C panel and the
    #: panel is still all-zero — the verifier then skips the snapshot
    #: copy (restore is a zero fill) and starts from zero "before" sums.
    fresh_panel: bool = False
    operand_a: np.ndarray | None = None
    mag_a: tuple[np.ndarray, np.ndarray] | None = None
    mag_b: tuple[np.ndarray, np.ndarray] | None = None


@dataclass(slots=True)
class PhaseTimers:
    """Wall-clock pack/compute/reduce/verify/recover accounting."""

    pack_seconds: float = 0.0
    compute_seconds: float = 0.0
    reduce_seconds: float = 0.0
    verify_seconds: float = 0.0
    recover_seconds: float = 0.0
    #: Workers the run was executed with (1 = inline serial path).
    workers: int = 1

    def as_dict(self) -> dict[str, float]:
        """The breakdown in the shape ``GemmRun.phase_seconds`` carries."""
        return {
            "pack": self.pack_seconds,
            "compute": self.compute_seconds,
            "reduce": self.reduce_seconds,
            "verify": self.verify_seconds,
            "recover": self.recover_seconds,
        }


def core_strips(rows: int, cores: int) -> list[int]:
    """Split a block's M extent evenly over the cores.

    Returns at most ``cores`` strip heights differing by at most the
    rounding chunk; fewer strips than cores means idle cores (only when
    ``rows < cores``). Shared by CAKE's accounting walk and
    :func:`build_groups`, which carves every execution path's strips.
    """
    return split_length(rows, ceil_div(rows, cores))


# -- the group builder ---------------------------------------------------------


class GroupSlot(NamedTuple):
    """One strip group of an engine's loop order over its plan's block grid.

    The group multiplies the packed A blocks of block rows ``mi0:mi1`` at
    K panel ``ki`` by the packed B panel ``(ki, ni)``: one CB block for
    CAKE (``mi1 == mi0 + 1``), one ``(nc, kc)`` slice across every ``mc``
    strip for GOTO. ``coord`` and ``label`` name the group in
    verification errors.
    """

    mi0: int
    mi1: int
    ni: int
    ki: int
    coord: tuple
    label: str


class BuiltGroups(NamedTuple):
    """What :func:`build_groups` hands the executor and the caller."""

    groups: list[StripGroup]
    #: Stacked A operands leased from the builder's pool; the caller
    #: releases them once the groups have run.
    leased: list[np.ndarray]
    #: Checksum elements computed by the builder (operands packed without
    #: checksums, as in shard workers); 0 when pack-time vectors served.
    checksum_elements: int


class _BlockSums:
    """ABFT checksum and magnitude material of one packed operand's blocks.

    Pack-time vectors when the operand was packed with ``checksums=True``;
    otherwise computed from the block on first use and cached (shard
    workers derive their own from the attached blocks instead of shipping
    the parent's). ``fresh`` counts the elements computed here.
    """

    def __init__(
        self,
        packed: "PackedA | PackedB",
        block_at: Callable[[int, int], np.ndarray],
        axis: int,
    ) -> None:
        self.packed = packed
        self.block_at = block_at
        self.axis = axis
        self.cache: dict[tuple[int, int], tuple] = {}
        self.fresh = 0

    def __call__(
        self, i: int, j: int
    ) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
        if self.packed.checksums is not None:
            return self.packed.checksum(i, j), self.packed.magnitude(i, j)
        hit = self.cache.get((i, j))
        if hit is None:
            block = self.block_at(i, j)
            ab = np.abs(block)
            hit = (block.sum(axis=self.axis), (ab.sum(axis=0), ab.sum(axis=1)))
            self.cache[(i, j)] = hit
            self.fresh += hit[0].size + ab.shape[0] + ab.shape[1]
        return hit


def build_groups(
    order: Sequence[GroupSlot],
    plan: "CakePlan | GotoPlan",
    packed_a: "PackedA",
    packed_b: "PackedB",
    c: np.ndarray,
    *,
    span: "ShardSpan | None" = None,
    strips: int = 1,
    verifying: bool = False,
    grouped: bool = False,
    pool: "BufferPool | None" = None,
) -> BuiltGroups:
    """The strip groups of ``order``, in order, over ``plan``'s block grid.

    The one builder behind every execution path. The in-process engines
    call it with ``span=None``; a shard worker passes its
    :class:`~repro.gemm.sharded.ShardSpan` and gets only the groups (and,
    for groups spanning several block rows, only the rows) inside its C
    panel. Group indices are positions in the whole ``order`` — the
    fault-injection and verification keys — so a shard's groups carry
    the numbers the serial run gives them.

    Each block row of a group is split into ``core_strips(rows, strips)``
    strip tasks: one per modelled core (or the override's granularity)
    for CAKE, the ``mc`` strip itself (``strips=1``) for GOTO. A group's
    stacked A operand is the packed block itself when the group covers
    one block row; for several it is concatenated (leased from ``pool``)
    only when something reads it — the verifier, or a ``grouped`` backend
    executing the group as one call.
    """
    grid = plan.grid()
    m_sizes, n_sizes, _ = (sizes.tolist() for sizes in grid.size_arrays())
    m_off, n_off, _ = (offsets.tolist() for offsets in grid.offset_arrays())
    row_lo, row_hi, col_lo, col_hi = 0, grid.mb, 0, grid.nb
    if span is not None:
        row_lo = bisect_left(m_off, span.m0)
        row_hi = bisect_left(m_off, span.m0 + span.m_extent)
        col_lo = bisect_left(n_off, span.n0)
        col_hi = bisect_left(n_off, span.n0 + span.n_extent)
    a_sums = _BlockSums(packed_a, packed_a.block, axis=0)
    b_sums = _BlockSums(packed_b, packed_b.panel, axis=1)
    # A-side material per (rows, ki): shared by every ni of a GOTO slice.
    a_sides: dict[tuple[int, int, int], tuple] = {}
    started: set[tuple[int, int, int]] = set()
    leased: list[np.ndarray] = []
    groups: list[StripGroup] = []
    for index, slot in enumerate(order):
        r0, r1 = max(slot.mi0, row_lo), min(slot.mi1, row_hi)
        ni, ki = slot.ni, slot.ki
        if r0 >= r1 or not col_lo <= ni < col_hi:
            continue
        b_panel = packed_b.panel(ki, ni)
        n0, n1 = n_off[ni], n_off[ni] + n_sizes[ni]
        tasks: list[StripTask] = []
        for row in range(r0, r1):
            block = packed_a.block(row, ki)
            lo = 0
            for rows in core_strips(m_sizes[row], strips):
                top = m_off[row] + lo
                c_strip = c[top : top + rows, n0:n1]
                tasks.append(StripTask(block[lo : lo + rows], b_panel, c_strip))
                lo += rows

        side = a_sides.get((r0, r1, ki))
        if side is None:
            operand_a = cs_a = mag_a = None
            if r1 - r0 == 1:
                operand_a = packed_a.block(r0, ki)
            elif verifying or grouped:
                operand_a = packed_a.column(ki, pool=pool, start=r0, stop=r1)
                if pool is not None:
                    leased.append(operand_a)
            if verifying:
                cs_a, (col, row_mag) = a_sums(r0, ki)
                if r1 - r0 > 1:
                    cs_a, col, row_parts = cs_a.copy(), col.copy(), [row_mag]
                    for row in range(r0 + 1, r1):
                        s_cs, (s_col, s_row) = a_sums(row, ki)
                        cs_a += s_cs
                        col += s_col
                        row_parts.append(s_row)
                    row_mag = np.concatenate(row_parts)
                mag_a = (col, row_mag)
            side = a_sides[(r0, r1, ki)] = (operand_a, cs_a, mag_a)
        operand_a, cs_a, mag_a = side
        cs_b = mag_b = None
        if verifying:
            cs_b, mag_b = b_sums(ki, ni)

        label = slot.label
        if span is not None:
            label = f"{label} [shard ({span.row}, {span.col})]"
        fresh = (r0, r1, ni) not in started
        started.add((r0, r1, ni))
        groups.append(
            StripGroup(
                tasks=tasks,
                index=index,
                coord=slot.coord,
                label=label,
                checksum_a=cs_a,
                checksum_b=cs_b,
                panel=c[m_off[r0] : m_off[r1 - 1] + m_sizes[r1 - 1], n0:n1],
                fresh_panel=fresh,
                operand_a=operand_a,
                mag_a=mag_a,
                mag_b=mag_b,
            )
        )
    return BuiltGroups(groups, leased, a_sums.fresh + b_sums.fresh)


def resolve_workers(workers: int | None) -> int:
    """Normalize an engine's ``workers`` parameter (``None`` -> serial)."""
    if workers is None:
        return 1
    require_positive("workers", workers)
    return workers


def check_multiply_operands(
    a: np.ndarray,
    b: np.ndarray,
    backend: "Backend | BackendSpec | None" = None,
) -> np.dtype:
    """Validate operand dtypes/shapes for numeric execution.

    Returns the accumulation dtype (``np.result_type`` of the operands:
    float32 inputs stay float32, mixed precision widens). Integer and
    boolean operands are rejected outright — blocked accumulation of
    fixed-width integers silently wraps on overflow, which no GEMM user
    wants from a library that otherwise reproduces BLAS semantics.

    Dtype rejections raise the structured
    :class:`~repro.errors.BackendCapabilityError` (a ``TypeError``
    subclass) naming the backend that refused — both for the universal
    integer/boolean rejection and for dtypes outside the selected
    ``backend``'s declared capability envelope (e.g. complex operands on
    the torch backend), so capability failures never surface as a
    generic ``TypeError`` deep in a kernel.

    Layout is deliberately *not* validated: F-ordered, transposed and
    non-contiguous operands are first-class. The packing pass copies
    them block-contiguous in a single strided pass, so no caller ever
    needs (or pays for) an ``np.ascontiguousarray`` staging copy.
    """
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("operands must be 2-D arrays")
    if a.shape[1] != b.shape[0]:
        raise ValueError(
            f"inner dimensions disagree: A is {a.shape}, B is {b.shape}"
        )
    out = np.result_type(a, b)
    name = backend.name if backend is not None else "numpy"
    if not (
        np.issubdtype(out, np.floating) or np.issubdtype(out, np.complexfloating)
    ):
        raise BackendCapabilityError(
            name,
            f"refusing to multiply {a.dtype} x {b.dtype} operands: blocked "
            f"accumulation in {out} integer arithmetic wraps silently on "
            f"overflow; cast the operands to a floating dtype first "
            f"(e.g. a.astype(np.float64))",
            dtype=out,
        )
    if backend is not None and not backend.supports_dtype(out):
        raise BackendCapabilityError(
            name,
            f"does not support {out} accumulation "
            f"(operands {a.dtype} x {b.dtype}); select a backend whose "
            f"capabilities cover this dtype (the 'numpy' oracle always "
            f"does) or cast the operands",
            dtype=out,
        )
    return out


def _timed_strip(
    backend: Backend,
    task: StripTask,
    group_index: int = 0,
    strip_index: int = 0,
    faults: "NumericFaultInjector | None" = None,
) -> float:
    """Execute one strip through the backend, returning its wall time.

    Injected corruption lands right after the numeric update — the seam
    a soft error or bad thread would hit — keyed ``(group, strip)`` so
    the same strips corrupt for any worker count.
    """
    start = time.perf_counter()
    backend.matmul_strip(task.a, task.b, task.c)
    if faults is not None:
        faults.corrupt(group_index, strip_index, task.c)
    return time.perf_counter() - start


def _timed_group(
    backend: Backend,
    group: StripGroup,
    faults: "NumericFaultInjector | None",
) -> float:
    """Execute one whole strip group inline, returning its wall time."""
    start = time.perf_counter()
    execute_group(backend, group, faults)
    return time.perf_counter() - start


def _as_group(group: "StripGroup | Sequence[StripTask]", index: int) -> StripGroup:
    if isinstance(group, StripGroup):
        return group
    return StripGroup(tasks=group, index=index)


def run_strip_groups(
    groups: "Iterable[StripGroup | Sequence[StripTask]]",
    kernel: MicroKernel,
    *,
    workers: int = 1,
    exact_tiles: bool = False,
    timers: PhaseTimers | None = None,
    verifier: "GroupVerifier | None" = None,
    faults: "NumericFaultInjector | None" = None,
    backend: Backend | None = None,
) -> PhaseTimers:
    """Execute an ordered sequence of strip groups, barrier per group.

    Numeric work flows through the ``backend``
    (:mod:`repro.gemm.backends`); ``None`` means the per-strip NumPy
    oracle built from ``kernel``/``exact_tiles`` — the pre-backend
    behaviour, bit for bit. ``workers=1`` runs every strip inline (no
    pool, no thread hop); ``workers>1`` fans each group's strips over a
    thread pool. Both paths issue identical backend calls in a
    per-C-row identical order, so for a fixed backend the numeric
    result is bit-for-bit the same for any worker count.

    ``grouped`` backends short-circuit the fan-out: a group carrying
    its group-contiguous views executes as **one** backend call on this
    (the orchestrator) thread — one GIL-released library call per
    barrier, which is the whole point of such backends — and worker
    count becomes trivially irrelevant to the bits.

    Groups may be plain sequences of :class:`StripTask` (unverified runs)
    or :class:`StripGroup` records carrying checksum material. With a
    ``verifier``, each group gets a restore point before dispatch and is
    checked —
    recovering if needed — at its barrier, on this (the orchestrator)
    thread; ``faults`` deterministically corrupts strip outputs to drive
    the recovery ladder.

    The pool is created per call, which keeps one engine object safe to
    run from multiple threads concurrently (no shared mutable executor
    state; the buffer pool is lock-guarded separately).
    """
    timers = timers if timers is not None else PhaseTimers()
    timers.workers = max(timers.workers, workers)
    if backend is None:
        backend = NumpyBackend(kernel, exact_tiles=exact_tiles)
    if workers <= 1 or backend.capabilities.grouped:
        pool_ctx = None
    else:
        pool_ctx = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="cake-gemm"
        )
    try:
        for index, raw in enumerate(groups):
            group = _as_group(raw, index)
            snaps = (
                verifier.snapshot(group, backend=backend)
                if verifier is not None
                else None
            )
            if pool_ctx is None or group_eligible(backend, group):
                timers.compute_seconds += _timed_group(backend, group, faults)
            else:
                futures = [
                    pool_ctx.submit(
                        _timed_strip, backend, task, group.index, strip, faults
                    )
                    for strip, task in enumerate(group.tasks)
                ]
                barrier_start = time.perf_counter()
                # Propagate worker exceptions eagerly; sum kernel seconds.
                timers.compute_seconds += sum(f.result() for f in futures)
                timers.reduce_seconds += time.perf_counter() - barrier_start
            if verifier is not None:
                # Inside the barrier: the next group does not start until
                # this one verified (and healed), so recovery is ordered
                # identically for any worker count.
                verifier.check_and_recover(
                    group, snaps, kernel, exact_tiles, faults,
                    backend=backend,
                )
    finally:
        if pool_ctx is not None:
            pool_ctx.shutdown(wait=True)
    return timers


def execute_groups(
    groups: Sequence[StripGroup],
    kernel: MicroKernel,
    *,
    verify: VerifyConfig | None,
    checksum_elements: int,
    workers: int,
    backend: Backend,
    exact_tiles: bool,
    timers: PhaseTimers,
) -> VerifyReport | None:
    """Run built groups with the verification and fault injection ``verify`` asks for.

    The body shared by the in-process engines and every shard worker.
    Returns the :class:`~repro.gemm.verify.VerifyReport` of a verified
    run (``checksum_elements`` is the checksum surface it carried), else
    ``None``.
    """
    verifier = faults = report = None
    if verify is not None:
        if verify.inject is not None:
            from repro.runtime.faults import NumericFaultInjector  # lazy: pkg cycle

            faults = NumericFaultInjector(verify.inject)
        if verify.enabled:
            report = VerifyReport(checksum_elements=checksum_elements)
            verifier = GroupVerifier(verify, report, timers)
    run_strip_groups(
        groups,
        kernel,
        workers=workers,
        exact_tiles=exact_tiles,
        timers=timers,
        verifier=verifier,
        faults=faults,
        backend=backend,
    )
    return report
