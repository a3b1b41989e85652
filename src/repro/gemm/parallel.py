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
  group, each strip is one core's ``mc``-row slab of A multiplied
  against the block's B panel, accumulating into that core's *disjoint*
  C row panel — lock-free by construction, exactly the CB shaping of
  Section 4.2.
* For GOTO, one group per ``(nc, kc)`` slice of the Figure 5 loop nest;
  strips are the ``mc x kc`` A sub-blocks of that slice (all M waves),
  again with disjoint C row panels.

The same builder serves the in-process path and every shard worker of
:mod:`repro.gemm.sharded` (restricted to the shard's span), so the two
paths cannot drift apart. It reads A and B in place: a
:class:`GridOperand` slices an operand at the plan grid's block edges,
so every strip is a view of the caller's array (or of its one flat
copy, for a layout that is not C-ordered). The paper packs operands so
that each core streams contiguous surfaces (Sec. 5.2.1); every backend
call here is a BLAS call that packs its operands itself, so a blocked
copy above it would buy the kernel nothing.

Groups are barriers: group ``g+1`` starts only after every strip of group
``g`` completed. That ordering is what makes the parallel product
**bit-identical** to the serial walk — each C element sees the same
``+=`` sequence of identically-shaped matmuls in the same order, only
the (independent) strips within one group run concurrently. NumPy's
matmul releases the GIL, so a ``ThreadPoolExecutor`` scales on real
cores with zero pickling or shared-memory setup.

*How* a strip (or a whole group) multiplies is delegated to a pluggable
:class:`~repro.gemm.backends.Backend`. The default is the per-strip
NumPy oracle; a ``grouped`` backend (``blas-group``) instead executes
each group as one whole-panel library call on the orchestrator thread —
the barrier structure, the accumulation order per C element, and the
traffic accounting are identical either way. For any *fixed*
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

* ``pack`` — the one flat copy of an operand that is not C-ordered
  (zero for C-ordered operands; shard runs copy both into shared
  memory);
* ``compute`` — per-strip kernel time, **summed across workers** (with
  ``w`` workers on ``w`` idle cores this exceeds the elapsed wall time
  by up to ``w``; the ratio is the achieved parallelism);
* ``reduce`` — orchestrator time blocked on group barriers, after its
  own run of strips, waiting for the other workers to finish (load
  imbalance + GIL contention indicator; zero on the inline
  ``workers=1`` path);
* ``verify`` / ``recover`` — ABFT checksums, their validation and
  recovery-ladder time when the run executes verified
  (:mod:`repro.gemm.verify`); zero otherwise.

Verified execution
------------------

When the run is verified, a :class:`~repro.gemm.verify.GroupVerifier`
serves it: each group asks the verifier for a restore point before its
strips are submitted (usually free: a fresh or fully-verified panel is
rebuilt by replaying its history, so only unknown mid-accumulation
panels are copied) and the checksum identities are checked **at the
group barrier**, on the orchestrator thread. Recovery (strip recompute,
oracle fallback) therefore completes before the next group starts — the
``+=`` order every C element sees is unchanged, which is what keeps a
healed run bit-identical to a clean one for any worker count. Fault injection
(:class:`~repro.runtime.faults.NumericFaultInjector`) hooks the same
seam: a strip's output panel is corrupted right after its kernel call,
keyed deterministically by ``(group, strip)``.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

import numpy as np

from repro.errors import BackendCapabilityError
from repro.gemm.backends.base import Backend, execute_group
from repro.gemm.microkernel import MicroKernel
from repro.gemm.plan import PLAN_MEMO_MAXSIZE
from repro.gemm.verify import GroupVerifier, VerifyConfig, VerifyReport
from repro.runtime.faults import NumericFaultInjector
from repro.util import ceil_div, require_count, split_length

if TYPE_CHECKING:  # pragma: no cover - hints only
    from repro.gemm.backends.registry import BackendSpec
    from repro.gemm.plan import CakePlan, GotoPlan
    from repro.gemm.sharded import ShardSpan


class StripTask(NamedTuple):
    """One core's slab of work: ``c += a @ b`` on disjoint C rows."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray


class StripGroup(NamedTuple):
    """One barrier's worth of strips, plus its ABFT identity material.

    ``panel`` is the single C view whose rows are exactly the tasks' C
    strips stacked in task order, and ``operand_a`` the single A view
    whose rows are the tasks' A strips in task order: a ``grouped``
    backend multiplies one into the other in one call, and the verifier
    snapshots and reduces them whole. ``index`` is the group's position
    in the schedule (the fault-injection key), ``coord``/``label``
    identify the block in error reports, and the checksum vectors are
    ``colsum(A_group)`` (length ``k``) and ``rowsum(B_group)`` (length
    ``k``) driving the column/row identities, computed once per operand
    block by :func:`build_groups`. ``checksum_a is None`` means the group
    runs unverified. ``mag_a``/``mag_b`` are the group operands'
    absolute-value sums ``(|X|.sum(axis=0), |X|.sum(axis=1))``, also
    computed once per block — with them the verifier's tolerance band
    costs O(m + n) vector arithmetic per group. A verified group carries
    both checksums and both magnitudes. ``first_strip`` is the serial run's index of ``tasks[0]``
    within the whole group: 0 unless a shard holds only the later strips
    of it.
    """

    tasks: Sequence[StripTask]
    panel: np.ndarray
    operand_a: np.ndarray
    index: int = 0
    coord: tuple = ()
    label: str = "block"
    checksum_a: np.ndarray | None = None
    checksum_b: np.ndarray | None = None
    #: True when this group is the first update of its C panel and the
    #: panel is still all-zero — the verifier then skips the snapshot
    #: copy (restore is a zero fill) and starts from zero "before" sums.
    fresh_panel: bool = False
    mag_a: tuple[np.ndarray, np.ndarray] | None = None
    mag_b: tuple[np.ndarray, np.ndarray] | None = None
    first_strip: int = 0


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

    The group multiplies the A blocks of block rows ``mi0:mi1`` at K
    panel ``ki`` by the B panel ``(ki, ni)``: one CB block for CAKE
    (``mi1 == mi0 + 1``), one ``(nc, kc)`` slice across every ``mc``
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
    #: ABFT checksum and magnitude elements computed for a verified
    #: build (0 otherwise): the run's ``VerifyReport.checksum_elements``.
    checksum_elements: int
    #: Wall time those reductions took, which the caller charges to the
    #: ``verify`` phase.
    checksum_seconds: float


class StripLayout(NamedTuple):
    """The plan geometry :func:`build_groups` carves one span's strips from.

    Built once per ``(plan, strips, span)`` by :func:`strip_layout` and
    shared by every thread that builds groups from it, so it holds only
    tuples.
    """

    m_sizes: tuple[int, ...]
    n_sizes: tuple[int, ...]
    m_off: tuple[int, ...]
    n_off: tuple[int, ...]
    #: The block columns ``col_lo:col_hi`` inside the span.
    col_lo: int
    col_hi: int
    #: Per block row, its strips inside the span as ``(index in the row,
    #: first row, rows)``: the span may end between two strips.
    in_span: tuple[tuple[tuple[int, int, int], ...], ...]
    #: Strips before each block row, counting whole rows.
    strips_before: tuple[int, ...]


@lru_cache(maxsize=PLAN_MEMO_MAXSIZE)
def strip_layout(
    plan: "CakePlan | GotoPlan", strips: int, span: "ShardSpan | None"
) -> StripLayout:
    """``plan``'s block rows cut into ``strips`` strips each, inside ``span``.

    Memoized like the plans, and cleared with them
    (:func:`repro.gemm.plan.clear_plan_memos`).
    """
    grid = plan.grid()
    m_sizes, n_sizes, _ = (tuple(x.tolist()) for x in grid.size_arrays())
    m_off, n_off, _ = (tuple(x.tolist()) for x in grid.offset_arrays())
    top, bottom, col_lo, col_hi = 0, m_off[-1] + m_sizes[-1], 0, grid.nb
    if span is not None:
        top, bottom = span.m0, span.m0 + span.m_extent
        col_lo = bisect_left(n_off, span.n0)
        col_hi = bisect_left(n_off, span.n0 + span.n_extent)
    in_span = []
    strips_before = [0]
    for row, size in enumerate(m_sizes):
        heights = core_strips(size, strips)
        here, y = [], 0
        for s, rows in enumerate(heights):
            if top <= m_off[row] + y < bottom:
                here.append((s, y, rows))
            y += rows
        in_span.append(tuple(here))
        strips_before.append(strips_before[-1] + len(heights))
    return StripLayout(
        m_sizes, n_sizes, m_off, n_off, col_lo, col_hi,
        tuple(in_span), tuple(strips_before),
    )


@lru_cache(maxsize=PLAN_MEMO_MAXSIZE)
def grid_edges(
    plan: "CakePlan | GotoPlan",
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """``plan``'s block edges along M, N and K: each axis's offsets, then
    its extent. Memoized like the plans, and cleared with them."""
    grid = plan.grid()
    return tuple(
        (*offsets.tolist(), int(offsets[-1] + sizes[-1]))
        for offsets, sizes in zip(grid.offset_arrays(), grid.size_arrays())
    )


class GridOperand:
    """One operand read in place, cut at a plan grid's block edges.

    It has the accessors :func:`build_groups` reads: ``block(i, j)`` (an
    A block), ``panel(i, j)`` (a B panel) and ``column(j, start, stop)``
    (block rows ``start:stop`` at block column ``j``, stacked). Each is a
    view of ``x``; nothing is copied.
    """

    __slots__ = ("x", "rows", "cols")

    def __init__(
        self, x: np.ndarray, rows: tuple[int, ...], cols: tuple[int, ...]
    ) -> None:
        self.x = x
        self.rows = rows
        self.cols = cols

    def block(self, i: int, j: int) -> np.ndarray:
        rows, cols = self.rows, self.cols
        return self.x[rows[i] : rows[i + 1], cols[j] : cols[j + 1]]

    panel = block

    def column(
        self, j: int, start: int = 0, stop: int | None = None
    ) -> np.ndarray:
        rows, cols = self.rows, self.cols
        end = rows[-1] if stop is None else rows[stop]
        return self.x[rows[start] : end, cols[j] : cols[j + 1]]


def grid_operands(
    plan: "CakePlan | GotoPlan", a: np.ndarray, b: np.ndarray
) -> tuple[GridOperand, GridOperand]:
    """A and B as :class:`GridOperand` views over ``plan``'s block grid.

    A C-ordered operand is read in place. Any other layout (F-ordered,
    transposed, strided, reversed, or unaligned) is copied once, flat,
    into C order, so every path — in process, or a shard worker over its
    shared-memory copy — hands the backends operands with the same
    strides.
    """
    m_edges, n_edges, k_edges = grid_edges(plan)
    return (
        GridOperand(_flat(a), m_edges, k_edges),
        GridOperand(_flat(b), k_edges, n_edges),
    )


def _flat(x: np.ndarray) -> np.ndarray:
    """``x`` as a plain ndarray, itself when C-ordered and aligned."""
    x = np.asarray(x)
    if x.flags.c_contiguous and x.flags.aligned:
        return x
    return np.array(x, order="C")


class _BlockSums:
    """ABFT checksum and magnitude material of one operand's blocks.

    Computed from the block (or its ``rows``, for a shard's part of a CB
    block) on first use and cached, so each block is reduced once per
    build. ``elements`` counts the elements computed and ``seconds``
    the time it took. ``axis`` 0 reduces A blocks, 1 B panels. A block
    with an inf or NaN element, or whose checksum overflows its dtype,
    has a non-finite checksum and raises ``ValueError`` naming the
    operand and the block: its checksum identities cannot hold, so
    verification could only fail it after every recovery rung.
    """

    def __init__(
        self, block_at: Callable[[int, int], np.ndarray], axis: int
    ) -> None:
        self.block_at = block_at
        self.axis = axis
        self.cache: dict[tuple, tuple] = {}
        self.elements = 0
        self.seconds = 0.0

    def __call__(
        self, i: int, j: int, rows: tuple[int, int] | None = None
    ) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
        hit = self.cache.get((i, j, rows))
        if hit is None:
            start = time.perf_counter()
            block = self.block_at(i, j)
            if rows is not None:
                block = block[rows[0] : rows[1]]
            ab = np.abs(block)
            hit = (block.sum(axis=self.axis), (ab.sum(axis=0), ab.sum(axis=1)))
            if not np.isfinite(hit[0]).all():
                operand = "AB"[self.axis]
                raise ValueError(
                    f"operand {operand} block ({i}, {j}) has a non-finite "
                    f"ABFT checksum (an inf or NaN element, or a sum that "
                    f"overflows {block.dtype}); a verified multiply needs "
                    f"finite operands"
                )
            self.cache[(i, j, rows)] = hit
            self.elements += hit[0].size + ab.shape[0] + ab.shape[1]
            self.seconds += time.perf_counter() - start
        return hit


def build_groups(
    order: Sequence[GroupSlot],
    plan: "CakePlan | GotoPlan",
    a: GridOperand,
    b: GridOperand,
    c: np.ndarray,
    *,
    span: "ShardSpan | None" = None,
    strips: int = 1,
    verifying: bool = False,
) -> BuiltGroups:
    """The strip groups of ``order``, in order, over ``plan``'s block grid.

    The one builder behind every execution path. The in-process engines
    call it with ``span=None``; a shard worker passes its
    :class:`~repro.gemm.sharded.ShardSpan` and gets only the strips inside
    its C panel. Group indices are positions in the whole ``order`` — the
    fault-injection and verification keys — so a shard's groups carry
    the numbers the serial run gives them.

    Each block row of a group is split into ``core_strips(rows, strips)``
    strip tasks: one per modelled core (or the override's granularity)
    for CAKE, the ``mc`` strip itself (``strips=1``) for GOTO. A span
    may end between two strips of a block row (the shard grid cuts at
    every whole-backend-call boundary); the shard then gets a partial
    group — its strips, their C panel rows, A operand rows and ABFT sums —
    whose ``first_strip`` is the serial index of its first strip. A
    group's stacked A operand is the block (rows) itself when the group
    covers one block row, and ``a.column(...)`` for several. A verified
    build computes each block's checksums and magnitudes once, from the
    operand's own blocks.

    The geometry comes from :func:`strip_layout`, built once per plan;
    a call only binds views onto its operands and C.
    """
    (
        m_sizes, n_sizes, m_off, n_off, col_lo, col_hi, in_span,
        strips_before,
    ) = strip_layout(plan, strips, span)
    a_sums = _BlockSums(a.block, axis=0)
    b_sums = _BlockSums(b.panel, axis=1)
    # A-side material per (rows, ki): shared by every ni of a GOTO slice.
    a_sides: dict[tuple, tuple] = {}
    started: set[tuple] = set()
    groups: list[StripGroup] = []
    for index, slot in enumerate(order):
        ni, ki = slot.ni, slot.ki
        if not col_lo <= ni < col_hi:
            continue
        b_panel = b.panel(ki, ni)
        n0, n1 = n_off[ni], n_off[ni] + n_sizes[ni]
        tasks: list[StripTask] = []
        # (block row, first row, end row) of each block row in the span.
        pieces: list[tuple[int, int, int]] = []
        for row in range(slot.mi0, slot.mi1):
            here = in_span[row]
            if not here:
                continue
            if not tasks:
                first_strip = strips_before[row] - strips_before[slot.mi0]
                first_strip += here[0][0]
            block, at = a.block(row, ki), m_off[row]
            for _, y, rows in here:
                c_strip = c[at + y : at + y + rows, n0:n1]
                tasks.append(StripTask(block[y : y + rows], b_panel, c_strip))
            pieces.append((row, here[0][1], here[-1][1] + here[-1][2]))
        if not tasks:
            continue
        (row0, lo, _), (row1, _, hi) = pieces[0], pieces[-1]

        side = a_sides.get((row0, lo, row1, hi, ki))
        if side is None:
            cs_a = mag_a = None
            if row0 == row1:
                operand_a = a.block(row0, ki)
                if hi - lo < m_sizes[row0]:
                    operand_a = operand_a[lo:hi]
            else:
                # Several block rows only come from GOTO's one-strip rows,
                # which the span never cuts: they are whole.
                operand_a = a.column(ki, start=row0, stop=row1 + 1)
            if verifying:
                sums = [
                    a_sums(row, ki, (lo, hi) if hi - lo < m_sizes[row] else None)
                    for row, lo, hi in pieces
                ]
                cs_a, (col, row_mag) = sums[0]
                if len(sums) > 1:
                    cs_a, col = cs_a.copy(), col.copy()
                    for s_cs, (s_col, _) in sums[1:]:
                        cs_a += s_cs
                        col += s_col
                    row_mag = np.concatenate([mags[1] for _, mags in sums])
                mag_a = (col, row_mag)
            side = a_sides[(row0, lo, row1, hi, ki)] = (operand_a, cs_a, mag_a)
        operand_a, cs_a, mag_a = side
        cs_b = mag_b = None
        if verifying:
            cs_b, mag_b = b_sums(ki, ni)

        label = slot.label
        if span is not None:
            label = f"{label} [shard ({span.row}, {span.col})]"
        fresh = (row0, lo, row1, hi, ni) not in started
        started.add((row0, lo, row1, hi, ni))
        groups.append(
            StripGroup(
                tasks=tasks,
                panel=c[m_off[row0] + lo : m_off[row1] + hi, n0:n1],
                operand_a=operand_a,
                index=index,
                coord=slot.coord,
                label=label,
                checksum_a=cs_a,
                checksum_b=cs_b,
                fresh_panel=fresh,
                mag_a=mag_a,
                mag_b=mag_b,
                first_strip=first_strip,
            )
        )
    return BuiltGroups(
        groups,
        a_sums.elements + b_sums.elements,
        a_sums.seconds + b_sums.seconds,
    )


def resolve_workers(workers: int | None) -> int:
    """Validate an explicit worker count (``None`` -> 1, serial).

    The engines leave ``workers=None`` to the core budget
    (:mod:`repro.gemm.budget`) instead of calling this with it. Counts
    follow :func:`~repro.util.require_count`, as ``processes`` does.
    """
    if workers is None:
        return 1
    return require_count("workers", workers)


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

    The rejection raises the structured
    :class:`~repro.errors.BackendCapabilityError` (a ``TypeError``
    subclass) naming the selected ``backend``, never a generic
    ``TypeError`` deep in a kernel. Every backend accepts every float
    and complex dtype.

    Layout is deliberately *not* validated: F-ordered, transposed and
    non-contiguous operands are first-class. A C-ordered operand is read
    in place; any other layout is copied once, flat, into C order
    (:func:`grid_operands`), so a caller never needs its own staging
    copy.
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
    a soft error or bad thread would hit — keyed ``(group, strip)`` by
    the serial run's indices, so the same strips corrupt for any worker
    and process count.
    """
    start = time.perf_counter()
    backend.matmul_strip(task.a, task.b, task.c)
    if faults is not None:
        faults.corrupt(group_index, strip_index, task.c)
    return time.perf_counter() - start


def _timed_strips(
    backend: Backend,
    group: StripGroup,
    strips: Sequence[tuple[int, StripTask]],
    faults: "NumericFaultInjector | None",
) -> float:
    """Execute a run of one group's ``(serial index, task)`` strips in order."""
    return sum(
        _timed_strip(backend, task, group.index, strip, faults)
        for strip, task in strips
    )


def _timed_group(
    backend: Backend,
    group: StripGroup,
    faults: "NumericFaultInjector | None",
) -> float:
    """Execute one whole strip group inline, returning its wall time."""
    start = time.perf_counter()
    execute_group(backend, group, faults)
    return time.perf_counter() - start


def execute_groups(
    groups: Sequence[StripGroup],
    backend: Backend,
    *,
    workers: int = 1,
    timers: PhaseTimers | None = None,
    verify: VerifyConfig | None = None,
    kernel: MicroKernel | None = None,
    checksum_elements: int = 0,
) -> VerifyReport | None:
    """Execute an ordered sequence of strip groups, barrier per group.

    The one executor behind the in-process engines, every shard worker
    and the tests. Numeric work flows through ``backend``
    (:mod:`repro.gemm.backends`). ``workers=1`` runs every strip inline
    (no pool, no thread hop); ``workers>1`` cuts each group's strips
    into ``workers`` contiguous runs, runs the first on this thread and
    hands the others to a pool of ``workers - 1`` threads: one hand-off
    per extra worker and barrier, not one per strip. Both paths issue
    identical backend calls in a per-C-row identical order, so for a
    fixed backend the numeric result is bit-for-bit the same for any
    worker count.

    ``grouped`` backends short-circuit the fan-out: each group executes
    as **one** backend call on this (the orchestrator) thread — one
    GIL-released library call per barrier, which is the whole point of
    such backends — and worker count becomes trivially irrelevant to the
    bits.

    ``verify`` asks for verification and fault injection
    (:class:`~repro.gemm.verify.VerifyConfig`). A verified run checks
    each group — recovering if needed — at its barrier, on this thread,
    with ``kernel`` (the plan's micro-kernel) as the recovery ladder's
    oracle, and returns its :class:`~repro.gemm.verify.VerifyReport`
    (``checksum_elements`` is the checksum surface the groups carry);
    otherwise the result is ``None``. An injection plan deterministically
    corrupts strip outputs, verified or not. Phase times accumulate into
    ``timers``.

    The pool is created per call, which keeps one engine object safe to
    run from multiple threads concurrently (no shared mutable executor
    state).
    """
    timers = timers if timers is not None else PhaseTimers()
    timers.workers = max(timers.workers, workers)
    verifier = faults = report = None
    if verify is not None:
        if verify.inject is not None:
            faults = NumericFaultInjector(verify.inject)
        if verify.enabled:
            report = VerifyReport(checksum_elements=checksum_elements)
            verifier = GroupVerifier(verify, report, timers, kernel)
    if workers <= 1 or backend.capabilities.grouped:
        pool_ctx = None
    else:
        pool_ctx = ThreadPoolExecutor(
            max_workers=workers - 1, thread_name_prefix="cake-gemm"
        )
    try:
        for group in groups:
            snaps = (
                verifier.snapshot(group, backend)
                if verifier is not None
                else None
            )
            if pool_ctx is None:
                timers.compute_seconds += _timed_group(backend, group, faults)
            else:
                strips = list(enumerate(group.tasks, group.first_strip))
                cuts = [-(-i * len(strips) // workers) for i in range(workers + 1)]
                futures = [
                    pool_ctx.submit(
                        _timed_strips, backend, group,
                        strips[cuts[i] : cuts[i + 1]], faults,
                    )
                    for i in range(1, workers)
                    if cuts[i] < cuts[i + 1]
                ]
                timers.compute_seconds += _timed_strips(
                    backend, group, strips[: cuts[1]], faults
                )
                barrier_start = time.perf_counter()
                # Propagate worker exceptions eagerly; sum kernel seconds.
                timers.compute_seconds += sum(f.result() for f in futures)
                timers.reduce_seconds += time.perf_counter() - barrier_start
            if verifier is not None:
                # Inside the barrier: the next group does not start until
                # this one verified (and healed), so recovery is ordered
                # identically for any worker count.
                verifier.check_and_recover(group, snaps, faults, backend)
    finally:
        if pool_ctx is not None:
            pool_ctx.shutdown(wait=True)
    return report
