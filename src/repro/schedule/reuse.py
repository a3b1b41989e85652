"""Exact external-IO accounting for a block schedule (Section 2.2).

Two residency models are supported:

* **Adjacency** (default, ``capacity_elements=None``): local memory holds
  the three surfaces of the block being computed. Between consecutive
  blocks a surface stays resident iff the next block uses the *same*
  surface (same grid coordinates along its two dimensions). This is the
  Section 2.2 model the schedule ablations are framed in — it isolates
  exactly the turn reuses the boustrophedon buys.

* **Capacity** (``capacity_elements`` given): local memory is an LRU over
  whole block surfaces with a fixed element budget. The Section 4.3
  sizing rule ``C + 2(A+B) <= S`` guarantees the cache admits the
  *nominal* block's surfaces; when actual blocks are smaller (remainder
  strips, problems smaller than the nominal block), the same physical
  cache retains surfaces of earlier blocks too, and the adjacency model
  over-counts external traffic. :class:`SurfaceResidency` tracks that
  retention exactly; the engines use it so their counters match what a
  trace-driven LRU simulation of the same schedule observes.

Partial C surfaces are special in both models: abandoning one before its
reduction completes costs a write-back now *and* a re-fetch when the
schedule returns to it — "the IO for a partial result is twice that of a
completed result" (Section 2.2).

:func:`analyze_reuse` walks any schedule and tallies every external
transfer in elements, attributing it to A-fetch, B-fetch, C-refetch,
partial-C spill, or final-C write-back. The K-first schedule minimises the
total; the ablation bench compares all variants with these numbers.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from itertools import chain
from typing import TYPE_CHECKING, Callable, Hashable, Iterable

import numpy as np

from repro.errors import ScheduleError
from repro.schedule.space import BlockCoord, BlockGrid
from repro.util import require_positive

if TYPE_CHECKING:  # pragma: no cover
    from repro.schedule.kfirst import OrderArrays


@dataclass(slots=True)
class ReuseReport:
    """External-IO tally of one schedule, in matrix elements.

    Attributes
    ----------
    io_a, io_b:
        Elements of A / B fetched from external memory.
    io_c_spill:
        Partial-C elements written back before their reduction completed.
    io_c_refetch:
        Partial-C elements fetched back for further accumulation.
    io_c_final:
        Completed-C elements written back (always ``M * N``).
    reuse_a, reuse_b, reuse_c:
        Count of blocks whose A / B / partial-C surface was already
        resident from the previous block (the turn reuses).
    """

    io_a: int = 0
    io_b: int = 0
    io_c_spill: int = 0
    io_c_refetch: int = 0
    io_c_final: int = 0
    reuse_a: int = 0
    reuse_b: int = 0
    reuse_c: int = 0
    blocks: int = 0
    _progress: dict[tuple[int, int], int] = field(default_factory=dict, repr=False)

    @property
    def io_total(self) -> int:
        """All external traffic: fetches plus write-backs."""
        return (
            self.io_a
            + self.io_b
            + self.io_c_spill
            + self.io_c_refetch
            + self.io_c_final
        )

    @property
    def io_input(self) -> int:
        """External traffic excluding the mandatory final C write-back."""
        return self.io_total - self.io_c_final


class SurfaceResidency:
    """LRU set of block surfaces under a fixed element budget.

    Keys are opaque surface identities (the engines use
    ``("A", mi, ki)``-style tuples); each key has a fixed element count.
    ``touch`` returns whether the surface was already resident — i.e.
    whether the fetch is free — installing it and evicting
    least-recently-used surfaces as needed. Surfaces named in ``pinned``
    are never evicted, so the block in flight cannot evict its own
    operands even when the budget is smaller than one block (the
    residency then runs over budget — streaming semantics, matching
    :class:`repro.memsim.lru.LRUCache`).
    """

    def __init__(
        self,
        capacity_elements: int,
        *,
        on_evict: Callable[[Hashable, int], None] | None = None,
    ) -> None:
        require_positive("capacity_elements", capacity_elements)
        self.capacity_elements = capacity_elements
        self._on_evict = on_evict
        self._entries: OrderedDict[Hashable, int] = OrderedDict()
        self._used = 0

    @property
    def used_elements(self) -> int:
        """Elements currently resident."""
        return self._used

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def touch(
        self,
        key: Hashable,
        elements: int,
        *,
        pinned: Iterable[Hashable] = (),
    ) -> bool:
        """Mark ``key`` most-recently-used; returns True if it was resident."""
        require_positive("elements", elements)
        hit = key in self._entries
        if hit:
            self._entries.move_to_end(key)
        else:
            self._entries[key] = elements
            self._used += elements
            self._evict_to_fit(frozenset(pinned))
        return hit

    def invalidate(self, key: Hashable) -> None:
        """Drop ``key`` without counting an eviction (explicit release)."""
        elements = self._entries.pop(key, None)
        if elements is not None:
            self._used -= elements

    def _evict_to_fit(self, pinned: frozenset) -> None:
        while self._used > self.capacity_elements:
            victim = next(
                (k for k in self._entries if k not in pinned), None
            )
            if victim is None:
                return  # everything left is pinned: run over budget
            elements = self._entries.pop(victim)
            self._used -= elements
            if self._on_evict is not None:
                self._on_evict(victim, elements)


def validate_schedule(grid: BlockGrid, order: list[BlockCoord]) -> None:
    """Raise :class:`ScheduleError` unless ``order`` covers every block once."""
    seen = set()
    for coord in order:
        key = (coord.mi, coord.ni, coord.ki)
        if key in seen:
            raise ScheduleError(f"block {coord} scheduled more than once")
        seen.add(key)
    expected = grid.num_blocks
    if len(seen) != expected:
        raise ScheduleError(
            f"schedule covers {len(seen)} of {expected} blocks in the grid"
        )
    for coord in order:
        grid.extent(coord)  # raises IndexError if out of range


def analyze_reuse(
    grid: BlockGrid,
    order: list[BlockCoord],
    *,
    capacity_elements: int | None = None,
) -> ReuseReport:
    """Count the external IO implied by executing ``order`` on ``grid``.

    With ``capacity_elements=None`` the resident set is exactly the
    previous block's three surfaces — one block in flight, the next
    block's inputs streaming in. With a capacity, surfaces persist in an
    LRU under that element budget (:class:`SurfaceResidency`), which is
    what the Section 4.3-sized cache actually does when blocks are
    smaller than nominal; the engines pass their plan's budget so
    executor counters agree with a trace-driven LRU of the same walk.
    """
    validate_schedule(grid, order)
    if capacity_elements is not None:
        return _analyze_reuse_lru(grid, order, capacity_elements)
    report = ReuseReport()
    prev: BlockCoord | None = None

    for coord in order:
        ext = grid.extent(coord)
        report.blocks += 1

        # A surface: (mi, ki)
        if prev is not None and (prev.mi, prev.ki) == (coord.mi, coord.ki):
            report.reuse_a += 1
        else:
            report.io_a += ext.surface_a

        # B surface: (ki, ni)
        if prev is not None and (prev.ki, prev.ni) == (coord.ki, coord.ni):
            report.reuse_b += 1
        else:
            report.io_b += ext.surface_b

        # C surface: (mi, ni), stateful across the whole schedule.
        c_key = (coord.mi, coord.ni)
        if prev is not None and (prev.mi, prev.ni) == c_key:
            report.reuse_c += 1
        else:
            if prev is not None:
                _retire_previous(grid, prev, report)
            if report._progress.get(c_key, 0) > 0:
                # Returning to a C block spilled earlier: fetch it back.
                report.io_c_refetch += ext.surface_c
        report._progress[c_key] = report._progress.get(c_key, 0) + 1

        prev = coord

    if prev is not None:
        _retire_previous(grid, prev, report)
    return report


def _retire_previous(grid: BlockGrid, prev: BlockCoord, report: ReuseReport) -> None:
    """Write back the departing C surface as a spill or a final result."""
    c_key = (prev.mi, prev.ni)
    ext = grid.extent(prev)
    if report._progress.get(c_key, 0) >= grid.kb:
        report.io_c_final += ext.surface_c
    else:
        report.io_c_spill += ext.surface_c


def _analyze_reuse_lru(
    grid: BlockGrid, order: list[BlockCoord], capacity_elements: int
) -> ReuseReport:
    """The capacity-model walk behind :func:`analyze_reuse`.

    A partial C surface evicted by LRU pressure is a spill; touching it
    again later is a refetch. Completed C surfaces are written back and
    invalidated immediately — a finished result earns no further reuse,
    so holding it would only displace live surfaces.
    """
    report = ReuseReport()
    residency: SurfaceResidency | None = None

    def on_evict(key: Hashable, elements: int) -> None:
        if key[0] == "C":
            report.io_c_spill += elements

    residency = SurfaceResidency(capacity_elements, on_evict=on_evict)

    for coord in order:
        ext = grid.extent(coord)
        report.blocks += 1
        a_key = ("A", coord.mi, coord.ki)
        b_key = ("B", coord.ki, coord.ni)
        c_key = ("C", coord.mi, coord.ni)
        pinned = (a_key, b_key, c_key)

        if residency.touch(a_key, ext.surface_a, pinned=pinned):
            report.reuse_a += 1
        else:
            report.io_a += ext.surface_a

        if residency.touch(b_key, ext.surface_b, pinned=pinned):
            report.reuse_b += 1
        else:
            report.io_b += ext.surface_b

        progress_key = (coord.mi, coord.ni)
        done_before = report._progress.get(progress_key, 0)
        if residency.touch(c_key, ext.surface_c, pinned=pinned):
            if done_before:
                report.reuse_c += 1
        elif done_before:
            # Spilled earlier by capacity pressure: fetch the partials back.
            report.io_c_refetch += ext.surface_c
        report._progress[progress_key] = done_before + 1

        if report._progress[progress_key] == grid.kb:
            report.io_c_final += ext.surface_c
            residency.invalidate(c_key)

    return report


# -- batched (structure-of-arrays) analysis ----------------------------------


def occurrence_index(keys: np.ndarray) -> np.ndarray:
    """0-based occurrence counter per element of ``keys``.

    ``occurrence_index(k)[i]`` is how many earlier positions hold the
    same key — the vectorized form of the scalar walks' ``progress``
    dict (one stable argsort instead of N dict updates).
    """
    n = len(keys)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    idx = np.arange(n, dtype=np.int64)
    first = np.ones(n, dtype=bool)
    first[1:] = sorted_keys[1:] != sorted_keys[:-1]
    occ_sorted = idx - np.maximum.accumulate(np.where(first, idx, 0))
    occ = np.empty(n, dtype=np.int64)
    occ[order] = occ_sorted
    return occ


def validate_order_arrays(grid: BlockGrid, order: "OrderArrays") -> None:
    """Raise :class:`ScheduleError` unless ``order`` covers every block once.

    Vectorized counterpart of :func:`validate_schedule`: one bincount
    over linearised coordinates replaces the per-coord set bookkeeping.
    """
    mi, ni, ki = order.mi, order.ni, order.ki
    if not (len(mi) == len(ni) == len(ki)):
        raise ScheduleError("order arrays must have equal lengths")
    if len(mi) == 0:
        raise ScheduleError(f"schedule covers 0 of {grid.num_blocks} blocks in the grid")
    for name, arr, count in (("mi", mi, grid.mb), ("ni", ni, grid.nb), ("ki", ki, grid.kb)):
        if int(arr.min()) < 0 or int(arr.max()) >= count:
            raise ScheduleError(f"{name} coordinates outside grid of {count} blocks")
    linear = (mi * grid.nb + ni) * grid.kb + ki
    counts = np.bincount(linear, minlength=grid.num_blocks)
    if counts.max(initial=0) > 1:
        raise ScheduleError("a block is scheduled more than once")
    covered = int((counts > 0).sum())
    if covered != grid.num_blocks or len(mi) != grid.num_blocks:
        raise ScheduleError(
            f"schedule covers {covered} of {grid.num_blocks} blocks in the grid"
        )


#: Shortest stretch the replay applies in one step. Its scan and its two
#: calls cost about a dozen per-block steps: with a minimum of 8 or 12,
#: K-first runs of 13 blocks at 0.5-1.5 nominal footprints replayed up to
#: 35% and 9% slower than block by block; with 16, no slower (2-core Xeon).
_MIN_STRETCH = 16

#: Schedules shorter than this are replayed block by block. Looking for
#: stretches costs about twenty NumPy calls, some 45 us at 1,040 blocks,
#: which is 5-9% of replaying them one at a time (2-core Xeon).
_MIN_SEARCH = 1024


def _stretch_candidates(
    a_ids: np.ndarray,
    b_ids: np.ndarray,
    c_ids: np.ndarray,
    a_sizes: np.ndarray,
    b_sizes: np.ndarray,
    c_final: np.ndarray,
) -> list[list[int]]:
    """Maximal runs of at least :data:`_MIN_STRETCH` blocks that a
    stretch may cover.

    In a run ``[start, stop, last_a, last_b, size_a, size_b, c, final]``
    each block of ``start..stop-1`` touches the C surface ``c`` that the
    block before it touched and left partial, only the last block may
    complete it (``final``), every A surface has ``size_a`` elements and
    every B surface ``size_b``. ``last_a`` and ``last_b`` are the last
    block's A and B keys.
    """
    n = len(c_ids)
    continues = np.zeros(n, dtype=bool)
    continues[1:] = (c_ids[1:] == c_ids[:-1]) & ~c_final[:-1]
    resized = np.zeros(n, dtype=bool)
    resized[1:] = (a_sizes[1:] != a_sizes[:-1]) | (b_sizes[1:] != b_sizes[:-1])
    opens = continues.copy()
    opens[1:] &= ~continues[:-1] | resized[1:]
    starts = np.flatnonzero(opens)
    breaks = np.append(np.flatnonzero(~continues | opens), n)
    stops = breaks[np.searchsorted(breaks, starts, side="right")]
    long_enough = stops - starts >= _MIN_STRETCH
    starts, stops = starts[long_enough], stops[long_enough]
    lasts = stops - 1
    return np.array((
        starts,
        stops,
        a_ids[lasts],
        b_ids[lasts],
        a_sizes[starts],
        b_sizes[starts],
        c_ids[starts],
        c_final[lasts],
    )).T.tolist()


def _runs_leave_stretches(columns: tuple[np.ndarray, ...], capacity: int) -> bool:
    """Whether the reduction runs are long enough to hold stretches.

    A run's first block misses its C, and the next few reuse the A or B
    surfaces that the LRU carried over from the run before: about
    ``(capacity - P) / (A + B)`` of them, ``P`` being a block's three
    sizes. Stretches fit in the rest of a run of ``n / (C surfaces)``
    blocks, and pay from :data:`_MIN_STRETCH` blocks up.
    """
    _, _, _, a_sizes, b_sizes, c_sizes, c_final = columns
    run = len(c_final) // max(1, int(np.count_nonzero(c_final)))
    if run - 1 < _MIN_STRETCH:
        return False
    pair = int(a_sizes.max()) + int(b_sizes.max())
    carried = max(0, capacity - pair - int(c_sizes.max())) // pair
    return run - 1 - carried >= _MIN_STRETCH


class _LruReplay:
    """State of :func:`surface_lru_replay`: the LRU and the hit flags.

    ``entries`` maps each resident key to its element count, oldest first.
    """

    def __init__(self, n: int, capacity: int, c_base: int) -> None:
        self.capacity = capacity
        self.c_base = c_base
        self.entries: dict[int, int] = {}
        self.used = 0
        self.spill = 0
        self.a_hit = bytearray(n)
        self.b_hit = bytearray(n)
        self.c_hit = bytearray(n)

    def advance(
        self,
        lo: int,
        blocks: Iterable[tuple],
        stretch: tuple | None = None,
    ) -> None:
        """Replay ``blocks`` one at a time from block ``lo``, then
        ``stretch``.

        ``blocks`` yields each block's A, B and C keys, their sizes, and
        whether it completes its C. A stretch ``(first, a_keys, b_keys,
        size_a, size_b, c, final)`` covers the blocks from ``first`` on,
        whose A and B keys are ``a_keys`` and ``b_keys``, in one of
        :func:`_stretch_candidates`' runs; none of those A and B surfaces
        is resident at ``first``.

        One step per block. The scalar walk evicts after each of a block's
        three touches, with the block's three surfaces pinned throughout.
        Evicting once, after the third touch, removes the same surfaces:
        eviction takes the oldest unpinned surfaces first, the touches do
        not reorder them, and ``used`` only grows within a block, so the
        last eviction's victims include the earlier ones'. A block whose
        three surfaces all hit evicts nothing, and in a valid schedule it
        cannot start over budget: only the previous block's surfaces
        outlive an overrun, and no two blocks share all three.

        One step per stretch. Every A and B misses and C hits, so the
        outcome follows from sizes alone. Each block inserts two surfaces
        and its own three are the only pinned ones, so its evictions take
        the oldest other surfaces first until they fit in
        ``capacity - P``, ``P`` being the block's three sizes: the
        survivors are the longest suffix, in recency order, of the others
        that fits. ``P`` is the same at every block, so the longest fitting
        suffix of (a longest fitting suffix, then two new surfaces) is the
        longest fitting suffix of the whole sequence. By induction the
        stretch leaves the longest fitting suffix of [the residents before
        it except C, then every A and B of the stretch but the last
        block's], then the last block's A, B and C (unless that block
        completes C). The suffix is empty when ``P`` alone exceeds the
        capacity; evicted partial C surfaces count as spills, as ever.
        """
        entries, capacity, c_base = self.entries, self.capacity, self.c_base
        pop = entries.pop
        a_hit, b_hit, c_hit = self.a_hit, self.b_hit, self.c_hit
        used, spill = self.used, self.spill
        if stretch is not None:
            first, a_keys, b_keys, run_a, run_b, run_c, run_final = stretch
            # The stretch enters the loop as one more block, whose A is a
            # placeholder key holding every element the stretch inserts,
            # whose B is an empty placeholder, and whose C is the run's.
            # The loop's eviction then takes exactly the earlier residents
            # that cannot stay beside the whole stretch.
            charge = len(a_keys) * (run_a + run_b)
            blocks = chain(blocks, ((-1, -2, run_c, charge, 0, 0, False),))
        for i, (a, b, c, size_a, size_b, size_c, final) in enumerate(blocks, lo):
            size = pop(a, None)
            if size is None:
                entries[a] = size_a
                used += size_a
            else:
                entries[a] = size
                a_hit[i] = 1
            size = pop(b, None)
            if size is None:
                entries[b] = size_b
                used += size_b
            else:
                entries[b] = size
                b_hit[i] = 1
            size = pop(c, None)
            if size is None:
                entries[c] = size_c
                used += size_c
            else:
                entries[c] = size
                c_hit[i] = 1
            while used > capacity:
                for victim in entries:
                    if victim != a and victim != b and victim != c:
                        break
                else:
                    break  # only the pinned block is left: run over budget
                size = pop(victim)
                used -= size
                if victim >= c_base:
                    spill += size
            if final:
                used -= pop(c)
        if stretch is not None:
            del entries[-1], entries[-2]
            size_c = pop(run_c)
            pair = run_a + run_b
            kept, lone = len(a_keys), 0  # blocks whose A and B stay; a B before
            if used > capacity:
                # Every earlier resident is gone, and only the newest of
                # the stretch's own surfaces fit beside the block in flight.
                room = capacity - pair - size_c
                kept = room // pair + 1 if room >= 0 else 1
                lone = int(room >= 0 and room - (kept - 1) * pair >= run_b)
                used = size_c + kept * pair + lone * run_b
            if lone:
                entries[b_keys[-kept - 1]] = run_b
            for a, b in zip(a_keys[-kept:], b_keys[-kept:]):
                entries[a] = run_a
                entries[b] = run_b
            if run_final:
                used -= size_c
            else:
                entries[run_c] = size_c
            c_hit[first:first + len(a_keys)] = b"\x01" * len(a_keys)
        self.used, self.spill = used, spill


def surface_lru_replay(
    a_ids: np.ndarray,
    b_ids: np.ndarray,
    c_ids: np.ndarray,
    a_sizes: np.ndarray,
    b_sizes: np.ndarray,
    c_sizes: np.ndarray,
    c_final: np.ndarray,
    capacity_elements: int,
    c_base: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Grouped replay of :class:`SurfaceResidency` over a whole schedule.

    The state transitions are exactly the scalar walks' ``touch(a) /
    touch(b) / touch(c) / invalidate-on-completion`` per block, with the
    block's three surfaces pinned. ``*_ids`` are disjoint non-negative
    integer key ranges (C keys at ``>= c_base`` so evictions of partial
    results can be attributed), ``*_sizes`` the surfaces' element counts,
    and the bool ``c_final[i]`` marks block ``i`` as the last touch of its
    C surface, after which the surface is invalidated. The arrays must
    describe a valid schedule, one that runs every block once, as
    :func:`encode_surface_ids` encodes it. Returns per-block hit flags
    (bool arrays) for the three surfaces plus the total elements of
    partial-C surfaces evicted by capacity pressure (spills).

    Inside a reduction run the LRU's answer is fixed: A and B miss, the
    partial C hits, and what else stays resident follows from sizes. So
    the replay steps block by block only at run starts, turn reuses and
    ragged blocks, and applies the rest of each long run, its final block
    included, in one step (:meth:`_LruReplay.advance`). A stretch may not
    touch an A or B surface that is still resident, which is the turn
    reuse at a run's start: one scan of the run's keys finds the last
    block that does, and the stretch starts after it. A run whose last
    block already reuses a resident surface, as at large capacities, is
    stepped block by block without a scan.
    """
    require_positive("capacity_elements", capacity_elements)
    n = len(a_ids)
    columns = (a_ids, b_ids, c_ids, a_sizes, b_sizes, c_sizes, c_final)
    replay = _LruReplay(n, capacity_elements, c_base)
    if n < _MIN_SEARCH or not _runs_leave_stretches(columns, capacity_elements):
        replay.advance(0, zip(*[column.tolist() for column in columns]))
    else:
        rows = np.array(columns)
        resident = replay.entries.__contains__
        done = 0
        for start, stop, last_a, last_b, *run in _stretch_candidates(
            a_ids, b_ids, c_ids, a_sizes, b_sizes, c_final
        ):
            if resident(last_a) or resident(last_b):
                continue  # stepped with the blocks after it
            if done < start:
                replay.advance(done, zip(*rows[:, done:start].tolist()))
                done = start
            a_keys, b_keys = rows[:2, start:stop].tolist()
            # The stretch starts after the last block whose A or B is
            # resident: mostly none, or the run's first block.
            skip = int(resident(a_keys[0]) or resident(b_keys[0]))
            if any(map(resident, a_keys[skip:])) or any(
                map(resident, b_keys[skip:])
            ):
                skip = len(a_keys)
                while not (
                    resident(a_keys[skip - 1]) or resident(b_keys[skip - 1])
                ):
                    skip -= 1
            if stop - start - skip >= _MIN_STRETCH:
                stretch = (start + skip, a_keys[skip:], b_keys[skip:], *run)
                replay.advance(
                    start, zip(*rows[:, start:start + skip].tolist()), stretch
                )
                done = stop
        replay.advance(done, zip(*rows[:, done:].tolist()))
    return (
        np.frombuffer(replay.a_hit, dtype=bool),
        np.frombuffer(replay.b_hit, dtype=bool),
        np.frombuffer(replay.c_hit, dtype=bool),
        replay.spill,
    )


def encode_surface_ids(
    grid: BlockGrid, order: "OrderArrays"
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Disjoint integer key ranges for the A/B/C surfaces of an order.

    Returns ``(a_ids, b_ids, c_ids, c_base)`` with A keys in
    ``[0, mb*kb)``, B keys in ``[mb*kb, mb*kb + kb*nb)`` and C keys at
    ``>= c_base`` — the integer analogue of the engines' tuple keys.
    """
    b_base = grid.mb * grid.kb
    c_base = b_base + grid.kb * grid.nb
    a_ids = order.mi * grid.kb + order.ki
    b_ids = b_base + order.ki * grid.nb + order.ni
    c_ids = c_base + order.mi * grid.nb + order.ni
    return a_ids, b_ids, c_ids, c_base


def analyze_reuse_batch(
    grid: BlockGrid,
    order: "OrderArrays",
    *,
    capacity_elements: int | None = None,
) -> ReuseReport:
    """Batched :func:`analyze_reuse`: identical tallies, no per-block loop.

    The adjacency model collapses to shifted-array comparisons plus a
    segment pass over the C-surface key stream; the capacity model runs
    :func:`surface_lru_replay`. Both are equal to the scalar analyzer
    field-for-field for any valid order (hypothesis-asserted in tests).
    """
    validate_order_arrays(grid, order)
    mi, ni, ki = order.mi, order.ni, order.ki
    n = len(mi)
    sa, sb, sc = grid.surface_arrays(mi, ni, ki)
    c_keys = mi * grid.nb + ni
    occ = occurrence_index(c_keys)

    report = ReuseReport(blocks=n)
    if capacity_elements is None:
        same_a = np.zeros(n, dtype=bool)
        same_a[1:] = (mi[1:] == mi[:-1]) & (ki[1:] == ki[:-1])
        same_b = np.zeros(n, dtype=bool)
        same_b[1:] = (ki[1:] == ki[:-1]) & (ni[1:] == ni[:-1])
        seg_start = np.ones(n, dtype=bool)
        seg_start[1:] = c_keys[1:] != c_keys[:-1]
        seg_end = np.ones(n, dtype=bool)
        seg_end[:-1] = seg_start[1:]
        completed = (occ + 1) >= grid.kb

        report.reuse_a = int(same_a.sum())
        report.io_a = int(sa[~same_a].sum())
        report.reuse_b = int(same_b.sum())
        report.io_b = int(sb[~same_b].sum())
        report.reuse_c = int(n - seg_start.sum())
        report.io_c_refetch = int(sc[seg_start & (occ > 0)].sum())
        report.io_c_final = int(sc[seg_end & completed].sum())
        report.io_c_spill = int(sc[seg_end & ~completed].sum())
        return report

    a_ids, b_ids, c_ids, c_base = encode_surface_ids(grid, order)
    final = occ == grid.kb - 1
    a_hit, b_hit, c_hit, spill = surface_lru_replay(
        a_ids, b_ids, c_ids, sa, sb, sc, final, capacity_elements, c_base
    )

    report.reuse_a = int(a_hit.sum())
    report.io_a = int(sa[~a_hit].sum())
    report.reuse_b = int(b_hit.sum())
    report.io_b = int(sb[~b_hit].sum())
    report.reuse_c = int((c_hit & (occ > 0)).sum())
    report.io_c_refetch = int(sc[~c_hit & (occ > 0)].sum())
    report.io_c_final = int(sc[final].sum())
    report.io_c_spill = spill
    return report
