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
from itertools import chain, count, repeat
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


class _LruReplay:
    """The LRU that :func:`surface_lru_replay` steps.

    ``entries`` maps each resident key to its element count, oldest first.
    The keys are ``A(m, k) = 3 (m row + k)``, ``B(k, n) = 3 (n kb + k) + 1``
    and ``C(m, n) = 3 (m row + n kb) + 2``, with ``row = 2 nb kb``. So
    ``key % 3 == 2`` tells a partial C, and the keys stay distinct for
    block offsets ``|m| < mb`` and ``|n| < nb``: the resident set may be
    held relative to any block of the grid (:meth:`shift`).
    """

    def __init__(self, grid: BlockGrid, capacity: int) -> None:
        self.kb = grid.kb
        self.row = 2 * grid.nb * grid.kb
        self.capacity = capacity
        self.entries: dict[int, int] = {}
        self.used = 0
        self.spill = 0

    def advance(
        self, blocks: Iterable[tuple], hits: bytearray, lo: int = 0
    ) -> None:
        """Replay ``blocks`` one at a time.

        ``blocks`` yields each block's A, B and C keys, their sizes, and
        whether it completes its C. The A, B and C hits of the i-th block
        from ``lo`` on set ``hits[3 * i]``, ``hits[3 * i + 1]`` and
        ``hits[3 * i + 2]``.

        The scalar walk evicts after each of a block's three touches, with
        the block's three surfaces pinned throughout. Evicting once, after
        the third touch, removes the same surfaces: eviction takes the
        oldest unpinned surfaces first, the touches do not reorder them,
        and ``used`` only grows within a block, so the last eviction's
        victims include the earlier ones'. A block whose three surfaces
        all hit evicts nothing, and in a valid schedule it cannot start
        over budget: only the previous block's surfaces outlive an
        overrun, and no two blocks share all three.
        """
        entries, capacity = self.entries, self.capacity
        pop = entries.pop
        used, spill = self.used, self.spill
        for i, (a, b, c, size_a, size_b, size_c, final) in zip(
            count(3 * lo, 3), blocks
        ):
            size = pop(a, None)
            if size is None:
                entries[a] = size_a
                used += size_a
            else:
                entries[a] = size
                hits[i] = 1
            size = pop(b, None)
            if size is None:
                entries[b] = size_b
                used += size_b
            else:
                entries[b] = size
                hits[i + 1] = 1
            size = pop(c, None)
            if size is None:
                entries[c] = size_c
                used += size_c
            else:
                entries[c] = size
                hits[i + 2] = 1
            while used > capacity:
                for victim in entries:
                    if victim != a and victim != b and victim != c:
                        break
                else:
                    break  # only the pinned block is left: run over budget
                size = pop(victim)
                used -= size
                if victim % 3 == 2:
                    spill += size
            if final:
                used -= pop(c)
        self.used, self.spill = used, spill

    def load(self, state: tuple) -> None:
        """Make ``state`` (keys, then their sizes) the resident set."""
        half = len(state) // 2
        self.entries = dict(zip(state[:half], state[half:]))
        self.used = sum(state[half:])

    def shift(self, dm: int, dn: int) -> tuple:
        """The resident set as :meth:`load` takes it, every key moved
        ``dm`` blocks along M and ``dn`` along N."""
        row, kb = self.row, self.kb
        by = (3 * dm * row, 3 * dn * kb, 3 * (dm * row + dn * kb))
        entries = self.entries
        return (*[key + by[key % 3] for key in entries], *entries.values())


def _run_classes(
    grid: BlockGrid, order: "OrderArrays"
) -> tuple[list[int], list[int]] | None:
    """Each reduction run's kind and class, or None unless ``order`` is
    run-structured: made of ``kb``-aligned runs that each touch one C
    surface at every K panel, ascending or descending, as K-first and
    naive orders are and m-first and n-first ones are not.

    A run's kind is its K direction (4 if ascending) and whether its M (2)
    and N (1) blocks are the ragged last ones: a grid's blocks share one
    size along each axis but the last. Its class adds the turn to the
    next run; the last run takes a turn no run makes.
    """
    kb, mb, nb = grid.kb, grid.mb, grid.nb
    if len(order) % kb:
        return None
    c_pos = order.mi * (2 * nb) + order.ni  # one value per C surface
    ki = order.ki.reshape(-1, kb)
    up = ki[:, 0] == 0
    steps = np.arange(kb)
    if not (
        (c_pos.reshape(-1, kb) == c_pos[::kb, None]).all()
        and (ki == np.where(up[:, None], steps, steps[::-1])).all()
    ):
        return None
    m_sizes, n_sizes, _ = grid.size_arrays()
    kind = up * 4
    if m_sizes[-1] != m_sizes[0]:
        kind += (order.mi[::kb] == mb - 1) * 2
    if n_sizes[-1] != n_sizes[0]:
        kind += order.ni[::kb] == nb - 1
    # |turn| < 2 mb nb, so each kind's classes span 4 mb nb values.
    turns = c_pos[kb::kb] - c_pos[:-kb:kb]
    classes = (kind[:-1] * (4 * mb * nb) + turns).tolist()
    kinds = kind.tolist()
    classes.append(kinds[-1] * 4 * mb * nb + 2 * mb * nb)
    return kinds, classes


def _replay_runs(
    replay: _LruReplay,
    grid: BlockGrid,
    order: "OrderArrays",
    kinds: list[int],
    classes: list[int],
) -> np.ndarray:
    """Hit flags, shape ``(blocks, 3)``, of a run-structured order, each
    run stepped once per run key (:func:`surface_lru_replay`)."""
    kb = grid.kb
    m_sizes, n_sizes, k_sizes = (s.tolist() for s in grid.size_arrays())
    last = [False] * (kb - 1) + [True]
    run_sizes: dict[int, tuple] = {}  # A, B and C sizes of a kind's run

    def blocks(dm: int, dn: int, kind: int) -> Iterable[tuple]:
        """A run of ``kind`` as :meth:`_LruReplay.advance` takes it, its
        keys ``dm`` and ``dn`` blocks from those of a run at block 0."""
        sizes = run_sizes.get(kind)
        if sizes is None:
            size_m = m_sizes[-1 if kind & 2 else 0]
            size_n = n_sizes[-1 if kind & 1 else 0]
            ks = k_sizes if kind & 4 else k_sizes[::-1]
            sizes = run_sizes[kind] = (
                [size_m * size for size in ks],
                [size * size_n for size in ks],
                size_m * size_n,
            )
        a, b = 3 * dm * replay.row, 3 * dn * kb + 1
        first, step = (0, 3) if kind & 4 else (3 * kb - 3, -3)
        return zip(
            range(a + first, a + first + step * kb, step),
            range(b + first, b + first + step * kb, step),
            repeat(a + b + 1),
            sizes[0],
            sizes[1],
            repeat(sizes[2]),
            last,
        )

    run_m, run_n = order.mi[::kb].tolist(), order.ni[::kb].tolist()
    runs = len(run_m)
    # Without two runs of one class, no run key repeats.
    memoize = len(set(classes)) < runs
    limit = 2 * kb + 1  # the surfaces one run touches
    memo: dict[tuple[int, int], tuple[int, int, int]] = {}
    interned: dict[tuple, int] = {(): 0}
    states: list[tuple] = [()]
    store = bytearray(3 * len(order))  # the stepped runs' hit flags
    pattern_ids: list[int] = []  # each run's stepped run
    state = 0  # the id of the state entering run j, held relative to it
    live = True  # replay.entries holds the state entering run j
    fm = fn = 0  # the block the resident keys are held relative to

    def stepping() -> Iterable[Iterable[tuple]]:
        """The runs from run j on, up to one that leaves few enough
        surfaces to translate."""
        nonlocal j
        while j < runs:
            yield blocks(run_m[j] - fm, run_n[j] - fn, kinds[j])
            j += 1
            if memoize and len(replay.entries) <= limit:
                return

    j = stepped = 0
    while j < runs:
        key = None
        if memoize:
            key = (state, classes[j])
            hit = memo.get(key)
            if hit is not None:
                pattern, spill, state = hit
                pattern_ids.append(pattern)
                replay.spill += spill
                live = False
                j += 1
                continue
            if not live:
                replay.load(states[state])
                fm, fn, live = run_m[j], run_n[j], True
        first, spill = j, replay.spill
        replay.advance(chain.from_iterable(stepping()), store, stepped * kb)
        pattern_ids += range(stepped, stepped + j - first)
        stepped += j - first
        if j == runs:
            break
        shifted = replay.shift(fm - run_m[j], fn - run_n[j])
        state = interned.setdefault(shifted, len(states))
        if state == len(states):
            states.append(shifted)
        if key is not None and j == first + 1:
            memo[key] = (stepped - 1, replay.spill - spill, state)
    flags = np.frombuffer(store, dtype=bool).reshape(-1, kb, 3)
    if stepped < runs:
        flags = flags[pattern_ids]
    return flags.reshape(-1, 3)


def surface_lru_replay(
    grid: BlockGrid, order: "OrderArrays", capacity_elements: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """Grouped replay of :class:`SurfaceResidency` over a whole schedule.

    The state transitions are exactly the scalar walks' ``touch(a) /
    touch(b) / touch(c) / invalidate-on-completion`` per block, with the
    block's three surfaces pinned and a C surface invalidated at its
    ``kb``-th touch. ``order`` must be a valid schedule of ``grid``, one
    that runs every block once. Returns per-block hit flags (bool arrays)
    for the three surfaces, each block's C occurrence index (how many
    earlier blocks touched its C surface, as :func:`occurrence_index`
    counts), and the total elements of partial-C surfaces evicted by
    capacity pressure (spills).

    A run-structured order (:func:`_run_classes`: K-first, naive) is
    stepped once per **run key**: the LRU state entering a reduction run,
    every key translated to the run's own ``(mi, ni)``, plus the run's M
    size, N size and K direction. A later run with the same key, and the
    same turn to the run after it, takes the stepped run's hit flags,
    spill and exit state from a memo; the flags come out of one gather.
    Other orders are stepped block by block.

    Why the memo is exact:

    * The LRU's decisions depend only on which keys are equal, on sizes,
      and on recency order.
    * Run ``j`` touches ``A(mi_j, ki)``, ``B(ki, ni_j)`` and
      ``C(mi_j, ni_j)`` for each ``ki`` of its sequence, of sizes fixed
      by ``m[mi_j]``, ``n[ni_j]``, the grid's K sizes and the direction.
    * Translating every key by ``(-mi_j, -ni_j)`` is a bijection: equal
      keys stay equal and distinct keys stay distinct. It keeps each
      key's kind, so an evicted partial C still counts as a spill.
    * So two runs with equal run keys make the same hits, spill the same
      elements and leave the same translated state.

    This needs no assumption that the LRU forgets earlier runs. A guard
    bounds the cost: a run is memoized only when the LRU entering it holds
    at most the surfaces one run touches, ``2 kb + 1``, so translating a
    state costs no more than stepping a run. Runs entered with more, at
    capacities that hold several runs, are stepped with their keys where
    they are and their states are not translated: every run costs O(kb).
    """
    require_positive("capacity_elements", capacity_elements)
    replay = _LruReplay(grid, capacity_elements)
    mi, ni, ki = order.mi, order.ni, order.ki
    kb, row = grid.kb, replay.row
    runs = _run_classes(grid, order)
    if runs is not None:
        occ = np.arange(len(mi)) % kb
        flags = _replay_runs(replay, grid, order, *runs)
    else:
        occ = occurrence_index(mi * grid.nb + ni)
        columns = (
            3 * (mi * row + ki),
            3 * (ni * kb + ki) + 1,
            3 * (mi * row + ni * kb) + 2,
            *grid.surface_arrays(mi, ni, ki),
            occ == kb - 1,
        )
        hits = bytearray(3 * len(mi))
        replay.advance(zip(*[column.tolist() for column in columns]), hits)
        flags = np.frombuffer(hits, dtype=bool).reshape(-1, 3)
    return flags[:, 0], flags[:, 1], flags[:, 2], occ, replay.spill
