"""The line-granularity memory simulator: the Figure 7 test oracle.

The Figure 7 profiles use object-granularity LRU caches
(:mod:`repro.memsim`, one access per tile/panel) because line-level
simulation of full GEMMs is intractable in Python. This module is the
line-level ground truth at *small* scale, so the shortcut can be
validated: packed operand buffers are laid out in a real address space
(tile-contiguous micropanels, as BLIS/CAKE packing produces), the same
schedule walk issues byte-range accesses, and a stack of set-associative
caches serves them line by line.

``tests/memsim/test_linear.py`` asserts that both granularities agree on
the qualitative Figure 7 results (where traffic lands, who hits DRAM
more).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterator

from repro.errors import ConfigurationError
from repro.gemm.parallel import core_strips
from repro.gemm.plan import CakePlan, GotoPlan
from repro.machines.spec import MachineSpec
from repro.memsim.lru import CacheStats
from repro.schedule.space import ComputationSpace
from repro.util import ceil_div, prefix_offsets, require_positive, split_length

#: One byte-range request: ``(core, base_address, nbytes, write)``.
RangeOp = tuple[int, int, int, bool]


class SetAssociativeCache:
    """Line-granularity set-associative LRU cache.

    Parameters
    ----------
    capacity_bytes, line_bytes, ways:
        Standard geometry; ``capacity_bytes`` must be divisible by
        ``line_bytes * ways`` so sets come out whole.
    """

    def __init__(
        self,
        capacity_bytes: int,
        line_bytes: int = 64,
        ways: int = 8,
        name: str = "cache",
    ) -> None:
        require_positive("capacity_bytes", capacity_bytes)
        require_positive("line_bytes", line_bytes)
        require_positive("ways", ways)
        if capacity_bytes % (line_bytes * ways):
            raise ValueError(
                f"capacity {capacity_bytes} not divisible by "
                f"line_bytes*ways = {line_bytes * ways}"
            )
        self.capacity_bytes = capacity_bytes
        self.line_bytes = line_bytes
        self.ways = ways
        self.num_sets = capacity_bytes // (line_bytes * ways)
        self.name = name
        self.stats = CacheStats()
        self._sets: list[OrderedDict[int, bool]] = [
            OrderedDict() for _ in range(self.num_sets)
        ]

    def access_line(self, address: int, *, write: bool = False) -> bool:
        """Touch the line containing ``address``; returns True on hit."""
        if address < 0:
            raise ValueError(f"address must be >= 0, got {address}")
        tag = address // self.line_bytes
        s = self._sets[tag % self.num_sets]
        if tag in s:
            dirty = s.pop(tag)
            s[tag] = dirty or write
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        self.stats.bytes_filled += self.line_bytes
        s[tag] = write
        if len(s) > self.ways:
            _, dirty = s.popitem(last=False)
            self.stats.evictions += 1
            if dirty:
                self.stats.writebacks += 1
                self.stats.writeback_bytes += self.line_bytes
        return False

    def access(self, address: int, size_bytes: int, *, write: bool = False) -> int:
        """Touch a byte range; returns the number of line hits."""
        require_positive("size_bytes", size_bytes)
        first = address // self.line_bytes
        last = (address + size_bytes - 1) // self.line_bytes
        hits = 0
        for line in range(first, last + 1):
            hits += self.access_line(line * self.line_bytes, write=write)
        return hits


class AddressSpace:
    """A bump allocator handing out contiguous buffer ranges."""

    def __init__(self, alignment: int = 64) -> None:
        require_positive("alignment", alignment)
        self.alignment = alignment
        self._next = 0
        self._buffers: dict[str, tuple[int, int]] = {}

    def alloc(self, name: str, nbytes: int) -> int:
        """Reserve ``nbytes`` for ``name``; returns the base address."""
        require_positive("nbytes", nbytes)
        if name in self._buffers:
            raise ConfigurationError(f"buffer {name!r} already allocated")
        base = self._next
        self._buffers[name] = (base, nbytes)
        aligned = ceil_div(nbytes, self.alignment) * self.alignment
        self._next += aligned
        return base

    def base(self, name: str) -> int:
        """Base address of a previously-allocated buffer."""
        try:
            return self._buffers[name][0]
        except KeyError:
            raise ConfigurationError(f"unknown buffer {name!r}") from None


class LineHierarchy:
    """Per-core private caches + shared LLC, at cache-line granularity."""

    def __init__(
        self, machine: MachineSpec, cores: int, *, line_bytes: int = 64,
        ways: int = 8,
    ) -> None:
        self.machine = machine
        self.cores = cores
        self.line_bytes = line_bytes
        self._l1 = [
            SetAssociativeCache(
                machine.l1_bytes, line_bytes, ways, name=f"L1[{c}]"
            )
            for c in range(cores)
        ]
        self._has_l2 = not machine.llc_is_l2
        self._l2 = (
            [
                SetAssociativeCache(
                    machine.l2_bytes, line_bytes, ways, name=f"L2[{c}]"
                )
                for c in range(cores)
            ]
            if self._has_l2
            else []
        )
        self._llc = SetAssociativeCache(
            machine.llc_bytes, line_bytes, max(ways, 16), name="LLC"
        )
        self.serves = {"L1": 0, "L2": 0, "LLC": 0, "DRAM": 0}
        self.dram_bytes = 0

    def access_line(self, core: int, address: int, *, write: bool = False) -> str:
        """One line request walking L1 -> L2 -> LLC -> DRAM."""
        if self._l1[core].access_line(address, write=write):
            served = "L1"
        elif self._has_l2 and self._l2[core].access_line(address, write=write):
            served = "L2"
        elif self._llc.access_line(address, write=write):
            served = "LLC"
        else:
            served = "DRAM"
            self.dram_bytes += self.line_bytes
        self.serves[served] += 1
        return served

    def access_range(
        self, core: int, base: int, nbytes: int, *, write: bool = False
    ) -> None:
        """Touch every line of ``[base, base + nbytes)``."""
        require_positive("nbytes", nbytes)
        first = base // self.line_bytes
        last = (base + nbytes - 1) // self.line_bytes
        for line in range(first, last + 1):
            self.access_line(core, line * self.line_bytes, write=write)

    @property
    def dram_fraction(self) -> float:
        """Share of line requests that fell through to DRAM."""
        total = sum(self.serves.values())
        return self.serves["DRAM"] / total if total else 0.0


@dataclass(frozen=True, slots=True)
class LineProfile:
    """Line-granularity counterpart of a MemoryProfile."""

    engine: str
    serves: dict[str, int]
    dram_bytes: int
    dram_fraction: float


def cake_line_ops(
    machine: MachineSpec, m: int, n: int, k: int, *, cores: int | None = None
) -> Iterator[RangeOp]:
    """The CAKE schedule as a byte-range request stream.

    Packed layout: per-block A sub-matrices and B micropanels are
    tile-contiguous (a ``kc x nr`` B tile is one contiguous run), and the
    partial-C block buffer is micropanel-contiguous per (core, tile).
    """
    space = ComputationSpace(m, n, k)
    plan = CakePlan.from_problem(machine, space, cores=cores)
    grid = plan.grid()
    eb = machine.element_bytes
    nr = machine.nr

    mem = AddressSpace()
    # Packed buffers are block-major with nominal block strides, so they
    # can be (slightly) larger than the dense operand.
    a_base = mem.alloc("A", grid.mb * grid.kb * grid.nominal.m * grid.nominal.k * eb)
    b_base = mem.alloc("B", grid.kb * grid.nb * grid.nominal.k * grid.nominal.n * eb)
    c_base = mem.alloc("C", grid.mb * grid.nb * grid.nominal.m * grid.nominal.n * eb)

    for coord in plan.schedule():
        ext = grid.extent(coord)
        strips = core_strips(ext.m, plan.cores)
        n_tiles = ceil_div(ext.n, nr)
        # A sub-blocks: one contiguous packed range per core.
        a_block_base = a_base + _packed_offset_a(grid, coord, eb)
        off = 0
        for core, rows in enumerate(strips):
            yield (core, a_block_base + off, rows * ext.k * eb, False)
            off += rows * ext.k * eb
        # B micropanels: tile-contiguous within the packed panel.
        b_panel_base = b_base + _packed_offset_b(grid, coord, eb)
        for j in range(n_tiles):
            tile_n = min(nr, ext.n - j * nr)
            tile_bytes = ext.k * tile_n * eb
            tile_base = b_panel_base + j * ext.k * nr * eb
            for core, rows in enumerate(strips):
                yield (core, tile_base, tile_bytes, False)
                # C micropanel for this (core, j).
                c_tile_base = (
                    c_base
                    + _packed_offset_c(grid, coord, eb)
                    + (core * n_tiles + j) * max(strips) * nr * eb
                )
                c_bytes = rows * tile_n * eb
                yield (core, c_tile_base, c_bytes, False)
                yield (core, c_tile_base, c_bytes, True)


def goto_line_ops(
    machine: MachineSpec, m: int, n: int, k: int, *, cores: int | None = None
) -> Iterator[RangeOp]:
    """The GOTO loop nest as a byte-range request stream."""
    space = ComputationSpace(m, n, k)
    plan = GotoPlan.from_problem(machine, space, cores=cores)
    eb = machine.element_bytes
    nr = machine.nr

    mem = AddressSpace()
    a_base = mem.alloc("A", m * k * eb)
    b_base = mem.alloc("B", k * n * eb)
    c_base = mem.alloc("C", m * n * eb)

    m_strips = split_length(space.m, min(plan.mc, space.m))
    n_sizes = split_length(space.n, min(plan.nc, space.n))
    k_sizes = split_length(space.k, min(plan.kc, space.k))
    m_offsets = prefix_offsets(m_strips)
    n_offsets = prefix_offsets(n_sizes)
    k_offsets = prefix_offsets(k_sizes)

    for ni, nc_actual in enumerate(n_sizes):
        for ki, kc_actual in enumerate(k_sizes):
            b_panel_base = b_base + (k_offsets[ki] * space.n + n_offsets[ni] * kc_actual) * eb
            for wave_start in range(0, len(m_strips), plan.cores):
                wave = m_strips[wave_start : wave_start + plan.cores]
                n_tiles = ceil_div(nc_actual, nr)
                for lane, rows in enumerate(wave):
                    strip = wave_start + lane
                    a_block = a_base + (
                        m_offsets[strip] * space.k + k_offsets[ki] * rows
                    ) * eb
                    yield (lane, a_block, rows * kc_actual * eb, False)
                for j in range(n_tiles):
                    tile_n = min(nr, nc_actual - j * nr)
                    tile_base = b_panel_base + j * kc_actual * nr * eb
                    tile_bytes = kc_actual * tile_n * eb
                    for lane, rows in enumerate(wave):
                        strip = wave_start + lane
                        yield (lane, tile_base, tile_bytes, False)
                        # C lives in the user's row-major buffer: the
                        # micro-tile is `rows` separate nr-wide runs at
                        # the matrix's row stride (this strided pattern,
                        # not a contiguous one, is what GOTO's partial-C
                        # streaming really touches).
                        c_tile = c_base + (
                            m_offsets[strip] * space.n
                            + n_offsets[ni]
                            + j * nr
                        ) * eb
                        row_bytes = tile_n * eb
                        stride = space.n * eb
                        for r in range(rows):
                            yield (lane, c_tile + r * stride, row_bytes, False)
                        for r in range(rows):
                            yield (lane, c_tile + r * stride, row_bytes, True)


def _replay_ops(
    machine: MachineSpec, cores: int, ops: Iterator[RangeOp], engine: str
) -> LineProfile:
    """Run an op stream through a fresh :class:`LineHierarchy`."""
    hier = LineHierarchy(machine, cores)
    for core, base, nbytes, write in ops:
        hier.access_range(core, base, nbytes, write=write)
    return LineProfile(
        engine=engine,
        serves=dict(hier.serves),
        dram_bytes=hier.dram_bytes,
        dram_fraction=hier.dram_fraction,
    )


def line_profile_cake(
    machine: MachineSpec, m: int, n: int, k: int, *, cores: int | None = None
) -> LineProfile:
    """Line-level replay of the CAKE schedule on packed buffers."""
    plan = CakePlan.from_problem(machine, ComputationSpace(m, n, k), cores=cores)
    ops = cake_line_ops(machine, m, n, k, cores=cores)
    return _replay_ops(machine, plan.cores, ops, "cake")


def line_profile_goto(
    machine: MachineSpec, m: int, n: int, k: int, *, cores: int | None = None
) -> LineProfile:
    """Line-level replay of the GOTO loop nest on packed buffers."""
    plan = GotoPlan.from_problem(machine, ComputationSpace(m, n, k), cores=cores)
    ops = goto_line_ops(machine, m, n, k, cores=cores)
    return _replay_ops(machine, plan.cores, ops, "goto")


def _packed_offset_a(grid, coord, eb: int) -> int:
    """Byte offset of block (mi, ki)'s packed A data (block-major)."""
    index = coord.mi * grid.kb + coord.ki
    return index * grid.nominal.m * grid.nominal.k * eb


def _packed_offset_b(grid, coord, eb: int) -> int:
    """Byte offset of panel (ki, ni)'s packed B data (panel-major)."""
    index = coord.ki * grid.nb + coord.ni
    return index * grid.nominal.k * grid.nominal.n * eb


def _packed_offset_c(grid, coord, eb: int) -> int:
    """Byte offset of block (mi, ni)'s C region (block-major)."""
    index = coord.mi * grid.nb + coord.ni
    return index * grid.nominal.m * grid.nominal.n * eb
