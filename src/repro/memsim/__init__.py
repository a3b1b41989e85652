"""Trace-driven memory-hierarchy simulation.

Used to reproduce Figure 7: where do memory requests get served, and how
long do cores stall waiting, under CAKE vs the GOTO baseline?

:class:`~repro.memsim.lru.LRUCache` is an object-granularity LRU cache
holding variable-sized entries (tiles, panels, blocks) against a byte
budget. This is what makes full GEMM traces tractable in Python: one
access per *tile* instead of one per 64-byte line. The tests
cross-validate it against a line-granularity set-associative simulator
of the same schedules at small scale (``tests/memsim/line_oracle.py``).

:class:`~repro.memsim.hierarchy.MemoryHierarchy` assembles per-core private
levels, the shared LLC and DRAM from a
:class:`~repro.machines.spec.MachineSpec`, charging stall cycles by the
level that serves each request. :mod:`repro.memsim.profile` replays the
CAKE/GOTO schedules through a hierarchy to produce the Figure 7 profiles;
the paper's key qualitative result — CAKE stalls on *local* memory while
MKL/GOTO stalls on *main* memory — emerges from LRU capacity pressure
alone, with no engine-specific special-casing.
"""

from repro.memsim.lru import LRUCache
from repro.memsim.hierarchy import LevelStats, MemoryHierarchy
from repro.memsim.profile import MemoryProfile, profile_cake, profile_goto

__all__ = [
    "LRUCache",
    "LevelStats",
    "MemoryHierarchy",
    "MemoryProfile",
    "profile_cake",
    "profile_goto",
]
