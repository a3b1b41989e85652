"""The object-granularity LRU cache model.

:class:`LRUCache` entries are opaque hashable keys with a byte size,
evicted least-recently-used-first until the new entry fits. This models a
cache holding matrix *tiles/panels* and is what the GEMM-scale traces
use. The line-granularity set-associative model it is validated against
lives with the tests (``tests/memsim/line_oracle.py``) and counts in the
same :class:`CacheStats` vocabulary.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable

from repro.util import require_positive


@dataclass(slots=True)
class CacheStats:
    """Hit/miss/eviction counters of a cache model."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0
    bytes_filled: int = 0
    writeback_bytes: int = 0

    @property
    def accesses(self) -> int:
        """Total accesses observed."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of accesses that hit (0 when never accessed)."""
        return self.hits / self.accesses if self.accesses else 0.0


class LRUCache:
    """Fully-associative LRU cache over variable-sized entries.

    Parameters
    ----------
    capacity_bytes:
        Total budget. A single entry larger than the capacity is
        *uncacheable*: it counts as a miss and is not retained (streaming
        semantics, like a panel far larger than the cache).
    name:
        Label used in stats reporting.
    """

    def __init__(self, capacity_bytes: int, name: str = "cache") -> None:
        require_positive("capacity_bytes", capacity_bytes)
        self.capacity_bytes = capacity_bytes
        self.name = name
        self.stats = CacheStats()
        self._entries: OrderedDict[Hashable, tuple[int, bool]] = OrderedDict()
        self._used = 0

    @property
    def used_bytes(self) -> int:
        """Bytes currently resident."""
        return self._used

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def access(self, key: Hashable, size_bytes: int, *, write: bool = False) -> bool:
        """Touch ``key``; returns True on hit.

        On a miss the entry is installed (unless larger than the whole
        cache), evicting LRU entries as needed. A ``write`` marks the
        entry dirty; evicting a dirty entry counts a write-back.
        """
        require_positive("size_bytes", size_bytes)
        if key in self._entries:
            old_size, dirty = self._entries.pop(key)
            self._entries[key] = (size_bytes, dirty or write)
            self._used += size_bytes - old_size
            if size_bytes > old_size:
                # size change (ragged re-pack): refill of the delta
                self.stats.bytes_filled += size_bytes - old_size
            self.stats.hits += 1
            self._evict_to_fit()
            return True

        self.stats.misses += 1
        self.stats.bytes_filled += size_bytes
        if size_bytes > self.capacity_bytes:
            return False  # uncacheable: streams straight through
        self._entries[key] = (size_bytes, write)
        self._used += size_bytes
        self._evict_to_fit()
        return False

    def invalidate(self, key: Hashable) -> None:
        """Drop ``key`` without counting an eviction (explicit release)."""
        entry = self._entries.pop(key, None)
        if entry is not None:
            self._used -= entry[0]

    def _evict_to_fit(self) -> None:
        while self._used > self.capacity_bytes:
            _, (size, dirty) = self._entries.popitem(last=False)
            self._used -= size
            self.stats.evictions += 1
            if dirty:
                self.stats.writebacks += 1
                self.stats.writeback_bytes += size
