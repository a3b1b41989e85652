"""Tests for the LRU cache models: the library's object-granularity
``LRUCache`` and the line oracle's ``SetAssociativeCache``."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.memsim import LRUCache
from tests.memsim.line_oracle import SetAssociativeCache


class TestLRUCacheBasics:
    def test_miss_then_hit(self):
        c = LRUCache(100)
        assert not c.access("a", 10)
        assert c.access("a", 10)
        assert c.stats.hits == 1
        assert c.stats.misses == 1

    def test_eviction_is_lru_order(self):
        c = LRUCache(30)
        c.access("a", 10)
        c.access("b", 10)
        c.access("c", 10)
        c.access("a", 10)  # refresh a
        c.access("d", 10)  # evicts b (LRU), not a
        assert "a" in c and "c" in c and "d" in c
        assert "b" not in c

    def test_capacity_respected(self):
        c = LRUCache(25)
        for key in "abcde":
            c.access(key, 10)
        assert c.used_bytes <= 25

    def test_oversized_entry_streams_through(self):
        c = LRUCache(10)
        assert not c.access("big", 100)
        assert "big" not in c
        assert not c.access("big", 100)  # still a miss: never retained

    def test_dirty_eviction_counts_writeback(self):
        c = LRUCache(10)
        c.access("a", 10, write=True)
        c.access("b", 10)
        assert c.stats.writebacks == 1

    def test_clean_eviction_no_writeback(self):
        c = LRUCache(10)
        c.access("a", 10)
        c.access("b", 10)
        assert c.stats.evictions == 1
        assert c.stats.writebacks == 0

    def test_invalidate(self):
        c = LRUCache(100)
        c.access("a", 10)
        c.invalidate("a")
        assert "a" not in c
        assert c.used_bytes == 0
        assert c.stats.evictions == 0

    def test_hit_rate(self):
        c = LRUCache(100)
        assert c.stats.hit_rate == 0.0
        c.access("a", 10)
        c.access("a", 10)
        assert c.stats.hit_rate == 0.5

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            LRUCache(100).access("a", 0)

    @settings(max_examples=50)
    @given(
        st.lists(
            st.tuples(st.integers(0, 20), st.integers(1, 40)), min_size=1,
            max_size=200,
        ),
        st.integers(32, 256),
    )
    def test_invariants_under_random_traces(self, trace, capacity):
        c = LRUCache(capacity)
        for key, size in trace:
            c.access(key, size)
            assert c.used_bytes <= capacity
        assert c.stats.accesses == len(trace)


class TestSetAssociativeCache:
    def test_geometry_checked(self):
        with pytest.raises(ValueError, match="not divisible"):
            SetAssociativeCache(1000, line_bytes=64, ways=8)

    def test_line_hit_after_fill(self):
        c = SetAssociativeCache(1024, line_bytes=64, ways=2)
        assert not c.access_line(0)
        assert c.access_line(32)  # same line as address 0

    def test_way_conflict_eviction(self):
        c = SetAssociativeCache(1024, line_bytes=64, ways=2)  # 8 sets
        stride = 64 * 8  # same set every time
        c.access_line(0 * stride)
        c.access_line(1 * stride)
        c.access_line(2 * stride)  # evicts line 0
        assert not c.access_line(0 * stride)

    def test_range_access_counts_lines(self):
        c = SetAssociativeCache(4096, line_bytes=64, ways=8)
        hits = c.access(0, 256)  # 4 lines, all cold
        assert hits == 0
        assert c.access(0, 256) == 4  # all hot now

    def test_negative_address_rejected(self):
        c = SetAssociativeCache(1024, line_bytes=64, ways=2)
        with pytest.raises(ValueError):
            c.access_line(-64)

    @settings(max_examples=30)
    @given(st.lists(st.integers(0, 10_000), min_size=1, max_size=300))
    def test_full_associativity_agreement(self, addresses):
        """A 1-set set-associative cache must behave exactly like an
        object-LRU cache over line ids — the two models cross-validate."""
        line = 64
        ways = 16
        sa = SetAssociativeCache(line * ways, line_bytes=line, ways=ways)
        lru = LRUCache(line * ways)
        for a in addresses:
            sa_hit = sa.access_line(a)
            lru_hit = lru.access((a // line), line)
            assert sa_hit == lru_hit
