"""BufferPool / SharedBufferPool lease semantics.

The shared-memory pool is the transport of the process-sharded executor
(:mod:`repro.gemm.sharded`): packed buffers must stay inside their
segments for the whole lease/release/re-lease life cycle (a copy would
silently detach the worker's view from the parent's bytes), zero-byte
leases must short-circuit exactly like the in-process pool
(``SharedMemory(create=True, size=0)`` would raise), and ``destroy``
must actually unlink every segment.
"""

from __future__ import annotations

from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.packing.pool import BufferPool, SegmentSpec, SharedBufferPool


@pytest.fixture
def pool():
    p = SharedBufferPool()
    yield p
    p.destroy()


class TestSharedLeases:
    def test_release_does_not_copy(self, pool):
        # The regression this file exists for: release must return the
        # buffer object itself to the free list, so a re-lease hands
        # back the SAME shared mapping — not a private copy.
        buf = pool.lease((16, 8), np.float64)
        buf[...] = 7.0
        name = pool.segment_of(buf).name
        pool.release(buf)
        again = pool.lease((16, 8), np.float64)
        assert again is buf
        assert pool.segment_of(again).name == name
        assert (again == 7.0).all()  # same bytes, same segment

    def test_zero_byte_lease_short_circuits(self, pool):
        # Exactly the in-process path: no segment, no lock, no stats.
        buf = pool.lease((0, 5), np.float64)
        assert buf.shape == (0, 5)
        with pytest.raises(KeyError):
            pool.segment_of(buf)
        pool.release(buf)  # must be a no-op, not a crash
        assert pool.retained_bytes == 0
        assert pool.hits == pool.misses == 0

    def test_segment_of_rejects_foreign_arrays(self, pool):
        with pytest.raises(KeyError):
            pool.segment_of(np.zeros((3, 3)))

    def test_segment_spec_rebuilds_the_same_mapping(self, pool, rng):
        buf = pool.lease((6, 7), np.float32)
        buf[...] = rng.standard_normal((6, 7)).astype(np.float32)
        spec = pool.segment_of(buf)
        assert isinstance(spec, SegmentSpec)
        assert spec.shape == (6, 7)
        seg = shared_memory.SharedMemory(name=spec.name)
        try:
            view = np.ndarray(
                spec.shape, dtype=np.dtype(spec.dtype_str), buffer=seg.buf
            )
            assert np.array_equal(view, buf)
            view[0, 0] = 42.0  # writes travel both ways: one mapping
            assert buf[0, 0] == 42.0
        finally:
            del view
            seg.close()

    def test_concurrent_leases_never_share_segments(self, pool):
        first = pool.lease((8, 8), np.float64)
        second = pool.lease((8, 8), np.float64)
        assert first is not second
        assert pool.segment_of(first).name != pool.segment_of(second).name


class TestDestroy:
    def test_destroy_unlinks_every_segment(self):
        pool = SharedBufferPool()
        specs = []
        for shape in ((4, 4), (2, 10)):
            specs.append(pool.segment_of(pool.lease(shape, np.float64)))
        pool.destroy()
        for spec in specs:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=spec.name)

    def test_destroy_covers_released_buffers_too(self):
        pool = SharedBufferPool()
        buf = pool.lease((4, 4), np.float64)
        spec = pool.segment_of(buf)
        pool.release(buf)
        del buf
        pool.destroy()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=spec.name)

    def test_discard_unlinks_only_the_given_segments(self, pool):
        kept, dropped = (pool.lease((4, 4), np.float64) for _ in range(2))
        gone = pool.segment_of(dropped).name
        pool.discard(dropped, np.empty(0))  # unowned buffers are ignored
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=gone)
        assert pool.segment_names() == [pool.segment_of(kept).name]

    def test_eviction_unlinks_the_evicted_segment(self):
        pool = SharedBufferPool(max_retained_bytes=200)
        first = pool.lease((4, 4), np.float64)  # 128 bytes each
        second = pool.lease((4, 4), np.float64)
        evicted = pool.segment_of(first).name
        pool.release(first, second)  # over the cap: the oldest goes
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=evicted)
        assert pool.segment_names() == [pool.segment_of(second).name]
        pool.destroy()


class TestInProcessPoolUnchanged:
    def test_zero_byte_lease_short_circuits(self):
        pool = BufferPool()
        buf = pool.lease((0, 3), np.float64)
        assert buf.size == 0
        pool.release(buf)
        assert pool.retained_bytes == 0
        assert pool.hits == pool.misses == 0

    def test_lease_release_recycles(self):
        pool = BufferPool()
        buf = pool.lease((5, 5), np.float64)
        pool.release(buf)
        assert pool.lease((5, 5), np.float64) is buf
        assert pool.hits == 1


class TestStatsCounters:
    def test_lease_hit_miss_counters(self):
        pool = BufferPool()
        first = pool.lease((4, 4), np.float32)
        second = pool.lease((4, 4), np.float32)  # no free buffer: miss
        assert (pool.lease_count, pool.hit_count, pool.miss_count) == (
            2, 0, 2,
        )
        pool.release(first, second)
        pool.lease((4, 4), np.float32)
        assert (pool.lease_count, pool.hit_count, pool.miss_count) == (
            3, 1, 2,
        )

    def test_stats_snapshot_is_consistent(self):
        pool = BufferPool()
        buf = pool.lease((8, 8), np.float64)
        pool.release(buf)
        pool.lease((8, 8), np.float64)
        stats = pool.stats()
        assert stats == {
            "leases": 2,
            "hits": 1,
            "misses": 1,
            "retained_bytes": 0,
        }
        assert stats["leases"] == stats["hits"] + stats["misses"]

    def test_zero_element_leases_stay_invisible(self):
        pool = BufferPool()
        pool.release(pool.lease((0, 9), np.float64))
        assert pool.lease_count == 0
        assert pool.stats()["leases"] == 0

    def test_threaded_contention_counters_balance(self):
        # Regression for the serve layer's shared-pool accounting: many
        # threads lease/release the same shape concurrently, and the
        # counters must balance exactly (every lease is a hit or a miss,
        # no lost updates) while no two live leases alias storage.
        import threading

        pool = BufferPool()
        threads_n, rounds = 8, 25
        barrier = threading.Barrier(threads_n)
        errors: list[str] = []

        def worker(tag: float) -> None:
            barrier.wait()
            for _ in range(rounds):
                buf = pool.lease((16, 16), np.float64)
                buf[...] = tag  # stamp; an aliased lease would corrupt
                if not (buf == tag).all():
                    errors.append("aliased lease observed")
                pool.release(buf)

        threads = [
            threading.Thread(target=worker, args=(float(i + 1),))
            for i in range(threads_n)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert not errors
        stats = pool.stats()
        assert stats["leases"] == threads_n * rounds
        assert stats["hits"] + stats["misses"] == stats["leases"]
        # At most one fresh allocation per thread can be in flight at
        # once, so misses never exceed the thread count.
        assert 1 <= stats["misses"] <= threads_n
