"""A reusable buffer pool for packed operand storage.

Packing allocates a handful of large contiguous buffers per ``multiply()``
call (one per packed region — see :mod:`repro.packing.pack`). Service
workloads call ``multiply()`` in a loop with recurring shapes, so those
allocations are highly redundant; the pool lets an engine hand buffers
back after a run and lease them again on the next call instead of paying
``np.empty`` + page-fault cost every time.

Semantics are deliberately minimal:

* :meth:`BufferPool.lease` returns an **uninitialised** C-contiguous
  array of exactly the requested shape and dtype — a retained buffer if
  one matches, a fresh allocation otherwise. Leased buffers are popped
  from the pool under a lock, so concurrent leases never share storage
  (this is what makes one engine object safe to run from many threads).
* :meth:`BufferPool.release` returns buffers for reuse. The pool retains
  at most ``max_retained_bytes`` in total and evicts the
  least-recently-released buffers beyond that, so a single huge problem
  cannot pin its working set forever.

The pool never zeroes storage: packed buffers are always fully
overwritten by the pack copy before use, which tests assert indirectly by
checking packed buffers are bit-identical to the loop-packing oracle.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from multiprocessing import shared_memory
from typing import NamedTuple

import numpy as np

#: Default retention cap: generous enough for the benchmark shapes
#: (a 1536^3 float64 problem packs ~38 MiB), small enough to never
#: matter on a laptop.
DEFAULT_MAX_RETAINED_BYTES = 256 * 1024 * 1024


class BufferPool:
    """Thread-safe pool of reusable C-contiguous ndarray buffers."""

    def __init__(self, max_retained_bytes: int = DEFAULT_MAX_RETAINED_BYTES):
        if max_retained_bytes < 0:
            raise ValueError(
                f"max_retained_bytes must be >= 0, got {max_retained_bytes}"
            )
        self.max_retained_bytes = max_retained_bytes
        self._lock = threading.Lock()
        # (shape, dtype.str) -> list of free buffers; OrderedDict gives
        # cheap least-recently-released eviction across keys.
        self._free: OrderedDict[tuple, list[np.ndarray]] = OrderedDict()
        self._retained_bytes = 0
        self.hits = 0
        self.misses = 0

    def _key(self, shape: tuple[int, ...], dtype: np.dtype) -> tuple:
        return (tuple(shape), np.dtype(dtype).str)

    def lease(self, shape: tuple[int, ...], dtype) -> np.ndarray:
        """An uninitialised C-contiguous array of ``shape``/``dtype``.

        Zero-element requests short-circuit: an empty array costs nothing
        to allocate, so it never takes the lock, never counts toward
        hit/miss stats, and is never retained by :meth:`release`.
        """
        if any(extent == 0 for extent in shape):
            return np.empty(shape, dtype=dtype)
        key = self._key(shape, dtype)
        with self._lock:
            bucket = self._free.get(key)
            if bucket:
                buf = bucket.pop()
                if not bucket:
                    del self._free[key]
                self._retained_bytes -= buf.nbytes
                self.hits += 1
                return buf
            self.misses += 1
        return self._allocate(shape, dtype)

    def _allocate(self, shape: tuple[int, ...], dtype) -> np.ndarray:
        """Allocate a fresh buffer on a pool miss (subclass seam).

        The zero-element short-circuit and the lease/release bookkeeping
        live in :meth:`lease`; subclasses only change *where* the bytes
        come from (:class:`SharedBufferPool` puts them in shared-memory
        segments). Runs outside the pool lock.
        """
        return np.empty(shape, dtype=dtype)

    def release(self, *buffers: np.ndarray) -> None:
        """Return buffers to the pool (caller must drop its references)."""
        dropped: list[np.ndarray] = []
        with self._lock:
            for buf in buffers:
                if buf.nbytes > self.max_retained_bytes or buf.size == 0:
                    dropped.append(buf)  # too big to retain / nothing to reuse
                    continue
                key = self._key(buf.shape, buf.dtype)
                self._free.setdefault(key, []).append(buf)
                self._free.move_to_end(key)
                self._retained_bytes += buf.nbytes
            while self._retained_bytes > self.max_retained_bytes and self._free:
                key, bucket = next(iter(self._free.items()))
                victim = bucket.pop(0)
                if not bucket:
                    del self._free[key]
                self._retained_bytes -= victim.nbytes
                dropped.append(victim)
        self.discard(*dropped)

    def discard(self, *buffers: np.ndarray) -> None:
        """Give up buffers for good instead of retaining them.

        Plain memory needs nothing (the caller drops its references);
        :class:`SharedBufferPool` closes and unlinks their segments.
        """

    @property
    def retained_bytes(self) -> int:
        """Bytes currently held for reuse."""
        with self._lock:
            return self._retained_bytes

    @property
    def lease_count(self) -> int:
        """Total leases served (hits + misses; zero-element leases excluded)."""
        with self._lock:
            return self.hits + self.misses

    @property
    def hit_count(self) -> int:
        """Leases satisfied from a retained buffer."""
        with self._lock:
            return self.hits

    @property
    def miss_count(self) -> int:
        """Leases that had to allocate fresh storage."""
        with self._lock:
            return self.misses

    def stats(self) -> dict:
        """One consistent snapshot of the pool's counters.

        Reading the properties one by one can interleave with concurrent
        leases; the serve layer's :class:`~repro.serve.ServerStats`
        embeds this dict so its pool numbers are mutually consistent.
        """
        with self._lock:
            return {
                "leases": self.hits + self.misses,
                "hits": self.hits,
                "misses": self.misses,
                "retained_bytes": self._retained_bytes,
            }

    def clear(self) -> None:
        """Drop every retained buffer."""
        with self._lock:
            self._free.clear()
            self._retained_bytes = 0


class SegmentSpec(NamedTuple):
    """A picklable handle to one shared-memory-backed buffer.

    ``name`` is the OS-level segment name a worker process attaches
    with ``SharedMemory(name=...)``; ``shape``/``dtype_str`` rebuild the
    identical ndarray view over the mapping.
    """

    name: str
    shape: tuple[int, ...]
    dtype_str: str


class SharedBufferPool(BufferPool):
    """A :class:`BufferPool` whose buffers live in shared memory.

    The process-sharded executor (:mod:`repro.gemm.sharded`) packs A and
    B through one of these, so every packed buffer is backed by a
    ``multiprocessing.shared_memory`` segment that shard workers attach
    **zero-copy** — the parent ships segment names, never array bytes.

    Lease/release semantics are inherited unchanged, which is the
    satellite contract this class exists to honour:

    * ``release`` returns the buffer object itself to the free list — it
      never copies out of the segment, so a re-leased buffer is the same
      shared mapping (tests assert identity);
    * a zero-element lease short-circuits to a private ``np.empty``
      before any allocation, exactly like the in-process path —
      ``SharedMemory(create=True, size=0)`` would raise, and a zero-byte
      segment is useless to share anyway.

    The pool owns its segments: it keeps a strong reference to every
    (buffer, segment) pair so buffer ids stay stable for
    :meth:`segment_of` lookups. A segment is closed **and unlinked** when
    the retention cap evicts it, when :meth:`discard` gives it up, and
    by :meth:`destroy`, which the creating process must call when it is
    done with the pool; workers only ever attach.
    """

    def __init__(self, max_retained_bytes: int = DEFAULT_MAX_RETAINED_BYTES):
        super().__init__(max_retained_bytes)
        self._segments_lock = threading.Lock()
        # id(buffer) -> (buffer, segment). The buffer reference keeps the
        # id from being recycled while the pool is alive.
        self._segments: dict[
            int, tuple[np.ndarray, shared_memory.SharedMemory]
        ] = {}

    def _allocate(self, shape: tuple[int, ...], dtype) -> np.ndarray:
        dt = np.dtype(dtype)
        nbytes = int(np.prod(shape, dtype=np.int64)) * dt.itemsize
        segment = shared_memory.SharedMemory(create=True, size=nbytes)
        buf = np.ndarray(shape, dtype=dt, buffer=segment.buf)
        with self._segments_lock:
            self._segments[id(buf)] = (buf, segment)
        return buf

    def segment_of(self, buf: np.ndarray) -> SegmentSpec:
        """The picklable handle for a buffer this pool allocated.

        Accepts the leased buffer itself (views into it resolve via
        ``.base`` on the caller's side if needed). Raises ``KeyError``
        for arrays the pool does not own.
        """
        with self._segments_lock:
            owned, segment = self._segments[id(buf)]
        if owned is not buf:  # pragma: no cover - id collision guard
            raise KeyError("buffer is not owned by this pool")
        return SegmentSpec(
            name=segment.name,
            shape=tuple(buf.shape),
            dtype_str=buf.dtype.str,
        )

    def segment_names(self) -> list[str]:
        """The OS names of every segment the pool currently owns."""
        with self._segments_lock:
            return [segment.name for _, segment in self._segments.values()]

    def discard(self, *buffers: np.ndarray) -> None:
        """Close and unlink the segments behind ``buffers``.

        Buffers the pool does not own (zero-element leases) are ignored.
        A discarded buffer must not be used again.
        """
        with self._segments_lock:
            segments = [
                self._segments.pop(id(buf))[1]
                for buf in buffers
                if self._segments.get(id(buf), (None,))[0] is buf
            ]
        _close_and_unlink(segments)

    def destroy(self) -> None:
        """Close and unlink every segment; the pool is unusable after.

        Buffers handed out by :meth:`lease` become invalid — callers
        must have copied any results they keep (the sharded executor
        copies C out of the arena before giving its segments back).
        """
        self.clear()
        with self._segments_lock:
            segments = [segment for _, segment in self._segments.values()]
            self._segments.clear()
        _close_and_unlink(segments)


def _close_and_unlink(segments: "list[shared_memory.SharedMemory]") -> None:
    for segment in segments:
        try:
            segment.close()
        except BufferError:  # pragma: no cover - views still exported
            pass  # mapping lives until those views die; unlink anyway
        try:
            segment.unlink()
        except FileNotFoundError:  # already unlinked (by a retiring worker)
            pass
