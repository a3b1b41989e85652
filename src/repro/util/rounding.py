"""Integer rounding helpers used by tilers and partitioners.

These are deliberately tiny, total functions: every partitioning decision in
the library funnels through them so that edge behaviour (remainder blocks,
dimensions smaller than one tile) is defined in exactly one place.
"""

from __future__ import annotations

from repro.util.validation import require_positive


def ceil_div(numerator: int, denominator: int) -> int:
    """Return ``ceil(numerator / denominator)`` for non-negative numerator.

    >>> ceil_div(10, 3)
    4
    >>> ceil_div(9, 3)
    3
    >>> ceil_div(0, 3)
    0
    """
    require_positive("denominator", denominator)
    if numerator < 0:
        raise ValueError(f"numerator must be >= 0, got {numerator}")
    return -(-numerator // denominator)


def round_to_multiple(value: int, multiple: int) -> int:
    """Round ``value`` *up* to the nearest multiple of ``multiple``.

    >>> round_to_multiple(10, 4)
    12
    >>> round_to_multiple(12, 4)
    12
    """
    return ceil_div(value, multiple) * multiple


def floor_to_multiple(value: int, multiple: int) -> int:
    """Round ``value`` *down* to the nearest multiple of ``multiple``.

    Unlike :func:`round_to_multiple` this never returns 0 for a positive
    ``value`` smaller than ``multiple``; it clamps to ``multiple`` instead,
    because a zero-sized tile is never a valid partitioning outcome.

    >>> floor_to_multiple(10, 4)
    8
    >>> floor_to_multiple(3, 4)
    4
    """
    require_positive("value", value)
    require_positive("multiple", multiple)
    return max((value // multiple) * multiple, multiple)


def split_even(total: int, parts: int) -> list[int]:
    """Split ``total`` into exactly ``parts`` balanced chunks.

    Chunk sizes differ by at most one and sum to ``total``; the larger
    chunks come first. Requires ``parts <= total`` so every chunk is
    non-empty — this is the partitioner behind the process-shard grid,
    where an empty shard would be a wasted worker.

    >>> split_even(10, 3)
    [4, 3, 3]
    >>> split_even(8, 4)
    [2, 2, 2, 2]
    """
    require_positive("total", total)
    require_positive("parts", parts)
    if parts > total:
        raise ValueError(
            f"cannot split {total} into {parts} non-empty parts"
        )
    base, rem = divmod(total, parts)
    return [base + 1] * rem + [base] * (parts - rem)


def split_length(total: int, chunk: int) -> list[int]:
    """Split ``total`` into consecutive chunks of size ``chunk``.

    The final chunk carries the remainder, so the sum of the returned sizes
    is exactly ``total``. Used to enumerate block extents along one matrix
    dimension, including the ragged edge.

    >>> split_length(10, 4)
    [4, 4, 2]
    >>> split_length(8, 4)
    [4, 4]
    """
    require_positive("total", total)
    require_positive("chunk", chunk)
    full, rem = divmod(total, chunk)
    sizes = [chunk] * full
    if rem:
        sizes.append(rem)
    return sizes


def prefix_offsets(sizes: list[int]) -> list[int]:
    """Start offset of each chunk: the exclusive prefix sums of ``sizes``.

    >>> prefix_offsets([4, 4, 2])
    [0, 4, 8]
    """
    offsets = [0]
    for size in sizes[:-1]:
        offsets.append(offsets[-1] + size)
    return offsets
