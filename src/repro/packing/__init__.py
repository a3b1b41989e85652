"""Operand packing into contiguous blocked buffers (Section 5.2.1).

GEMM libraries — CAKE included — copy their operands into contiguous
buffers laid out in the order the kernel will touch them, which minimises
cache evictions and prevents cache self-interference. Packing costs real
memory traffic (each packed element is read once and written once through
DRAM), and the paper includes that overhead in every measurement; for
skewed shapes it can be a significant fraction of total time.

:mod:`repro.packing.cost` charges for that traffic in every modelled run.
:mod:`repro.packing.pack` builds the blocked buffers themselves, for the
benchmark ladder: a multiply reads A and B in place instead, because
each backend call is a BLAS call that packs its operands itself. :mod:`repro.packing.pool` holds the shared-memory
arena's buffer pool, through which sharded runs copy their operands.
"""

from repro.packing.pack import (
    PackedA,
    PackedB,
    pack_a,
    pack_a_cake,
    pack_b,
    pack_b_cake,
)
from repro.packing.pool import BufferPool
from repro.packing.cost import PackingCost, packing_cost

__all__ = [
    "BufferPool",
    "PackedA",
    "PackedB",
    "pack_a",
    "pack_a_cake",
    "pack_b",
    "pack_b_cake",
    "PackingCost",
    "packing_cost",
]
