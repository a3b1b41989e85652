"""The per-plan memos behind a multiply: grid, loop order, strip layout.

A repeated shape must build exactly the strip groups a cold build
gives — same views onto the same buffers, same indices and labels —
because executor threads and shard workers share the memoized values.
So the values are immutable, bounded like the plans, and
``clear_plan_memos()`` empties every one of them. The plans and machine
specs that key the memos hash once, and never carry that hash into
another process.
"""

from __future__ import annotations

import multiprocessing as mp
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.gemm import CakeGemm, GotoGemm
from repro.gemm.engine import LoopOrder, loop_order
from repro.gemm.parallel import (
    StripLayout,
    build_groups,
    grid_operands,
    strip_layout,
)
from repro.gemm.plan import (
    PLAN_MEMO_MAXSIZE,
    CakePlan,
    GotoPlan,
    _plan_memos,
    clear_plan_memos,
)
from repro.gemm.sharded import plan_shards
from repro.machines import intel_i9_10900k
from repro.schedule.space import ComputationSpace

ENGINES = {"cake": CakeGemm, "goto": GotoGemm}
#: At ``cores=4`` on the i9 preset: three K panels for both engines,
#: one CAKE block row of four per-core strips (so a two-process shard
#: cuts between strips) and two GOTO ``mc`` strips.
SHAPE = (449, 457, 509)


def _operands(m, n, k):
    rng = np.random.default_rng(7)
    return rng.standard_normal((m, k)), rng.standard_normal((k, n))


def _spans(engine, plan, order):
    """None (in process), then every span of a two-process shard grid."""
    m_sizes, n_sizes, _ = plan.grid().size_arrays()
    shards = plan_shards(
        2,
        engine._shard_rows(order, m_sizes.tolist()),
        n_sizes.tolist(),
        plan.space.k,
    )
    assert len(shards.spans) == 2
    return [None, *shards.spans]


def _view(array):
    """Where a view sits in memory, and its shape: equal means same view."""
    return array.__array_interface__["data"][0], array.shape, array.strides


def _describe(groups):
    return [
        (
            g.index, g.first_strip, g.label, g.coord, g.fresh_panel,
            _view(g.panel), _view(g.operand_a),
            [(_view(t.a), _view(t.b), _view(t.c)) for t in g.tasks],
        )
        for g in groups
    ]


def _frozen(value) -> bool:
    """True when ``value`` is built only of tuples and scalars."""
    if isinstance(value, tuple):
        return all(_frozen(item) for item in value)
    return value is None or isinstance(value, (int, float, str))


@pytest.mark.parametrize("name", sorted(ENGINES))
def test_memoized_groups_equal_a_fresh_build(intel, name):
    m, n, k = SHAPE
    engine = ENGINES[name](intel, cores=4)
    plan = engine.plan_for(m, n, k)
    a, b = grid_operands(plan, *_operands(m, n, k))
    c = np.zeros((m, n))
    order = loop_order(type(engine), plan, None)
    spans = _spans(engine, plan, order)

    def build(span):
        return build_groups(
            loop_order(type(engine), plan, None).slots, plan,
            a, b, c,
            span=span, strips=order.strips,
        ).groups

    warm = {}
    for span in spans:
        build(span)  # fill the memos
        warm[span] = _describe(build(span))
    clear_plan_memos()
    for span in spans:
        assert _describe(build(span)) == warm[span], span
    # The spans' groups tile the in-process ones: the same strip views,
    # each keeping its serial group index and strip number.
    for index, first_strip, _, _, _, _, _, tasks in warm[None]:
        pieces = sorted(
            (g[1], g[7]) for s in spans[1:] for g in warm[s] if g[0] == index
        )
        assert first_strip == pieces[0][0] == 0
        assert [t for _, part in pieces for t in part] == tasks
        assert [first for first, _ in pieces] == [
            sum(len(part) for _, part in pieces[:i])
            for i in range(len(pieces))
        ]


@pytest.mark.parametrize("name", sorted(ENGINES))
def test_memo_values_cannot_be_mutated(intel, name):
    m, n, k = SHAPE
    engine = ENGINES[name](intel, cores=4)
    plan = engine.plan_for(m, n, k)
    order = loop_order(type(engine), plan, None)
    assert isinstance(order, LoopOrder) and _frozen(order)
    with pytest.raises(TypeError):
        order.slots[0] = order.slots[-1]
    with pytest.raises(AttributeError):
        order.strips = 1
    for span in _spans(engine, plan, order):
        layout = strip_layout(plan, order.strips, span)
        assert isinstance(layout, StripLayout) and _frozen(layout)
        with pytest.raises(TypeError):
            layout.in_span[0] = ()
    grid = plan.grid()
    assert plan.grid() is grid
    before = [x.copy() for x in (*grid.size_arrays(), *grid.offset_arrays())]
    for x in (*grid.size_arrays(), *grid.offset_arrays()):
        x[:] = -1  # a caller scribbling on its copies
    after = [*grid.size_arrays(), *grid.offset_arrays()]
    assert all(np.array_equal(x, y) for x, y in zip(before, after))


def test_clear_plan_memos_empties_every_memo(intel):
    m, n, k = SHAPE
    a, b = _operands(m, n, k)
    for engine in (CakeGemm(intel, cores=4), GotoGemm(intel, cores=4)):
        engine.multiply(a, b)
    memos = _plan_memos()
    assert {"grid", "loop_order", "strip_layout", "accounting"} <= set(memos)
    for name in ("cake", "goto", "grid", "loop_order", "strip_layout"):
        assert memos[name].cache_info().currsize >= 1, name
        assert memos[name].cache_info().maxsize == PLAN_MEMO_MAXSIZE, name
    clear_plan_memos()
    sizes = {name: memo.cache_info().currsize for name, memo in memos.items()}
    assert not any(sizes.values()), sizes


@pytest.mark.parametrize("plan_cls", [CakePlan, GotoPlan])
def test_equal_plans_hash_equal(plan_cls):
    space = ComputationSpace(*SHAPE)
    plan = plan_cls.from_problem(intel_i9_10900k(), space, cores=4)
    clear_plan_memos()
    again = plan_cls.from_problem(intel_i9_10900k(), space, cores=4)
    assert again is not plan and again.machine is not plan.machine
    assert again == plan and again.machine == plan.machine
    assert hash(again) == hash(plan) == hash(plan)
    assert hash(again.machine) == hash(plan.machine)


def _hashes_like_a_plan_built_here(plan: CakePlan) -> tuple[bool, bool, bool]:
    """In a spawned process, where string hashes take another salt: the
    plan that arrived pickled against an equal one built here."""
    built = CakePlan.from_problem(
        intel_i9_10900k(), ComputationSpace(*SHAPE), cores=4
    )
    return (
        plan == built,
        hash(plan) == hash(built),
        hash(plan.machine) == hash(built.machine),
    )


@pytest.mark.skipif(
    "spawn" not in mp.get_all_start_methods(),
    reason="spawn start method unavailable",
)
def test_a_plan_pickled_into_a_spawned_process_hashes_like_its_own():
    plan = CakePlan.from_problem(
        intel_i9_10900k(), ComputationSpace(*SHAPE), cores=4
    )
    hash(plan)  # stored before the plan travels, as a shard task's does
    with ProcessPoolExecutor(1, mp_context=mp.get_context("spawn")) as pool:
        future = pool.submit(_hashes_like_a_plan_built_here, plan)
        assert future.result(timeout=120) == (True, True, True)
