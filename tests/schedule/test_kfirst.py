"""Tests for Algorithm 2 (K-first boustrophedon schedule)."""

from hypothesis import given, settings, strategies as st

import pytest

from repro.core import CBBlock
from repro.schedule import BlockGrid, ComputationSpace, kfirst_schedule
from repro.schedule.reuse import validate_schedule


def grid(m=12, n=12, k=12, bm=4, bn=4, bk=4) -> BlockGrid:
    return BlockGrid(ComputationSpace(m, n, k), CBBlock(bm, bn, bk))


def shares_surface(a, b) -> bool:
    """Two blocks share a surface iff they agree on two of three indices."""
    return (
        ((a.mi, a.ni) == (b.mi, b.ni))  # partial C
        or ((a.mi, a.ki) == (b.mi, b.ki))  # A
        or ((a.ki, a.ni) == (b.ki, b.ni))  # B
    )


grids = st.builds(
    grid,
    m=st.integers(1, 40),
    n=st.integers(1, 40),
    k=st.integers(1, 40),
    bm=st.integers(1, 8),
    bn=st.integers(1, 8),
    bk=st.integers(1, 8),
)


class TestKFirstStructure:
    def test_covers_every_block_once(self):
        g = grid()
        order = kfirst_schedule(g)
        validate_schedule(g, order)  # raises on failure

    def test_k_innermost(self):
        """The first kb blocks form one complete reduction run."""
        g = grid()
        order = kfirst_schedule(g)
        first_run = order[: g.kb]
        assert len({(c.mi, c.ni) for c in first_run}) == 1
        assert sorted(c.ki for c in first_run) == list(range(g.kb))

    def test_paper_figure3d_order(self):
        """Figure 3d: a 3x3x3 slice in K-first order, blocks 1..9.

        For ni=0 the traversal covers (mi=0, k:0->2), (mi=1, k:2->0),
        (mi=2, k:0->2) — the numbers 1-9 in the figure.
        """
        g = grid(m=3, n=3, k=3, bm=1, bn=1, bk=1)
        order = kfirst_schedule(g)
        expected_first_nine = [
            (0, 0), (0, 1), (0, 2),
            (1, 2), (1, 1), (1, 0),
            (2, 0), (2, 1), (2, 2),
        ]
        got = [(c.mi, c.ki) for c in order[:9]]
        assert got == expected_first_nine
        assert all(c.ni == 0 for c in order[:9])

    def test_outer_auto_follows_larger_dimension(self):
        # N > M: outer loop over N => consecutive runs vary mi fastest.
        g = BlockGrid(ComputationSpace(8, 16, 4), CBBlock(4, 4, 4))
        order = kfirst_schedule(g)
        # first two runs differ in mi, same ni
        assert order[0].ni == order[g.kb].ni
        assert order[0].mi != order[g.kb].mi
        # M > N: outer loop over M => consecutive runs vary ni fastest.
        g2 = BlockGrid(ComputationSpace(16, 8, 4), CBBlock(4, 4, 4))
        order2 = kfirst_schedule(g2)
        assert order2[0].mi == order2[g2.kb].mi
        assert order2[0].ni != order2[g2.kb].ni

    def test_invalid_outer_rejected(self):
        with pytest.raises(ValueError):
            kfirst_schedule(grid(), outer="q")  # type: ignore[arg-type]


class TestKFirstAdjacency:
    @settings(max_examples=80)
    @given(grids)
    def test_every_consecutive_pair_shares_a_surface(self, g):
        """The boustrophedon guarantee: no transition wastes all three
        surfaces — this is what the direction flips buy (Section 2.2)."""
        order = kfirst_schedule(g)
        for prev, cur in zip(order, order[1:]):
            assert shares_surface(prev, cur), (prev, cur)

    @settings(max_examples=80)
    @given(grids)
    def test_valid_for_any_grid(self, g):
        validate_schedule(g, kfirst_schedule(g))

    @settings(max_examples=40)
    @given(grids)
    def test_runs_group_whole_reductions(self, g):
        """Every ``kb`` consecutive blocks complete one C surface."""
        order = kfirst_schedule(g)
        runs = [order[i : i + g.kb] for i in range(0, len(order), g.kb)]
        assert len(runs) == g.mb * g.nb
        for run in runs:
            assert len(run) == g.kb
            assert len({(c.mi, c.ni) for c in run}) == 1
