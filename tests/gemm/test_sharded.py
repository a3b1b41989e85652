"""Process-sharded executor tests (CAKE-on-CAKE).

The contract under test (see ``repro.gemm.sharded``): sharding the
M x N grid of CB blocks across worker processes is an *execution*
detail — the product and the schedule-derived traffic counters must be
bit-identical to the in-process run on the same backend for every
process and worker count, the shard grid must be the near-square minimizer
of the replicated-input traffic, the measured inter-process bytes must
sit within the documented slack of the memory-independent lower bound,
and a dying shard worker must heal through the pool-rebuild ladder or
surface a structured error — never a silently partial C.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.errors import ConfigurationError
from repro.gemm import CakeGemm, GotoGemm
from repro.gemm.backends import BlasGroupBackend, NumpyBackend
from repro.gemm.sharded import (
    IPC_SLACK_FACTOR,
    ShardConfig,
    ipc_lower_bound_elements,
    plan_shards,
    resolve_shards,
    select_shard_grid,
)
from repro.gemm.plan import PlanOverride
from repro.gemm.verify import VerifyConfig
from repro.machines import intel_i9_10900k
from repro.runtime.faults import NumericFaultPlan, NumericFaultRule

ENGINES = {"cake": CakeGemm, "goto": GotoGemm}

#: cores=1 keeps CB blocks small enough that the block grid has several
#: rows and columns to shard on test-sized problems (the cake grid here
#: is 2x2, the goto strip grid 2x1).
SHAPE = (300, 420, 170)


@pytest.fixture
def intel():
    return intel_i9_10900k()


@pytest.fixture
def operands(rng):
    m, n, k = SHAPE
    return rng.standard_normal((m, k)), rng.standard_normal((k, n))


def _serial(intel, engine, a, b, **kw):
    return ENGINES[engine](intel, cores=1, **kw).multiply(a, b)


def _sharded(intel, engine, a, b, processes, **kw):
    return ENGINES[engine](
        intel, cores=1, processes=processes, **kw
    ).multiply(a, b)


# -- shard-grid selection ------------------------------------------------------


class TestGridSelection:
    # Pinned selections: (mb, nb, m, n) -> {P: (rows, cols)}. The square
    # case ties row- and column-splits, so the tie-break (smaller row
    # count) decides; the skewed Figure-8 shapes split their long axis.
    PINNED = [
        ("square-4x4", 4, 4, 960, 960,
         {1: (1, 1), 2: (1, 2), 3: (1, 3), 4: (2, 2), 6: (2, 3), 8: (2, 4)}),
        ("skewed-2x5", 2, 5, 256, 1024,
         {1: (1, 1), 2: (1, 2), 3: (1, 3), 4: (1, 4), 6: (2, 3), 8: (2, 4)}),
        ("fig8-wide", 8, 32, 2000, 8000,
         {1: (1, 1), 2: (1, 2), 3: (1, 3), 4: (1, 4), 6: (1, 6), 8: (2, 4)}),
        ("fig8-tall", 32, 8, 8000, 2000,
         {1: (1, 1), 2: (2, 1), 3: (3, 1), 4: (4, 1), 6: (6, 1), 8: (4, 2)}),
    ]

    @pytest.mark.parametrize(
        "label,mb,nb,m,n,expected", PINNED, ids=[c[0] for c in PINNED]
    )
    def test_pinned_grids(self, label, mb, nb, m, n, expected):
        for p, grid in expected.items():
            assert select_shard_grid(p, mb, nb, m, n) == grid, (
                f"{label}: P={p}"
            )

    def test_tall_and_wide_are_transposes(self):
        # Swapping the problem's aspect swaps the chosen grid.
        for p in (2, 3, 4, 6, 8):
            r, c = select_shard_grid(p, 8, 32, 2000, 8000)
            assert select_shard_grid(p, 32, 8, 8000, 2000) == (c, r)

    def test_clamps_to_block_grid(self):
        # More processes than blocks: the largest usable P' <= P wins.
        assert select_shard_grid(64, 2, 3, 100, 200) == (2, 3)
        assert select_shard_grid(7, 2, 2, 100, 100) == (2, 2)
        assert select_shard_grid(1000, 1, 1, 10, 10) == (1, 1)

    def test_prime_p_with_narrow_grid_degrades(self):
        # P=5 cannot factor into a 2x2 grid; 4 processes can.
        assert select_shard_grid(5, 2, 2, 100, 100) == (2, 2)

    @given(
        p=st.integers(1, 16),
        mb=st.integers(1, 9),
        nb=st.integers(1, 9),
        m=st.integers(1, 5000),
        n=st.integers(1, 5000),
    )
    @settings(max_examples=80)
    def test_grid_always_feasible_and_optimal(self, p, mb, nb, m, n):
        rows, cols = select_shard_grid(p, mb, nb, m, n)
        assert 1 <= rows <= mb and 1 <= cols <= nb
        assert rows * cols <= p
        # No feasible pair with MORE usable processes, and none with the
        # same count but strictly less replicated-input traffic.
        best = rows * cols
        for rr in range(1, mb + 1):
            for cc in range(1, nb + 1):
                if rr * cc <= p:
                    assert rr * cc <= best
                    if rr * cc == best:
                        assert cols * m + rows * n <= cc * m + rr * n


class TestPlanTiling:
    @given(
        row_extents=st.lists(st.integers(1, 64), min_size=1, max_size=7),
        col_extents=st.lists(st.integers(1, 64), min_size=1, max_size=7),
        p=st.integers(1, 12),
        k=st.integers(1, 300),
    )
    @settings(max_examples=80)
    def test_spans_tile_the_block_grid_exactly(
        self, row_extents, col_extents, p, k
    ):
        plan = plan_shards(p, row_extents, col_extents, k)
        mb, nb = len(row_extents), len(col_extents)
        assert plan.processes == plan.rows * plan.cols == len(plan.spans)
        covered: set[tuple[int, int]] = set()
        for span in plan.spans:
            assert 0 <= span.mi0 < span.mi1 <= mb
            assert 0 <= span.ni0 < span.ni1 <= nb
            cells = {
                (mi, ni)
                for mi in range(span.mi0, span.mi1)
                for ni in range(span.ni0, span.ni1)
            }
            assert not (covered & cells), "shard spans overlap"
            covered |= cells
            # Element offsets/extents are the prefix sums of the block
            # extents — the C panel views depend on this.
            assert span.m0 == sum(row_extents[: span.mi0])
            assert span.m_extent == sum(row_extents[span.mi0 : span.mi1])
            assert span.n0 == sum(col_extents[: span.ni0])
            assert span.n_extent == sum(col_extents[span.ni0 : span.ni1])
        assert covered == {(mi, ni) for mi in range(mb) for ni in range(nb)}

    @given(
        row_extents=st.lists(st.integers(1, 64), min_size=1, max_size=7),
        col_extents=st.lists(st.integers(1, 64), min_size=1, max_size=7),
        p=st.integers(1, 12),
        k=st.integers(1, 300),
    )
    @settings(max_examples=40)
    def test_ipc_never_below_the_lower_bound(
        self, row_extents, col_extents, p, k
    ):
        plan = plan_shards(p, row_extents, col_extents, k)
        bound = ipc_lower_bound_elements(plan.m, plan.n, k, plan.processes)
        assert plan.ipc_elements >= bound * (1 - 1e-12)
        assert plan.ipc_lower_bound_elements == bound


# -- configuration resolution --------------------------------------------------


class TestResolveShards:
    def test_none_means_the_process_default(self):
        """``processes=None`` runs in-process, like ``processes=1``."""
        assert resolve_shards(None) is None

    def test_one_process_means_no_sharding(self):
        assert resolve_shards(1) is None
        assert resolve_shards(ShardConfig(processes=1)) is None

    def test_int_wraps_config_passes_through(self):
        cfg = resolve_shards(4)
        assert cfg == ShardConfig(processes=4)
        explicit = ShardConfig(processes=2)
        assert resolve_shards(explicit) is explicit

    def test_rejects_bools_and_nonsense(self):
        with pytest.raises(TypeError):
            resolve_shards(True)
        with pytest.raises(TypeError):
            resolve_shards("2")  # type: ignore[arg-type]
        with pytest.raises(ValueError):
            resolve_shards(0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ShardConfig(processes=0)
        with pytest.raises(ConfigurationError, match="start method"):
            ShardConfig(processes=2, start_method="no-such-method")

    def test_processes_follow_the_workers_count_rule(self, intel):
        # One rule for both counts (repro.util.require_count): Python or
        # NumPy integers, stored as int; bools and non-integral values
        # are a TypeError naming the argument.
        for good in (2, np.int64(2), np.int32(3)):
            for cfg in (ShardConfig(processes=good), resolve_shards(good)):
                assert type(cfg.processes) is int
                assert cfg.processes == good
        engine = CakeGemm(intel, processes=np.int64(2))
        assert engine.shards == ShardConfig(processes=2)
        for bad in (2.5, 2.0, True, np.bool_(True), "2"):
            for make in (
                lambda: ShardConfig(processes=bad),
                lambda: resolve_shards(bad),
                lambda: CakeGemm(intel, processes=bad),
            ):
                with pytest.raises(TypeError, match="processes"):
                    make()

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_a_backend_instance_cannot_shard(self, intel, engine):
        # Shard workers rebuild their backend from the registry by name,
        # so an instance would run as the registered backend of its
        # name: the tile walk's bits would silently become the panel
        # product's. The registry's own specs shard; instances run in
        # process.
        cls = ENGINES[engine]
        kernel = cls(intel).plan_for(300, 257, 211).kernel
        for instance in (
            NumpyBackend(kernel, exact_tiles=True),
            NumpyBackend(kernel),
            BlasGroupBackend(),
        ):
            for processes in (2, ShardConfig(processes=2)):
                with pytest.raises(ConfigurationError, match="by name"):
                    cls(intel, processes=processes, backend=instance)
            assert cls(intel, processes=1, backend=instance).shards is None
        for name in ("numpy", "blas-group", None):
            assert cls(intel, processes=2, backend=name).shards is not None


# -- bit-identity --------------------------------------------------------------


class TestBitIdentity:
    @pytest.mark.parametrize("engine", sorted(ENGINES))
    @pytest.mark.parametrize("processes", [2, 4])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_matches_serial(self, intel, operands, engine, processes, workers):
        a, b = operands
        serial = _serial(intel, engine, a, b, workers=workers)
        run = _sharded(
            intel, engine, a, b, processes, workers=workers
        )
        assert np.array_equal(run.c, serial.c)
        assert run.counters.without_ipc() == serial.counters.without_ipc()
        assert run.time.seconds == serial.time.seconds
        report = run.shards
        assert report is not None
        assert run.processes == report.processes == report.rows * report.cols
        assert 1 < report.processes <= processes
        assert len(report.shard_phase_seconds) == report.processes

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_blas_group_backend_matches_its_serial_run(
        self, intel, operands, engine
    ):
        a, b = operands
        serial = _serial(intel, engine, a, b, backend="blas-group")
        run = _sharded(intel, engine, a, b, 2, backend="blas-group")
        assert np.array_equal(run.c, serial.c)
        assert run.counters.without_ipc() == serial.counters.without_ipc()
        assert run.backend == "blas-group"

    @pytest.mark.parametrize(
        "override",
        [PlanOverride(strips=1), PlanOverride(schedule="naive")],
        ids=["strips=1", "naive"],
    )
    def test_execution_overrides_reach_the_shards(self, intel, rng, override):
        # The shard workers take block order and strip granularity from
        # the engine, exactly as the in-process path does. cores=2 makes
        # the default granularity two strips per block, and the 2x2x3
        # block grid gives the K-first order descending K runs.
        a = rng.standard_normal((600, 700))
        b = rng.standard_normal((700, 840))
        inprocess = CakeGemm(intel, cores=2, plan=override).multiply(a, b)
        sharded = CakeGemm(
            intel, cores=2, plan=override, processes=2
        ).multiply(a, b)
        assert sharded.processes == 2
        assert np.array_equal(sharded.c, inprocess.c)
        assert sharded.counters.without_ipc() == inprocess.counters

    @pytest.mark.parametrize("verify", [False, True])
    @pytest.mark.parametrize(
        "override",
        [None, PlanOverride(schedule="naive")],
        ids=["none", "naive"],
    )
    def test_strip_cuts_match_the_inprocess_run(
        self, intel, rng, verify, override
    ):
        # cores=4 makes each CB block four per-core strips; on a per-strip
        # backend the shard grid cuts between them, so the 2x1 grid here
        # splits each of the three blocks (one block row, one N panel,
        # three K panels) across both shards.
        a = rng.standard_normal((300, 700))
        b = rng.standard_normal((700, 840))
        inprocess, sharded = (
            CakeGemm(
                intel, cores=4, plan=override, verify=verify, processes=p
            ).multiply(a, b)
            for p in (1, 2)
        )
        assert (sharded.shards.rows, sharded.shards.cols) == (2, 1)
        assert np.array_equal(sharded.c, inprocess.c)
        assert sharded.counters.without_ipc() == inprocess.counters
        if verify:
            assert sharded.verify.blocks == inprocess.verify.blocks
            assert sharded.verify.verified == inprocess.verify.verified

    @pytest.mark.skipif(
        "spawn" not in mp.get_all_start_methods(),
        reason="spawn start method unavailable",
    )
    def test_spawn_start_method(self, intel, operands):
        a, b = operands
        serial = _serial(intel, "cake", a, b)
        run = _sharded(
            intel, "cake", a, b,
            ShardConfig(processes=2, start_method="spawn"),
        )
        assert np.array_equal(run.c, serial.c)
        assert run.shards is not None
        assert run.shards.start_method == "spawn"

    @pytest.mark.skipif(
        "spawn" not in mp.get_all_start_methods(),
        reason="spawn start method unavailable",
    )
    def test_spawn_workers_leave_the_tracker_clean(self):
        # Spawn workers share the parent's resource tracker: a worker
        # that unregisters its attach deletes the parent's registration,
        # and the parent's unlink then prints a tracker traceback. The
        # child interpreter exits with the tracker, so its stderr holds
        # every such report.
        code = (
            "import numpy as np\n"
            "from repro.gemm import CakeGemm\n"
            "from repro.gemm.sharded import ShardConfig\n"
            "from repro.machines import intel_i9_10900k\n"
            "rng = np.random.default_rng(0)\n"
            "a = rng.standard_normal((300, 170))\n"
            "b = rng.standard_normal((170, 420))\n"
            "config = ShardConfig(processes=2, start_method='spawn')\n"
            "run = CakeGemm(intel_i9_10900k(), cores=1, processes=config)"
            ".multiply(a, b)\n"
            "assert run.shards.rows * run.shards.cols > 1\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr, proc.stderr

    def test_float32_stays_float32(self, intel, operands):
        a, b = (x.astype(np.float32) for x in operands)
        serial = _serial(intel, "cake", a, b)
        run = _sharded(intel, "cake", a, b, 2)
        assert run.c.dtype == np.float32
        assert np.array_equal(run.c, serial.c)

    def test_one_process_takes_the_inprocess_path(self, intel, operands):
        a, b = operands
        run = _sharded(intel, "cake", a, b, 1)
        assert run.shards is None
        assert run.processes == 1
        assert run.counters.ipc_bytes == 0


class TestVerifiedSharded:
    def test_verified_run_is_bit_clean(self, intel, operands):
        a, b = operands
        plain = _serial(intel, "cake", a, b)
        verified = _sharded(intel, "cake", a, b, 2, verify=True)
        assert np.array_equal(verified.c, plain.c)
        report = verified.verify
        assert report is not None
        assert report.mismatches == 0
        assert report.blocks > 0 and report.verified == report.blocks
        # Checksum material is computed inside the shard workers from
        # the attached packed blocks — it must still be accounted.
        assert report.checksum_elements > 0

    def test_merged_report_matches_serial_accounting(self, intel, operands):
        a, b = operands
        serial = _serial(intel, "cake", a, b, verify=True)
        sharded = _sharded(intel, "cake", a, b, 2, verify=True)
        assert np.array_equal(sharded.c, serial.c)
        assert sharded.verify.blocks == serial.verify.blocks
        assert sharded.verify.verified == serial.verify.verified
        # Checksum material replicates with the operands: a shard grid
        # that replicates packed A across pc column shards recomputes
        # A's checksums in each — never fewer elements than serial.
        assert (
            sharded.verify.checksum_elements
            >= serial.verify.checksum_elements
        )

    def test_a_block_split_at_strips_verifies_like_the_serial_run(
        self, intel, operands
    ):
        # cores=4 gives SHAPE's single CB block four strips, and the 2x1
        # shard grid cuts it between strips 1 and 2. The fault keys on the
        # serial strip index, so it fires in the second shard, and the
        # block both shards verify counts once.
        a, b = operands
        plan = NumericFaultPlan(
            rules=(NumericFaultRule(block=0, strip=3, kind="scale"),)
        )
        inprocess, sharded = (
            CakeGemm(
                intel, cores=4, processes=p, verify=VerifyConfig(inject=plan)
            ).multiply(a, b)
            for p in (1, 2)
        )
        assert (sharded.shards.rows, sharded.shards.cols) == (2, 1)
        assert np.array_equal(sharded.c, inprocess.c)
        assert inprocess.verify.mismatches == 1
        for name in ("mismatches", "retry_recoveries", "blocks", "verified"):
            assert getattr(sharded.verify, name) == getattr(
                inprocess.verify, name
            ), name


# -- IPC accounting ------------------------------------------------------------


class TestIpcAccounting:
    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_ipc_bytes_within_documented_slack(self, intel, operands, engine):
        a, b = operands
        for processes in (2, 4):
            run = _sharded(intel, engine, a, b, processes)
            report = run.shards
            assert report is not None
            assert run.counters.ipc_bytes == report.ipc_bytes > 0
            bound = report.ipc_lower_bound_bytes
            assert bound == ipc_lower_bound_elements(
                SHAPE[0], SHAPE[1], SHAPE[2], report.processes
            ) * intel.element_bytes
            assert bound <= report.ipc_bytes <= IPC_SLACK_FACTOR * bound
            assert report.slack == report.ipc_bytes / bound

    def test_ipc_bytes_are_plan_deterministic(self, intel, operands):
        # Same problem, same process count -> identical ipc accounting
        # (it is derived from the shard plan, not measured wall traffic).
        a, b = operands
        first = _sharded(intel, "cake", a, b, 2)
        second = _sharded(intel, "cake", a, b, 2)
        assert first.counters.ipc_bytes == second.counters.ipc_bytes
        assert first.counters == second.counters


# -- fault tolerance -----------------------------------------------------------


def _kill_plan(state_dir=None, times=1):
    return NumericFaultPlan(
        rules=(
            NumericFaultRule(block=0, strip="*", kind="kill", times=times),
        ),
        state_dir=None if state_dir is None else str(state_dir),
    )


class TestShardFaultTolerance:
    def test_kill_once_heals_via_pool_rebuild(self, intel, operands, tmp_path):
        # The worker owning block 0 dies mid-run; the on-disk firing
        # count survives the crash, so the rebuilt pool recomputes the
        # zeroed shard cleanly — bit-identical C, rebuilds recorded.
        a, b = operands
        clean = _serial(intel, "cake", a, b)
        run = _sharded(
            intel, "cake", a, b, 2,
            verify=VerifyConfig(inject=_kill_plan(state_dir=tmp_path)),
        )
        assert np.array_equal(run.c, clean.c)
        assert run.shards is not None
        assert run.shards.pool_rebuilds >= 1
        assert run.verify is not None and run.verify.mismatches == 0

    def test_persistent_kill_degrades_to_inline(self, intel, operands):
        # Without a state_dir every rebuilt worker re-fires the kill, so
        # the rebuild budget drains and the shard runs inline in the
        # parent — where kill faults are inert by construction.
        a, b = operands
        clean = _serial(intel, "cake", a, b)
        run = _sharded(
            intel, "cake", a, b,
            ShardConfig(processes=2),
            verify=VerifyConfig(inject=_kill_plan()),
        )
        assert np.array_equal(run.c, clean.c)
        assert run.shards is not None
        assert run.shards.pool_rebuilds >= 1
        assert run.shards.inline_shards >= 1

    def test_scale_fault_heals_inside_the_shard(self, intel, operands):
        # Ordinary ABFT corruption heals locally in the shard worker.
        a, b = operands
        clean = _serial(intel, "cake", a, b)
        plan = NumericFaultPlan(
            rules=(
                NumericFaultRule(block=0, strip=0, kind="scale", factor=3.0),
            )
        )
        run = _sharded(
            intel, "cake", a, b, 2, verify=VerifyConfig(inject=plan)
        )
        assert np.array_equal(run.c, clean.c)
        assert run.verify is not None
        assert run.verify.mismatches >= 1
        assert (
            run.verify.retry_recoveries + run.verify.oracle_recoveries >= 1
        )
