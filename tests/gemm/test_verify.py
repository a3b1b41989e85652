"""Tests for ABFT verified execution (repro.gemm.verify).

The contract under test, straight from the acceptance criteria:

* verify-on with no faults is **bit-identical** to verify-off — product,
  traffic counters, schedule accounting — for any engine/worker count;
* any single injected corruption is either healed back to the bit-exact
  clean result or surfaced as :class:`NumericFaultError` carrying the
  faulting block's coordinates — never silently wrong.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import cake_matmul, goto_matmul
from repro.gemm import CakeGemm, GotoGemm
from repro.gemm.backends import NumpyBackend
from repro.gemm.microkernel import MicroKernel
from repro.gemm.parallel import PhaseTimers, StripGroup, StripTask
from repro.gemm.verify import (
    GroupVerifier,
    NumericFaultError,
    VerifyConfig,
    VerifyReport,
    resolve_verify,
)
from repro.runtime.faults import (
    NumericFaultInjector,
    NumericFaultPlan,
    NumericFaultRule,
)

ENGINES = [CakeGemm, GotoGemm]


def _operands(rng, m=200, k=170, n=230, dtype=np.float64):
    a = rng.standard_normal((m, k)).astype(dtype)
    b = rng.standard_normal((k, n)).astype(dtype)
    return a, b


def _plan(**kw):
    return NumericFaultPlan(rules=(NumericFaultRule(**kw),))


# -- config plumbing ----------------------------------------------------------


class TestConfig:
    def test_resolve(self):
        assert resolve_verify(False) is None
        assert resolve_verify(None) is None
        assert resolve_verify(True) == VerifyConfig()
        cfg = VerifyConfig(max_retries=5)
        assert resolve_verify(cfg) is cfg
        with pytest.raises(TypeError):
            resolve_verify("yes")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            VerifyConfig(max_retries=-1)
        with pytest.raises(ValueError):
            VerifyConfig(rtol=0.0)
        with pytest.raises(ValueError):
            VerifyConfig(atol=-1.0)


class TestNumericFaultRule:
    def test_matching(self):
        rule = NumericFaultRule(block=2, strip="*")
        assert rule.matches(2, 0) and rule.matches(2, 7)
        assert not rule.matches(3, 0)
        assert NumericFaultRule().matches(5, 5)  # wildcard default

    def test_validation(self):
        with pytest.raises(ValueError):
            NumericFaultRule(kind="melt")
        with pytest.raises(ValueError):
            NumericFaultRule(times=0)
        with pytest.raises(ValueError):
            NumericFaultRule(block=-1)
        with pytest.raises(ValueError):
            NumericFaultPlan(rules=())

    def test_plan_from_json(self):
        plan = NumericFaultPlan.from_json(
            {"rules": [{"block": 0, "strip": 1, "kind": "zero"}]}
        )
        assert plan.rules[0].kind == "zero"
        plan = NumericFaultPlan.from_json([{"kind": "scale", "factor": 3.0}])
        assert plan.rules[0].factor == 3.0

    def test_corruption_kinds_change_panel(self):
        for kind in ("bitflip", "scale", "zero"):
            panel = np.full((4, 5), 1.5)
            injector = NumericFaultInjector(_plan(kind=kind))
            assert injector.corrupt(0, 0, panel)
            assert not np.array_equal(panel, np.full((4, 5), 1.5)), kind
            assert injector.fired == 1

    def test_times_budget_is_per_strip(self):
        injector = NumericFaultInjector(_plan(strip="*", times=1))
        p = np.ones((2, 2))
        assert injector.corrupt(0, 0, p.copy())
        assert injector.corrupt(0, 1, p.copy())  # different strip: own budget
        assert not injector.corrupt(0, 0, p.copy())  # exhausted
        assert injector.fired == 2

    def test_non_matching_strip_untouched(self):
        injector = NumericFaultInjector(_plan(block=3, strip=1))
        panel = np.ones((2, 2))
        assert not injector.corrupt(0, 0, panel)
        np.testing.assert_array_equal(panel, np.ones((2, 2)))

    def test_bitflip_rejects_non_float(self):
        injector = NumericFaultInjector(_plan(kind="bitflip"))
        with pytest.raises(ValueError, match="bitflip"):
            injector.corrupt(0, 0, np.ones((2, 2), dtype=np.complex128))


# -- clean-run bit-identity ---------------------------------------------------


class TestCleanBitIdentity:
    @pytest.mark.parametrize("engine_cls", ENGINES)
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_product_counters_and_walk_identical(
        self, machine, engine_cls, workers, rng
    ):
        a, b = _operands(rng)
        base = engine_cls(machine, workers=workers).multiply(a, b)
        run = engine_cls(machine, workers=workers, verify=True).multiply(a, b)
        assert np.array_equal(base.c, run.c)
        assert base.counters == run.counters
        assert base.time == run.time
        assert base.bound_blocks == run.bound_blocks
        assert run.verify is not None
        assert run.verify.blocks == run.verify.verified > 0
        assert run.verify.mismatches == 0

    @pytest.mark.parametrize("engine_cls", ENGINES)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_no_false_positives(self, intel, engine_cls, dtype, rng):
        # Large-ish accumulations in both dtypes must clear the tolerance
        # band without a single mismatch.
        a, b = _operands(rng, m=250, k=310, n=140, dtype=dtype)
        run = engine_cls(intel, workers=2, verify=True).multiply(a, b)
        assert run.verify.mismatches == 0
        expected = a @ b
        scale = float(np.abs(expected).max())
        rtol, atol_f = (1e-3, 1e-4) if dtype == np.float32 else (1e-10, 1e-12)
        np.testing.assert_allclose(
            run.c, expected, rtol=rtol, atol=atol_f * scale
        )

    def test_verify_timers_populated(self, intel, rng):
        a, b = _operands(rng)
        run = CakeGemm(intel, verify=True).multiply(a, b)
        assert run.phase_seconds["verify"] > 0
        assert run.phase_seconds["recover"] == 0.0

    def test_exact_paths_verified(self, intel, rng):
        # The register-tile walk, verified, keeps its own bits.
        a, b = _operands(rng, m=90, k=70, n=80)
        tiles = NumpyBackend(
            CakeGemm(intel).plan_for(90, 80, 70).kernel, exact_tiles=True
        )
        run = CakeGemm(intel, verify=True, backend=tiles).multiply(a, b)
        ref = CakeGemm(intel, backend=tiles).multiply(a, b)
        assert np.array_equal(run.c, ref.c)
        assert run.verify.mismatches == 0

    def test_checksum_traffic_reported_separately(self, intel, rng):
        a, b = _operands(rng)
        base = cake_matmul(a, b, machine=intel)
        run = cake_matmul(a, b, machine=intel, verify=True)
        # TrafficCounters stay bit-identical; the checksum surface rides
        # on the side-channel report.
        assert base.counters == run.counters
        assert base.dram_bytes == run.dram_bytes
        assert run.verify.checksum_elements > 0
        extra = run.dram_bytes_with_verify - run.dram_bytes
        assert extra > 0
        # Checksums are a vanishing fraction of operand traffic.
        assert extra < 0.05 * run.dram_bytes
        assert base.dram_bytes_with_verify == base.dram_bytes


# -- detection and recovery ---------------------------------------------------


class TestRecovery:
    @pytest.mark.parametrize("kind", ["bitflip", "scale", "zero"])
    @pytest.mark.parametrize("workers", [1, 3])
    def test_transient_fault_heals_by_retry(self, intel, kind, workers, rng):
        a, b = _operands(rng)
        ref = cake_matmul(a, b, machine=intel)
        cfg = VerifyConfig(inject=_plan(block=0, strip=0, kind=kind))
        run = cake_matmul(a, b, machine=intel, workers=workers, verify=cfg)
        assert np.array_equal(run.c, ref.c), kind
        assert run.verify.mismatches == 1
        assert run.verify.retry_recoveries == 1
        assert run.phase_seconds["recover"] > 0

    def test_persistent_fault_heals_by_oracle(self, intel, rng):
        a, b = _operands(rng)
        ref = cake_matmul(a, b, machine=intel)
        cfg = VerifyConfig(
            inject=_plan(block=0, strip="*", kind="zero", times=99),
            max_retries=2,
        )
        run = cake_matmul(a, b, machine=intel, workers=2, verify=cfg)
        assert np.array_equal(run.c, ref.c)
        assert run.verify.retries == 2
        assert run.verify.oracle_recoveries == 1

    def test_unrecoverable_fault_raises_with_coordinates(self, intel, rng):
        a, b = _operands(rng)
        cfg = VerifyConfig(
            inject=_plan(block=0, strip=0, kind="scale", times=99),
            max_retries=1,
            oracle_fallback=False,
        )
        with pytest.raises(NumericFaultError) as exc:
            cake_matmul(a, b, machine=intel, verify=cfg)
        err = exc.value
        assert err.coord == (0, 0, 0)
        assert err.identity in ("column", "row")
        assert err.residual > err.tolerance > 0
        assert "cake block" in str(err)

    def test_goto_detects_and_heals(self, intel, rng):
        a, b = _operands(rng)
        ref = goto_matmul(a, b, machine=intel)
        cfg = VerifyConfig(inject=_plan(block=0, strip=0, kind="scale"))
        run = goto_matmul(a, b, machine=intel, workers=2, verify=cfg)
        assert np.array_equal(run.c, ref.c)
        assert run.verify.retry_recoveries == 1

    def test_midschedule_block_fault(self, intel, rng):
        # Corrupt a block in the middle of a multi-block schedule: later
        # blocks accumulate on top of the healed panel, so the final C
        # only matches if recovery really completed inside the barrier.
        a, b = _operands(rng, m=700, k=600, n=500)
        ref = cake_matmul(a, b, machine=intel)
        cfg = VerifyConfig(inject=_plan(block=2, strip=1, kind="bitflip"))
        run = cake_matmul(a, b, machine=intel, workers=2, verify=cfg)
        assert run.verify.blocks > 3  # genuinely multi-block
        assert np.array_equal(run.c, ref.c)
        assert run.verify.mismatches == 1

    def test_nan_producing_corruption_detected(self, intel, rng):
        # Scaling by inf floods the panel with inf/NaN; the comparison
        # polarity must treat non-finite residuals as mismatches.
        a, b = _operands(rng, m=90, k=70, n=80)
        ref = cake_matmul(a, b, machine=intel)
        cfg = VerifyConfig(inject=_plan(kind="scale", factor=float("inf")))
        run = cake_matmul(a, b, machine=intel, verify=cfg)
        assert np.array_equal(run.c, ref.c)
        assert run.verify.mismatches >= 1

    def test_disabled_verify_is_silently_wrong(self, intel, rng):
        # The control case: same corruption, verification off — proves
        # the detection is what stands between a fault and a wrong C.
        a, b = _operands(rng)
        ref = cake_matmul(a, b, machine=intel)
        cfg = VerifyConfig(enabled=False, inject=_plan(kind="zero", times=99))
        run = cake_matmul(a, b, machine=intel, verify=cfg)
        assert not np.array_equal(run.c, ref.c)
        assert run.verify is None

    def test_last_group_of_a_descending_k_run_heals(self, intel, rng):
        # K-first walks every other reduction run from the last K panel
        # down, so the ki=0 group is the panel's last update, not its
        # first. Restoring it must bring back the earlier groups' partial
        # sums; a non-replayable backend can only do that from a
        # snapshot. cores=2 gives a 2x2x3 block grid whose block
        # (mi=1, ni=0) runs ki = 2, 1, 0: schedule positions 3, 4, 5.
        a, b = _operands(rng, m=600, k=700, n=840)
        ref = CakeGemm(intel, cores=2, backend="blas-group").multiply(a, b)
        cfg = VerifyConfig(inject=_plan(block=5, strip=0, kind="scale"))
        run = CakeGemm(
            intel, cores=2, backend="blas-group", verify=cfg
        ).multiply(a, b)
        assert np.array_equal(run.c, ref.c)
        assert run.verify.retry_recoveries == 1

    def test_recovery_deterministic_across_worker_counts(self, intel, rng):
        a, b = _operands(rng, m=400, k=300, n=350)
        cfg = VerifyConfig(inject=_plan(block=1, strip="*", kind="zero"))
        runs = [
            cake_matmul(a, b, machine=intel, workers=w, verify=cfg)
            for w in (1, 2, 4)
        ]
        for run in runs[1:]:
            assert np.array_equal(runs[0].c, run.c)
            assert runs[0].verify.as_dict() == run.verify.as_dict()


# -- verifier unit behavior ---------------------------------------------------


_KERNEL = MicroKernel(mr=4, nr=4, kc=9)
_ORACLE = NumpyBackend(_KERNEL)


class TestGroupVerifierUnit:
    def _group(self, rng, m=12, k=9, n=10):
        """A fresh group with every field ``build_groups`` supplies."""
        a = rng.standard_normal((m, k))
        b = rng.standard_normal((k, n))
        c = np.zeros((m, n))
        half = m // 2
        tasks = [
            StripTask(a[:half], b, c[:half]),
            StripTask(a[half:], b, c[half:]),
        ]
        abs_a, abs_b = np.abs(a), np.abs(b)
        group = StripGroup(
            tasks=tasks,
            panel=c,
            operand_a=a,
            index=0,
            coord=(0, 0, 0),
            label="unit block",
            checksum_a=a.sum(axis=0),
            checksum_b=b.sum(axis=1),
            fresh_panel=True,
            mag_a=(abs_a.sum(axis=0), abs_a.sum(axis=1)),
            mag_b=(abs_b.sum(axis=0), abs_b.sum(axis=1)),
        )
        return group, a, b, c

    def _verifier(self, **cfg_kw):
        report = VerifyReport()
        return (
            GroupVerifier(
                VerifyConfig(**cfg_kw), report, PhaseTimers(), _KERNEL
            ),
            report,
        )

    def test_clean_group_verifies(self, rng):
        group, a, b, c = self._group(rng)
        verifier, report = self._verifier()
        snaps = verifier.snapshot(group, _ORACLE)
        for task in group.tasks:
            _KERNEL.panel_matmul(task.a, task.b, task.c)
        verifier.check_and_recover(group, snaps, None, _ORACLE)
        assert report.verified == 1 and report.mismatches == 0
        np.testing.assert_allclose(c, a @ b)

    def test_row_identity_localizes_strip(self, rng):
        group, a, b, c = self._group(rng)
        verifier, report = self._verifier(
            max_retries=0, oracle_fallback=False
        )
        snaps = verifier.snapshot(group, _ORACLE)
        for task in group.tasks:
            _KERNEL.panel_matmul(task.a, task.b, task.c)
        # Corrupt one row of strip 1 only: the column identity (summed
        # over all rows) sees it, but so does the per-strip row identity,
        # which pins the strip — whichever fires first must report.
        group.tasks[1].c[0, :] += 7.0
        # A same-column +7/-7 pair cancels in the column sums, leaving
        # only the row identity to catch it.
        group.tasks[1].c[1, :] -= 7.0
        with pytest.raises(NumericFaultError) as exc:
            verifier.check_and_recover(group, snaps, None, _ORACLE)
        assert exc.value.identity == "row"
        assert exc.value.strip == 1

    def test_unverified_group_skipped(self, rng):
        a, c = rng.standard_normal((4, 3)), np.zeros((4, 5))
        group = StripGroup(
            tasks=[StripTask(a, rng.standard_normal((3, 5)), c)],
            panel=c,
            operand_a=a,
        )
        verifier, report = self._verifier()
        assert verifier.snapshot(group, _ORACLE) is None
        verifier.check_and_recover(group, None, None, _ORACLE)
        assert report.blocks == 0

    def test_report_checksum_bytes(self):
        report = VerifyReport(checksum_elements=100)
        assert report.checksum_bytes(8) == 1600  # written + read back
        assert set(report.as_dict()) == {
            "blocks", "verified", "mismatches", "retries",
            "retry_recoveries", "oracle_recoveries", "checksum_elements",
        }


# -- the hypothesis sweep (satellite): never silently wrong -------------------


@settings(max_examples=25)
@given(
    m=st.integers(40, 220),
    k=st.integers(30, 200),
    n=st.integers(40, 220),
    block=st.integers(0, 5),
    strip=st.integers(0, 3),
    kind=st.sampled_from(["bitflip", "scale", "zero"]),
    times=st.integers(1, 4),
    workers=st.sampled_from([1, 2]),
    engine_idx=st.integers(0, 1),
    seed=st.integers(0, 2**32 - 1),
)
def test_every_injected_fault_heals_or_raises(
    m, k, n, block, strip, kind, times, workers, engine_idx, seed
):
    """Acceptance sweep: corrupted runs are never silently wrong.

    For arbitrary shapes and an arbitrary (block, strip, kind, times)
    corruption, a verified run must either produce the bit-identical
    clean serial product or raise NumericFaultError — with default
    settings the ladder (2 retries + oracle) heals everything, including
    budgets that outlast the retries, so a raise only happens when
    recovery is configured away.
    """
    from repro.machines import intel_i9_10900k

    machine = intel_i9_10900k()
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, k))
    b = rng.standard_normal((k, n))
    engine_cls = ENGINES[engine_idx]

    ref = engine_cls(machine).multiply(a, b)
    cfg = VerifyConfig(
        inject=_plan(block=block, strip=strip, kind=kind, times=times)
    )
    run = engine_cls(machine, workers=workers, verify=cfg).multiply(a, b)
    assert np.array_equal(run.c, ref.c)
    injector_hit = run.verify.mismatches > 0
    healed = run.verify.retry_recoveries + run.verify.oracle_recoveries
    assert healed == run.verify.mismatches
    # When the (block, strip) target exists in this schedule, the
    # corruption must actually have been seen.
    if block == 0 and strip == 0:
        assert injector_hit


@settings(max_examples=15)
@given(
    kind=st.sampled_from(["bitflip", "scale", "zero"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_no_recovery_budget_raises_not_corrupts(kind, seed):
    """With retries and the oracle both off, detection must still win:
    a raise, never a silently-wrong product."""
    from repro.machines import intel_i9_10900k

    machine = intel_i9_10900k()
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((100, 80))
    b = rng.standard_normal((80, 90))
    cfg = VerifyConfig(
        inject=_plan(block=0, strip=0, kind=kind, times=99),
        max_retries=0,
        oracle_fallback=False,
    )
    with pytest.raises(NumericFaultError):
        CakeGemm(machine, verify=cfg).multiply(a, b)
