"""The autotuner's plan seam: PlanOverride, bounded memos, engine wiring.

The seam has three contracts this file pins down:

* :class:`~repro.gemm.plan.PlanOverride` is a validated, round-trippable
  value object — bad fields fail at construction, serialization rejects
  unknown keys (a future tuner's rows must not silently half-apply);
* the plan memos are **bounded** (``PLAN_MEMO_MAXSIZE``) ``lru_cache``
  objects, so a server sweeping many shapes cannot grow them without
  limit;
* an override changes exactly the fields it names — and the engines'
  ``plan=`` path stays bit-identical to the analytic plan for every
  reduction-order-preserving override (the tuner's whole premise).
"""

import dataclasses

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.gemm.cake import CakeGemm
from repro.gemm.goto import GotoGemm
from repro.gemm.plan import (
    PLAN_MEMO_MAXSIZE,
    CakePlan,
    GotoPlan,
    PlanOverride,
    _cake_plan,
    _goto_plan,
    clear_plan_memos,
)
from repro.schedule.space import ComputationSpace

SPACE = ComputationSpace(600, 840, 340)


class TestPlanOverrideValue:
    def test_round_trip(self):
        override = PlanOverride(alpha=2.0, mc=96, strips=1, schedule="naive")
        assert PlanOverride.from_dict(override.as_dict()) == override

    def test_as_dict_carries_every_field(self):
        assert set(PlanOverride().as_dict()) == {
            "alpha", "mc", "kc", "nc", "strips", "workers", "schedule",
        }

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown"):
            PlanOverride.from_dict({"mc": 96, "tile": 8})

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha": 0.0},
            {"alpha": -1.0},
            {"alpha": 1e9},
            {"mc": 0},
            {"kc": -4},
            {"strips": 0},
            {"workers": 0},
            {"schedule": "zigzag"},
        ],
    )
    def test_invalid_fields_fail_at_construction(self, kwargs):
        with pytest.raises(ConfigurationError):
            PlanOverride(**kwargs)


class TestOverriddenDerivation:
    def test_mc_kc_replaced_others_kept(self, intel):
        base = CakePlan.from_problem(intel, SPACE)
        plan = CakePlan.from_problem(
            intel, SPACE, override=PlanOverride(mc=base.mc * 2, kc=base.kc)
        )
        assert plan.mc == base.mc * 2
        assert plan.kc == base.kc
        assert plan.alpha == base.alpha

    def test_alpha_override_redirects_derivation(self, intel):
        base = CakePlan.from_problem(intel, SPACE)
        plan = CakePlan.from_problem(
            intel, SPACE, override=PlanOverride(alpha=4.0)
        )
        assert plan.alpha == 4.0
        assert plan == CakePlan.from_problem(intel, SPACE, alpha=4.0)
        assert plan != base

    def test_execution_only_override_keeps_plan(self, intel):
        base = CakePlan.from_problem(intel, SPACE)
        plan = CakePlan.from_problem(
            intel, SPACE, override=PlanOverride(strips=1, schedule="naive")
        )
        assert (plan.alpha, plan.mc, plan.kc) == (
            base.alpha, base.mc, base.kc,
        )

    def test_goto_override_replaces_named_tiles(self, intel):
        base = GotoPlan.from_problem(intel, SPACE)
        plan = GotoPlan.from_problem(
            intel, SPACE, override=PlanOverride(mc=base.mc // 2)
        )
        assert plan.mc == base.mc // 2
        assert (plan.kc, plan.nc) == (base.kc, base.nc)


class TestBoundedMemo:
    def test_memos_are_bounded_and_observable(self, intel):
        clear_plan_memos()
        assert _cake_plan.cache_info().maxsize == PLAN_MEMO_MAXSIZE
        assert _goto_plan.cache_info().maxsize == PLAN_MEMO_MAXSIZE
        assert _cake_plan.cache_info().currsize == 0

        CakePlan.from_problem(intel, SPACE)
        CakePlan.from_problem(intel, SPACE)
        info = _cake_plan.cache_info()
        assert info.currsize >= 1
        assert info.hits >= 1

    def test_memo_never_exceeds_maxsize(self, intel):
        """Distinct keys beyond the bound evict instead of growing."""
        clear_plan_memos()
        for m in range(64, 64 + 40):
            CakePlan.from_problem(intel, ComputationSpace(m, 64, 64))
        assert _cake_plan.cache_info().currsize <= PLAN_MEMO_MAXSIZE


class TestEngineSeam:
    @pytest.fixture
    def operands(self, rng):
        a = rng.standard_normal((96, 170)).astype(np.float32)
        b = rng.standard_normal((170, 120)).astype(np.float32)
        return a, b

    @pytest.mark.parametrize(
        "override",
        [
            PlanOverride(schedule="naive"),
            PlanOverride(workers=2),
        ],
        ids=["naive", "workers"],
    )
    def test_order_preserving_overrides_bit_identical(
        self, intel, operands, override
    ):
        """Reduction-complete schedule variants and worker counts keep
        every C element's accumulation order — bit-identical always."""
        a, b = operands
        base = CakeGemm(intel, tuned=False).multiply(a, b)
        run = CakeGemm(intel, plan=override).multiply(a, b)
        assert np.array_equal(run.c, base.c)
        assert run.counters == base.counters

    def test_strips_override_keeps_modelled_accounting(self, intel, operands):
        """``strips`` is a host-granularity knob: counters and modelled
        time still price the analytic core count. It is NOT bit-safe by
        construction (a different per-strip matmul shape may take a
        different BLAS kernel path), which is exactly why the tuner
        validates every strips candidate on the real shape and rejects
        any drift — see tests/tune/test_tuner.py."""
        a, b = operands
        base = CakeGemm(intel, tuned=False).multiply(a, b)
        run = CakeGemm(intel, plan=PlanOverride(strips=1)).multiply(a, b)
        assert run.counters == base.counters
        assert run.seconds == base.seconds
        np.testing.assert_allclose(run.c, base.c, rtol=1e-5, atol=1e-4)

    def test_mn_reblocking_bit_identical(self, intel, operands):
        """M/N re-blocking with kc pinned preserves each C element's
        reduction order, hence every bit."""
        a, b = operands
        base_plan = CakeGemm(intel).plan_for(96, 120, 170)
        base = CakeGemm(intel, tuned=False).multiply(a, b)
        run = CakeGemm(
            intel,
            plan=PlanOverride(mc=base_plan.mc * 2, kc=base_plan.kc),
        ).multiply(a, b)
        assert np.array_equal(run.c, base.c)

    def test_goto_plan_override_bit_identical(self, intel, operands):
        a, b = operands
        base_plan = GotoGemm(intel).plan_for(96, 120, 170)
        base = GotoGemm(intel, tuned=False).multiply(a, b)
        run = GotoGemm(
            intel,
            plan=PlanOverride(mc=base_plan.mc * 2, kc=base_plan.kc),
        ).multiply(a, b)
        assert np.array_equal(run.c, base.c)

    def test_override_recorded_in_plan_summary(self, intel, operands):
        a, b = operands
        run = CakeGemm(intel, plan=PlanOverride(strips=1)).multiply(a, b)
        assert run.plan_summary["override"]["strips"] == 1
        base = CakeGemm(intel, tuned=False).multiply(a, b)
        assert "override" not in base.plan_summary

    def test_explicit_workers_outrank_override(self, intel, operands):
        a, b = operands
        run = CakeGemm(
            intel, workers=1, plan=PlanOverride(workers=4)
        ).multiply(a, b)
        assert run.workers == 1

    def test_plan_and_tuned_mutually_exclusive(self, intel):
        with pytest.raises(ConfigurationError, match="mutually exclusive"):
            CakeGemm(intel, plan=PlanOverride(strips=1), tuned=True)
        with pytest.raises(ConfigurationError, match="mutually exclusive"):
            GotoGemm(intel, plan=PlanOverride(mc=64), tuned=True)

    def test_analyze_prices_the_overridden_plan(self, intel):
        base = CakeGemm(intel, tuned=False).analyze(600, 840, 340)
        tuned = CakeGemm(
            intel, plan=PlanOverride(alpha=4.0)
        ).analyze(600, 840, 340)
        assert tuned.plan_summary["alpha"] == 4.0
        assert tuned.counters != base.counters
