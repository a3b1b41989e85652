"""The tuner pipeline end to end: search, validate, persist, amortize."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.gemm.cake import CakeGemm
from repro.gemm.goto import GotoGemm
from repro.machines import amd_ryzen_9_5950x
from repro.tune import PlanTuner, TuneConfig, TuneKey
from repro.tune import tuner as tuner_module


def key(**overrides) -> TuneKey:
    fields = dict(
        engine="cake", m=96, n=128, k=160, dtype="<f4",
        machine="Intel i9-10900K", cores=None, backend="numpy", processes=1,
    )
    fields.update(overrides)
    return TuneKey(**fields)


@pytest.fixture
def tuner(intel, tmp_path) -> PlanTuner:
    return PlanTuner(
        intel, TuneConfig(cache_root=tmp_path, repeats=1, top_k=2)
    )


class TestSearch:
    def test_cold_key_searches_and_persists(self, tuner):
        result = tuner.tune(key())
        assert result.source == "search"
        assert result.validated
        assert result.analytic_seconds is not None
        assert len(tuner.cache) == 1
        # Evidence rows exist for both pipeline stages.
        assert any(c.modeled_seconds is not None for c in result.candidates)
        assert any(c.timed_seconds is not None for c in result.candidates)

    def test_second_resolution_is_cache_hit_skipping_search(self, tuner):
        first = tuner.tune(key())
        second = tuner.tune(key())
        assert second.source == "cache"
        assert second.override == first.override
        # The hit deserializes the stored row — no candidates re-timed.
        assert second.candidates == ()

    def test_winner_is_bit_identical_on_fresh_operands(self, tuner, intel, rng):
        """The validated winner must stay bit-identical on operands the
        tuner never saw (bit-identity is shape-, not value-, dependent)."""
        result = tuner.tune(key())
        a = rng.standard_normal((96, 160)).astype(np.float32)
        b = rng.standard_normal((160, 128)).astype(np.float32)
        base = CakeGemm(intel, tuned=False).multiply(a, b)
        run = CakeGemm(
            intel, plan=result.override, tuned=False
        ).multiply(a, b)
        assert np.array_equal(run.c, base.c)

    def test_every_validated_candidate_reports_exactness(self, tuner):
        result = tuner.tune(key())
        timed = [c for c in result.candidates if c.timed_seconds is not None]
        assert timed, "no candidates reached timed validation"
        assert all(c.exact is not None for c in timed)

    def test_inexact_candidates_never_win(self, tuner):
        result = tuner.tune(key())
        if result.override is not None:
            winner = result.override.as_dict()
            rejected = [
                c.override
                for c in result.candidates
                if c.exact is False
            ]
            assert winner not in rejected

    def test_goto_key_tunes_through_goto_engine(self, tuner, intel, rng):
        result = tuner.tune(key(engine="goto"))
        assert result.source == "search"
        a = rng.standard_normal((96, 160)).astype(np.float32)
        b = rng.standard_normal((160, 128)).astype(np.float32)
        base = GotoGemm(intel, tuned=False).multiply(a, b)
        run = GotoGemm(
            intel, plan=result.override, tuned=False
        ).multiply(a, b)
        assert np.array_equal(run.c, base.c)


class TestGuards:
    def test_machine_mismatch_rejected(self, tuner):
        with pytest.raises(ConfigurationError, match="machine"):
            tuner.tune(key(machine=amd_ryzen_9_5950x().name))

    def test_unreasonable_surface_stores_unvalidated_marker(
        self, intel, tmp_path
    ):
        """Beyond the operand-synthesis budget the analytic plan is kept
        (and persisted) rather than allocating huge throwaway matrices."""
        tuner = PlanTuner(
            intel,
            TuneConfig(cache_root=tmp_path, max_surface_elements=1000),
        )
        result = tuner.tune(key())
        assert result.override is None
        assert not result.validated
        hit = tuner.tune(key())
        assert hit.source == "cache" and not hit.validated

    def test_min_speedup_bar_keeps_analytic_plan(self, intel, tmp_path):
        """An unreachable adoption bar means every key resolves to the
        analytic marker — tuning can only ever opt in to faster plans."""
        tuner = PlanTuner(
            intel,
            TuneConfig(cache_root=tmp_path, repeats=1, min_speedup=1e9),
        )
        result = tuner.tune(key())
        assert result.override is None
        assert result.tuned_seconds == result.analytic_seconds

    def test_use_cache_false_re_searches(self, intel, tmp_path):
        tuner = PlanTuner(
            intel, TuneConfig(cache_root=tmp_path, repeats=1, use_cache=False)
        )
        assert tuner.tune(key()).source == "search"
        assert tuner.tune(key()).source == "search"


class TestTunedEngines:
    def test_tuned_true_resolves_from_cache(self, tuner, intel, tmp_path, rng):
        seeded = tuner.tune(key())
        tuner_module._RESOLVED.clear()  # forget in-process resolutions
        config = TuneConfig(cache_root=tmp_path, repeats=1, top_k=2)
        a = rng.standard_normal((96, 160)).astype(np.float32)
        b = rng.standard_normal((160, 128)).astype(np.float32)
        base = CakeGemm(intel, tuned=False).multiply(a, b)
        run = CakeGemm(intel, tuned=config).multiply(a, b)
        assert np.array_equal(run.c, base.c)
        if seeded.override is not None:
            assert run.plan_summary["override"] == seeded.override.as_dict()

    def test_budgeted_worker_count_is_never_timed_twice(
        self, intel, tmp_path, monkeypatch
    ):
        """A workers variant equal to the core budget's own resolution is
        the workers=None variant again, so the tuner skips it."""
        from repro.gemm import budget
        from repro.gemm.plan import PlanOverride

        monkeypatch.setattr(budget, "usable_cores", lambda: 2)
        tuner = PlanTuner(
            intel, TuneConfig(cache_root=tmp_path, repeats=1, top_k=2)
        )
        result = tuner.tune(key(m=384, n=384, k=384, dtype="<f8"))
        timed = [c.override for c in result.candidates if c.timed_seconds]
        assert timed
        for override in timed:
            if override["workers"] is None:
                continue
            default = CakeGemm(
                intel, plan=PlanOverride(**{**override, "workers": None}),
                tuned=False,
            ).workers_for(384, 384, 384)
            assert override["workers"] != default, override
