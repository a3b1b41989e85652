"""TuneKey identity and the shape of the candidate grid."""

import pytest

from repro.errors import ConfigurationError
from repro.gemm.plan import CakePlan, GotoPlan, PlanOverride
from repro.schedule.space import ComputationSpace
from repro.tune.space import (
    SCHEDULE_CANDIDATES,
    TuneKey,
    execution_variants,
    plan_shape_candidates,
)


def key(**overrides) -> TuneKey:
    fields = dict(
        engine="cake", m=256, n=256, k=256, dtype="<f4",
        machine="Intel i9-10900K", cores=None, backend="numpy", processes=1,
    )
    fields.update(overrides)
    return TuneKey(**fields)


class TestTuneKey:
    def test_key_id_is_content_hash(self):
        assert key().key_id == key().key_id
        assert key().key_id != key(m=512).key_id
        assert key().key_id != key(backend="blas-group").key_id
        assert key().key_id != key(engine="goto").key_id
        assert key().key_id != key(processes=2).key_id

    def test_round_trips_through_as_dict(self):
        assert TuneKey(**key().as_dict()) == key()

    def test_describe_is_compact(self):
        assert key().describe() == "cake:256x256x256:f4:numpy"
        assert key(processes=4).describe().endswith(":p4")

    @pytest.mark.parametrize(
        "overrides",
        [{"engine": "mkl"}, {"m": 0}, {"k": -1}, {"processes": 0}],
    )
    def test_invalid_keys_rejected(self, overrides):
        with pytest.raises(ConfigurationError):
            key(**overrides)


class TestCandidateGrid:
    def test_identity_leads_and_kc_is_pinned(self, intel):
        base = CakePlan.from_problem(intel, ComputationSpace(256, 256, 256))
        candidates = plan_shape_candidates("cake", base)
        assert candidates[0] == PlanOverride()
        for candidate in candidates[1:]:
            # The bit-safety invariant: no candidate re-blocks K away
            # from the analytic value.
            assert candidate.kc == base.kc
            if candidate.schedule is not None:
                assert candidate.schedule in SCHEDULE_CANDIDATES

    def test_no_spilling_schedules_in_the_space(self, intel):
        base = CakePlan.from_problem(intel, ComputationSpace(256, 256, 256))
        schedules = {
            c.schedule for c in plan_shape_candidates("cake", base)
        }
        assert schedules <= {None, "naive"}

    def test_candidates_are_unique(self, intel):
        base = CakePlan.from_problem(intel, ComputationSpace(256, 256, 256))
        candidates = plan_shape_candidates("cake", base)
        assert len({tuple(sorted(c.as_dict().items())) for c in candidates}) \
            == len(candidates)

    def test_goto_grid_scales_named_tiles_only(self, intel):
        base = GotoPlan.from_problem(intel, ComputationSpace(256, 256, 256))
        candidates = plan_shape_candidates("goto", base)
        assert candidates[0] == PlanOverride()
        for candidate in candidates[1:]:
            assert candidate.kc == base.kc
            assert candidate.schedule is None
            assert candidate.strips is None

    def test_execution_variants_never_rank_in_the_model(self):
        """Every variant is a (strips, workers) pair — plan-shape fields
        stay out of the execution cross."""
        for strips, workers in execution_variants("cake"):
            assert strips is None or strips >= 1
            assert workers is None or workers >= 1
        # GOTO has no strips knob (granularity is its mc split).
        assert all(s is None for s, _ in execution_variants("goto"))

    def test_execution_variants_read_the_usable_cores(self, monkeypatch):
        """Affinity, not os.cpu_count(), decides the threaded variant."""
        from repro.gemm import budget

        monkeypatch.setattr(budget, "usable_cores", lambda: 1)
        assert execution_variants("cake") == [(None, None), (1, None)]
        monkeypatch.setattr(budget, "usable_cores", lambda: 3)
        assert (3, 3) in execution_variants("cake")
        assert (None, 3) in execution_variants("goto")
