"""Numeric fault injector: the worker-process guard and the kill rule."""

import pytest

from repro.runtime.faults import in_worker_process


class TestInlineSafety:
    """kill/hang only physically fire in pool workers."""

    def test_not_in_worker_process_here(self):
        assert not in_worker_process()


class TestNumericKillRule:
    """The 'kill' numeric kind: shard-worker crashes, inert elsewhere."""

    def _injector(self, state_dir=None, **rule_kw):
        import numpy as np

        from repro.runtime.faults import (
            NumericFaultInjector,
            NumericFaultPlan,
            NumericFaultRule,
        )

        plan = NumericFaultPlan(
            rules=(NumericFaultRule(kind="kill", **rule_kw),),
            state_dir=state_dir,
        )
        return NumericFaultInjector(plan), np.ones((4, 4))

    def test_kill_is_a_valid_numeric_kind(self):
        from repro.runtime.faults import NumericFaultRule

        NumericFaultRule(kind="kill")  # no raise
        with pytest.raises(ValueError, match="unknown numeric fault kind"):
            NumericFaultRule(kind="explode")

    def test_inert_and_budget_free_outside_workers(self, tmp_path):
        # Inline (orchestrator / inline-fallback) execution: a kill rule
        # neither fires nor consumes its budget — the count files a
        # shared state_dir would propagate to real workers stay absent.
        assert not in_worker_process()
        injector, panel = self._injector(state_dir=str(tmp_path), times=1)
        for _ in range(3):
            assert injector.corrupt(0, 0, panel) is False
        assert injector.fired == 0
        assert (panel == 1.0).all()
        assert not list(tmp_path.glob("numeric.*"))

    def test_numeric_state_dir_persists_across_instances(self, tmp_path):
        import numpy as np

        from repro.runtime.faults import (
            NumericFaultInjector,
            NumericFaultPlan,
            NumericFaultRule,
        )

        plan = NumericFaultPlan(
            rules=(NumericFaultRule(kind="scale", factor=2.0, times=1),),
            state_dir=str(tmp_path),
        )
        panel = np.ones((2, 2))
        assert NumericFaultInjector(plan).corrupt(0, 0, panel) is True
        assert (panel == 2.0).all()
        # A fresh injector (think: rebuilt shard worker) sees the spent
        # budget on disk and does not re-corrupt.
        assert NumericFaultInjector(plan).corrupt(0, 0, panel) is False
        assert (panel == 2.0).all()

    def test_numeric_plan_json_carries_state_dir(self):
        from repro.runtime.faults import NumericFaultPlan

        plan = NumericFaultPlan.from_json(
            {
                "state_dir": "/tmp/nf",
                "rules": [{"block": 0, "strip": "*", "kind": "kill"}],
            }
        )
        assert plan.state_dir == "/tmp/nf"
        assert plan.rules[0].kind == "kill"

    def test_numeric_plan_is_picklable(self):
        import pickle

        from repro.runtime.faults import NumericFaultPlan, NumericFaultRule

        plan = NumericFaultPlan(
            rules=(NumericFaultRule(kind="kill"),), state_dir="/tmp/nf"
        )
        assert pickle.loads(pickle.dumps(plan)) == plan
