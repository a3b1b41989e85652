"""Differential test over the engines' execution configuration space.

Threads, processes, verification and the plan override's execution
fields are execution details: for a fixed engine, backend and override,
every combination must return the bits of the serial, unverified,
single-process run, and the same schedule-derived counters. Hypothesis
draws the cells on prime and ragged shapes with ``cores=1``, so plans
have several blocks (CAKE) or ``mc`` strips (GOTO) to shard and thread
over. The serve and fleet layers are out of scope here.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.gemm import CakeGemm, GotoGemm
from repro.gemm.plan import PlanOverride
from repro.machines import intel_i9_10900k

ENGINES = {"cake": CakeGemm, "goto": GotoGemm}
OVERRIDES = {
    "none": None,
    "naive": PlanOverride(schedule="naive"),
    "strips=1": PlanOverride(strips=1),
}


@settings(max_examples=25)
@given(
    engine=st.sampled_from(sorted(ENGINES)),
    backend=st.sampled_from(["numpy", "blas-group"]),
    workers=st.sampled_from([1, 2]),
    processes=st.sampled_from([1, 2]),
    verify=st.booleans(),
    override=st.sampled_from(sorted(OVERRIDES)),
    m=st.sampled_from([7, 61, 211, 307, 449, 503]),
    n=st.sampled_from([5, 97, 211, 401, 457]),
    k=st.sampled_from([3, 131, 257, 509]),
    seed=st.integers(0, 2**16),
)
def test_every_cell_matches_its_serial_run(
    engine, backend, workers, processes, verify, override, m, n, k, seed
):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, k))
    b = rng.standard_normal((k, n))
    machine = intel_i9_10900k()
    common = {"cores": 1, "backend": backend, "plan": OVERRIDES[override]}
    serial = ENGINES[engine](machine, **common).multiply(a, b)
    run = ENGINES[engine](
        machine,
        workers=workers,
        processes=processes,
        verify=verify,
        **common,
    ).multiply(a, b)
    assert np.array_equal(run.c, serial.c)
    assert run.counters.without_ipc() == serial.counters
    assert run.time == serial.time
    if verify:
        assert run.verify is not None and run.verify.mismatches == 0
