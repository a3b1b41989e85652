"""Differential test over the engines' execution configuration space.

Threads, processes, verification, the plan override's execution
fields and serving are execution details: for a fixed engine, backend
and override, every combination must return the bits of the serial,
unverified, single-process run, and the same schedule-derived counters.
Hypothesis draws the cells on prime and ragged shapes with ``cores=1``,
so plans have several blocks (CAKE) or ``mc`` strips (GOTO) to shard and
thread over, or ``cores=4``, whose CAKE blocks are four per-core strips
the shard grid may cut between. A served cell goes through one
in-process two-executor ``MultiplyServer`` (analytic plan, one process),
submitted from two threads at once; the fleet's bit-identity is covered
by ``tests/serve/test_fleet.py``.
"""

from __future__ import annotations

import threading

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.gemm import CakeGemm, GotoGemm
from repro.gemm.plan import PlanOverride
from repro.machines import intel_i9_10900k
from repro.serve import MultiplyServer

ENGINES = {"cake": CakeGemm, "goto": GotoGemm}
OVERRIDES = {
    "none": None,
    "naive": PlanOverride(schedule="naive"),
    "strips=1": PlanOverride(strips=1),
}


# One cell in four is served: 40 examples keep about 30 engine-level cells.
@settings(max_examples=40)
@given(
    engine=st.sampled_from(sorted(ENGINES)),
    cores=st.sampled_from([1, 4]),
    backend=st.sampled_from(["numpy", "blas-group"]),
    workers=st.sampled_from([1, 2]),
    processes=st.sampled_from([1, 2]),
    verify=st.booleans(),
    served=st.sampled_from([False, False, False, True]),
    override=st.sampled_from(sorted(OVERRIDES)),
    m=st.sampled_from([7, 61, 211, 307, 449, 503]),
    n=st.sampled_from([5, 97, 211, 401, 457]),
    k=st.sampled_from([3, 131, 257, 509]),
    seed=st.integers(0, 2**16),
)
def test_every_cell_matches_its_serial_run(
    engine, cores, backend, workers, processes, verify, served, override, m,
    n, k, seed,
):
    if served:
        # The server plans analytically and executes in-process here.
        override, processes = "none", 1
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, k))
    b = rng.standard_normal((k, n))
    machine = intel_i9_10900k()
    common = {"cores": cores, "backend": backend, "plan": OVERRIDES[override]}
    serial = ENGINES[engine](machine, **common).multiply(a, b)
    if served:
        handles = []
        with MultiplyServer(machine, cores=cores, executors=2) as server:
            together = threading.Barrier(2)

            def client():
                together.wait(timeout=60.0)
                handles.append(server.submit(
                    a, b, engine=engine, backend=backend, workers=workers,
                    verify=verify,
                ))

            clients = [threading.Thread(target=client) for _ in range(2)]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(timeout=60.0)
            runs = [handle.result(timeout=120.0) for handle in handles]
        assert len(runs) == 2
        for handle in handles:
            assert handle.report.attempts == 1
            assert handle.report.degradations == []
    else:
        runs = [ENGINES[engine](
            machine,
            workers=workers,
            processes=processes,
            verify=verify,
            **common,
        ).multiply(a, b)]
    for run in runs:
        assert np.array_equal(run.c, serial.c)
        assert run.counters.without_ipc() == serial.counters
        assert run.time == serial.time
        if verify:
            assert run.verify is not None and run.verify.mismatches == 0
