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
submitted from two threads at once. A fleet cell goes through one
two-worker ``FleetServer``, the one path where operands cross a pickle
before an engine reads them in place, with C- or F-ordered operands. A
cell on a backend without a bit-identity promise against the numpy
oracle also checks its serial run against the oracle's, within the
backend's declared ``agreement_band``.

The tuned axis: a plan override resolved through the tune cache gives
the analytic serial bits directly, sharded and served.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.gemm import CakeGemm, GotoGemm
from repro.gemm.plan import PlanOverride
from repro.machines import intel_i9_10900k
from repro.serve import FleetServer, MultiplyServer
from repro.tune import TuneConfig

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
    serial_engine = ENGINES[engine](machine, **common)
    serial = serial_engine.multiply(a, b)
    if backend != "numpy":
        # No bit-identity promise against the oracle: the backend's own
        # declared band, scaled by |A|.|B| as the conformance suite does.
        oracle = ENGINES[engine](
            machine, **{**common, "backend": "numpy"}
        ).multiply(a, b)
        declared = serial_engine.backend.create(
            kernel=serial_engine.plan_for(m, n, k).kernel
        ).agreement_band(a.dtype, k)
        worst = float(np.abs(serial.c - oracle.c).max())
        assert worst <= declared * float((np.abs(a) @ np.abs(b)).max())
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


# -- the fleet axis ----------------------------------------------------------

#: The fleet's modelled cores: four per-core strips per CAKE block.
FLEET_CORES = 4


@pytest.fixture(scope="module")
def fleet():
    server = FleetServer(
        intel_i9_10900k(), workers=2, cores=FLEET_CORES, startup_timeout=120.0
    )
    server.start()
    try:
        deadline = time.monotonic() + 120.0
        while len(server.supervisor.ready_indices()) < 2:
            assert time.monotonic() < deadline, "fleet workers never became ready"
            time.sleep(0.05)
        yield server
    finally:
        server.stop(drain=False)


# The fleet has no tune= option, so the tuned axis stays out of this cell.
@settings(max_examples=12, deadline=None)
@given(
    engine=st.sampled_from(sorted(ENGINES)),
    backend=st.sampled_from(["numpy", "blas-group"]),
    workers=st.sampled_from([1, 2]),
    verify=st.booleans(),
    order=st.sampled_from("CF"),
    m=st.sampled_from([7, 61, 211, 449]),
    n=st.sampled_from([5, 97, 211, 457]),
    k=st.sampled_from([3, 131, 257, 509]),
    seed=st.integers(0, 2**16),
)
def test_fleet_cell_matches_the_serial_run(
    fleet, engine, backend, workers, verify, order, m, n, k, seed
):
    rng = np.random.default_rng(seed)
    a = np.asarray(rng.standard_normal((m, k)), order=order)
    b = np.asarray(rng.standard_normal((k, n)), order=order)
    serial = ENGINES[engine](
        intel_i9_10900k(), cores=FLEET_CORES, backend=backend
    ).multiply(a, b)
    run = fleet.submit(
        a, b, engine=engine, backend=backend, workers=workers, verify=verify,
    ).result(timeout=120.0)
    assert np.array_equal(run.c, serial.c)


# -- the tuned axis ----------------------------------------------------------

TUNED_SHAPE = (97, 131, 211)  # m, n, k


def _tune_config(root) -> TuneConfig:
    # min_speedup=0 adopts the fastest bit-exact candidate, so a winner
    # always lands: the analytic plan shape is one of the candidates.
    return TuneConfig(cache_root=root, repeats=1, top_k=2, min_speedup=0.0)


@pytest.fixture
def tuned_operands():
    m, n, k = TUNED_SHAPE
    rng = np.random.default_rng(20219)
    a = rng.standard_normal((m, k))
    b = rng.standard_normal((k, n))
    analytic = CakeGemm(intel_i9_10900k(), workers=1).multiply(a, b)
    return a, b, analytic.c


@pytest.mark.parametrize("processes", [1, 2])
def test_tuned_engine_returns_the_analytic_bits(
    tmp_path, tuned_operands, processes
):
    a, b, analytic = tuned_operands
    run = CakeGemm(
        intel_i9_10900k(), processes=processes,
        tuned=_tune_config(tmp_path),
    ).multiply(a, b)
    assert "override" in run.plan_summary
    assert np.array_equal(run.c, analytic)


def test_tuned_server_returns_the_analytic_bits(tmp_path, tuned_operands):
    a, b, analytic = tuned_operands
    with MultiplyServer(
        intel_i9_10900k(), tune=_tune_config(tmp_path)
    ) as server:
        first = server.multiply(a, b)  # analytic while the class tunes
        deadline = time.monotonic() + 60.0
        while server.stats().tunes_completed < 1:
            assert time.monotonic() < deadline, "the class never tuned"
            time.sleep(0.01)
        hits = server.stats().tuned_hits
        second = server.multiply(a, b)
        assert server.stats().tuned_hits > hits
    assert np.array_equal(first.c, analytic)
    assert np.array_equal(second.c, analytic)


def test_default_engine_never_reads_the_tune_cache(
    tmp_path, monkeypatch, tuned_operands
):
    a, b, analytic = tuned_operands
    monkeypatch.setenv("CAKE_TUNE_CACHE", str(tmp_path))
    machine = intel_i9_10900k()
    # Put a winner for the shape in the default cache root.
    tuned = CakeGemm(machine, tuned=_tune_config(tmp_path)).multiply(a, b)
    assert "override" in tuned.plan_summary
    run = CakeGemm(machine).multiply(a, b)
    assert "override" not in run.plan_summary
    assert np.array_equal(run.c, analytic)
