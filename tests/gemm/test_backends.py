"""Cross-backend conformance suite.

The contract under test (see ``repro.gemm.backends``): the schedule is
the authority, the backend is an implementation detail. For every
registered backend, on every engine, the product must agree with the
per-strip numpy oracle — **bit-exactly** when the backend declares
``deterministic``, within its ABFT-shaped agreement band otherwise —
and the traffic counters, plan, and timing model must not move by one
bit. Worker count must never change a backend's own bits.

The suite parametrizes over :func:`registered_backends`, so a backend
added to the registry is covered with no test edits.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import BackendCapabilityError
from repro.gemm import CakeGemm, GotoGemm
from repro.gemm.backends import (
    Backend,
    BackendCapabilities,
    BlasGroupBackend,
    NumpyBackend,
    backend_spec,
    registered_backends,
    resolve_backend,
)
from repro.gemm.verify import NumericFaultError, VerifyConfig
from repro.machines import intel_i9_10900k
from repro.runtime.faults import NumericFaultPlan, NumericFaultRule

ENGINES = {"cake": CakeGemm, "goto": GotoGemm}

_BAND_SAFETY = 8.0


def _band(a: np.ndarray, b: np.ndarray) -> float:
    """Worst-cell agreement bound for non-deterministic backends."""
    k = a.shape[1]
    return float(
        _BAND_SAFETY
        * np.finfo(np.result_type(a, b)).eps
        * (k + 2)
        * (np.abs(a) @ np.abs(b)).max()
    )


def _assert_conforms(run, oracle, spec, a, b) -> None:
    if spec.capabilities.deterministic:
        assert np.array_equal(run.c, oracle.c), (
            f"deterministic backend {spec.name!r} drifted from the oracle"
        )
    else:
        worst = float(np.abs(run.c - oracle.c).max())
        assert worst <= _band(a, b), (
            f"backend {spec.name!r} error {worst:.3e} exceeds its band"
        )
    assert run.counters == oracle.counters
    assert run.time.seconds == oracle.time.seconds
    assert run.backend == spec.name


@pytest.fixture(params=["cake", "goto"])
def engine_cls(request):
    return ENGINES[request.param]


@pytest.fixture(params=registered_backends())
def backend_name(request) -> str:
    return request.param


@pytest.fixture
def intel():
    return intel_i9_10900k()


class TestConformance:
    """Every backend, every engine, one oracle."""

    def test_agrees_with_oracle(self, intel, engine_cls, backend_name, rng):
        a = rng.standard_normal((219, 187))
        b = rng.standard_normal((187, 203))
        oracle = engine_cls(intel, backend="numpy").multiply(a, b)
        run = engine_cls(intel, backend=backend_name).multiply(a, b)
        _assert_conforms(run, oracle, backend_spec(backend_name), a, b)

    @pytest.mark.parametrize("workers", [2, 5])
    def test_worker_count_invariance(
        self, intel, engine_cls, backend_name, workers, rng
    ):
        # A fixed backend's own bits never move with the worker count.
        a = rng.standard_normal((160, 300))
        b = rng.standard_normal((300, 96))
        serial = engine_cls(intel, backend=backend_name).multiply(a, b)
        threaded = engine_cls(
            intel, backend=backend_name, workers=workers
        ).multiply(a, b)
        assert np.array_equal(serial.c, threaded.c)
        assert serial.counters == threaded.counters

    @pytest.mark.parametrize("shape", [(0, 5, 7), (5, 0, 7), (5, 7, 0)])
    def test_degenerate_shapes(self, intel, engine_cls, backend_name, shape):
        m, k, n = shape
        run = engine_cls(intel, backend=backend_name).multiply(
            np.zeros((m, k)), np.zeros((k, n))
        )
        assert run.c.shape == (m, n)
        assert not run.c.any()
        assert run.backend == backend_name

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_dtype_propagation(self, intel, engine_cls, backend_name, dtype, rng):
        spec = backend_spec(backend_name)
        a = rng.standard_normal((67, 53)).astype(dtype)
        b = rng.standard_normal((53, 41)).astype(dtype)
        run = engine_cls(intel, backend=backend_name).multiply(a, b)
        assert run.c.dtype == np.dtype(dtype)
        oracle = engine_cls(intel, backend="numpy").multiply(a, b)
        _assert_conforms(run, oracle, spec, a, b)

    def test_layout_invariance(self, intel, engine_cls, backend_name, rng):
        # F-ordered, transposed-view, and strided operands multiply to
        # the same bits as their contiguous copies.
        a = rng.standard_normal((94, 118))
        b = rng.standard_normal((118, 75))
        engine = engine_cls(intel, backend=backend_name)
        base = engine.multiply(a, b)
        for aa, bb in (
            (np.asfortranarray(a), np.asfortranarray(b)),
            (a.T.copy().T, b.T.copy().T),
            (
                rng.standard_normal((94, 236))[:, ::2] * 0 + a,
                rng.standard_normal((236, 75))[::2] * 0 + b,
            ),
        ):
            run = engine.multiply(aa, bb)
            assert np.array_equal(run.c, base.c)

    @pytest.mark.parametrize("processes", [2, 3])
    def test_process_count_invariance(
        self, intel, engine_cls, backend_name, processes, rng
    ):
        # Process sharding (repro.gemm.sharded) never moves a backend's
        # own bits either: K is never split, so every C element's full
        # accumulation sequence stays inside one shard.
        a = rng.standard_normal((300, 170))
        b = rng.standard_normal((170, 420))
        serial = engine_cls(
            intel, cores=1, backend=backend_name
        ).multiply(a, b)
        sharded = engine_cls(
            intel, cores=1, backend=backend_name, processes=processes,
            workers=2,
        ).multiply(a, b)
        assert np.array_equal(serial.c, sharded.c)
        assert (
            serial.counters.without_ipc() == sharded.counters.without_ipc()
        )
        assert sharded.backend == backend_name

    def test_verified_run_is_bit_clean(self, intel, engine_cls, backend_name, rng):
        # verify=True on a clean run changes nothing — for ANY backend.
        a = rng.standard_normal((150, 260))
        b = rng.standard_normal((260, 130))
        plain = engine_cls(intel, backend=backend_name).multiply(a, b)
        verified = engine_cls(
            intel, backend=backend_name, verify=True
        ).multiply(a, b)
        assert np.array_equal(plain.c, verified.c)
        assert plain.counters == verified.counters
        assert verified.verify is not None
        assert verified.verify.mismatches == 0


class TestFaultHealing:
    """verify=True + injected corruption: heal or raise, never silently wrong."""

    def test_heals_bit_exactly(self, intel, engine_cls, backend_name, rng):
        a = rng.standard_normal((220, 400))
        b = rng.standard_normal((400, 180))
        clean = engine_cls(intel, backend=backend_name).multiply(a, b)
        plan = NumericFaultPlan(
            rules=(NumericFaultRule(block=0, strip=0, kind="scale", factor=3.0),)
        )
        healed = engine_cls(
            intel, backend=backend_name, verify=VerifyConfig(inject=plan),
            workers=2,
        ).multiply(a, b)
        assert np.array_equal(healed.c, clean.c)
        assert healed.verify.mismatches >= 1
        assert (
            healed.verify.retry_recoveries + healed.verify.oracle_recoveries
            >= 1
        )

    def test_raises_when_recovery_disabled(
        self, intel, engine_cls, backend_name, rng
    ):
        a = rng.standard_normal((96, 128))
        b = rng.standard_normal((128, 80))
        # A persistent fault (every retry re-corrupts) with the oracle
        # rung off must surface as a structured error.
        plan = NumericFaultPlan(
            rules=(
                NumericFaultRule(
                    block=0, strip=0, kind="scale", factor=3.0, times=99
                ),
            )
        )
        engine = engine_cls(
            intel,
            backend=backend_name,
            verify=VerifyConfig(
                inject=plan, max_retries=1, oracle_fallback=False
            ),
        )
        with pytest.raises(NumericFaultError):
            engine.multiply(a, b)


class TestStructuredErrors:
    def test_unknown_backend_name(self, intel):
        with pytest.raises(BackendCapabilityError, match="unknown backend"):
            CakeGemm(intel, backend="no-such-backend")

    def test_integer_operands_carry_backend_name(self, intel, backend_name):
        engine = CakeGemm(intel, backend=backend_name)
        with pytest.raises(BackendCapabilityError, match="overflow") as exc:
            engine.multiply(
                np.ones((4, 4), dtype=np.int64), np.ones((4, 4), dtype=np.int64)
            )
        assert exc.value.backend == backend_name
        assert exc.value.dtype == np.dtype(np.int64)
        # Still a TypeError for callers holding the historic contract.
        assert isinstance(exc.value, TypeError)


class _DoubledBackend(Backend):
    """Deliberately wrong backend used to prove the suite has teeth."""

    name = "test-doubled"
    capabilities = BackendCapabilities(deterministic=True, grouped=False)

    def matmul_strip(self, a, b, c):
        c += 2.0 * (a @ b)


class TestRegistry:
    def test_the_table_is_fixed(self):
        # Two built-ins, looked up by name; anything else is an instance.
        assert registered_backends() == ("numpy", "blas-group")
        for cls in (NumpyBackend, BlasGroupBackend):
            spec = resolve_backend(cls.name)
            assert spec is backend_spec(cls.name)
            assert spec.capabilities == cls.capabilities
        with pytest.raises(TypeError, match="name or a Backend instance"):
            resolve_backend(backend_spec("numpy"))

    def test_conformance_catches_wrong_backend(self, intel, rng):
        a = rng.standard_normal((40, 50))
        b = rng.standard_normal((50, 30))
        oracle = CakeGemm(intel, backend="numpy").multiply(a, b)
        wrong = CakeGemm(intel, backend=_DoubledBackend()).multiply(a, b)
        with pytest.raises(AssertionError):
            _assert_conforms(
                wrong, oracle, resolve_backend(_DoubledBackend()), a, b
            )

    def test_tile_walk_conforms_within_its_band(self, intel, engine_cls, rng):
        # Each register tile is its own BLAS call, so the walk's bits
        # need not be the oracle's: it declares a band, not determinism.
        a = rng.standard_normal((219, 187))
        b = rng.standard_normal((187, 203))
        kernel = engine_cls(intel).plan_for(219, 203, 187).kernel
        tiles = NumpyBackend(kernel, exact_tiles=True)
        assert not tiles.capabilities.deterministic
        oracle = engine_cls(intel).multiply(a, b)
        run = engine_cls(intel, backend=tiles).multiply(a, b)
        _assert_conforms(run, oracle, resolve_backend(tiles), a, b)

    def test_backend_instance_passthrough(self, intel, rng):
        a = rng.standard_normal((30, 40))
        b = rng.standard_normal((40, 20))
        instance = BlasGroupBackend()
        run = CakeGemm(intel, backend=instance).multiply(a, b)
        assert run.backend == "blas-group"

    def test_default_backend_round_trip(self, intel, rng):
        """``backend=None`` is the numpy oracle, and a run records it."""
        assert resolve_backend(None).name == "numpy"
        run = CakeGemm(intel).multiply(
            rng.standard_normal((20, 30)), rng.standard_normal((30, 10))
        )
        assert run.backend == "numpy"


# -- differential property sweep ---------------------------------------------

_PRIME_EXTENTS = (1, 2, 3, 7, 13, 31, 61, 127)


@given(
    mi=st.integers(0, len(_PRIME_EXTENTS) - 1),
    ni=st.integers(0, len(_PRIME_EXTENTS) - 1),
    ki=st.integers(0, len(_PRIME_EXTENTS) - 1),
    skew=st.sampled_from([1, 4, 16]),
    engine=st.sampled_from(sorted(ENGINES)),
    workers=st.sampled_from([1, 3]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=25)
def test_differential_backends_agree(mi, ni, ki, skew, engine, workers, seed):
    """Prime/skewed shapes x engines x workers: all backends agree."""
    m = _PRIME_EXTENTS[mi]
    n = _PRIME_EXTENTS[ni] * skew
    k = _PRIME_EXTENTS[ki] * skew
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, k))
    b = rng.standard_normal((k, n))
    intel = intel_i9_10900k()
    cls = ENGINES[engine]
    oracle = cls(intel, backend="numpy").multiply(a, b)
    for name in registered_backends():
        run = cls(intel, backend=name, workers=workers).multiply(a, b)
        _assert_conforms(run, oracle, backend_spec(name), a, b)


@given(
    block=st.integers(0, 2),
    strip=st.integers(0, 1),
    kind=st.sampled_from(["scale", "bitflip"]),
    engine=st.sampled_from(sorted(ENGINES)),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=15)
def test_differential_fault_heal_or_raise(block, strip, kind, engine, seed):
    """Injected corruption on any backend: healed bit-exactly or raised."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((170, 310))
    b = rng.standard_normal((310, 140))
    intel = intel_i9_10900k()
    cls = ENGINES[engine]
    plan = NumericFaultPlan(
        rules=(NumericFaultRule(block=block, strip=strip, kind=kind),)
    )
    for name in registered_backends():
        clean = cls(intel, backend=name).multiply(a, b)
        try:
            healed = cls(
                intel, backend=name, verify=VerifyConfig(inject=plan)
            ).multiply(a, b)
        except NumericFaultError:
            continue  # raising is an allowed outcome; silence is not
        assert np.array_equal(healed.c, clean.c), (
            f"backend {name!r} returned silently wrong bits after a "
            f"{kind} fault at block={block} strip={strip}"
        )
