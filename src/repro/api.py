"""Top-level convenience API.

Most users want exactly one call: multiply two matrices with the CAKE
discipline on a modelled machine and look at the throughput/bandwidth
report. These wrappers construct the engine, run it, and hand back the
:class:`~repro.gemm.result.GemmRun`.
"""

from __future__ import annotations

import numpy as np

from repro.gemm.backends import Backend
from repro.gemm.cake import CakeGemm
from repro.gemm.goto import GotoGemm
from repro.gemm.result import GemmRun
from repro.gemm.sharded import ShardConfig
from repro.gemm.verify import VerifyConfig
from repro.machines.presets import intel_i9_10900k
from repro.machines.spec import MachineSpec
from repro.runtime.executor import RetryPolicy
from repro.serve.server import MultiplyServer


def serve(
    machine: MachineSpec | None = None,
    *,
    capacity: int = 64,
    executors: int = 2,
    max_batch: int = 8,
    cores: int | None = None,
    default_deadline: float | None = None,
    retry_policy: RetryPolicy | None = None,
    tune: object = False,
    workers: int = 1,
) -> MultiplyServer:
    """A **started** multiply server (GEMM-as-a-service front door).

    Convenience constructor over
    :class:`~repro.serve.server.MultiplyServer` — admission-controlled
    bounded queue, per-request deadlines, shape-class batching with
    shared plan/buffer reuse, content-seeded retry with backoff, and a
    graceful degradation ladder, all over the same engines
    :func:`cake_matmul` uses (responses are bit-identical to direct
    calls). Use as a context manager or call ``stop()`` when done::

        with serve(default_deadline=0.5) as server:
            handle = server.submit(a, b)
            run = handle.result()

    ``tune=True`` (or a :class:`~repro.tune.TuneConfig`) resolves each
    shape class's plan through the persistent plan cache, tuning cold
    classes on background threads off the request path — see
    :mod:`repro.tune`.

    ``workers > 1`` returns a started
    :class:`~repro.serve.fleet.FleetServer` instead: that many
    supervised worker *processes* (each a full ``MultiplyServer``) with
    heartbeat liveness, capped-backoff restarts and crash-safe
    re-dispatch — the same ``submit``/``multiply``/``stats`` surface,
    the same bit-identity contract, surviving worker death.
    """
    if workers > 1:
        if tune:
            raise ValueError(
                "tune is per-process state; run the plan autotuner in "
                "the single-server mode (workers=1)"
            )
        from repro.serve.fleet import FleetServer

        return FleetServer(
            machine,
            workers=workers,
            capacity=capacity,
            executors=executors,
            max_batch=max_batch,
            cores=cores,
            default_deadline=default_deadline,
            retry_policy=retry_policy,
        ).start()
    return MultiplyServer(
        machine,
        capacity=capacity,
        executors=executors,
        max_batch=max_batch,
        cores=cores,
        default_deadline=default_deadline,
        retry_policy=retry_policy,
        tune=tune,
    ).start()


def cake_matmul(
    a: np.ndarray,
    b: np.ndarray,
    *,
    machine: MachineSpec | None = None,
    cores: int | None = None,
    alpha: float | None = None,
    workers: int | None = None,
    verify: bool | VerifyConfig = False,
    backend: str | Backend | None = None,
    processes: int | ShardConfig | None = None,
    tuned: object = False,
) -> GemmRun:
    """Multiply ``a @ b`` with the CAKE engine.

    Parameters
    ----------
    a, b:
        2-D operands with matching inner dimension (any memory layout).
    machine:
        Platform model (default: the Intel i9-10900K of Table 2).
    cores:
        Cores to use (default: all the machine has).
    alpha:
        CB aspect factor; ``None`` derives it from DRAM bandwidth per
        Section 3.2.
    workers:
        Host threads for numeric execution (default: the core budget's
        share, :mod:`repro.gemm.budget` — one per usable core once a
        strip is large enough to pay for a thread). The product is
        bit-identical for any worker count.
    verify:
        ABFT verified execution (:mod:`repro.gemm.verify`): every block's
        C update is checksum-validated and self-healed on mismatch, or
        :class:`~repro.gemm.verify.NumericFaultError` is raised with the
        faulting block's coordinates. ``True`` for defaults, a
        :class:`~repro.gemm.verify.VerifyConfig` to tune. A clean
        verified run returns bit-identical ``c`` and counters.
    backend:
        Compute backend (:mod:`repro.gemm.backends`): a registered name
        (``"numpy"`` or ``"blas-group"``) or a
        :class:`~repro.gemm.backends.Backend` instance. Default is the
        per-strip numpy oracle. ``verify=True`` plus a non-oracle
        backend is the headline ABFT scenario: the fast path is
        checksum-validated and healed through the trusted oracle rung.
    processes:
        Worker *processes* for numeric execution
        (:mod:`repro.gemm.sharded`): the CB block grid is partitioned
        into a near-square shard grid, A and B are copied once each,
        flat, into ``multiprocessing.shared_memory`` segments the
        workers attach zero-copy, and each
        shard runs the threaded executor in its own process. ``None``,
        the default, or 1 runs in-process. The product is bit-identical
        to the in-process run on the same backend for every process and
        worker count; ``run.shards`` reports the grid, per-shard timers,
        and measured inter-process bytes against the communication lower
        bound.
    tuned:
        Resolve the plan through the autotuner's persistent cache
        (:mod:`repro.tune`): ``True`` for a default
        :class:`~repro.tune.TuneConfig`, or pass one. A falsy value, the
        default, runs the analytic plan. A cold shape tunes synchronously
        once; later calls (and later processes) hit the cache. Tuned
        results are bit-identical to analytic ones — validation rejects
        any candidate that is not.

    Returns
    -------
    GemmRun
        ``run.c`` is the product; ``run.gflops`` / ``run.dram_gb_per_s``
        are the modelled metrics; ``run.verify`` the ABFT accounting
        when verification ran; ``run.backend`` the backend that
        executed.
    """
    machine = intel_i9_10900k() if machine is None else machine
    return CakeGemm(
        machine, cores=cores, alpha=alpha, workers=workers, verify=verify,
        backend=backend, processes=processes, tuned=tuned,
    ).multiply(a, b)


def goto_matmul(
    a: np.ndarray,
    b: np.ndarray,
    *,
    machine: MachineSpec | None = None,
    cores: int | None = None,
    workers: int | None = None,
    verify: bool | VerifyConfig = False,
    backend: str | Backend | None = None,
    processes: int | ShardConfig | None = None,
    tuned: object = False,
) -> GemmRun:
    """Multiply ``a @ b`` with the GOTO baseline engine (MKL/ARMPL model).

    Same contract as :func:`cake_matmul` (minus ``alpha``), including
    the ``backend``, ``processes``, and ``tuned`` selectors (GOTO
    shards over its ``mc``-strip rows and ``nc``-panel columns; on
    grouped backends over the columns only).
    """
    machine = intel_i9_10900k() if machine is None else machine
    return GotoGemm(
        machine, cores=cores, workers=workers, verify=verify,
        backend=backend, processes=processes, tuned=tuned,
    ).multiply(a, b)
