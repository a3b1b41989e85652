"""The benchmark's three workloads.

Each workload has the same life cycle, driven by ``run.py``:

``prepare()``
    Build the seeded inputs and the reference outputs (not timed).
``start()``
    Start the server, if the workload has one, and run the warm-up
    operations. ``run.py`` charges import plus this call to
    ``setup_s``.
``window(seconds, tracer, audit)``
    The timed window. Returns the end-to-end metrics plus whichever
    per-layer numbers the window can see from outside.
``stop()``
    Tear everything down and wait for every child process.

Every output is compared with a reference computed once in
``prepare()``; wrong, refused, expired and missing answers are counted by
the :class:`Audit` and never enter a latency sample as fast.
"""

from __future__ import annotations

import threading
import time
from collections import Counter, deque

import numpy as np

from repro import cake_matmul, goto_matmul
from repro.errors import AdmissionError, DeadlineExceededError
from repro.gemm import CakeGemm, GotoGemm
from repro.machines.presets import (
    amd_ryzen_9_5950x,
    arm_cortex_a53,
    intel_i9_10900k,
)
from repro.serve import MultiplyServer

ENGINES = {"cake": cake_matmul, "goto": goto_matmul}

#: Per-request latency limit of the serving workloads (also each
#: request's deadline).
LATENCY_LIMIT_S = 1.0
#: Offered rate of serve-small's open-loop phase: under a quarter of what
#: two closed-loop clients complete on a quiet 2-core host, so that the
#: queue stays bounded even when other tenants slow the host threefold.
OPEN_LOOP_RATE = 200.0
#: Share of serve-small's window spent in the open-loop phase. The
#: end-to-end metrics come from the closed loop that follows: open-loop
#: tails on a shared 2-core host varied by up to 0.8 of their median from
#: run to run, so they are reported per layer only.
OPEN_LOOP_SHARE = 0.3


#: Bare-BLAS speed the reported times are scaled to (see :class:`BareClock`).
REFERENCE_GFLOPS = 40.0


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


class BareClock:
    """Bare ``np.matmul`` calls paired with the operations: in-run host speed.

    Each operation is paired with a bare multiply timed right after it,
    in the same thread; ``numpy_ratio`` is the summed operation time over
    the summed bare time. On a shared host the same work takes up to 40%
    longer in one process than in the next, while that ratio stays put,
    so the absolute times are reported scaled to a host whose paired
    bare multiplies run at :data:`REFERENCE_GFLOPS`. The unscaled values
    are kept in the result file under ``raw``.
    """

    def __init__(self) -> None:
        self.seconds = 0.0
        self.flops = 0.0
        self._lock = threading.Lock()

    def time(self, a, b) -> float:
        start = time.perf_counter()
        np.matmul(a, b)
        took = time.perf_counter() - start
        with self._lock:
            self.seconds += took
            self.flops += 2.0 * a.shape[0] * a.shape[1] * b.shape[1]
        return took

    @property
    def speed(self) -> float:
        """Paired bare GFLOP/s over the reference: above 1 is a fast host.

        Total flops over total time, not a median of per-call speeds: a
        bare multiply that lost its CPU to another tenant is exactly the
        slowdown the scaling has to see.
        """
        return self.flops / self.seconds / 1e9 / REFERENCE_GFLOPS

    def report(self, ratio: float, ops_per_s: float, latencies_s) -> dict:
        """The end-to-end metrics, absolute times scaled to the reference."""
        speed = self.speed
        raw = {
            "ops_per_s": ops_per_s,
            "latency_p50_ms": percentile(latencies_s, 50) * 1e3,
            "latency_p99_ms": percentile(latencies_s, 99) * 1e3,
        }
        return {
            "numpy_ratio": ratio,
            "ops_per_s": ops_per_s / speed,
            "latency_p50_ms": raw["latency_p50_ms"] * speed,
            "latency_p99_ms": raw["latency_p99_ms"] * speed,
            "host_speed": speed,
            "raw": raw,
        }


class Audit:
    """Counts operation outcomes; only ``ok`` is a success.

    ``corrupt`` deliberately perturbs that many outputs before they are
    compared, which is how the smoke test proves the audit counts wrong
    answers.
    """

    def __init__(self, corrupt: int = 0) -> None:
        self.counts: Counter = Counter()
        self.corrupt = corrupt
        self._lock = threading.Lock()

    def _take_corruption(self) -> bool:
        with self._lock:
            if self.corrupt > 0:
                self.corrupt -= 1
                return True
            return False

    def outcome(self, kind: str) -> None:
        with self._lock:
            self.counts[kind] += 1

    def check_array(self, c, ref) -> bool:
        if self._take_corruption():
            c = np.array(c, copy=True)
            c.flat[0] += 1
        ok = c.shape == ref.shape and c.dtype == ref.dtype and np.array_equal(c, ref)
        self.outcome("ok" if ok else "mismatch")
        return ok

    def check_value(self, value, ref) -> bool:
        if self._take_corruption():
            value = ("corrupted", value)
        ok = value == ref
        self.outcome("ok" if ok else "mismatch")
        return ok

    def error(self, exc: BaseException) -> None:
        if isinstance(exc, AdmissionError):
            self.outcome(f"shed-{exc.reason}")
        elif isinstance(exc, DeadlineExceededError):
            self.outcome("expired")
        elif isinstance(exc, TimeoutError):
            self.outcome("unresolved")
        else:
            self.outcome("error")

    @property
    def attempted(self) -> int:
        return sum(self.counts.values())

    @property
    def failed(self) -> int:
        return self.attempted - self.counts["ok"]

    @property
    def wrong(self) -> int:
        """Outputs that came back wrong or raised an unstructured error."""
        return self.counts["mismatch"] + self.counts["error"]


# -- direct-large -------------------------------------------------------------

#: (name, A shape, B shape, dtype): the cube and the Fig-8 skewed n=1024 shape.
LARGE_SHAPES = (
    ("cube768", (768, 768), (768, 768), np.float64),
    ("skew1024", (256, 2048), (2048, 1024), np.float32),
)
#: (name, engine, keyword arguments) — the five configurations cycled.
DIRECT_CONFIGS = (
    ("cake-serial", "cake", {}),
    ("cake-blas-w2", "cake", {"backend": "blas-group", "workers": 2}),
    ("goto-blas-w2", "goto", {"backend": "blas-group", "workers": 2}),
    ("cake-verify", "cake", {"verify": True}),
    ("cake-proc2", "cake", {"processes": 2}),
)


def make_operands(rng, a_shape, b_shape, dtype):
    a = rng.standard_normal(a_shape).astype(dtype)
    b = rng.standard_normal(b_shape).astype(dtype)
    return a, b


class DirectLarge:
    """One caller thread, closed loop over every (shape, configuration) cell."""

    name = "direct-large"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.cells: list[tuple] = []

    def prepare(self) -> None:
        rng = np.random.default_rng(self.seed)
        for shape, a_shape, b_shape, dtype in LARGE_SHAPES:
            a, b = make_operands(rng, a_shape, b_shape, dtype)
            refs = {}
            for config, engine, kwargs in DIRECT_CONFIGS:
                key = (engine, kwargs.get("backend"))
                if key not in refs:  # serial run, same engine and backend
                    refs[key] = ENGINES[engine](a, b, backend=key[1]).c
                self.cells.append(
                    (shape, config, ENGINES[engine], kwargs, a, b, refs[key])
                )

    def start(self) -> None:
        for _, _, fn, kwargs, a, b, _ in self.cells:
            fn(a, b, **kwargs)

    def window(self, seconds: float, tracer, audit: Audit) -> dict:
        engine_s = flops = 0.0
        calls = 0
        pass_s: list[float] = []
        per_cell: dict[str, list[float]] = {}
        clock = BareClock()
        stop_at = time.perf_counter() + seconds
        while not pass_s or time.perf_counter() < stop_at:
            in_pass = 0.0
            for shape, config, fn, kwargs, a, b, ref in self.cells:
                with tracer.op("op", workload=self.name, cell=f"{shape}/{config}"):
                    with tracer.span(f"api.{config}"):
                        start = time.perf_counter()
                        try:
                            run = fn(a, b, **kwargs)
                        except Exception as exc:  # noqa: BLE001 - counted
                            run = None
                            audit.error(exc)
                        took = time.perf_counter() - start
                    with tracer.span("numpy.matmul"):
                        clock.time(a, b)
                    if run is not None:
                        with tracer.span("audit"):
                            audit.check_array(run.c, ref)
                engine_s += took
                in_pass += took
                calls += 1
                flops += 2.0 * a.shape[0] * a.shape[1] * b.shape[1]
                per_cell.setdefault(f"{shape}/{config}", []).append(took * 1e3)
            pass_s.append(in_pass)
        return {
            **clock.report(engine_s / clock.seconds, calls / engine_s, pass_s),
            "layers": {"api.gflops": flops / engine_s / 1e9},
            "detail": {
                "passes": len(pass_s),
                "cell_ms_p50": {k: percentile(v, 50) for k, v in per_cell.items()},
            },
        }

    def stop(self) -> None:
        pass


# -- serving workloads ---------------------------------------------------------

#: (name, A shape, B shape, dtype): the small serve shapes.
SMALL_SHAPES = (
    ("cube128", (128, 128), (128, 128), np.float64),
    ("skew256", (64, 512), (512, 256), np.float32),
)
PAIRS_PER_SHAPE = 4


class ServeSmall:
    """In-process ``MultiplyServer``: an open-loop phase, then a closed loop.

    Requests cycle cake and goto over four operand pairs per small shape
    (16 kinds) in a seeded order, so every run serves exactly the same mix.
    """

    name = "serve-small"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.kinds: list[tuple] = []  # (engine, a, b, ref, pair index)
        self.sequence: list[int] = []
        self.server = None

    def prepare(self) -> None:
        rng = np.random.default_rng(self.seed)
        pairs = []
        for _, a_shape, b_shape, dtype in SMALL_SHAPES:
            for _ in range(PAIRS_PER_SHAPE):
                pairs.append(make_operands(rng, a_shape, b_shape, dtype))
        for index, (a, b) in enumerate(pairs):
            for engine, fn in ENGINES.items():
                self.kinds.append((engine, a, b, fn(a, b).c, index))
        self.sequence = [int(i) for i in rng.permutation(len(self.kinds))]

    def kind(self, i: int):
        return self.kinds[self.sequence[i % len(self.sequence)]]

    def direct_p50_ms(self) -> float:
        """Direct engine-call p50 over the same mix, for ``added_ms``."""
        times = []
        for engine, a, b, _, _ in self.kinds:
            fn = ENGINES[engine]
            for _ in range(5):
                start = time.perf_counter()
                fn(a, b)
                times.append(time.perf_counter() - start)
        return percentile(times, 50) * 1e3

    def start(self) -> None:
        # Queue room for a full latency limit of open-loop arrivals, so a
        # host stall delays requests instead of shedding them.
        self.server = MultiplyServer(
            executors=2, capacity=int(2 * OPEN_LOOP_RATE * LATENCY_LIMIT_S)
        ).start()
        for _ in range(2):
            for engine, a, b, _, _ in self.kinds:
                self.server.submit(a, b, engine=engine).result()

    def _closed_loop(self, clients: int, seconds: float, tracer, audit, clock):
        """``clients`` threads each send the next request after the last answer.

        Returns the ``(latency, paired bare seconds, report, ok)`` sample of
        every request, the phase's wall time and the ``submit()`` times.
        """
        server = self.server
        samples: list[tuple] = []
        admit: list[float] = []
        lock = threading.Lock()
        stop_at = time.monotonic() + seconds
        errors: list[BaseException] = []

        def loop(index: int) -> None:
            i = index
            local, local_admit = [], []
            try:
                while time.monotonic() < stop_at:
                    engine, a, b, ref, pair = self.kind(i)
                    i += clients
                    with tracer.op("op", kind=f"{engine}/{pair}"):
                        start = time.monotonic()
                        try:
                            with tracer.span("serve.server.submit"):
                                handle = server.submit(
                                    a, b, engine=engine, deadline=LATENCY_LIMIT_S
                                )
                            local_admit.append(time.monotonic() - start)
                            with tracer.span("serve.handle.result"):
                                c = handle.result().c
                        except Exception as exc:  # noqa: BLE001 - counted
                            audit.error(exc)
                            c = None
                        took = time.monotonic() - start
                        with tracer.span("numpy.matmul"):
                            bare = clock.time(a, b)
                        ok = False
                        if c is not None:
                            with tracer.span("audit"):
                                ok = audit.check_array(c, ref)
                    local.append((
                        took if ok else max(took, LATENCY_LIMIT_S), bare,
                        handle.report if ok else None, ok,
                    ))
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                errors.append(exc)
            with lock:
                samples.extend(local)
                admit.extend(local_admit)

        threads = [
            threading.Thread(target=loop, args=(i,), name=f"perfbench-client-{i}")
            for i in range(clients)
        ]
        start = time.monotonic()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.monotonic() - start
        if errors:
            raise errors[0]
        return samples, elapsed, admit

    def window(self, seconds: float, tracer, audit: Audit) -> dict:
        server = self.server
        before = server.stats()
        offered = open_loop(
            server, self.kind, int(OPEN_LOOP_RATE * OPEN_LOOP_SHARE * seconds),
            tracer, audit,
        )
        clock = BareClock()
        samples, elapsed, admit = self._closed_loop(
            2, (1 - OPEN_LOOP_SHARE) * seconds, tracer, audit, clock
        )
        served = [s[0] for s in samples]
        return {
            **clock.report(
                sum(served) / sum(s[1] for s in samples),
                sum(1 for s in samples if s[3]) / elapsed,
                served,
            ),
            "layers": server_layers(
                before, server.stats(), offered, admit,
                offered["reports"] + [s[2] for s in samples if s[3]],
            ),
            "detail": {
                "open_loop_requests": len(offered["latencies"]),
                "closed_loop_requests": len(samples),
            },
        }

    def stop(self) -> None:
        if self.server is not None:
            self.server.stop()


def open_loop(server, kind, count: int, tracer, audit: Audit) -> dict:
    """Offer ``count`` requests at :data:`OPEN_LOOP_RATE` from this thread.

    ``kind(i)`` gives request ``i`` as ``(engine, a, b, reference, ...)``.
    Each latency is counted from the moment the request was due, so a
    stall also charges the requests queued behind it. Finished handles
    are audited between sends, which keeps memory bounded.
    """
    inflight: deque = deque()
    out: dict = {"latencies": [], "lateness": [], "admit": [], "reports": []}

    def finish(entry, wait: "float | None") -> None:
        due, s0, s1, handle, ref = entry
        try:
            run = handle.result(timeout=wait)
        except Exception as exc:  # noqa: BLE001 - counted
            audit.error(exc)
            out["latencies"].append(LATENCY_LIMIT_S)
            return
        resolved = handle.submitted_at + handle.report.total_seconds
        ok = audit.check_array(run.c, ref)
        out["latencies"].append(resolved - due if ok else LATENCY_LIMIT_S)
        if ok:
            out["reports"].append(handle.report)
        if tracer.enabled:
            _record_served(tracer, due, s0, s1, handle, resolved)

    t0 = time.monotonic() + 0.005
    for i in range(max(1, count)):
        due = t0 + i / OPEN_LOOP_RATE
        while inflight and inflight[0][3].done():
            finish(inflight.popleft(), None)
        delay = due - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        engine, a, b, ref, *_ = kind(i)
        s0 = time.monotonic()
        out["lateness"].append(s0 - due)
        try:
            handle = server.submit(a, b, engine=engine, deadline=LATENCY_LIMIT_S)
        except Exception as exc:  # noqa: BLE001 - counted
            audit.error(exc)
            out["latencies"].append(LATENCY_LIMIT_S)
            continue
        s1 = time.monotonic()
        out["admit"].append(s1 - s0)
        inflight.append((due, s0, s1, handle, ref))
    while inflight:
        finish(inflight.popleft(), 2 * LATENCY_LIMIT_S)
    return out


def server_layers(before, after, offered: dict, admit, reports) -> dict:
    """Server-layer metrics over a phase: its stats delta and request reports.

    ``offered`` is an :func:`open_loop` result; ``admit`` the ``submit()``
    times and ``reports`` the ``ServeReport`` of every good request.
    """
    executed = after.executed - before.executed
    hits = after.pool["hits"] - before.pool["hits"]
    misses = after.pool["misses"] - before.pool["misses"]
    queue = [r.queue_seconds for r in reports]
    return {
        "serve.loadgen.open_p50_ms": percentile(offered["latencies"], 50) * 1e3,
        "serve.loadgen.open_p99_ms": percentile(offered["latencies"], 99) * 1e3,
        "serve.loadgen.late_ms_p99": percentile(offered["lateness"], 99) * 1e3,
        "serve.server.admit_us": percentile(admit, 50) * 1e6,
        "serve.server.queue_p50_ms": percentile(queue, 50) * 1e3,
        "serve.server.queue_p99_ms": percentile(queue, 99) * 1e3,
        "serve.server.execute_ms":
            percentile([r.execute_seconds for r in reports], 50) * 1e3,
        "serve.batching.coalesce_ratio":
            (after.coalesced - before.coalesced) / max(1, executed),
        "serve.batching.batch_size_mean":
            executed / max(1, after.batches - before.batches),
        "packing.pool_hit_ratio": hits / max(1, hits + misses),
    }


def _record_served(tracer, due, s0, s1, handle, resolved) -> None:
    """Spans of one open-loop request, rebuilt from its ``ServeReport``.

    Children are clipped into the request's interval one after another,
    so they never overlap and their self times add up to the wall time.
    """
    trace = tracer.new_trace()
    root = tracer.record("op", due, resolved, trace=trace, parent=None)
    tracer.record("serve.loadgen.late", due, s0, trace=trace, parent=root)
    tracer.record("serve.server.submit", s0, s1, trace=trace, parent=root)
    report = handle.report
    q_end = min(max(s1, handle.submitted_at + report.queue_seconds), resolved)
    tracer.record("serve.server.queue", s1, q_end, trace=trace, parent=root)
    e_end = min(q_end + report.execute_seconds, resolved)
    tracer.record("serve.server.execute", q_end, e_end, trace=trace, parent=root)


# -- model-sweep ---------------------------------------------------------------


def sweep_grid() -> list[tuple]:
    """(machine factory, cores, m, n, k) points behind Figs. 8 and 10-12.

    Core counts are trimmed at the slow end (one-core CAKE at 23040^3
    prices half a million blocks, about two seconds a call) so one pass
    over the grid stays near a fifth of a second.
    """
    points = []
    for n, cores in ((23040, (8, 10)), (5760, tuple(range(1, 11)))):
        points += [(intel_i9_10900k, p, n, n, n) for p in cores]
    for n, cores in ((23040, (12, 14, 16)), (5760, tuple(range(2, 17, 2)))):
        points += [(amd_ryzen_9_5950x, p, n, n, n) for p in cores]
    for n, cores in ((3000, (3, 4)), (1000, (1, 2, 3, 4))):
        points += [(arm_cortex_a53, p, n, n, n) for p in cores]
    values = (1000, 3000, 5000, 8000)
    for aspect in (1, 2, 4, 8):
        points += [
            (intel_i9_10900k, 10, m, max(1, round(m / aspect)), k)
            for m in values
            for k in values
        ]
    return points


def analysis_key(run) -> tuple:
    """Everything an analysis reports, in a form ``==`` compares exactly."""
    return (
        repr(run.counters),
        repr(run.time),
        tuple(sorted(run.bound_blocks.items())),
        tuple(sorted(run.plan_summary.items())),
        run.packing_seconds,
        run.cores,
    )


#: Scalar-walk checks per run, drawn from points with few blocks.
EXACT_WALK_SAMPLES = 4
EXACT_WALK_MAX_BLOCKS = 1500


class ModelSweep:
    """One thread calling ``CakeGemm.analyze`` / ``GotoGemm.analyze`` over the grid."""

    name = "model-sweep"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.calls: list[tuple] = []  # (label, engine object, m, n, k, key, blocks)

    def prepare(self) -> None:
        rng = np.random.default_rng(self.seed)
        machines = {}
        for factory, cores, m, n, k in sweep_grid():
            machine = machines.setdefault(factory, factory())
            for engine_cls in (CakeGemm, GotoGemm):
                engine = engine_cls(machine, cores=cores)
                run = engine.analyze(m, n, k)
                self.calls.append((
                    f"{engine_cls.__name__}/{machine.name}/p{cores}/{m}x{n}x{k}",
                    engine, m, n, k, analysis_key(run),
                    run.plan_summary.get("blocks", 0),
                ))
        self.order = [int(i) for i in rng.permutation(len(self.calls))]
        rng_a = np.random.default_rng(self.seed + 1)
        self.calibration = make_operands(rng_a, (128, 128), (128, 128), np.float64)

    def exact_walk_audit(self, audit: Audit) -> None:
        """A seeded sample of points must equal the scalar per-block walk."""
        rng = np.random.default_rng(self.seed + 2)
        small = [
            c for c in self.calls
            if isinstance(c[1], CakeGemm) and 0 < c[6] <= EXACT_WALK_MAX_BLOCKS
        ]
        picks = rng.choice(len(small), size=min(EXACT_WALK_SAMPLES, len(small)),
                           replace=False)
        for index in picks:
            _, engine, m, n, k, key, _ = small[int(index)]
            walker = CakeGemm(engine.machine, cores=engine.cores, exact_walk=True)
            audit.check_value(analysis_key(walker.analyze(m, n, k)), key)

    def start(self) -> None:
        seen = set()
        for _, engine, m, n, k, _, _ in self.calls:
            kind = (type(engine), engine.machine.name)
            if kind not in seen:
                seen.add(kind)
                engine.analyze(m, n, k)

    def window(self, seconds: float, tracer, audit: Audit) -> dict:
        times: list[float] = []
        cake_s = 0.0
        cake_blocks = 0
        clock = BareClock()
        stop_at = time.perf_counter() + seconds
        passes = 0
        while not passes or time.perf_counter() < stop_at:
            for index in self.order:
                label, engine, m, n, k, key, blocks = self.calls[index]
                with tracer.op("op", point=label):
                    with tracer.span(f"analysis.{type(engine).__name__}.analyze"):
                        start = time.perf_counter()
                        try:
                            run = engine.analyze(m, n, k)
                        except Exception as exc:  # noqa: BLE001 - counted
                            run = None
                            audit.error(exc)
                        took = time.perf_counter() - start
                    with tracer.span("numpy.matmul"):
                        clock.time(*self.calibration)
                    if run is not None:
                        with tracer.span("audit"):
                            audit.check_value(analysis_key(run), key)
                times.append(took)
                if blocks:
                    cake_s += took
                    cake_blocks += blocks
            passes += 1
        return {
            **clock.report(sum(times) / clock.seconds, len(times) / sum(times), times),
            "layers": {
                "analysis.batch.analyze_ms": percentile(times, 50) * 1e3,
                "analysis.batch.blocks_per_s": cake_blocks / cake_s,
            },
            "detail": {"passes": passes, "points": len(self.calls)},
        }

    def stop(self) -> None:
        pass


WORKLOADS = {cls.name: cls for cls in (DirectLarge, ServeSmall, ModelSweep)}
