"""Per-layer probes and the ladder from a bare ``A @ B`` to the fleet.

Every traced run calls :func:`probe` after its workload window, so each
workload reports the same per-layer set. The ladder times, at each
shape, one rung per layer added on top of the one before:

    numpy      bare ``np.matmul``
    kernel     the numpy backend over CAKE's pre-packed blocks, plan order
    serial     ``cake_matmul`` (pack + schedule walk + kernel)
    threads    ``workers=2``
    processes  ``processes=2``
    verify     ``verify=True``
    server     an in-process ``MultiplyServer`` round trip
    fleet      a CKS1 round trip through ``FleetFrontDoor`` to 2 workers

Each rung is the median of several calls; every product is compared with
the serial engine's, so a fast but wrong rung cannot pass unnoticed.
"""

from __future__ import annotations

import time

import numpy as np

from repro import cake_matmul
from repro.gemm import CakeGemm, CakePlan, GotoPlan, resolve_backend
from repro.gemm.parallel import core_strips
from repro.gemm.plan import clear_plan_memos
from repro.machines.presets import intel_i9_10900k
from repro.packing import pack_a_cake, pack_b_cake
from repro.perfmodel.roofline import block_times_batch
from repro.schedule.kfirst import kfirst_order_arrays
from repro.schedule.space import ComputationSpace
from repro.serve import (
    FleetClient,
    FleetFrontDoor,
    FleetServer,
    MultiplyServer,
    decode_arrays,
    encode_arrays,
)

from spans import Tracer
from workloads import (
    LARGE_SHAPES,
    SMALL_SHAPES,
    Audit,
    make_operands,
    open_loop,
    percentile,
    server_layers,
)

RUNGS = (
    "numpy", "kernel", "serial", "threads", "processes", "verify", "server", "fleet",
)
#: Calls per rung: few at the large shapes, more where a call is ~0.1 ms.
REPS = {"large": 3, "small": 15}


def _median_ms(fn, reps: int):
    times = []
    out = None
    for _ in range(reps):
        start = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - start)
    return percentile(times, 50) * 1e3, out


def _kernel_pass(plan, packed_a, packed_b, backend, c) -> np.ndarray:
    """The backend's strip multiplies over pre-packed blocks, in plan order."""
    grid = plan.grid()
    for coord in plan.schedule():
        ext = grid.extent(coord)
        m0, n0, _ = grid.origin(coord)
        a_block = packed_a.block(coord.mi, coord.ki)
        b_panel = packed_b.panel(coord.ki, coord.ni)
        c_view = c[m0 : m0 + ext.m, n0 : n0 + ext.n]
        r0 = 0
        for rows in core_strips(ext.m, plan.cores):
            backend.matmul_strip(a_block[r0 : r0 + rows], b_panel, c_view[r0 : r0 + rows])
            r0 += rows
    return c


def _shape_rungs(shape, a, b, reps, server, client, audit: Audit) -> dict:
    machine = intel_i9_10900k()
    m, k, n = a.shape[0], a.shape[1], b.shape[1]
    out: dict = {"shape": shape, "ms": {}}
    ms = out["ms"]
    serial = cake_matmul(a, b)
    ref = serial.c

    ms["numpy"], _ = _median_ms(lambda: np.matmul(a, b), reps)

    plan = CakePlan.from_problem(machine, ComputationSpace(m, n, k))
    out["pack_ms"], (packed_a, packed_b) = _median_ms(
        lambda: (
            pack_a_cake(a, plan.m_block, plan.kc),
            pack_b_cake(b, plan.kc, plan.n_block),
        ),
        reps,
    )
    buf_a, buf_b = np.empty_like(a), np.empty_like(b)
    out["copy_ms"], _ = _median_ms(
        lambda: (np.copyto(buf_a, a), np.copyto(buf_b, b)), reps
    )
    backend = resolve_backend("numpy").create(kernel=plan.kernel, exact_tiles=False)
    dtype = np.result_type(a, b)
    ms["kernel"], c = _median_ms(
        lambda: _kernel_pass(
            plan, packed_a, packed_b, backend, np.zeros((m, n), dtype=dtype)
        ),
        reps,
    )
    audit.check_array(c, ref)

    for rung, kwargs in (
        ("serial", {}),
        ("threads", {"workers": 2}),
        ("processes", {"processes": 2}),
        ("verify", {"verify": True}),
    ):
        cake_matmul(a, b, **kwargs)  # first call pays pool start-up
        ms[rung], run = _median_ms(lambda: cake_matmul(a, b, **kwargs), reps)
        audit.check_array(run.c, ref)
        out[rung] = run

    def served():
        return server.submit(a, b).result()

    served()
    ms["server"], run = _median_ms(served, reps)
    audit.check_array(run.c, ref)

    client.multiply(a, b)
    trips, hops = [], []
    for _ in range(reps):
        start = time.perf_counter()
        remote = client.multiply(a, b)
        trip = time.perf_counter() - start
        audit.check_array(remote.c, ref)
        trips.append(trip)
        hops.append(trip - remote.report["total_seconds"])
    ms["fleet"] = percentile(trips, 50) * 1e3
    out["fleet_hop_ms"] = percentile(hops, 50) * 1e3

    out["predicted_ms"] = serial.time.seconds * 1e3
    out["flops_per_ext_byte"] = serial.flops / serial.counters.ext_total_bytes(
        machine.element_bytes
    )
    return out


def _server_burst(server, a, b, ref, audit: Audit, count: int = 200) -> dict:
    """A short open-loop burst at the serve-small rate, for the server layers."""
    before = server.stats()
    offered = open_loop(server, lambda i: ("cake", a, b, ref), count, Tracer(False), audit)
    return server_layers(
        before, server.stats(), offered, offered["admit"], offered["reports"]
    )


def _plan_probe() -> dict:
    machine = intel_i9_10900k()
    space = ComputationSpace(768, 768, 768)
    clear_plan_memos()
    start = time.perf_counter()
    CakePlan.from_problem(machine, space)
    GotoPlan.from_problem(machine, space)
    cold = (time.perf_counter() - start) / 2
    warm, _ = _median_ms(
        lambda: (CakePlan.from_problem(machine, space), GotoPlan.from_problem(machine, space)),
        201,
    )
    return {"gemm.plan.plan_cold_us": cold * 1e6, "gemm.plan.plan_warm_us": warm * 1e3 / 2}


def _analysis_probe() -> dict:
    machine = intel_i9_10900k()
    engine = CakeGemm(machine, cores=10)
    analyze_ms, run = _median_ms(lambda: engine.analyze(5760, 5760, 5760), 5)
    plan = CakePlan.from_problem(machine, ComputationSpace(5760, 5760, 5760), cores=10)
    grid = plan.grid()
    order_ms, order = _median_ms(lambda: kfirst_order_arrays(grid), 5)
    sa, sb, sc = grid.surface_arrays(order.mi, order.ni, order.ki)
    active = np.full(len(sa), plan.cores)
    cycles = np.ones(len(sa), dtype=float) * plan.kc
    price_ms, _ = _median_ms(
        lambda: block_times_batch(
            machine, active_cores=active, tile_cycles=cycles, kc=plan.kc,
            ext_bytes=(sa + sb + sc) * machine.element_bytes,
            int_elements=sa + active * sb + 2 * sc,
        ),
        5,
    )
    return {
        "analysis.batch.analyze_ms": analyze_ms,
        "analysis.batch.blocks_per_s": run.plan_summary["blocks"] / (analyze_ms / 1e3),
        "schedule.order_ms": order_ms,
        "perfmodel.price_ms": price_ms,
    }


def _protocol_probe(a, b, c) -> dict:
    encode_ms, (manifest, blob) = _median_ms(lambda: encode_arrays([a, b]), 201)
    decode_ms, _ = _median_ms(lambda: decode_arrays(manifest, blob), 201)
    result_ms, _ = _median_ms(lambda: encode_arrays([c]), 201)
    return {
        "serve.protocol.encode_us": encode_ms * 1e3,
        "serve.protocol.decode_us": decode_ms * 1e3,
        "serve.protocol.encode_result_us": result_ms * 1e3,
    }


def probe(seed: int, audit: Audit) -> "tuple[dict, list[dict]]":
    """All per-layer probe metrics, and the ladder rows per shape."""
    rng = np.random.default_rng(seed + 100)
    shapes = [
        (name, "large", make_operands(rng, a_shape, b_shape, dtype))
        for name, a_shape, b_shape, dtype in LARGE_SHAPES
    ] + [
        (name, "small", make_operands(rng, a_shape, b_shape, dtype))
        for name, a_shape, b_shape, dtype in SMALL_SHAPES
    ]
    metrics: dict = {}
    metrics.update(_plan_probe())
    metrics.update(_analysis_probe())

    server = MultiplyServer(executors=2).start()
    start = time.monotonic()
    fleet = FleetServer(workers=2).start()
    while not all(s["state"] == "ready" for s in fleet.supervisor.snapshot()):
        if time.monotonic() - start > 120:
            raise RuntimeError("fleet workers never became ready")
        time.sleep(0.005)
    metrics["serve.supervisor.ready_s"] = time.monotonic() - start
    door = FleetFrontDoor(fleet).start()
    client = FleetClient(*door.address)
    small_a, small_b = shapes[2][2]  # cube128
    try:
        rows = [
            _shape_rungs(name, a, b, REPS[size], server, client, audit)
            for name, size, (a, b) in shapes
        ]
        by_shape = {row["shape"]: row for row in rows}
        metrics.update(_server_burst(
            server, small_a, small_b, by_shape["cube128"]["serial"].c, audit
        ))
        fleet_stats = fleet.stats()
    finally:
        client.close()
        door.stop()
        fleet.stop()
        server.stop()

    for row in rows:
        shape = row["shape"]
        for rung in RUNGS:
            metrics[f"ladder.{shape}.{rung}_ms"] = row["ms"][rung]
        metrics[f"perfmodel.{shape}.predicted_ms"] = row["predicted_ms"]
        metrics[f"gemm.counters.{shape}.flops_per_ext_byte"] = row["flops_per_ext_byte"]

    cube, small = by_shape["cube768"], by_shape["cube128"]
    ms = cube["ms"]
    sharded = cube["processes"].shards
    slowest = max(
        (d.get("compute", 0.0) for d in sharded.shard_phase_seconds), default=0.0
    )
    metrics.update({
        "api.gflops": 2.0 * 768**3 / ms["serial"] / 1e6,
        "packing.pack_ms": cube["pack_ms"],
        "packing.copy_ratio": cube["pack_ms"] / cube["copy_ms"],
        "gemm.backends.kernel_ms": ms["kernel"],
        "gemm.backends.numpy_ratio": ms["kernel"] / ms["numpy"],
        "gemm.engine.overhead_ms": ms["serial"] - cube["pack_ms"] - ms["kernel"],
        "gemm.engine.overhead_small_ms":
            small["ms"]["serial"] - small["pack_ms"] - small["ms"]["kernel"],
        "gemm.parallel.threads_speedup": ms["serial"] / ms["threads"],
        "gemm.sharded.speedup": ms["serial"] / ms["processes"],
        "gemm.sharded.dispatch_ms": ms["processes"] - slowest * 1e3,
        "gemm.sharded.ipc_bound_ratio": sharded.slack,
        "gemm.verify.overhead_ratio": ms["verify"] / ms["serial"],
        "gemm.verify.checksum_bytes": float(
            cube["verify"].verify.checksum_bytes(cube["verify"].machine.element_bytes)
        ),
        "serve.server.added_ms": small["ms"]["server"] - small["ms"]["serial"],
        "serve.fleet.hop_ms": small["fleet_hop_ms"],
        "serve.fleet.redispatched": fleet_stats.redispatched,
        "serve.fleet.worker_restarts": fleet_stats.worker_restarts,
        "serve.fleet.worker_crashes": fleet_stats.worker_crashes,
    })
    metrics.update(_protocol_probe(small_a, small_b, small["serial"].c))
    return metrics, rows


def verdict(rows: "list[dict]") -> "tuple[list[str], int]":
    """Report lines per shape, and how many rungs beat their predecessor nowhere."""
    lines = []
    never = []
    for i, rung in enumerate(RUNGS[1:], start=1):
        if not any(row["ms"][rung] < row["ms"][RUNGS[i - 1]] for row in rows):
            never.append(rung)
    for row in rows:
        lines.append(
            f"-- {row['shape']}: model {row['predicted_ms']:.3f} ms, "
            f"{row['flops_per_ext_byte']:.1f} flop/ext byte --"
        )
        prev = None
        for rung in RUNGS:
            value = row["ms"][rung]
            change = "" if prev is None else f"  x{value / prev:5.2f} vs previous"
            mark = "  (beats its predecessor on no shape)" if rung in never else ""
            lines.append(f"   {rung:<10} {value:9.3f} ms{change}{mark}")
            prev = value
    return lines, len(never)
