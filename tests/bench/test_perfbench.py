"""What the benchmark in ``perfbench/`` needs from the library.

The benchmark's files change only with the benchmark, so a library change
that breaks them would otherwise surface only when the benchmark runs.
These tests read ``perfbench/`` without changing it: nothing is written
there, bytecode included.
"""

from __future__ import annotations

import ast
import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import cake_matmul
from repro.gemm import CakePlan, resolve_backend
from repro.machines import intel_i9_10900k
from repro.packing import pack_a_cake, pack_b_cake
from repro.schedule import ComputationSpace

PERFBENCH = Path(__file__).resolve().parents[2] / "perfbench"


def _repro_imports() -> list[tuple[str, str, str | None]]:
    """``(file, module, name)`` for every import of ``repro`` in
    ``perfbench/*.py``; ``name`` is None for ``import repro.x``."""
    found = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                module = node.module or ""
                if module == "repro" or module.startswith("repro."):
                    found += [(path.name, module, a.name) for a in node.names]
            elif isinstance(node, ast.Import):
                found += [
                    (path.name, a.name, None)
                    for a in node.names
                    if a.name == "repro" or a.name.startswith("repro.")
                ]
    return found


def test_every_name_perfbench_imports_from_repro_resolves():
    imports = _repro_imports()
    assert len({filename for filename, _, _ in imports}) >= 2, imports
    missing = []
    for filename, module, name in imports:
        try:
            found = importlib.import_module(module)
        except ImportError as exc:
            missing.append(f"{filename}: {module} ({exc})")
            continue
        if name is None or hasattr(found, name):
            continue
        try:
            importlib.import_module(f"{module}.{name}")  # a submodule
        except ImportError:
            missing.append(f"{filename}: {module}.{name}")
    assert not missing, missing


@pytest.fixture(scope="module")
def ladder():
    """``perfbench/ladder.py``, imported by bare name as ``run.py``
    imports it, then dropped again with its sibling modules."""
    siblings = ("ladder", "workloads", "spans")
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("ladder")
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.dont_write_bytecode = saved
        for name in siblings:
            sys.modules.pop(name, None)


def test_the_ladders_kernel_rung_equals_the_default_multiply(ladder):
    """Pins a benchmark coupling, not a library contract.

    The traced ladder times its ``kernel`` rung on a plan for the i9
    preset at its default cores, and its audit requires that product to
    equal ``cake_matmul(a, b).c``, the default multiply. A default plan
    that cuts blocks differently (a host plan, ``cores=2``) changes the
    product's bits, and every traced benchmark run then reports
    ``correct: false``, which ``perfbench/smoke.py`` cannot see because
    its traced runs plant a wrong product on purpose. The benchmark
    change that plans the rung like ``cake_matmul`` updates or deletes
    this test.
    """
    workloads = sys.modules["workloads"]
    rng = np.random.default_rng(7)
    wrong = []
    for name, a_shape, b_shape, dtype in (
        *workloads.LARGE_SHAPES, *workloads.SMALL_SHAPES
    ):
        a, b = workloads.make_operands(rng, a_shape, b_shape, dtype)
        m, k, n = a.shape[0], a.shape[1], b.shape[1]
        # The plan, packing and backend exactly as `_shape_rungs` builds them.
        plan = CakePlan.from_problem(intel_i9_10900k(), ComputationSpace(m, n, k))
        backend = resolve_backend("numpy").create(
            kernel=plan.kernel, exact_tiles=False
        )
        c = ladder._kernel_pass(
            plan,
            pack_a_cake(a, plan.m_block, plan.kc),
            pack_b_cake(b, plan.kc, plan.n_block),
            backend,
            np.zeros((m, n), dtype=np.result_type(a, b)),
        )
        if not np.array_equal(c, cake_matmul(a, b).c):
            wrong.append(name)
    assert not wrong, wrong
