"""Smoke test of the benchmark itself.

Run from the repository root::

    python3 perfbench/smoke.py [--seed N]

For every workload in ``BENCHMARK.json`` it makes one short untraced run
and one short traced run with a deliberately corrupted product, and
asserts that

* every end-to-end metric (untraced) and every per-layer metric (traced)
  is printed with the unit ``BENCHMARK.json`` gives it;
* the untraced run is correct and fails nothing;
* the corrupted product is counted: ``correct`` is false, ``failed`` is at
  least 1 and ``fail_ratio`` is above 0;
* in the traced run, the self times of the spans under one operation sum
  to no more than that operation's wall time.

Finally it checks that a copy holding only ``BENCHMARK.json`` and the
benchmark's files exits non-zero without printing a result. Exit code 0
means every check passed.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _run(cwd: Path, *args: str) -> "tuple[int, list[str]]":
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-3000:])
    return proc.returncode, proc.stdout.strip().splitlines()


def _check_metrics(lines, expected, label) -> dict:
    out = json.loads(lines[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}, out.keys()
    metrics = out["metrics"]
    for metric in expected:
        name, unit = metric["name"], metric["unit"]
        assert name in metrics, f"{label}: {name} missing"
        assert metrics[name]["unit"] == unit, f"{label}: {name} unit"
        assert any(
            line.split()[:1] == [name] and line.split()[-1] == unit
            for line in lines[:-1]
        ), f"{label}: {name} not printed with its unit"
    assert out["attempted"] >= 1, label
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description="benchmark smoke test")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seed = str(args.seed)
    for workload in (w["name"] for w in spec["workloads"]):
        code, lines = _run(
            ROOT, "--workload", workload, "--seed", seed, "--seconds", "1",
            "--trace", "0",
        )
        assert code == 0, f"{workload}: exit {code}"
        out = _check_metrics(lines, spec["end_to_end"], f"{workload} untraced")
        assert out["correct"] and out["failed"] == 0, f"{workload}: {out}"

        code, lines = _run(
            ROOT, "--workload", workload, "--seed", seed, "--seconds", "1",
            "--trace", "1", "--corrupt", "1",
        )
        assert code == 0, f"{workload} traced: exit {code}"
        out = _check_metrics(lines, spec["per_layer"], f"{workload} traced")
        assert not out["correct"] and out["failed"] >= 1, f"{workload}: {out}"
        assert out["metrics"]["fail_ratio"]["value"] > 0, workload
        ratio = out["metrics"]["trace.self_over_wall_max"]["value"]
        assert 0 < ratio <= 1 + 1e-9, f"{workload}: self/wall {ratio}"
        print(f"{workload}: ok ({out['attempted']} operations, self/wall {ratio:.6f})")

    bare = ROOT / "perfbench_out" / "bare-copy"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    code, lines = _run(bare, "--workload", spec["workloads"][0]["name"], "--seed", seed)
    shutil.rmtree(bare, ignore_errors=True)
    assert code != 0 and not any(line.startswith("{") for line in lines), code
    print("bare copy: exits", code, "without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
