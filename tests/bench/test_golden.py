"""Golden-file regression tests for the bench row generators.

Each covered experiment runs at quick scale, its report is flattened to
header-keyed rows (the same shape ``BENCH_*.json`` carries), and the
result is diffed against a committed fixture under ``tests/golden/``.
The figure grids of Figs. 8-12 are also pinned at full scale (the
paper's problem sizes), where the batch analyzer's LRU replay sees its
largest grids.
Any numeric drift in the analytical models — block geometry, IO
counters, bandwidth curves — shows up here as a readable JSON diff
instead of a silently changed figure.

To intentionally re-baseline after a model change::

    CAKE_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/bench/test_golden.py

then review the fixture diff like any other code change.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.bench import run_experiment
from repro.runtime import rows_from_report

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"

#: Experiments pinned by golden files: the cheap, fully deterministic
#: generators spanning every analysis family (machine table, CB
#: scaling, stall/access profiles, shape sweep, speedup, core scaling),
#: including every figure grid of Figs. 8-12.
PINNED = (
    "table2", "fig4", "fig7a", "fig7b", "fig8", "fig9a", "fig9b", "fig10",
    "fig11", "fig12",
)

#: Experiments also pinned at full scale: the figure grids of Figs. 8-12.
PINNED_FULL = ("fig8", "fig9a", "fig9b", "fig10", "fig11", "fig12")


def _canonical_rows(name: str, scale: str) -> str:
    report = run_experiment(name, scale)
    rows = rows_from_report(report)
    return json.dumps(rows, sort_keys=True, indent=1, default=str) + "\n"


def _check_golden(name: str, scale: str) -> None:
    path = GOLDEN_DIR / f"{name}_{scale}.json"
    actual = _canonical_rows(name, scale)
    if os.environ.get("CAKE_REGEN_GOLDEN"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(actual)
        pytest.skip(f"regenerated {path.name}")
    assert path.exists(), (
        f"missing golden fixture {path}; run with CAKE_REGEN_GOLDEN=1 "
        "to create it"
    )
    expected = path.read_text()
    assert actual == expected, (
        f"{name} {scale}-scale rows drifted from {path.name}; if the model "
        "change is intentional, regenerate with CAKE_REGEN_GOLDEN=1 and "
        "review the diff"
    )


@pytest.mark.parametrize("name", PINNED)
def test_rows_match_golden(name):
    _check_golden(name, "quick")


@pytest.mark.parametrize("name", PINNED_FULL)
def test_full_scale_rows_match_golden(name):
    _check_golden(name, "full")


def test_no_orphan_golden_fixtures():
    """Every committed fixture corresponds to a pinned experiment."""
    fixtures = {p.stem for p in GOLDEN_DIR.glob("*.json")}
    assert fixtures == {f"{name}_quick" for name in PINNED} | {
        f"{name}_full" for name in PINNED_FULL
    }
