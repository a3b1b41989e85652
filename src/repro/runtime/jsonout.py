"""Machine-readable benchmark output: ``BENCH_<experiment>.json``.

Every bench/CLI invocation can persist, alongside the human-readable
report text, a JSON document with the experiment's result rows
(GFLOP/s, DRAM GB/s, trace serves, ...) plus the wall-clock time of the
run that produced them. Schema::

    {
      "schema": "cake-bench/v2",
      "experiment": "fig9a",
      "scale": "quick",
      "wall_seconds": 0.03,
      "rows": [ {"table": 0, "cores": "CAKE", "1": "1.00", "2": "1.94", ...},
                ... ]
    }

``cake-bench`` and the figure benches fill ``rows`` with
:func:`rows_from_report`: each report table flattened into header-keyed
dicts tagged with the table's index. The exec-layer benches pass their
own measurement rows, and ``extra`` adds top-level keys (floors,
ceilings, host facts) to the document.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any

BENCH_SCHEMA = "cake-bench/v2"


def rows_from_report(report: Any) -> list[dict[str, Any]]:
    """Flatten an ExperimentReport's tables into header-keyed row dicts."""
    rows: list[dict[str, Any]] = []
    for table_index, (headers, table_rows) in enumerate(report.tables):
        for row in table_rows:
            entry: dict[str, Any] = {"table": table_index}
            entry.update(zip(headers, row))
            rows.append(entry)
    return rows


def write_bench_json(
    directory: Path | str,
    experiment_id: str,
    rows: list[dict[str, Any]],
    *,
    wall_seconds: float,
    scale: str | None = None,
    extra: dict[str, Any] | None = None,
) -> Path:
    """Write ``BENCH_<experiment_id>.json`` atomically; returns its path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    payload: dict[str, Any] = {
        "schema": BENCH_SCHEMA,
        "experiment": experiment_id,
        "scale": scale,
        "wall_seconds": wall_seconds,
        "rows": rows,
    }
    if extra:
        payload.update(extra)
    target = directory / f"BENCH_{experiment_id}.json"
    text = json.dumps(payload, indent=1, sort_keys=True, default=str)
    fd, tmp = tempfile.mkstemp(
        dir=directory, prefix=f".{experiment_id}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise
    return target
