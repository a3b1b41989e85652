"""A directory of atomic, versioned JSON rows keyed by content hash.

One JSON file per key. The key is a content hash over every field that
decides the row — :class:`repro.tune.cache.PlanCache`, this class's one
user, keys a tuned plan by :attr:`~repro.tune.space.TuneKey.key_id` —
so a hit is definitionally the same question. Writes are atomic (temp
file + ``os.replace``) so a crashed or killed process never leaves a
truncated row for a later one to trip over.

Entries are stored in a versioned envelope —
``{"schema": "cake-cache/v2", "row": {...}}`` — and an entry whose
schema is missing or unknown is treated as a miss (then overwritten by
the fresh store), so old caches upgrade in place without manual
clearing. A file that fails to parse at all is **quarantined** to
``<key>.corrupt`` rather than deleted: the slot is immediately
reusable, but the evidence survives for postmortems of what wrote it.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any

#: Version tag stored with every entry. Bump when the envelope (or the
#: meaning of rows) changes; readers treat any other value as a miss.
CACHE_SCHEMA = "cake-cache/v2"


@dataclass(slots=True)
class CacheStats:
    """Hit/miss/store counters for one cache instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt: int = 0
    stale: int = 0


class ResultCache:
    """Directory-backed map from content-hash key to JSON row."""

    def __init__(self, root: Path | str) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.stats = CacheStats()

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def _quarantine_path(self, key: str) -> Path:
        return self.root / f"{key}.corrupt"

    def load(self, key: str) -> dict[str, Any] | None:
        """The cached row for ``key``, or None.

        A file that does not parse (interrupted legacy write, stray
        garbage) counts as a miss and is quarantined to
        ``<key>.corrupt`` for inspection; an entry with a missing or
        unknown schema version counts as a stale miss and is left to be
        overwritten by the fresh store.
        """
        path = self._path(key)
        try:
            with path.open("r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except (json.JSONDecodeError, UnicodeDecodeError, OSError):
            self.stats.corrupt += 1
            self.stats.misses += 1
            try:
                path.replace(self._quarantine_path(key))
            except OSError:
                path.unlink(missing_ok=True)
            return None
        if (
            not isinstance(doc, dict)
            or doc.get("schema") != CACHE_SCHEMA
            or not isinstance(doc.get("row"), dict)
        ):
            self.stats.stale += 1
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return doc["row"]

    def store(self, key: str, row: dict[str, Any]) -> None:
        """Persist ``row`` atomically under ``key``."""
        payload = json.dumps(
            {"schema": CACHE_SCHEMA, "row": row}, sort_keys=True, indent=1
        )
        fd, tmp = tempfile.mkstemp(
            dir=self.root, prefix=f".{key}.", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(payload)
            os.replace(tmp, self._path(key))
        except BaseException:
            try:
                os.unlink(tmp)
            except FileNotFoundError:
                pass
            raise
        self.stats.stores += 1

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.json"))

    def clear(self) -> None:
        """Remove every cached row (and any quarantined entries)."""
        for pattern in ("*.json", "*.corrupt"):
            for path in self.root.glob(pattern):
                path.unlink(missing_ok=True)
