"""Deterministic numeric fault injection for the GEMM engines.

Recovery code that is never exercised is recovery code that does not
work. :class:`NumericFaultRule` corrupts the **numeric output of one
strip** inside the strip-group executor (:mod:`repro.gemm.parallel`) —
a bit flip, a scaled perturbation, or a zeroed panel — which is how the
ABFT verification layer (:mod:`repro.gemm.verify`) proves its detection
and recovery ladder end-to-end. Two more kinds misbehave without
corrupting anything: ``kill`` ends a shard worker process and ``hang``
stalls it, which is how the sharded executor's restart ladder and the
serve layer's deadlines are driven on demand.

Rules are keyed by ``(block, strip)`` indices of the executor's
deterministic group schedule and fire on the first ``times``
*attempts* of each matching strip (a recomputation during recovery is a
new attempt), so the corruption schedule is a pure function of the plan
— never of thread timing or worker count. With a ``state_dir`` the
firing counts live on disk and therefore survive worker kills and pool
rebuilds, which is how "kill the worker once, then let the re-run
succeed" is expressed across process boundaries.

Plans arrive through :attr:`repro.gemm.verify.VerifyConfig.inject`,
built in code or from JSON (:meth:`NumericFaultPlan.from_json`)::

    {"state_dir": "/tmp/faults", "rules": [
        {"block": 0, "strip": 1, "kind": "bitflip"},
        {"block": "*", "strip": 0, "kind": "kill"}
    ]}

Safety: ``kill`` and ``hang`` only physically fire inside pool worker
processes, which the shard pool's initializer marks with
:func:`mark_worker_process`. In the orchestrating process they are
inert, so an injection plan can never take down or stall it.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

_IN_WORKER = False


def mark_worker_process() -> None:
    """Pool initializer: flags this process as a disposable worker."""
    global _IN_WORKER
    _IN_WORKER = True


def in_worker_process() -> bool:
    """True inside a pool worker (where kill/hang faults may fire)."""
    return _IN_WORKER


_NUMERIC_KINDS = ("bitflip", "scale", "zero", "kill", "hang")

#: Default bit to flip per element width: the most-significant exponent
#: bit, so a flipped value lands far outside any plausible tolerance band
#: (often inf/NaN — which the verifier treats as a mismatch as well).
_DEFAULT_FLIP_BIT = {4: 30, 8: 62}


@dataclass(frozen=True, slots=True)
class NumericFaultRule:
    """One scripted corruption of a strip's C output.

    ``block`` and ``strip`` select the target by the executor's
    deterministic indices (``"*"`` matches every index). ``times`` is the
    number of corrupted *attempts per matching strip*: with ``times=1``
    only the first execution of each matching strip is corrupted and the
    verifier's recompute heals it; a large ``times`` keeps corrupting
    recomputes too, forcing escalation to the oracle path (which bypasses
    injection) or to :class:`~repro.gemm.verify.NumericFaultError`.

    Kinds:

    * ``bitflip`` — XOR bit ``bit`` of element ``(row, col)`` (indices
      taken modulo the strip panel's shape; ``bit=None`` flips the top
      exponent bit for the panel's dtype);
    * ``scale`` — multiply the whole strip panel by ``factor``;
    * ``zero`` — overwrite the strip panel with zeros;
    * ``kill`` — terminate the hosting process mid-group via
      ``os._exit``, the crash a shard worker of the process-sharded
      executor must survive. It only physically fires inside a pool
      worker (marked by the pool initializer); in inline execution it is
      inert — it neither kills nor consumes its budget, so an
      inline-fallback re-run of a killed shard computes cleanly.
    * ``hang`` — sleep ``hang_seconds`` mid-group without corrupting
      anything, the stall a per-request deadline must preempt (the
      sharded executor's deadline kills the hung pool; the serve layer
      resolves the waiting client with ``DeadlineExceededError``).
      Worker-only and inert inline, exactly like ``kill``, so an
      injection plan can never stall the orchestrating process itself.
    """

    block: int | str = "*"
    strip: int | str = "*"
    kind: str = "bitflip"
    times: int = 1
    factor: float = 2.0
    row: int = 0
    col: int = 0
    bit: int | None = None
    hang_seconds: float = 30.0

    def __post_init__(self) -> None:
        if self.kind not in _NUMERIC_KINDS:
            raise ValueError(
                f"unknown numeric fault kind {self.kind!r}; "
                f"expected one of {_NUMERIC_KINDS}"
            )
        if self.times < 1:
            raise ValueError(f"fault times must be >= 1, got {self.times}")
        for name in ("block", "strip"):
            value = getattr(self, name)
            if value != "*" and (not isinstance(value, int) or value < 0):
                raise ValueError(
                    f"{name} must be a non-negative index or '*', got {value!r}"
                )

    def matches(self, block: int, strip: int) -> bool:
        return (self.block == "*" or self.block == block) and (
            self.strip == "*" or self.strip == strip
        )


@dataclass(frozen=True, slots=True)
class NumericFaultPlan:
    """A set of :class:`NumericFaultRule` applied by one injector.

    Without ``state_dir`` firing counts live in the injector (per
    process); with it they persist on disk keyed by ``(rule, block,
    strip)``, surviving worker kills and pool rebuilds — the only way to
    express "kill the shard worker once, then let the re-run succeed"
    across a process boundary.
    """

    rules: tuple[NumericFaultRule, ...]
    state_dir: str | None = None

    def __post_init__(self) -> None:
        if not self.rules:
            raise ValueError("numeric fault plan has no rules")

    @classmethod
    def from_json(cls, doc: object) -> "NumericFaultPlan":
        """Build a plan from a decoded JSON rule list (or ``{"rules": ...}``)."""
        state_dir = None
        if isinstance(doc, dict):
            state_dir = doc.get("state_dir")
            doc = doc.get("rules", ())
        if not isinstance(doc, (list, tuple)):
            raise ValueError(
                f"numeric fault plan must be a JSON list or object, got {doc!r}"
            )
        return cls(
            rules=tuple(NumericFaultRule(**rule) for rule in doc),
            state_dir=None if state_dir is None else str(state_dir),
        )


class NumericFaultInjector:
    """Applies a :class:`NumericFaultPlan` to strip outputs.

    Attempt counts are kept per ``(rule, block, strip)`` under a lock, so
    whether a given attempt is corrupted depends only on the rule and the
    strip's recomputation count — identical for any worker count and any
    thread interleaving (the determinism the verifier's bit-identity
    guarantee rests on).
    """

    def __init__(self, plan: NumericFaultPlan) -> None:
        self.plan = plan
        self.fired = 0
        self._lock = threading.Lock()
        self._counts: dict[tuple[int, int, int], int] = {}
        if plan.state_dir is not None:
            Path(plan.state_dir).mkdir(parents=True, exist_ok=True)

    def _count_path(self, key: tuple[int, int, int]) -> Path:
        index, block, strip = key
        return (
            Path(self.plan.state_dir)  # type: ignore[arg-type]
            / f"numeric.{index}.{block}.{strip}.fired"
        )

    def _get_count(self, key: tuple[int, int, int]) -> int:
        if self.plan.state_dir is None:
            return self._counts.get(key, 0)
        try:
            return int(self._count_path(key).read_text())
        except (FileNotFoundError, ValueError):
            return 0

    def _set_count(self, key: tuple[int, int, int], count: int) -> None:
        self._counts[key] = count
        if self.plan.state_dir is not None:
            self._count_path(key).write_text(str(count))

    def corrupt(self, block: int, strip: int, panel: np.ndarray) -> bool:
        """Corrupt ``panel`` in place if an unexhausted rule matches.

        ``kill`` rules are inert outside pool workers: they neither fire
        nor consume budget, so the orchestrator (and any inline-fallback
        re-run) can never be taken down by its own injection plan. The
        firing count is recorded *before* the process dies, so a rebuilt
        worker reading a shared ``state_dir`` sees the budget spent.
        """
        for index, rule in enumerate(self.plan.rules):
            if not rule.matches(block, strip):
                continue
            if rule.kind in ("kill", "hang") and not in_worker_process():
                continue
            key = (index, block, strip)
            with self._lock:
                count = self._get_count(key)
                if count >= rule.times:
                    continue
                self._set_count(key, count + 1)
                self.fired += 1
            self._apply(rule, panel)
            return True
        return False

    @staticmethod
    def _apply(rule: NumericFaultRule, panel: np.ndarray) -> None:
        if rule.kind == "kill":
            os._exit(3)
        if rule.kind == "hang":
            time.sleep(rule.hang_seconds)
            return
        if rule.kind == "zero":
            panel[...] = 0
            return
        if rule.kind == "scale":
            panel *= rule.factor
            return
        # bitflip
        itemsize = panel.dtype.itemsize
        if panel.dtype.kind != "f" or itemsize not in _DEFAULT_FLIP_BIT:
            raise ValueError(
                f"bitflip faults support float32/float64 panels, got {panel.dtype}"
            )
        bit = _DEFAULT_FLIP_BIT[itemsize] if rule.bit is None else rule.bit
        if not 0 <= bit < 8 * itemsize:
            raise ValueError(f"bit {bit} out of range for {panel.dtype}")
        r = rule.row % panel.shape[0]
        c = rule.col % panel.shape[1]
        utype = np.uint32 if itemsize == 4 else np.uint64
        panel[r : r + 1, c : c + 1].view(utype)[...] ^= utype(1 << bit)
