"""ABFT checksum verification and self-healing execution.

Nothing in a fast numeric path proves the ``C`` it produced is actually
the product — a soft error, a misbehaving thread, or a buggy fast path
corrupts silently. This module adds classic algorithm-based fault
tolerance (Huang & Abraham) at exactly the granule CAKE already exposes:
the CB block / strip group of the executor.

The identities
--------------

For every strip group the executor runs (one CB block for CAKE, one
``(nc, kc)`` slice for GOTO), the group updates a C row panel by
``C += A_g @ B_g``. Two checksum identities must then hold:

* **column**: ``colsum(C_after) - colsum(C_before) = colsum(A_g) @ B_g``,
  where ``colsum`` sums over rows. ``colsum(A_g)`` is the column
  checksum of the group's A block(s) — computed once per run from the
  operand's own blocks (:func:`repro.gemm.parallel.build_groups`) and
  reused every time the block participates in a group.
* **row** (per strip): ``rowsum(C_after) - rowsum(C_before) =
  A_s @ rowsum(B_g)``, where ``rowsum`` sums over columns and
  ``rowsum(B_g)`` is the row checksum of the B panel, computed once
  the same way. The row identity localizes a mismatch to one strip.

Verifying a group costs ``O(mk + kn + mn)`` against the ``O(mkn)`` it
checks — asymptotically free, and measured end-to-end by
``benchmarks/bench_verify_overhead.py``. To keep the constant small the
verifier caches each C panel's column/row sums between the groups that
accumulate into it (:class:`_PanelState`): the sums it computed to
verify group ``g`` *are* the "before" sums of group ``g+1`` on the same
panel, so steady-state verification touches the panel only twice (one
colsum pass, one rowsum pass) instead of re-deriving before/after
magnitudes from scratch.

Tolerance model
---------------

Checksummed and direct accumulations associate differently, so the two
sides differ by rounding noise. The verifier bounds that noise with a
dtype-aware band: ``atol + rtol * ref`` where ``ref`` is a running
*absolute-value* bound — each group adds its update magnitude to the
panel's accumulated bound, which keeps the band honest under
cancellation without re-scanning ``|C|`` every group. The update
magnitudes come from per-block ``|A|``/``|B|`` axis sums, computed
with the checksums, so the per-group band is O(m + n) vector
arithmetic. ``rtol`` defaults to ``8 * eps * (m + k + 2)`` for the
group's extents in the accumulation dtype. Non-finite values
(inf/NaN from a flipped exponent bit) always count as mismatches —
comparisons are written so NaN fails them. Non-finite *operands* never
get this far: the checksum pass of
:func:`~repro.gemm.parallel.build_groups` refuses a block whose sums
are not finite with a ``ValueError``.

The recovery ladder
-------------------

On mismatch, recovery runs **inside the group barrier** (the executor
calls the verifier before the next group starts), so healing is
bit-deterministic for any worker count:

1. restore the group's pre-group C panel — by zero-filling and
   replaying the panel's verified group history (bit-exact, since every
   accepted group's bits equal a clean run's; replay restore is only
   used with the deterministic oracle backend — other backends take
   real snapshots for non-fresh panels) or, for a panel first seen
   mid-accumulation, from the copy taken at dispatch — then recompute
   the group inline through the *same* backend calls the clean path
   issued, up to ``max_retries`` times: a transient fault does not
   recur, and the backend's recomputed bits equal the clean run's
   exactly;
2. restore and recompute through the **oracle path**: per-strip panel
   products through the plan's micro-kernel, with operand checks
   enabled and fault injection bypassed (bit-exact for the oracle
   backend; the trusted reference product for any other — this is the
   rung that makes a *fast untrusted backend* safe to run verified);
3. raise :class:`NumericFaultError` carrying the block coordinates, the
   failing identity, the strip (when the row identity localized one),
   and the residual/tolerance pair.

Deterministic corruption to drive all three rungs comes from
:class:`repro.runtime.faults.NumericFaultRule`, attached via
:attr:`VerifyConfig.inject`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.errors import CakeError
from repro.gemm.backends.base import Backend, execute_group
from repro.util import require_nonnegative

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints only
    from repro.gemm.microkernel import MicroKernel
    from repro.gemm.parallel import PhaseTimers, StripGroup
    from repro.runtime.faults import NumericFaultInjector, NumericFaultPlan

#: Multiplier on ``eps * (m + k + 2)`` for the default relative band —
#: ~100x above the rounding noise observed for random operands, while
#: still far below any injected corruption kind.
_RTOL_SAFETY = 8.0


class NumericFaultError(CakeError):
    """A strip group failed checksum verification beyond recovery.

    Attributes
    ----------
    label, coord:
        Human-readable block name and the engine's block coordinates
        (``(mi, ni, ki)`` for CAKE, ``(ni, ki)`` for GOTO).
    identity:
        Which checksum identity failed — ``"column"`` or ``"row"``.
    strip:
        Strip index within the group when the row identity localized the
        fault, else ``None``.
    residual, tolerance:
        Worst absolute residual and the tolerance it exceeded.
    """

    def __init__(self, label: str, coord: tuple, failure: "IdentityFailure"):
        self.label = label
        self.coord = coord
        self.identity = failure.identity
        self.strip = failure.strip
        self.residual = failure.residual
        self.tolerance = failure.tolerance
        where = f" (strip {failure.strip})" if failure.strip is not None else ""
        super().__init__(
            f"unrecoverable numeric fault in {label}{where}: "
            f"{failure.identity}-checksum residual {failure.residual:.6g} "
            f"exceeds tolerance {failure.tolerance:.6g}"
        )

    def __reduce__(self):
        # Custom three-argument __init__: the default exception reduce
        # (cls, self.args) cannot rebuild it, which matters once shard
        # workers raise this across a process boundary.
        return (
            NumericFaultError,
            (
                self.label,
                self.coord,
                IdentityFailure(
                    identity=self.identity,
                    strip=self.strip,
                    residual=self.residual,
                    tolerance=self.tolerance,
                ),
            ),
        )


@dataclass(frozen=True, slots=True)
class IdentityFailure:
    """One checksum identity violation, for error reporting."""

    identity: str
    strip: int | None
    residual: float
    tolerance: float


@dataclass(frozen=True, slots=True)
class VerifyConfig:
    """How an engine verifies (and recovers) its numeric output.

    Parameters
    ----------
    enabled:
        Verify every strip group (per-block operand checksums +
        per-group identity checks + the recovery ladder). ``False`` with a
        non-``None`` ``inject`` corrupts *without* verification — the
        control case proving what silent corruption looks like.
    max_retries:
        Strip recomputations attempted per mismatched group before
        escalating (rung 1 of the ladder).
    oracle_fallback:
        Whether rung 2 (checked, injection-free recompute) runs before
        raising :class:`NumericFaultError`.
    rtol, atol:
        Override the dtype-aware tolerance band. ``rtol=None`` derives
        ``8 * eps * (m + k + 2)`` per group.
    inject:
        Deterministic strip-output corruption plan
        (:class:`repro.runtime.faults.NumericFaultPlan`).
    """

    enabled: bool = True
    max_retries: int = 2
    oracle_fallback: bool = True
    rtol: float | None = None
    atol: float = 0.0
    inject: "NumericFaultPlan | None" = None

    def __post_init__(self) -> None:
        require_nonnegative("max_retries", self.max_retries)
        require_nonnegative("atol", self.atol)
        if self.rtol is not None and not self.rtol > 0:
            raise ValueError(f"rtol must be > 0, got {self.rtol!r}")


def resolve_verify(verify: "bool | VerifyConfig | None") -> VerifyConfig | None:
    """Normalize an engine's ``verify`` parameter.

    ``None``/``False`` mean no verification machinery at all; ``True``
    means defaults; a :class:`VerifyConfig` passes through (including
    ``enabled=False`` configs that only carry an injection plan).
    """
    if verify is None or verify is False:
        return None
    if verify is True:
        return VerifyConfig()
    if isinstance(verify, VerifyConfig):
        return verify
    raise TypeError(
        f"verify must be a bool or VerifyConfig, got {type(verify).__name__}"
    )


@dataclass(slots=True)
class VerifyReport:
    """What verification observed and did during one run.

    ``blocks`` and ``verified`` count strip groups of the serial run: a
    group split across shards counts once, in the shard holding its
    first strip. ``mismatches``, ``retries`` and the recoveries count
    checks, so they count each part of a split group that failed.
    ``checksum_elements`` is the extra operand surface the run carried
    (A column checksums + B row checksums); :meth:`checksum_bytes`
    converts it with the machine's element width so the paper's
    constant-bandwidth claim can be re-checked *with* verification
    overhead included (``GemmRun.dram_bytes_with_verify``).
    """

    blocks: int = 0
    verified: int = 0
    mismatches: int = 0
    retries: int = 0
    retry_recoveries: int = 0
    oracle_recoveries: int = 0
    checksum_elements: int = 0

    def checksum_bytes(self, element_bytes: int) -> int:
        """Checksum surface traffic in bytes (written when the groups are
        built, read at verify — hence the factor of two)."""
        return 2 * self.checksum_elements * element_bytes

    def as_dict(self) -> dict[str, int]:
        """Flat dict for bench rows and JSON emission."""
        return {
            "blocks": self.blocks,
            "verified": self.verified,
            "mismatches": self.mismatches,
            "retries": self.retries,
            "retry_recoveries": self.retry_recoveries,
            "oracle_recoveries": self.oracle_recoveries,
            "checksum_elements": self.checksum_elements,
        }


@dataclass(slots=True)
class _PanelState:
    """Cached sums of one C panel between the groups that update it.

    ``colsum``/``rowsum`` are the panel's exact column/row sums as of
    the last verified group — reusable as the next group's "before"
    sums, because the panel is untouched in between. ``col_mag``/
    ``row_mag`` are running upper bounds on the matching absolute-value
    sums, grown by each verified update's ``|A|``/``|B|`` magnitude.
    """

    colsum: np.ndarray
    rowsum: np.ndarray
    col_mag: np.ndarray
    row_mag: np.ndarray

    @classmethod
    def from_snapshot(cls, snap: np.ndarray) -> "_PanelState":
        """Full-pass sums of a panel seen for the first time."""
        abs_snap = np.abs(snap)
        return cls(
            snap.sum(axis=0),
            snap.sum(axis=1),
            abs_snap.sum(axis=0),
            abs_snap.sum(axis=1),
        )

    @classmethod
    def zeros(cls, m: int, n: int, dtype: np.dtype) -> "_PanelState":
        """The state of a panel known to be all-zero (first update)."""
        zn = np.zeros(n, dtype=dtype)
        zm = np.zeros(m, dtype=dtype)
        # Shared between sum and magnitude: _identity_failure_impl only
        # reads prior vectors, never writes them.
        return cls(zn, zm, zn, zm)


@dataclass(slots=True)
class _Snapshot:
    """Pre-group C panel contents; ``data is None`` means all-zero.

    Fresh panels (first update, still zero-filled) skip the copy —
    restoring them is a zero fill.
    """

    data: np.ndarray | None


class GroupVerifier:
    """Per-group checksum verification plus the recovery ladder.

    One verifier serves one run; the executor calls :meth:`snapshot`
    before a group's strips are submitted and :meth:`check_and_recover`
    at the group barrier. Both run on the orchestrator thread, so the
    verifier needs no locking of its own. ``kernel`` is the plan's
    micro-kernel, the ladder's oracle rung.
    """

    def __init__(
        self,
        config: VerifyConfig,
        report: VerifyReport,
        timers: "PhaseTimers",
        kernel: "MicroKernel",
    ) -> None:
        self.config = config
        self.report = report
        self.timers = timers
        self.kernel = kernel
        self._panels: dict[tuple, _PanelState] = {}
        # Verified groups per panel, in accumulation order. A panel with
        # full history needs no pre-group snapshot copy: restoring it is
        # a zero fill plus a bit-exact replay of these groups (healed
        # groups' accepted bits equal a clean run's, so replaying them
        # once, injection-free, reproduces the pre-group state exactly).
        self._history: dict[tuple, list["StripGroup"]] = {}
        # Reused work buffers (groups verify one at a time, so one
        # buffer per (tag, shape, dtype) suffices). Fresh allocations
        # every group cost more in page faults than the arithmetic.
        self._scratch: dict[tuple, np.ndarray] = {}

    def _scratch_like(
        self, tag: str, shape: tuple, dtype: np.dtype
    ) -> np.ndarray:
        key = (tag, shape, np.dtype(dtype).str)
        buf = self._scratch.get(key)
        if buf is None:
            buf = np.empty(shape, dtype=dtype)
            self._scratch[key] = buf
        return buf

    # -- executor hooks ------------------------------------------------------

    def snapshot(
        self, group: "StripGroup", backend: Backend
    ) -> "_Snapshot | None":
        """Capture the group's C panel before ``backend`` runs it.

        Fresh panels and panels whose verified history this verifier
        holds need no copy (``_Snapshot(None)``): their pre-group state
        is reconstructible — zero fill, then replay the history. Only
        panels first seen mid-accumulation pay for a real snapshot.

        History replay is only sound for the deterministic oracle
        backend (replaying a call must reproduce the *accepted* bits —
        an oracle-healed group's bits equal the oracle's, which for a
        non-oracle backend are not the backend's own). With any other
        backend every non-fresh panel takes a real snapshot.
        """
        if group.checksum_a is None:
            return None
        if group.fresh_panel or (
            backend.capabilities.deterministic
            and self._panel_key(group) in self._history
        ):
            return _Snapshot(None)
        start = time.perf_counter()
        snap = self._scratch_like("snap", group.panel.shape, group.panel.dtype)
        np.copyto(snap, group.panel)
        self.timers.verify_seconds += time.perf_counter() - start
        return _Snapshot(snap)

    def check_and_recover(
        self,
        group: "StripGroup",
        snap: "_Snapshot | None",
        faults: "NumericFaultInjector | None",
        backend: Backend,
    ) -> None:
        """Verify the group; on mismatch walk the recovery ladder.

        ``backend`` is the backend the clean path executed with; the
        retry rung recomputes through it (the backend then heals
        transient faults bit-exactly), while the oracle rung always
        recomputes through the checked micro-kernel.
        """
        if snap is None:
            return
        start = time.perf_counter()
        failure = self._verify_group(group, snap)
        self.timers.verify_seconds += time.perf_counter() - start
        counted = group.first_strip == 0
        self.report.blocks += counted
        replayable = backend.capabilities.deterministic
        if failure is None:
            self.report.verified += counted
            if replayable:
                self._history.setdefault(
                    self._panel_key(group), []
                ).append(group)
            return
        self.report.mismatches += 1
        start = time.perf_counter()
        try:
            self._recover(group, snap, faults, failure, backend)
        finally:
            self.timers.recover_seconds += time.perf_counter() - start
        self.report.verified += counted
        if replayable:
            self._history.setdefault(self._panel_key(group), []).append(group)

    # -- the recovery ladder -------------------------------------------------

    def _recover(
        self,
        group: "StripGroup",
        snap: "_Snapshot",
        faults: "NumericFaultInjector | None",
        failure: IdentityFailure,
        backend: Backend,
    ) -> None:
        for _ in range(self.config.max_retries):
            self._restore(group, snap, backend)
            # Recompute through the same backend calls the clean path
            # issued (group-mode stays group-mode): the backend then
            # reproduces the clean bits exactly.
            execute_group(backend, group, faults)
            self.report.retries += 1
            recheck = self._verify_group(group, snap)
            if recheck is None:
                self.report.retry_recoveries += 1
                return
            failure = recheck
        if self.config.oracle_fallback:
            # The oracle rung: per-strip micro-kernel arithmetic with
            # operand checks on and injection bypassed — heals persistent
            # corruption of the fast path. For the oracle backend the
            # recomputed bits equal the clean run's exactly; for other
            # backends they are the trusted oracle's bits (the group's
            # update is then exact-by-construction, re-verified below
            # within the tolerance band).
            self._restore(group, snap, backend)
            for task in group.tasks:
                self.kernel.panel_matmul(task.a, task.b, task.c, checked=True)
            oracle_failure = self._verify_group(group, snap)
            if oracle_failure is None:
                self.report.oracle_recoveries += 1
                return
            failure = oracle_failure
        raise NumericFaultError(group.label, group.coord, failure)

    def _restore(
        self, group: "StripGroup", snap: "_Snapshot", backend: Backend
    ) -> None:
        if snap.data is None:
            # No snapshot was taken: zero the panel and replay its
            # verified history (empty for a fresh panel; always empty
            # for non-oracle backends, whose non-fresh panels take real
            # snapshots). Replay is injection-free — every verified
            # group's accepted bits equal a clean run's, so one
            # unchecked pass reproduces the pre-group state bit-exactly.
            group.panel.fill(0)
            for past in self._history.get(self._panel_key(group), []):
                execute_group(backend, past, None)
            return
        np.copyto(group.panel, snap.data)

    # -- identity evaluation -------------------------------------------------

    def _band(self, dtype: np.dtype, m: int, k: int) -> tuple[float, float]:
        rtol = self.config.rtol
        if rtol is None:
            rtol = _RTOL_SAFETY * float(np.finfo(dtype).eps) * (m + k + 2)
        return rtol, self.config.atol

    def _verify_group(
        self, group: "StripGroup", snap: "_Snapshot"
    ) -> IdentityFailure | None:
        """Evaluate both identities; cache the panel sums on success."""
        failure, state = self._identity_failure(group, snap)
        if failure is None:
            assert state is not None
            self._panels[self._panel_key(group)] = state
        return failure

    @staticmethod
    def _panel_key(group: "StripGroup") -> tuple:
        # Task C panels are views into the run's output array, built
        # once per schedule, so their (address, shape) identifies the
        # panel across every group that accumulates into it.
        return tuple(
            (task.c.__array_interface__["data"][0], task.c.shape)
            for task in group.tasks
        )

    def _identity_failure(
        self, group: "StripGroup", snap: "_Snapshot"
    ) -> tuple[IdentityFailure | None, "_PanelState | None"]:
        # Corrupted panels may hold inf/NaN; the sums below then warn on
        # purpose-built inputs. The comparisons already treat non-finite
        # as mismatch, so the warnings are pure noise.
        with np.errstate(invalid="ignore", over="ignore"):
            return self._identity_failure_impl(group, snap)

    def _identity_failure_impl(
        self, group: "StripGroup", snap: "_Snapshot"
    ) -> tuple[IdentityFailure | None, "_PanelState | None"]:
        tasks = group.tasks
        b = tasks[0].b
        c_full = group.panel
        a_full = group.operand_a
        m, k = a_full.shape
        rtol, atol = self._band(c_full.dtype, m, k)

        prior = self._panels.get(self._panel_key(group))
        if prior is None:
            if snap.data is None:
                prior = _PanelState.zeros(m, c_full.shape[1], c_full.dtype)
            else:
                prior = _PanelState.from_snapshot(snap.data)

        # Per-block magnitudes: bound the update's column magnitudes by
        # max(|A|-colsum) * |B|-colsum and its row magnitudes by
        # |A|-rowsum * max(|B|-rowsum) — sound upper bounds on
        # colsum(|A||B|) / rowsum(|A||B|), O(m + n) to evaluate.
        col_upd = float(group.mag_a[0].max()) * group.mag_b[0]
        row_upd = group.mag_a[1] * float(group.mag_b[1].max())

        # Column identity over the whole group.
        col_after = c_full.sum(axis=0)
        col_mag = prior.col_mag + col_upd
        residual = (col_after - prior.colsum) - group.checksum_a @ b
        bad = self._worst(residual, atol + rtol * col_mag)
        if bad is not None:
            return IdentityFailure("column", None, bad[1], bad[2]), None

        # Row identity over all strips at once; a failing row localizes
        # to the strip that owns it (numbered as in the serial run).
        row_after = c_full.sum(axis=1)
        row_mag = prior.row_mag + row_upd
        residual = (row_after - prior.rowsum) - a_full @ group.checksum_b
        bad = self._worst(residual, atol + rtol * row_mag)
        if bad is not None:
            strip = group.first_strip + self._strip_of(tasks, bad[0])
            return IdentityFailure("row", strip, bad[1], bad[2]), None

        return None, _PanelState(col_after, row_after, col_mag, row_mag)

    @staticmethod
    def _strip_of(tasks: Sequence, row: int) -> int:
        """Map a panel-relative row index to its strip."""
        r0 = 0
        for strip, task in enumerate(tasks):
            r0 += task.c.shape[0]
            if row < r0:
                return strip
        return len(tasks) - 1

    @staticmethod
    def _worst(
        residual: np.ndarray, tol: np.ndarray
    ) -> tuple[int, float, float] | None:
        """Worst (index, residual, tolerance), or None when all pass.

        Written so NaN/inf residuals *fail*: ``|r| <= tol`` is False for
        NaN, and an all-finite pass is required explicitly.
        """
        diff = np.abs(residual)
        if bool(np.all(diff <= tol)):
            return None
        finite = np.isfinite(diff)
        if not bool(np.all(finite)):
            j = int(np.argmin(finite))  # first non-finite entry
        else:
            j = int(np.argmax(diff - tol))
        return j, float(diff[j]), float(tol[j])
