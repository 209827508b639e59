"""`repro doctor`: machine-readable warehouse self-checks.

The paper's self-maintainability argument is operational — the
warehouse must stay *correct* with its sources sealed — so the doctor
verifies the invariants that correctness rests on, from the outside,
against a live warehouse:

* **index consistency** — every :class:`~repro.engine.rowindex.RowIndex`
  still mirrors its backing bag exactly
  (:func:`repro.testing.faults.verify_index_consistency`);
* **checkpoint staleness** — the newest checkpoint on disk is readable,
  format-compatible, and younger than the allowed age;
* **event-log summary** — per-level totals, surfacing error events that
  already rotated out of the ring.

Every check yields a :class:`DoctorCheck`; the :class:`DoctorReport`
renders as text or JSON and maps to process exit codes (``0`` healthy,
``1`` warnings, ``2`` failures) so CI and cron jobs can gate on it.
:func:`plant_index_corruption` exists for exactly that gate: it breaks
an index on purpose so the pipeline can prove the doctor notices.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Callable

from repro.core.maintenance import SelfMaintenanceError
from repro.testing.faults import verify_index_consistency
from repro.warehouse.persistence import checkpoint_meta
from repro.warehouse.warehouse import Warehouse

#: Severity order; a report's exit code is its worst check's rank.
_STATUS_RANK = {"ok": 0, "skip": 0, "warn": 1, "fail": 2}

DOCTOR_SCHEMA_VERSION = 1


class DoctorCheck:
    """One named check outcome: ``ok``, ``skip``, ``warn``, or ``fail``."""

    __slots__ = ("name", "status", "details")

    def __init__(self, name: str, status: str, **details):
        if status not in _STATUS_RANK:
            raise ValueError(f"unknown check status {status!r}")
        self.name = name
        self.status = status
        self.details = details

    def to_dict(self) -> dict:
        return {"name": self.name, "status": self.status, **self.details}

    def render(self) -> str:
        parts = [f"{key}={value}" for key, value in self.details.items()]
        suffix = ("  " + " ".join(parts)) if parts else ""
        return f"{self.status.upper():<4} {self.name}{suffix}"


class DoctorReport:
    """All checks of one doctor run plus the overall verdict."""

    def __init__(self, checks: list[DoctorCheck]):
        self.checks = checks

    @property
    def status(self) -> str:
        worst = max(
            (_STATUS_RANK[check.status] for check in self.checks), default=0
        )
        return {0: "healthy", 1: "degraded", 2: "unhealthy"}[worst]

    @property
    def exit_code(self) -> int:
        return max(
            (_STATUS_RANK[check.status] for check in self.checks), default=0
        )

    def to_dict(self) -> dict:
        return {
            "schema": DOCTOR_SCHEMA_VERSION,
            "status": self.status,
            "exit_code": self.exit_code,
            "checks": [check.to_dict() for check in self.checks],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def render(self) -> str:
        lines = [check.render() for check in self.checks]
        lines.append(f"doctor: {self.status} (exit {self.exit_code})")
        return "\n".join(lines)


def run_doctor(
    warehouse: Warehouse,
    checkpoint_path: str | Path | None = None,
    max_checkpoint_age_s: float = 86_400.0,
    clock: Callable[[], float] = time.time,
) -> DoctorReport:
    """Run every self-check against ``warehouse`` and return the report."""
    checks: list[DoctorCheck] = []
    for name in warehouse.view_names:
        maintainer = warehouse.maintainer(name)
        try:
            verify_index_consistency(maintainer)
        except AssertionError as exc:
            checks.append(
                DoctorCheck(
                    f"index-consistency:{name}", "fail", error=str(exc)
                )
            )
        else:
            indexes = sum(
                len(materialization.relation()._indexes)
                for materialization in maintainer._materializations.values()
            )
            checks.append(
                DoctorCheck(
                    f"index-consistency:{name}", "ok", indexes=indexes
                )
            )
    checks.append(
        _checkpoint_check(checkpoint_path, max_checkpoint_age_s, clock)
    )
    totals = warehouse.events.totals
    checks.append(
        DoctorCheck(
            "event-log",
            "warn" if totals.get("error") else "ok",
            **{f"{level}_events": count for level, count in sorted(totals.items())},
        )
    )
    return DoctorReport(checks)


def _checkpoint_check(
    checkpoint_path: str | Path | None,
    max_checkpoint_age_s: float,
    clock: Callable[[], float],
) -> DoctorCheck:
    if checkpoint_path is None:
        return DoctorCheck("checkpoint-staleness", "skip", reason="no checkpoint configured")
    path = Path(checkpoint_path)
    if not path.exists():
        return DoctorCheck(
            "checkpoint-staleness", "fail", path=str(path), error="checkpoint file missing"
        )
    try:
        meta = checkpoint_meta(path)
    except (SelfMaintenanceError, ValueError) as exc:
        return DoctorCheck(
            "checkpoint-staleness", "fail", path=str(path), error=str(exc)
        )
    created_at = meta.get("created_at")
    if not isinstance(created_at, (int, float)):
        # Pre-metadata checkpoint: readable but of unknown age.
        return DoctorCheck(
            "checkpoint-staleness",
            "warn",
            path=str(path),
            error="checkpoint has no created_at metadata",
        )
    age = clock() - created_at
    if age > max_checkpoint_age_s:
        return DoctorCheck(
            "checkpoint-staleness",
            "warn",
            path=str(path),
            age_s=round(age, 1),
            max_age_s=max_checkpoint_age_s,
        )
    return DoctorCheck(
        "checkpoint-staleness", "ok", path=str(path), age_s=round(age, 1)
    )


def plant_index_corruption(warehouse: Warehouse) -> bool:
    """Deliberately desynchronize one RowIndex from its backing bag (a
    phantom extra row), so tests and the CI gate can prove
    :func:`run_doctor` catches real divergence.  Returns False when no
    in-process index exists to corrupt (plain-relation backends)."""
    for name in warehouse.view_names:
        maintainer = warehouse.maintainer(name)
        for materialization in maintainer._materializations.values():
            relation = materialization.relation()
            if not relation.rows:
                continue
            for index in relation._indexes.values():
                index.add(relation.rows[0])
                return True
    return False
