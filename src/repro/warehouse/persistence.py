"""Warehouse checkpointing: persist and restore without source access.

Self-maintainability has an operational corollary the paper's framework
implies but does not spell out: since the warehouse never needs base
tables after the initial load, its whole state — the summary tables and
the minimal current detail — can be checkpointed and restored across
restarts *while the sources stay sealed*.  This module serializes a
:class:`~repro.warehouse.warehouse.Warehouse` (or a single maintainer)
to JSON and rebuilds it against the catalog alone.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path
from typing import Mapping

from repro.catalog.database import Database
from repro.core.maintenance import SelfMaintainer, SelfMaintenanceError
from repro.core.view import ViewDefinition
from repro.warehouse.warehouse import Warehouse

FORMAT_VERSION = 1


def checkpoint_meta(path: str | Path) -> dict:
    """The ``meta`` block of a checkpoint file (``{}`` for files written
    before metadata existed — the format is unchanged, the block is an
    optional addition the doctor's staleness check reads)."""
    checkpoint = json.loads(Path(path).read_text())
    _check_format(checkpoint)
    meta = checkpoint.get("meta", {})
    return meta if isinstance(meta, dict) else {}


def dump_maintainer(maintainer: SelfMaintainer) -> dict:
    """A JSON-serializable checkpoint of one maintainer.

    Refuses to run mid-transaction: a checkpoint cut while ``apply`` is
    mutating state would capture a partially-applied transaction, and a
    restore from it could never be repaired from the sealed sources.
    """
    _check_quiescent(maintainer)
    return {
        "format": FORMAT_VERSION,
        "state": maintainer.export_state(),
    }


def restore_maintainer(
    view: ViewDefinition,
    catalog: Database,
    checkpoint: Mapping,
    append_only: bool = False,
) -> SelfMaintainer:
    """Rebuild a maintainer from a checkpoint and the catalog.

    ``catalog`` supplies table *metadata* (schemas, keys, constraints)
    only; its tuple data is never read, so an empty-schema database or a
    still-sealed source's pre-load catalog both work.
    """
    _check_format(checkpoint)
    maintainer = SelfMaintainer(
        view, catalog, append_only=append_only, initialize=False
    )
    maintainer.load_state(checkpoint["state"])
    return maintainer


def dump_warehouse(warehouse: Warehouse) -> dict:
    """Checkpoint every registered view of a warehouse (only between
    transactions — see :func:`dump_maintainer`).  The ``meta`` block
    (creation wall time, per-view applied-transaction counts) feeds the
    doctor's staleness check; readers that predate it ignore it."""
    for name in warehouse.view_names:
        _check_quiescent(warehouse.maintainer(name))
    return {
        "format": FORMAT_VERSION,
        "meta": {
            "created_at": time.time(),
            "transactions": {
                name: warehouse.maintainer(name).perf.counters.get(
                    "transactions", 0
                )
                for name in warehouse.view_names
            },
        },
        "views": {
            name: warehouse.maintainer(name).export_state()
            for name in warehouse.view_names
        },
    }


def restore_warehouse(
    views: Mapping[str, ViewDefinition],
    catalog: Database,
    checkpoint: Mapping,
) -> Warehouse:
    """Rebuild a warehouse from view definitions plus a checkpoint."""
    _check_format(checkpoint)
    states = checkpoint.get("views")
    if not isinstance(states, Mapping):
        raise SelfMaintenanceError(
            "checkpoint has no 'views' object (not a warehouse checkpoint?)"
        )
    recorded = set(states)
    supplied = set(views)
    if recorded != supplied:
        raise SelfMaintenanceError(
            f"checkpoint holds views {sorted(recorded)}, definitions "
            f"supplied for {sorted(supplied)}"
        )
    warehouse = Warehouse(catalog)
    for name, view in views.items():
        state = states[name]
        maintainer = SelfMaintainer(
            view,
            catalog,
            append_only=bool(state.get("append_only")),
            initialize=False,
        )
        maintainer.load_state(state)
        warehouse.adopt(maintainer)
    meta = checkpoint.get("meta", {})
    warehouse.events.info(
        "checkpoint.restored",
        views=len(views),
        created_at=meta.get("created_at") if isinstance(meta, dict) else None,
    )
    return warehouse


def save_warehouse(warehouse: Warehouse, path: str | Path) -> None:
    """Write a warehouse checkpoint to ``path`` as JSON, atomically: a
    crash or a failed write leaves the previous checkpoint in place."""
    _write_atomically(Path(path), json.dumps(dump_warehouse(warehouse)))
    warehouse.events.info(
        "checkpoint.saved",
        path=str(path),
        views=len(warehouse.view_names),
    )


def load_warehouse(
    views: Mapping[str, ViewDefinition],
    catalog: Database,
    path: str | Path,
) -> Warehouse:
    """Read a warehouse checkpoint from ``path``."""
    checkpoint = json.loads(Path(path).read_text())
    return restore_warehouse(views, catalog, checkpoint)


def _write_atomically(path: Path, text: str) -> None:
    """Replace ``path`` with ``text`` so readers see the old file or the
    new one, never a torn mix.  The bytes go to a temp file in the same
    directory, are fsynced, and are renamed over ``path``; the directory
    is then fsynced so the rename itself survives a crash.  The temp
    file is removed if anything before the rename fails."""
    fd, temp = tempfile.mkstemp(
        prefix=f".{path.name}.", suffix=".tmp", dir=path.parent
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, path)
    except BaseException:
        try:
            os.unlink(temp)
        except FileNotFoundError:
            pass
        raise
    directory = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)


def _check_quiescent(maintainer: SelfMaintainer) -> None:
    if maintainer.in_transaction:
        raise SelfMaintenanceError(
            f"cannot checkpoint view {maintainer.view.name!r} while a "
            "transaction is being applied (the snapshot would not be "
            "crash-consistent)"
        )


def _check_format(checkpoint) -> None:
    if not isinstance(checkpoint, Mapping):
        raise SelfMaintenanceError(
            f"checkpoint is a JSON {type(checkpoint).__name__}, not an object"
        )
    version = checkpoint.get("format")
    if version != FORMAT_VERSION:
        raise SelfMaintenanceError(
            f"unsupported checkpoint format {version!r} "
            f"(this build reads version {FORMAT_VERSION})"
        )
