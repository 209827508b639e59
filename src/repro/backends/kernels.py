"""Batch kernels and typed column stores for the columnar backend.

This module is deliberately free of plan-node knowledge: it provides
the *data layout* (:class:`ColumnStore` — one typed column per schema
attribute, a liveness mask, and a free list of recycled row ids) and
the selection-vector operators the columnar backend's local stage runs
over whole delta batches.  The join probes and the aggregate fold are
fused into the backend's compiled kernels
(:mod:`repro.backends.columnar`).

Type mapping (chosen for bit-identical parity with the row engine):

* FLOAT columns live in ``array('d')`` — C doubles round-trip Python
  floats exactly and pack 8 bytes/value.
* INT, STRING, and BOOL columns stay plain Python lists: ``array('q')``
  would overflow arbitrary-precision ints, and a packed bool column
  returns ``0``/``1`` where the row engine yields ``True``/``False``.

The liveness mask doubles as the null mask: a cleared bit means the
row id holds no value (it is parked on the free list and will be
recycled by the next insert), so columns never shift and row ids stay
stable for the hash indexes that reference them.
"""

from __future__ import annotations

from array import array
from typing import Callable, Iterable, Iterator, Sequence

from repro.engine.schema import Schema
from repro.engine.types import AttributeType


class ColumnStore:
    """Typed columns with a liveness mask and free-list row recycling.

    Rows are addressed by *row id* (rid).  Deleting releases the rid to
    the free list; the next append writes into the freed slot instead
    of growing the columns, so long-running churn does not leak
    storage and rid-keyed indexes stay dense.
    """

    __slots__ = ("schema", "columns", "live", "free", "list_columns")

    def __init__(self, schema: Schema):
        self.schema = schema
        self.columns: tuple = tuple(
            array("d") if attribute.atype is AttributeType.FLOAT else []
            for attribute in schema
        )
        #: The object-holding columns (everything but array('d')), cached
        #: so release() nulls them without a per-call type scan.
        self.list_columns: tuple = tuple(
            column for column in self.columns if type(column) is list
        )
        #: 1 = live, 0 = hole (deleted / recyclable): the null mask.
        self.live = bytearray()
        self.free: list[int] = []

    def __len__(self) -> int:
        return len(self.live) - len(self.free)

    @property
    def capacity(self) -> int:
        """Physical slots allocated (live rows plus free-list holes)."""
        return len(self.live)

    def append(self, row: Sequence) -> int:
        """Store ``row``, recycling a freed slot when one exists."""
        free = self.free
        if free:
            rid = free.pop()
            for column, value in zip(self.columns, row):
                column[rid] = value
            self.live[rid] = 1
            return rid
        rid = len(self.live)
        for column, value in zip(self.columns, row):
            column.append(value)
        self.live.append(1)
        return rid

    def release(self, rid: int) -> None:
        """Mark ``rid`` dead and park it for recycling."""
        self.live[rid] = 0
        self.free.append(rid)
        # Drop object references in list columns so deleted strings /
        # big ints are collectable; array('d') slots just keep a stale
        # double under a dead mask bit.
        for column in self.list_columns:
            column[rid] = None

    def row(self, rid: int) -> tuple:
        return tuple(column[rid] for column in self.columns)

    def rows(self, rids: Iterable[int]) -> list[tuple]:
        columns = self.columns
        return [tuple(column[rid] for column in columns) for rid in rids]

    def live_rids(self) -> Iterator[int]:
        return (rid for rid, bit in enumerate(self.live) if bit)

    def all_rows(self) -> list[tuple]:
        columns = self.columns
        return [
            tuple(column[rid] for column in columns)
            for rid, bit in enumerate(self.live)
            if bit
        ]


# ----------------------------------------------------------------------
# Batch kernels over row batches.
# ----------------------------------------------------------------------


def selection_vector(
    rows: Sequence[tuple], predicate: Callable[[tuple], object]
) -> list[int]:
    """Positions of the rows satisfying ``predicate`` (σ as a vector)."""
    return [i for i, row in enumerate(rows) if predicate(row)]


def gather(rows: Sequence[tuple], selection: Sequence[int]) -> list[tuple]:
    """Materialize a selection vector back into a row batch."""
    return [rows[i] for i in selection]
