"""SQL aggregate functions: batch evaluation and incremental state machines.

Two layers live here:

* :func:`compute_aggregate` — batch evaluation of an aggregate over a list
  of values, used by the generalized projection operator.

* Incremental *aggregate states* — objects that absorb inserted and
  deleted values and either keep an exact running result or report that
  they can no longer answer without recomputation.  These implement
  exactly the maintainability semantics classified by Table 1 of the
  paper: COUNT and SUM(+COUNT) are self-maintainable for insertions and
  deletions, AVG only as the SUM/COUNT pair, and MIN/MAX only for
  insertions.  The Table-1 benchmark probes these state machines to
  *derive* the classification empirically rather than restating it.

NULL and empty-group semantics vs standard SQL
----------------------------------------------

The engine implements the paper's GPSJ model, which is deliberately
narrower than ANSI SQL in three ways:

* **No NULLs.**  Section 2.1 assumes NULL-free sources, and
  :meth:`~repro.engine.types.AttributeType.validate` rejects ``None``
  everywhere, so ``SUM``/``MIN``/``MAX``/``COUNT`` never see a NULL and
  ``COUNT(column)`` ≡ ``COUNT(*)``.

* **No empty groups.**  A GPSJ group exists only if at least one tuple
  contributes, so :func:`compute_aggregate` raises on empty input.  SQL
  agrees when a ``GROUP BY`` clause is present (no contributing row,
  no group) but differs for aggregation *without* group-by: SQL yields
  one row with ``SUM``/``MIN``/``MAX = NULL`` and ``COUNT = 0`` over an
  empty input, where the algebra yields no row at all (SQL needs
  ``HAVING COUNT(*) > 0`` to agree).

* **True division.**  ``AVG`` and explicit ``/`` are true division
  here (Python semantics), where SQL's ``/`` truncates on INTEGER
  operands.
"""

from __future__ import annotations

import enum
from typing import Iterable, Sequence


class AggregateFunction(enum.Enum):
    """The five SQL aggregate functions considered by the paper."""

    COUNT = "COUNT"
    SUM = "SUM"
    AVG = "AVG"
    MIN = "MIN"
    MAX = "MAX"

    @property
    def is_distributive(self) -> bool:
        """Distributive aggregates can be computed over disjoint partitions
        and then combined (footnote 2 of the paper)."""
        return self is not AggregateFunction.AVG


class MaintenanceError(Exception):
    """Raised when an aggregate state cannot absorb a change exactly."""


def compute_aggregate(
    func: AggregateFunction,
    values: Sequence[object],
    distinct: bool = False,
) -> object:
    """Evaluate ``func`` over ``values`` (batch, non-incremental).

    ``values`` is the column restricted to one group; ``COUNT(*)`` is
    expressed by counting an all-ones column at the call site.  Empty
    groups never occur in GPSJ semantics (a group exists only if it has at
    least one contributing tuple), so empty input raises.
    """
    if not values:
        raise ValueError("aggregates over empty groups are undefined in GPSJ views")
    if distinct:
        values = list(dict.fromkeys(values))
    if func is AggregateFunction.COUNT:
        return len(values)
    if func is AggregateFunction.SUM:
        return sum(values)
    if func is AggregateFunction.AVG:
        return sum(values) / len(values)
    if func is AggregateFunction.MIN:
        return min(values)
    return max(values)


class AggregateState:
    """Base class for incremental aggregate computations.

    Subclasses keep whatever running information their strategy allows
    and raise :class:`MaintenanceError` from :meth:`delete` (or
    :meth:`insert`) when the running information no longer determines the
    exact result — which is precisely the "not self-maintainable"
    situation of Table 1.
    """

    def insert(self, value: object) -> None:
        raise NotImplementedError

    def delete(self, value: object) -> None:
        raise NotImplementedError

    def result(self) -> object:
        raise NotImplementedError

    @property
    def empty(self) -> bool:
        """True when all absorbed tuples have been deleted again."""
        raise NotImplementedError


class CountState(AggregateState):
    """COUNT is a CSMAS: a single counter survives inserts and deletes."""

    def __init__(self, initial: int = 0):
        self._count = initial

    def insert(self, value: object) -> None:
        self._count += 1

    def delete(self, value: object) -> None:
        if self._count == 0:
            raise MaintenanceError("COUNT underflow: deleting from empty group")
        self._count -= 1

    def result(self) -> int:
        return self._count

    @property
    def empty(self) -> bool:
        return self._count == 0


class SumState(AggregateState):
    """SUM paired with a COUNT, per Table 2's replacement rule.

    The count distinguishes "sum is 0 because the group vanished" from
    "sum of the remaining tuples happens to be 0" — without it SUM alone
    is only a SMAS for deletions, which is what Table 1 records.
    """

    def __init__(self, initial_sum: float = 0, initial_count: int = 0):
        self._sum = initial_sum
        self._count = initial_count

    def insert(self, value: object) -> None:
        self._sum += value
        self._count += 1

    def delete(self, value: object) -> None:
        if self._count == 0:
            raise MaintenanceError("SUM underflow: deleting from empty group")
        self._sum -= value
        self._count -= 1

    def result(self) -> float:
        return self._sum

    @property
    def count(self) -> int:
        return self._count

    @property
    def empty(self) -> bool:
        return self._count == 0


class AvgState(AggregateState):
    """AVG maintained as the (SUM, COUNT) pair per Table 2."""

    def __init__(self):
        self._sum = SumState()

    def insert(self, value: object) -> None:
        self._sum.insert(value)

    def delete(self, value: object) -> None:
        self._sum.delete(value)

    def result(self) -> float:
        if self._sum.count == 0:
            raise MaintenanceError("AVG of an empty group is undefined")
        return self._sum.result() / self._sum.count

    @property
    def empty(self) -> bool:
        return self._sum.empty


class BareSumState(AggregateState):
    """SUM *without* a companion count — deliberately not a SMAS.

    Used only by the Table-1 probes to demonstrate why the companion
    COUNT(*) of Table 2 is required: after deletions this state cannot
    tell whether its group still exists.
    """

    def __init__(self):
        self._sum = 0
        self._seen_delete = False

    def insert(self, value: object) -> None:
        self._sum += value

    def delete(self, value: object) -> None:
        self._sum -= value
        self._seen_delete = True

    def result(self) -> float:
        if self._seen_delete:
            raise MaintenanceError(
                "SUM without COUNT cannot certify group existence after deletions"
            )
        return self._sum

    @property
    def empty(self) -> bool:
        raise MaintenanceError("SUM without COUNT cannot detect empty groups")


class ExtremumState(AggregateState):
    """MIN/MAX: self-maintainable for insertions only (Table 1).

    Deleting the current extremum destroys the running information — the
    new extremum lives among tuples this state never stored — so such a
    deletion raises :class:`MaintenanceError`, signalling that the caller
    must recompute from detail data.
    """

    def __init__(self, func: AggregateFunction, append_only: bool = False):
        if func not in (AggregateFunction.MIN, AggregateFunction.MAX):
            raise ValueError(f"{func} is not an extremum aggregate")
        self._func = func
        self._value: object | None = None
        self._count = 0
        self._append_only = append_only

    def insert(self, value: object) -> None:
        if self._value is None:
            self._value = value
        elif self._func is AggregateFunction.MIN:
            self._value = min(self._value, value)
        else:
            self._value = max(self._value, value)
        self._count += 1

    def delete(self, value: object) -> None:
        if self._append_only:
            raise MaintenanceError(
                f"{self._func.value} over append-only detail data "
                "received a deletion"
            )
        if self._count == 0:
            raise MaintenanceError("extremum underflow: deleting from empty group")
        self._count -= 1
        if self._count == 0:
            self._value = None
            return
        if value == self._value:
            raise MaintenanceError(
                f"deleting the current {self._func.value} requires recomputation"
            )

    def result(self) -> object:
        if self._value is None:
            raise MaintenanceError("extremum of an empty group is undefined")
        return self._value

    @property
    def empty(self) -> bool:
        return self._count == 0


class DistinctState(AggregateState):
    """DISTINCT aggregates are non-distributive and thus never CSMAS.

    Maintaining them exactly requires the full multiset of values, which
    is precisely the detail data the paper refuses to throw away for such
    aggregates.  This state refuses both kinds of changes once it would
    have to answer from partial information: an insert of a value it has
    not stored, or any delete.  It exists so the classification probes can
    demonstrate the failure; the maintenance runtime instead recomputes
    DISTINCT aggregates from the auxiliary views (Section 3.2).
    """

    def __init__(self, func: AggregateFunction):
        self._func = func
        self._initialized = False

    def insert(self, value: object) -> None:
        raise MaintenanceError(
            f"{self._func.value}(DISTINCT) is non-distributive: membership of "
            "the inserted value among prior values is unknown"
        )

    def delete(self, value: object) -> None:
        raise MaintenanceError(
            f"{self._func.value}(DISTINCT) is non-distributive: multiplicity "
            "of the deleted value is unknown"
        )

    def result(self) -> object:
        raise MaintenanceError("DISTINCT aggregates must be recomputed from detail")

    @property
    def empty(self) -> bool:
        raise MaintenanceError("DISTINCT aggregates must be recomputed from detail")


def make_aggregate_state(
    func: AggregateFunction,
    distinct: bool = False,
    append_only: bool = False,
) -> AggregateState:
    """Build the incremental state machine for an aggregate.

    ``append_only`` implements the paper's future-work relaxation for old
    detail data: under insert-only streams MIN/MAX become completely
    self-maintainable, so they get a state that accepts inserts and
    rejects deletes.
    """
    if distinct:
        return DistinctState(func)
    if func is AggregateFunction.COUNT:
        return CountState()
    if func is AggregateFunction.SUM:
        return SumState()
    if func is AggregateFunction.AVG:
        return AvgState()
    return ExtremumState(func, append_only=append_only)


def merge_distributive(
    func: AggregateFunction, partials: Iterable[object]
) -> object:
    """Combine per-partition results of a distributive aggregate.

    COUNT and SUM combine by summation, MIN/MAX by min/max.  AVG is not
    distributive and must be reconstructed from SUM and COUNT partials by
    the caller (Table 2).
    """
    items = list(partials)
    if not items:
        raise ValueError("cannot merge zero partitions")
    if func in (AggregateFunction.COUNT, AggregateFunction.SUM):
        return sum(items)
    if func is AggregateFunction.MIN:
        return min(items)
    if func is AggregateFunction.MAX:
        return max(items)
    raise ValueError("AVG is not distributive; merge its SUM/COUNT parts instead")
