"""Persistent hash indexes over bags of rows.

A :class:`RowIndex` maps the values of an arbitrary column subset to the
multiset of rows carrying them.  It is maintained *incrementally* — one
dictionary update per inserted or deleted row — rather than rebuilt per
probe, which is what turns the maintenance loop's semijoin reductions
and group lookups from O(|relation|) scans into O(|delta|) probes.

Single-column keys are stored unwrapped (the bare value, not a 1-tuple):
they hash faster and match how probe sets are naturally written.  The
same convention is shared by the batch operator kernels through
:func:`make_key_extractor`, so an index built here can be handed
directly to ``equijoin``/``semijoin``/``antijoin``.
"""

from __future__ import annotations

from collections import Counter
from operator import itemgetter
from typing import Callable, Iterable, Iterator, KeysView


def make_key_extractor(positions: tuple[int, ...]) -> Callable[[tuple], object]:
    """A precompiled key extractor over row positions.

    One position yields the bare value; several yield a tuple.  Built on
    :func:`operator.itemgetter`, which runs the extraction in C.
    """
    if len(positions) == 1:
        return itemgetter(positions[0])
    return itemgetter(*positions)


def make_tuple_extractor(positions: tuple[int, ...]) -> Callable[[tuple], tuple]:
    """Like :func:`make_key_extractor` but always producing tuples (for
    projection kernels, whose outputs are rows, not keys).  Zero positions
    yield the empty tuple: the single-group GROUP BY of an aggregate-only
    view."""
    if not positions:
        return lambda row: ()
    if len(positions) == 1:
        position = positions[0]
        return lambda row: (row[position],)
    return itemgetter(*positions)


class RowIndexError(Exception):
    """Raised on inconsistent index maintenance (e.g. removing an unindexed row)."""


class RowIndex:
    """A multiset hash index from key values to rows.

    Rows are kept with multiplicities (bag semantics, matching
    :class:`~repro.engine.relation.Relation`); a bucket disappears when
    its last row is removed, so :meth:`keys` is always exactly the set of
    key values present in the indexed bag.
    """

    __slots__ = ("positions", "extract", "_buckets")

    def __init__(self, positions: Iterable[int], rows: Iterable[tuple] = ()):
        self.positions = tuple(positions)
        if not self.positions:
            raise RowIndexError("an index needs at least one key column")
        self.extract = make_key_extractor(self.positions)
        self._buckets: dict[object, Counter] = {}
        self.add_all(rows)

    # ------------------------------------------------------------------
    # Maintenance (incremental; never rebuilt per probe).
    # ------------------------------------------------------------------

    def add(self, row: tuple) -> None:
        key = self.extract(row)
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = self._buckets[key] = Counter()
        bucket[row] += 1

    def add_all(self, rows: Iterable[tuple]) -> None:
        for row in rows:
            self.add(row)

    def remove(self, row: tuple) -> None:
        key = self.extract(row)
        bucket = self._buckets.get(key)
        if bucket is None or bucket[row] <= 0:
            raise RowIndexError(f"cannot unindex absent row {row!r}")
        bucket[row] -= 1
        if bucket[row] == 0:
            del bucket[row]
            if not bucket:
                del self._buckets[key]

    def remove_all(self, rows: Iterable[tuple]) -> None:
        for row in rows:
            self.remove(row)

    def clear(self) -> None:
        self._buckets.clear()

    # ------------------------------------------------------------------
    # Probing.
    # ------------------------------------------------------------------

    def keys(self) -> KeysView:
        """The distinct key values currently present (a live view; O(1)
        membership — this is what join reductions probe)."""
        return self._buckets.keys()

    def __contains__(self, key: object) -> bool:
        return key in self._buckets

    def rows_for(self, key: object) -> Iterator[tuple]:
        """Rows carrying ``key``, with multiplicity."""
        bucket = self._buckets.get(key)
        if bucket is None:
            return iter(())
        return bucket.elements()

    def rows_matching(self, keys: Iterable[object]) -> list[tuple]:
        """Rows whose key is in ``keys``, with multiplicity."""
        rows: list[tuple] = []
        for key in keys:
            bucket = self._buckets.get(key)
            if bucket:
                rows.extend(bucket.elements())
        return rows

    def __len__(self) -> int:
        """Number of indexed rows (with multiplicity)."""
        return sum(sum(bucket.values()) for bucket in self._buckets.values())

    def as_multiset(self) -> Counter:
        """All indexed rows with multiplicity, bucket structure erased.

        Equal to ``Counter(relation.rows)`` exactly when the index is
        consistent with its backing bag — the invariant the rollback
        machinery preserves and the fault-injection suite asserts."""
        total: Counter = Counter()
        for bucket in self._buckets.values():
            total.update(bucket)
        return total

    def __repr__(self) -> str:  # pragma: no cover - display helper
        return (
            f"RowIndex(positions={self.positions}, "
            f"{len(self._buckets)} keys)"
        )
