"""Schemas: ordered, optionally qualified, typed attribute lists.

Attributes carry an optional *qualifier* (the base table or view they come
from).  Joined relations concatenate qualified schemas, so ``sale.price``
and ``product.id`` coexist without clashes; unqualified lookup is allowed
whenever it is unambiguous.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.engine.types import AttributeType


class SchemaError(Exception):
    """Raised for unknown, ambiguous, or duplicate attribute references."""


@dataclass(frozen=True)
class Attribute:
    """A named, typed column, optionally qualified by its source relation."""

    name: str
    atype: AttributeType
    qualifier: str | None = None
    size_bytes: int | None = None

    @property
    def qualified_name(self) -> str:
        if self.qualifier is None:
            return self.name
        return f"{self.qualifier}.{self.name}"

    @property
    def width_bytes(self) -> int:
        """Field width under the storage model (defaults to 4 bytes)."""
        if self.size_bytes is not None:
            return self.size_bytes
        return self.atype.default_size_bytes

    def with_qualifier(self, qualifier: str | None) -> "Attribute":
        return Attribute(self.name, self.atype, qualifier, self.size_bytes)

    def renamed(self, name: str) -> "Attribute":
        return Attribute(name, self.atype, self.qualifier, self.size_bytes)

    def matches(self, name: str, qualifier: str | None = None) -> bool:
        """Whether this attribute answers to ``name`` under ``qualifier``.

        A ``None`` qualifier matches any attribute with the right name; a
        concrete qualifier must match exactly.
        """
        if self.name != name:
            return False
        return qualifier is None or self.qualifier == qualifier

    def __str__(self) -> str:  # pragma: no cover - display helper
        return self.qualified_name


def _fast_coercer(atype: AttributeType):
    """A per-type coercer with an exact-type fast path.

    Row validation runs for every delta row of every transaction;
    dispatching through the enum costs more than the check itself.  The
    exact ``type() is`` tests preserve :meth:`AttributeType.coerce`
    semantics precisely — ``bool`` is not ``int`` under ``type()``, so
    INT still rejects True, and anything off the fast path (int
    subclasses, other Reals, invalid values) falls through to the slow
    coercer unchanged.
    """
    slow = atype.coerce
    if atype is AttributeType.INT:
        def coerce(value, _slow=slow):
            return value if type(value) is int else _slow(value)
    elif atype is AttributeType.FLOAT:
        def coerce(value, _slow=slow):
            kind = type(value)
            if kind is float:
                return value
            if kind is int:
                return float(value)
            return _slow(value)
    elif atype is AttributeType.STRING:
        def coerce(value, _slow=slow):
            return value if type(value) is str else _slow(value)
    else:
        def coerce(value, _slow=slow):
            return value if type(value) is bool else _slow(value)
    return coerce


class Schema:
    """An immutable ordered collection of attributes with fast lookup."""

    __slots__ = (
        "_attributes",
        "_by_qualified",
        "_hash",
        "_coercers",
        "_checker",
    )

    def __init__(self, attributes: Iterable[Attribute]):
        attrs = tuple(attributes)
        by_qualified: dict[str, int] = {}
        for index, attribute in enumerate(attrs):
            key = attribute.qualified_name
            if key in by_qualified:
                raise SchemaError(f"duplicate attribute {key!r} in schema")
            by_qualified[key] = index
        self._attributes = attrs
        self._by_qualified = by_qualified
        self._hash: int | None = None
        self._coercers: tuple | None = None
        self._checker = None

    @property
    def attributes(self) -> tuple[Attribute, ...]:
        return self._attributes

    def __len__(self) -> int:
        return len(self._attributes)

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self._attributes)

    def __getitem__(self, index: int) -> Attribute:
        return self._attributes[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self._attributes == other._attributes

    def __hash__(self) -> int:
        # Schemas key the compile caches and plan memos, so the hash is
        # computed once and memoized (attribute tuples are immutable).
        cached = self._hash
        if cached is None:
            cached = self._hash = hash(self._attributes)
        return cached

    def __repr__(self) -> str:  # pragma: no cover - display helper
        names = ", ".join(a.qualified_name for a in self._attributes)
        return f"Schema({names})"

    def index_of(self, name: str, qualifier: str | None = None) -> int:
        """Resolve an attribute reference to its position.

        ``name`` may be a bare name or a dotted ``qualifier.name``; an
        explicit ``qualifier`` argument takes precedence over a dotted one.
        Bare names must be unambiguous.
        """
        if qualifier is None and "." in name:
            qualifier, __, name = name.partition(".")
        if qualifier is not None:
            index = self._by_qualified.get(f"{qualifier}.{name}")
            if index is None:
                raise SchemaError(f"no attribute {qualifier}.{name} in {self!r}")
            return index
        matches = [
            i for i, a in enumerate(self._attributes) if a.name == name
        ]
        if not matches:
            raise SchemaError(f"no attribute {name!r} in {self!r}")
        if len(matches) > 1:
            raise SchemaError(f"ambiguous attribute {name!r} in {self!r}")
        return matches[0]

    def attribute(self, name: str, qualifier: str | None = None) -> Attribute:
        return self._attributes[self.index_of(name, qualifier)]

    def has(self, name: str, qualifier: str | None = None) -> bool:
        try:
            self.index_of(name, qualifier)
        except SchemaError:
            return False
        return True

    def names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self._attributes)

    def qualified_names(self) -> tuple[str, ...]:
        return tuple(a.qualified_name for a in self._attributes)

    def concat(self, other: "Schema") -> "Schema":
        return Schema(self._attributes + other.attributes)

    def project(self, references: Iterable[str]) -> "Schema":
        return Schema(
            self._attributes[self.index_of(ref)] for ref in references
        )

    def with_qualifier(self, qualifier: str | None) -> "Schema":
        return Schema(a.with_qualifier(qualifier) for a in self._attributes)

    def row_width_bytes(self) -> int:
        """Width of one tuple under the paper's storage model."""
        return sum(a.width_bytes for a in self._attributes)

    def validate_row(self, row: tuple) -> tuple:
        """Type-check and coerce a row against this schema."""
        coercers = self._coercers
        if coercers is None:
            coercers = self._coercers = tuple(
                _fast_coercer(a.atype) for a in self._attributes
            )
        if len(row) != len(coercers):
            raise SchemaError(
                f"row arity {len(row)} does not match schema arity "
                f"{len(self._attributes)}"
            )
        return tuple(
            coerce(value) for coerce, value in zip(coercers, row)
        )

    def _build_checker(self):
        """Compile an exact-type batch predicate for this schema.

        The predicate answers "is this row already in canonical form?"
        — right arity and every value the exact native type of its
        column.  Canonical rows need no coercion and no copying, so a
        batch that passes is validated wholesale; any row off the fast
        path (an int in a FLOAT column, a wrong type, a bad arity)
        sends the whole batch through :meth:`validate_row`, which keeps
        coercion results and error messages byte-identical."""
        type_names = {
            AttributeType.INT: "int",
            AttributeType.FLOAT: "float",
            AttributeType.STRING: "str",
            AttributeType.BOOL: "bool",
        }
        tests = [f"len(r) == {len(self._attributes)}"]
        tests.extend(
            f"type(r[{i}]) is {type_names[a.atype]}"
            for i, a in enumerate(self._attributes)
        )
        checker = eval(  # noqa: S307 - generated from the schema alone
            "lambda r: " + " and ".join(tests),
            {"len": len, "type": type},
        )
        self._checker = checker
        return checker

    def validate_rows(self, rows) -> list[tuple]:
        """Type-check a batch of rows against this schema.

        Rows already in canonical form (the overwhelmingly common case
        for machine-generated deltas) pass one compiled predicate each
        and are returned as-is; a batch with any non-canonical row
        falls back to per-row :meth:`validate_row` so coercions apply
        and the first offender raises its usual :class:`SchemaError`."""
        checker = self._checker
        if checker is None:
            checker = self._build_checker()
        if all(map(checker, rows)):
            return rows if type(rows) is list else list(rows)
        return [self.validate_row(row) for row in rows]
