"""Set-semantics relations with named columns.

A :class:`Relation` is an ordered list of distinct tuples under a column
schema. Rows are plain Python tuples; columns are strings. The engine keeps
rows in a list (so relations have a deterministic iteration order — the
order data was loaded or produced) and enforces set semantics on
construction.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Sequence, Tuple

from repro.errors import ReproError


class RelationError(ReproError, ValueError):
    """Raised on schema violations (arity mismatch, unknown column, …)."""


class Relation:
    """An in-memory relation.

    Parameters
    ----------
    name:
        The relation's name (a relation symbol of the schema).
    columns:
        Column names, one per position; must be distinct.
    rows:
        An iterable of tuples, each of the relation's arity. Duplicates are
        removed (set semantics), keeping the first occurrence's position.
    """

    __slots__ = ("name", "columns", "rows", "_position")

    def __init__(self, name: str, columns: Sequence[str], rows: Iterable[tuple] = ()):
        self.name = name
        self.columns: Tuple[str, ...] = tuple(columns)
        if len(set(self.columns)) != len(self.columns):
            raise RelationError(f"duplicate column names in relation {name}: {columns}")
        self._position: Dict[str, int] = {c: i for i, c in enumerate(self.columns)}
        self.rows: List[tuple] = []
        seen = set()
        arity = len(self.columns)
        for row in rows:
            row = tuple(row)
            if len(row) != arity:
                raise RelationError(
                    f"row {row!r} has arity {len(row)}, expected {arity} in relation {name}"
                )
            if row not in seen:
                seen.add(row)
                self.rows.append(row)

    @classmethod
    def copy_from(cls, name: str, columns: Sequence[str], rows: Iterable[tuple]) -> "Relation":
        """Trusted fast-path constructor: skip the dedup scan.

        ``__init__`` walks every row through a throwaway ``seen`` set to
        enforce set semantics — pure overhead when ``rows`` is already a
        list of distinct, correct-arity tuples, e.g. another
        :class:`Relation`'s ``rows`` or the output of an operator that
        preserves distinctness (selection, semijoin, natural join of sets).
        The caller vouches for distinctness and arity; nothing is checked
        beyond the column names.
        """
        instance = cls.__new__(cls)
        instance.name = name
        instance.columns = tuple(columns)
        if len(set(instance.columns)) != len(instance.columns):
            raise RelationError(f"duplicate column names in relation {name}: {columns}")
        instance._position = {c: i for i, c in enumerate(instance.columns)}
        instance.rows = list(rows)
        return instance

    # ------------------------------------------------------------------ #
    # Introspection                                                       #
    # ------------------------------------------------------------------ #

    @property
    def arity(self) -> int:
        return len(self.columns)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def __contains__(self, row: tuple) -> bool:
        # Membership is asked rarely outside tests; avoid keeping a
        # permanent set alongside the list by scanning. Callers needing
        # repeated membership checks should build a HashIndex or row_set().
        return tuple(row) in set(self.rows)

    def column_position(self, column: str) -> int:
        try:
            return self._position[column]
        except KeyError:
            raise RelationError(f"relation {self.name} has no column {column!r}") from None

    def positions_of(self, columns: Sequence[str]) -> Tuple[int, ...]:
        """Positions of the given columns, in the given order."""
        return tuple(self.column_position(c) for c in columns)

    def row_set(self) -> frozenset:
        """The rows as a frozenset (for set-algebraic operations)."""
        return frozenset(self.rows)

    # ------------------------------------------------------------------ #
    # Relational operators (each returns a new Relation)                  #
    # ------------------------------------------------------------------ #

    def select(self, predicate: Callable[[tuple], bool], name: str = None) -> "Relation":
        """Rows satisfying ``predicate`` (applied to the raw tuple)."""
        return Relation.copy_from(
            name or self.name, self.columns, (r for r in self.rows if predicate(r))
        )

    def select_by_column(self, column: str, value, name: str = None) -> "Relation":
        """Equality selection ``σ_{column = value}``."""
        pos = self.column_position(column)
        return Relation.copy_from(
            name or self.name, self.columns, (r for r in self.rows if r[pos] == value)
        )

    def project(self, columns: Sequence[str], name: str = None) -> "Relation":
        """Projection ``π_columns`` with duplicate elimination — none is
        needed onto every column, in any order."""
        positions = self.positions_of(columns)
        if positions == tuple(range(self.arity)):
            return Relation.copy_from(name or self.name, columns, self.rows)
        rows = (tuple(row[p] for p in positions) for row in self.rows)
        if sorted(positions) == list(range(self.arity)):
            return Relation.copy_from(name or self.name, columns, rows)
        return Relation(name or self.name, columns, rows)

    def rename(self, name: str = None, columns: Sequence[str] = None) -> "Relation":
        """A copy with a new name and/or column names (same rows)."""
        new_columns = tuple(columns) if columns is not None else self.columns
        if len(new_columns) != self.arity:
            raise RelationError(
                f"rename of {self.name} must keep arity {self.arity}, got {len(new_columns)}"
            )
        return Relation.copy_from(name or self.name, new_columns, self.rows)

    def intersect(self, other: "Relation", name: str = None) -> "Relation":
        """Set intersection; requires identical column tuples."""
        if self.columns != other.columns:
            raise RelationError(
                f"intersection requires matching columns: {self.columns} vs {other.columns}"
            )
        other_rows = other.row_set()
        return Relation.copy_from(
            name or f"{self.name}_and_{other.name}",
            self.columns,
            (r for r in self.rows if r in other_rows),
        )

    def sorted_rows(self, name: str = None) -> "Relation":
        """A copy with rows in canonical sorted order.

        Sorting is total even for heterogeneous column types: the key ranks
        by type name first, then value. Canonical row order is what makes
        index enumeration orders *compatible* across queries (Section 5.2).
        """
        return Relation.copy_from(
            name or self.name, self.columns, sorted(self.rows, key=row_sort_key)
        )

    def __repr__(self) -> str:
        return f"Relation({self.name!r}, columns={self.columns!r}, rows={len(self.rows)})"


def value_sort_key(value):
    """A total-order key for a single value, robust to mixed types."""
    if isinstance(value, bool):
        # bool is an int subclass; rank it with ints for stability.
        return ("int", int(value))
    if isinstance(value, int):
        return ("int", value)
    if isinstance(value, float):
        return ("int", value)  # ints and floats compare fine together
    return (type(value).__name__, value)


def row_sort_key(row: tuple):
    """A total-order key for a row (tuple of values)."""
    return tuple(value_sort_key(v) for v in row)
