"""Columnar (flat-array) bucket stores: the third ``BucketStore`` family.

The tuple-based stores pay ~1µs of interpreter overhead per tuple hop —
one :class:`~repro.core.index._Bucket` bisect or one
:class:`~repro.core.order_tree.TreeRow` descent per answer per level. This
module moves the static data plane onto contiguous numpy arrays:

* :class:`FlatBucketStore` — a static bucket as a *view* over its node's
  concatenated columns: interned value ids plus a parallel prefix-sum
  weight array, with ``locate_run``/``rank_start`` resolved by
  ``searchsorted`` and rows materialized lazily (the scalar protocol, so
  every existing engine walk runs unchanged);
* :class:`FlatNode` — the per-node concatenation those views share, which
  is what the **vectorized** batch walk (:func:`flat_batch`) operates on:
  one ``searchsorted`` + one gather per level for a whole offset array,
  instead of a python loop per answer;
* :class:`FlatOrderTree` — a slab-allocated treap (index-based: ``left``/
  ``right``/``weight``/``subtotal`` columns over preallocated int arrays
  instead of ``TreeRow`` objects) implementing the same snapshot/path-copy
  contract and handle accessors as
  :class:`~repro.core.order_tree.OrderedWeightTree`, so the one dynamic
  bucket (:class:`repro.core.dynamic._DynamicBucket`) runs over either
  tree; its frozen view, :class:`FlatSnapshotStore`, is the tree's only
  read surface.

Backend selection
-----------------
``resolve_store`` maps a ``store=`` argument (or the ``REPRO_STORE``
environment variable when the argument is ``None``) to one of
:data:`VALID_STORES`. numpy is a required dependency, so both backends
are always available; ``"tuple"`` stays the default because its scalar
reads are faster.

Static build
------------
:func:`build_flat_forest` runs Algorithm 2 as one numpy pass per node,
children first, with no tuple bucket made on the way. Columns are
interned (``np.unique`` for exact ints in int64, :class:`_ColumnInterner`
otherwise) and ranked densely by ``value_sort_key``; rows are grouped by
python equality of their key tuples, one dict lookup per distinct
combination of ids, and sorted by one stable ``np.lexsort`` on (bucket,
ranks), so ties keep relation order as ``list.sort`` does. A NaN leaves
no total order: its node sorts each bucket by ``row_sort_key`` instead.

Value interning
---------------
Column values are interned per node column into ``id → value`` tables
keyed by ``(type, value)`` — so ``1``, ``1.0`` and ``True`` (equal, and
hash-equal, as dict keys) keep distinct ids and round-trip exactly, like
they do through the tuple stores. A float zero keys by its sign too, so
``0.0`` and ``-0.0`` each serve as themselves. Each table holds the rows'
own value objects, not copies.

Encoded tables
--------------
:func:`flat_batch_json` answers a batch as the JSON text
``json.dumps`` would write for its tuples, for the HTTP tier. Each
:class:`FlatNode` keeps, beside each value table, an *encoded* table:
``json.dumps(value)`` once per distinct value (``true``, not ``1``;
``NaN``, ``1e+16``, escaped strings). The walk resolves a batch to row
positions, a head column gathers its text through the node's id column,
and the answers are joined with ``json.dumps``'s separators. The encoded
tables are built on the first JSON read — never at build time and never
at recovery — and are neither pickled nor written to a checkpoint.

Slab-treap snapshot contract
----------------------------
:meth:`FlatOrderTree.snapshot` bumps the epoch and captures the current
array references in a :class:`FlatSnapshotStore`; a mutation may only
edit slots stamped with the current epoch, so frozen slots (reachable
from any snapshot root) are never written again — clones land in fresh
slots. Growth reallocates the slabs
by copy, leaving a snapshot's captured arrays intact. Handles are *row
ids* (stable integers into append-only ``rows``/``keys`` lists), so —
unlike ``TreeRow`` handles — they survive path copies and rebuilds with
no ``on_clone`` plumbing. The two writer-bookkeeping exceptions of the
object treap carry over unchanged: ``parent`` links describe the live
tree only, and ``multiplicity`` (a python list indexed by row id) may be
adjusted in place, both invisible to root-down snapshot readers.

All flat weights live in int64: a forest whose count (or any per-node
cumulative weight) reaches 2⁶² falls back to the tuple store at build
time rather than risking overflow; the check is exact integer
arithmetic, never an estimate. A slab treap refuses, with
:class:`FlatOverflowError` and before it mutates anything, any build,
insert or weight update whose bucket total would reach 2⁶²; every
subtotal is at most the total, so that one check bounds them all.
"""

from __future__ import annotations

import json as _json
import math
import os
from bisect import bisect_left
from itertools import repeat as _repeat
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as _np

from repro.database.relation import row_sort_key, value_sort_key
from repro.core.order_tree import _PRIORITIES, _descending_priorities

#: The recognized ``store=`` backend names.
VALID_STORES = ("tuple", "flat")

#: Environment variable supplying the default backend (CI forces ``flat``
#: through it to catch contract drift across the whole suite).
STORE_ENV = "REPRO_STORE"

#: Weights/counts at or above this never enter int64 arrays.
_WEIGHT_LIMIT = 2 ** 62

#: Batches smaller than this stay on the tuple walk — numpy's fixed
#: per-call overhead beats the vector win under a few dozen positions.
VECTOR_MIN = 32

_NIL = -1

#: Number of deferred value-table materializations performed so far.
#: Blob-backed nodes (checkpoint recovery) start with int slabs only;
#: composing the interned tables into python-object arrays is the first
#: — and only — per-row object construction a recovered entry ever
#: performs, so tests and benchmarks read this counter's delta to assert
#: that recovery and counting alone never touch python objects.
TABLE_MATERIALIZATIONS = 0


def resolve_store(store: Optional[str]) -> str:
    """Normalize a ``store=`` argument to a validated backend name.

    ``None`` consults the :data:`STORE_ENV` environment variable, then
    defaults to ``"tuple"``.
    """
    if store is None:
        store = os.environ.get(STORE_ENV) or "tuple"
    if store not in VALID_STORES:
        raise ValueError(
            f"unknown store backend {store!r}; expected one of {VALID_STORES}"
        )
    return store


# ---------------------------------------------------------------------- #
# Static columnar store                                                   #
# ---------------------------------------------------------------------- #


class _ColumnInterner:
    """Per-column value interning keyed by ``(type, value)``; a float zero
    also keys by its sign, since ``-0.0 == 0.0`` and each row must serve
    its own value, as the tuple store does."""

    __slots__ = ("ids", "table")

    def __init__(self):
        self.ids: Dict[tuple, int] = {}
        self.table: List[object] = []

    def id_of(self, value) -> int:
        kind = value.__class__
        if kind is float and not value:
            key = (kind, value, math.copysign(1.0, value))
        else:
            key = (kind, value)
        got = self.ids.get(key)
        if got is None:
            got = self.ids[key] = len(self.table)
            self.table.append(value)
        return got


class FlatNode:
    """One node's buckets concatenated into columnar arrays.

    ``row_start`` holds *global* start offsets (bucket weight base plus
    the row's local ``startIndex``), monotone across the concatenation, so
    one ``searchsorted`` resolves offsets for every bucket of the node at
    once. ``child_base[i]``/``child_suffix[i]`` precompute, per row, the
    absolute base of the row's child-``i`` bucket in the child's arrays
    and the mixed-radix divisor (product of the later children's bucket
    totals), so the vectorized walk needs no per-row dict lookups.

    ``uniform_stride`` is the common row weight when every row of the node
    weighs the same (and nonzero), else 0. With a uniform stride the
    prefix sums are ``stride · arange``, so locating a batch degenerates
    to one ``divmod`` — no binary search at all. Constant fan-out is the
    common benign shape (key/foreign-key joins, generated benchmarks), so
    the flag pays for itself far beyond this repo's gates.

    The int slabs may be externally owned — read-only mmaps adopted by
    :meth:`from_slabs` — and the value tables may arrive as a deferred
    ``table_loader`` instead of materialized object arrays: ``tables``/
    ``values`` are then composed on first access (bumping
    :data:`TABLE_MATERIALIZATIONS`), so a recovered node serves counts
    and locates offsets without constructing a single python object.
    ``encoded`` — each table's values as JSON text — is built on the
    first JSON read, from ``tables``, and never pickled or stored.
    """

    __slots__ = (
        "columns",
        "children",
        "ids",
        "row_start",
        "weights",
        "child_suffix",
        "child_base",
        "bucket_base",
        "uniform_stride",
        "_tables",
        "_values",
        "_encoded",
        "_table_loader",
    )

    def __init__(self, columns, children, tables, ids, row_start, weights,
                 child_suffix, child_base, bucket_base,
                 uniform_stride=None, table_loader=None):
        self.columns = columns
        self.children = children
        self.ids = ids                  # per column: int64 ndarray of value ids
        self.row_start = row_start      # int64 ndarray, global start per row
        self.weights = weights          # int64 ndarray
        self.child_suffix = child_suffix
        self.child_base = child_base
        self.bucket_base = bucket_base  # bucket key → (weight base, row lo)
        if uniform_stride is None:
            stride = int(weights[0]) if len(weights) else 0
            uniform_stride = (
                stride if stride > 0 and bool((weights == stride).all()) else 0
            )
        self.uniform_stride = uniform_stride
        self._table_loader = table_loader
        self._encoded = None
        if tables is None:
            if table_loader is None:
                raise ValueError("FlatNode requires tables or a table_loader")
            self._tables = None
            self._values = None
        else:
            self._tables = tables       # per column: object ndarray id → value
            # Interned ids composed with their tables once, so the batch
            # walk pays one object gather per column instead of two.
            self._values = [table[ids_] for table, ids_ in zip(tables, ids)]

    @property
    def tables(self):
        tables = self._tables
        if tables is None:
            tables = self._materialize()
        return tables

    @property
    def values(self):
        if self._tables is None:
            self._materialize()
        return self._values

    def _materialize(self):
        global TABLE_MATERIALIZATIONS
        TABLE_MATERIALIZATIONS += 1
        tables = [_object_array(table) for table in self._table_loader()]
        self._tables = tables
        self._values = [
            table[ids_] for table, ids_ in zip(tables, self.ids)
        ]
        self._table_loader = None
        return tables

    @property
    def encoded(self):
        """Per column: an object ndarray, value id → ``json.dumps(value)``.

        One string per *distinct* value, so a JSON read gathers text
        through the id columns instead of keeping a second per-row column.
        """
        encoded = self._encoded
        if encoded is None:
            encoded = self._encoded = [
                _np.array([_json.dumps(value) for value in table.tolist()],
                          dtype=object)
                for table in self.tables
            ]
        return encoded

    def row_at(self, position: int) -> tuple:
        return tuple(
            table[ids[position]] for table, ids in zip(self.tables, self.ids)
        )

    # -- pickling (the legacy serve.pkl checkpoint path) ---------------- #

    def __getstate__(self):
        # A deferred loader is process-local (it closes over blob paths),
        # and mmap-backed slabs must not pickle as memmap subclasses —
        # materialize the tables and detach every array into plain memory.
        return (
            self.columns,
            self.children,
            list(self.tables),
            [_detached(a) for a in self.ids],
            _detached(self.row_start),
            _detached(self.weights),
            [_detached(a) for a in self.child_suffix],
            [_detached(a) for a in self.child_base],
            self.bucket_base,
            self.uniform_stride,
        )

    def __setstate__(self, state):
        (self.columns, self.children, tables, self.ids, self.row_start,
         self.weights, self.child_suffix, self.child_base, self.bucket_base,
         self.uniform_stride) = state
        self._tables = tables
        self._values = [
            table[ids_] for table, ids_ in zip(tables, self.ids)
        ]
        self._table_loader = None
        self._encoded = None

    # -- lossless slab export/import ------------------------------------ #

    def to_slabs(self) -> Tuple[dict, Dict[str, object], List[list]]:
        """Lossless slab form: ``(meta, slabs, tables)``.

        ``slabs`` maps slab names (``row_start``, ``weights``,
        ``ids.<column>``, ``child_suffix.<i>``, ``child_base.<i>``) to the
        node's int64 arrays, by reference. ``tables`` holds the interned
        value tables as plain lists (the storage layer encodes them
        through the canonical scalar codec). ``meta`` carries everything
        else — columns, child count, ``uniform_stride``, and the bucket
        spans — with raw python values; codecs are the caller's job.
        """
        slabs: Dict[str, object] = {
            "row_start": self.row_start,
            "weights": self.weights,
        }
        for c in range(len(self.columns)):
            slabs[f"ids.{c}"] = self.ids[c]
        for i in range(len(self.child_suffix)):
            slabs[f"child_suffix.{i}"] = self.child_suffix[i]
            slabs[f"child_base.{i}"] = self.child_base[i]
        meta = {
            "columns": list(self.columns),
            "n_children": len(self.children),
            "uniform_stride": self.uniform_stride,
            "bucket_base": [
                [list(key), base, lo]
                for key, (base, lo) in self.bucket_base.items()
            ],
        }
        tables = [table.tolist() for table in self.tables]
        return meta, slabs, tables

    @classmethod
    def from_slabs(cls, meta: dict, slabs: Dict[str, object],
                   children: List["FlatNode"], tables=None,
                   table_loader=None) -> "FlatNode":
        """Rebuild from :meth:`to_slabs` output, *adopting* the arrays —
        no copies, so read-only mmapped slabs serve directly. Exactly one
        of ``tables`` (eager object arrays) / ``table_loader`` (deferred:
        a zero-argument callable returning per-column value lists) must
        be provided."""
        n_children = meta["n_children"]
        return cls(
            columns=tuple(meta["columns"]),
            children=children,
            tables=tables,
            ids=[slabs[f"ids.{c}"] for c in range(len(meta["columns"]))],
            row_start=slabs["row_start"],
            weights=slabs["weights"],
            child_suffix=[
                slabs[f"child_suffix.{i}"] for i in range(n_children)
            ],
            child_base=[slabs[f"child_base.{i}"] for i in range(n_children)],
            bucket_base={
                tuple(key): (base, lo)
                for key, base, lo in meta["bucket_base"]
            },
            uniform_stride=meta["uniform_stride"],
            table_loader=table_loader,
        )


class FlatBucketStore:
    """The static columnar :class:`~repro.core.access_engine.BucketStore`.

    A view over one bucket's row range ``[lo, hi)`` of its node's
    :class:`FlatNode` arrays. Satisfies the same scalar protocol as
    :class:`~repro.core.index._Bucket` (``unit_leaf`` included: static
    leaf rows all carry weight 1), so the engine's tuple walks run over it
    unchanged; ``rows`` materializes lazily for the leaf fast path and
    never at all on the vectorized path.
    """

    __slots__ = ("flat", "lo", "hi", "base", "total", "rank", "_rows")

    #: Same guarantee as the tuple static bucket: childless-node rows all
    #: weigh 1, so a bucket-local offset is a row position.
    unit_leaf = True

    def __init__(self, flat: FlatNode, lo: int, hi: int, base: int, total: int):
        self.flat = flat
        self.lo = lo
        self.hi = hi
        self.base = base
        self.total = total
        self.rank: Optional[Dict[tuple, int]] = None
        self._rows: Optional[List[tuple]] = None

    @property
    def rows(self) -> List[tuple]:
        rows = self._rows
        if rows is None:
            flat = self.flat
            rows = self._rows = [
                flat.row_at(position) for position in range(self.lo, self.hi)
            ]
        return rows

    @property
    def weights(self) -> List[int]:
        return self.flat.weights[self.lo:self.hi].tolist()

    @property
    def start(self) -> List[int]:
        base = self.base
        return [s - base for s in self.flat.row_start[self.lo:self.hi].tolist()]

    def __len__(self) -> int:
        return self.hi - self.lo

    def locate_run(self, offset: int) -> Tuple[tuple, int, int]:
        flat = self.flat
        position = int(
            _np.searchsorted(flat.row_start, self.base + offset, side="right")
        ) - 1
        return (
            flat.row_at(position),
            int(flat.row_start[position]) - self.base,
            int(flat.weights[position]),
        )

    def rank_start(self, row: tuple) -> Optional[int]:
        position = self.rank.get(row)
        if position is None:
            return None
        flat = self.flat
        if not flat.weights[self.lo + position]:
            return None
        return int(flat.row_start[self.lo + position]) - self.base

    def rank_before(self, row: tuple) -> Tuple[int, bool]:
        rows = self.rows
        position = bisect_left(rows, row_sort_key(row), key=row_sort_key)
        if position == len(rows):
            return self.total, False
        flat = self.flat
        return int(flat.row_start[self.lo + position]) - self.base, (
            rows[position] == row and bool(flat.weights[self.lo + position])
        )

    def iter_rows(self) -> Iterator[Tuple[tuple, int]]:
        return zip(self.rows, self.flat.weights[self.lo:self.hi].tolist())

    def build_rank(self) -> None:
        if self.rank is None:
            self.rank = {row: position for position, row in enumerate(self.rows)}


class FlatOverflowError(OverflowError):
    """A weight would not fit int64 arrays; caller falls back to tuple."""


def _check_fits(weights: Sequence[int], total: int) -> None:
    """Refuse row weights or a bucket total at the int64 flat limit.

    Every subtotal is at most the total, so a total under the limit
    bounds them all.
    """
    if weights and max(weights) >= _WEIGHT_LIMIT:
        raise FlatOverflowError("row weight exceeds the int64 flat limit")
    if total >= _WEIGHT_LIMIT:
        raise FlatOverflowError("bucket total exceeds the int64 flat limit")


def build_flat_forest(roots: Sequence, sort_buckets: bool = True) -> None:
    """Build every node's :class:`FlatNode` and :class:`FlatBucketStore`
    views in place, children first, straight from the reduced relations
    (see "Static build" above): the tuple build's buckets, rows and
    weights, in its order. Raises :class:`FlatOverflowError` at the int64
    limit, leaving the nodes half built: start over on fresh ones.
    """
    for root in roots:
        _build_flat_node(root, sort_buckets)


def _build_flat_node(node, sort_buckets: bool) -> None:
    for child in node.children:
        _build_flat_node(child, sort_buckets)

    rows = node.relation.rows
    n = len(rows)
    columns = [
        _intern_column(values, sort_buckets)
        for values in (list(zip(*rows)) or [() for __ in node.columns])
    ]
    ids = [column_ids for __, column_ids, __ in columns]

    # Buckets group rows whose key tuples are equal as python values (so
    # 1, 1.0 and True share one), numbered in order of first occurrence.
    groups: Dict[tuple, int] = {}
    bucket = _lookup_rows(rows, ids, node.parent_key_positions,
                          lambda key: groups.setdefault(key, len(groups)))

    # Each row's child buckets: a missing one (or an empty one) leaves
    # the row dangling, with weight 0.
    alive = _np.ones(n, dtype=bool)
    totals, bases = [], []
    for child, positions in zip(node.children, node.child_key_positions):
        number = {key: i for i, key in enumerate(child.buckets)}
        which = _lookup_rows(rows, ids, positions,
                             lambda key: number.get(key, -1))
        views = list(child.buckets.values())
        total = _np.array([v.total for v in views] + [0], dtype=_np.int64)[which]
        alive &= total > 0
        totals.append(total)
        bases.append(_np.array([v.base for v in views] + [0], dtype=_np.int64)[which])

    # weight = Π child totals. Multiplying from the last child, the
    # running product is each child's mixed-radix suffix; every factor of
    # a live row is ≥ 1, so checking each step bounds the weight exactly.
    weights = _np.ones(n, dtype=_np.int64)
    suffixes = []
    for total in reversed(totals):
        suffixes.append(weights.copy())
        factor = _np.where(alive, total, 1)
        if (weights > (_WEIGHT_LIMIT - 1) // factor).any():
            raise FlatOverflowError("row weight exceeds the int64 flat limit")
        weights *= factor
    suffixes.reverse()
    weights[~alive] = 0

    # Both array sorts are stable: ties keep relation order, as list.sort.
    if not sort_buckets:
        order = _np.argsort(bucket, kind="stable")
    elif all(ranks is not None for __, __, ranks in columns):
        order = _np.lexsort(
            [ranks for __, __, ranks in reversed(columns)] + [bucket]
        )
    else:
        order = _sorted_buckets(rows, bucket, len(groups))
    bucket = bucket[order]
    weights = weights[order]
    ends = _np.cumsum(weights)
    # Each weight is under the limit, so the prefix sums that first reach
    # it are still exact: the check is exact too.
    if n and int(ends.max()) >= _WEIGHT_LIMIT:
        raise FlatOverflowError("node weight exceeds the int64 flat limit")
    row_start = ends - weights
    numbered = _np.arange(len(groups))
    lo = _np.searchsorted(bucket, numbered)
    hi = _np.searchsorted(bucket, numbered, side="right")
    base = row_start[lo]
    spans = list(zip(groups, lo.tolist(), hi.tolist(), base.tolist(),
                     (ends[hi - 1] - base).tolist()))

    flat = FlatNode(
        columns=node.columns,
        children=[child.flat for child in node.children],
        tables=[_object_array(table) for table, __, __ in columns],
        ids=[column_ids[order] for column_ids in ids],
        row_start=row_start,
        weights=weights,
        child_suffix=[suffix[order] for suffix in suffixes],
        child_base=[_np.where(alive, b, 0)[order] for b in bases],
        bucket_base={key: (b, l) for key, l, __, b, __ in spans},
    )
    node.flat = flat
    node.buckets = bucket_views(flat, spans)


def bucket_views(
    flat: FlatNode, spans: Iterable[tuple]
) -> Dict[tuple, FlatBucketStore]:
    """A node's ``key → FlatBucketStore`` dict from its bucket spans,
    ``(key, lo, hi, base, total)`` each."""
    return {
        key: FlatBucketStore(flat, lo, hi, base, total)
        for key, lo, hi, base, total in spans
    }


def _intern_column(values: Sequence[object], rank: bool):
    """``(table, ids, ranks)`` of one column: each distinct value once (the
    rows' own object), each row's slot in that table, and each row's dense
    rank in ``value_sort_key`` order — ``None`` unless ``rank``, or when
    a NaN leaves that order partial (``list.sort`` then depends on the
    input sequence)."""
    if values and set(map(type, values)) == {int}:
        try:
            __, first, ids = _np.unique(_np.array(values, dtype=_np.int64),
                                        return_index=True, return_inverse=True)
        except OverflowError:
            pass
        else:  # sorted distinct ints: the ids are the dense ranks already
            return [values[row] for row in first.tolist()], ids, ids
    interner = _ColumnInterner()
    ids = _np.fromiter(
        map(interner.id_of, values), dtype=_np.int64, count=len(values)
    )
    table = interner.table
    if not rank or any(value != value for value in table):
        return table, ids, None
    keys = [value_sort_key(value) for value in table]
    try:
        # Equal keys (1, 1.0 and True) are one set member: one rank.
        ranked = {key: r for r, key in enumerate(sorted(set(keys)))}
    except TypeError:
        return table, ids, None
    return table, ids, _np.array([ranked[key] for key in keys], dtype=_np.int64)[ids]


def _lookup_rows(rows: Sequence[tuple], ids, positions: Sequence[int], lookup):
    """``lookup(key)`` of each row's key tuple (its values at
    ``positions``) as an int64 array, calling ``lookup`` once per distinct
    combination of the rows' value ids, in order of first occurrence."""
    n = len(rows)
    combination, first = _np.zeros(n, dtype=_np.int64), [0] if n else []
    if positions and n:
        combined = ids[positions[0]]
        for p in positions[1:]:
            __, combined = _np.unique(
                combined * (int(ids[p].max()) + 1) + ids[p], return_inverse=True
            )
        __, firsts, inverse = _np.unique(
            combined, return_index=True, return_inverse=True
        )
        by_first = _np.argsort(firsts)
        renumber = _np.empty_like(by_first)
        renumber[by_first] = _np.arange(len(firsts))
        combination, first = renumber[inverse], firsts[by_first].tolist()
    found = [lookup(tuple(rows[row][p] for p in positions)) for row in first]
    return _np.array(found, dtype=_np.int64)[combination]


def _sorted_buckets(rows: Sequence[tuple], bucket, n_buckets: int):
    """The tuple build's row order where ranks cannot give it: each
    bucket's rows, in relation order, sorted by ``row_sort_key``."""
    members: List[List[int]] = [[] for __ in range(n_buckets)]
    for row, number in enumerate(bucket.tolist()):
        members[number].append(row)
    return _np.array([
        row for positions in members
        for row in sorted(positions, key=lambda row: row_sort_key(rows[row]))
    ], dtype=_np.int64)


def _object_array(values: Sequence[object]):
    return _np.fromiter(values, dtype=object, count=len(values))


def _detached(array):
    """``array`` as a plain in-memory ndarray (mmaps copied, rest as-is)."""
    if type(array) is _np.ndarray:
        return array
    return _np.array(array)


# ---------------------------------------------------------------------- #
# Vectorized batched access                                               #
# ---------------------------------------------------------------------- #


def flat_batch(
    roots: Sequence, indices: Sequence[int], project: Optional[Sequence[str]]
) -> List[object]:
    """Resolve a whole batch through the columnar arrays.

    The array analog of the engine's ``batch_walk``: per level, one
    ``searchsorted`` locates the containing row for every pending offset
    at once, one subtraction yields the in-row remainders, and the
    mixed-radix SplitIndex digits come from elementwise ``divmod`` against
    the precomputed per-row suffix arrays. Results align with the request
    (which may be unsorted and contain duplicates — ``searchsorted`` needs
    no sorted queries). Bounds are the caller's responsibility, and so is
    the choice of this path: every root must carry columnar arrays (see
    :func:`repro.core.access_engine.vector_batch`).
    """
    if (project and isinstance(indices, range) and indices.step == 1
            and len(roots) == 1):
        # Pagination's shape: one root, one contiguous offset run — the
        # walk can slice-and-repeat instead of gathering.
        fast = _contiguous_tuples(
            roots[0].flat, indices.start, indices.stop, project
        )
        if fast is not None:
            return fast
    picks = _walk(roots, indices)
    if project is None:
        names = sorted(picks)
        columns = [_gather(picks[name]) for name in names]
        return [dict(zip(names, values)) for values in zip(*columns)]
    if len(project) == 0:
        return [()] * len(indices)
    columns = [_gather(picks[name]) for name in project]
    if len(columns) == 1:
        return [(value,) for value in columns[0]]
    return list(zip(*columns))


def flat_batch_json(
    roots: Sequence, indices: Sequence[int], project: Sequence[str]
) -> str:
    """``json.dumps`` of :func:`flat_batch`'s tuples, written from text.

    The same walk, but each head column gathers its answers' JSON text
    from the node's pre-encoded table (:attr:`FlatNode.encoded`) instead
    of their values, and the answers are joined with ``json.dumps``'s own
    separators — no tuple, list or per-answer encoder call. ``indices``
    must be non-empty and ``project`` must name at least one variable;
    the rest of :func:`flat_batch`'s contract applies.
    """
    picks = _walk(roots, indices)
    columns = [_gather(picks[name], encoded=True) for name in project]
    return "[[" + "], [".join(map(", ".join, zip(*columns))) + "]]"


def _walk(roots: Sequence, indices: Sequence[int]) -> Dict[str, tuple]:
    """The rows a batch resolves to: variable → ``(node, column, rows)``.

    ``rows`` indexes the node's arrays (an int64 array, or a slice for a
    contiguous run) and aligns with the request.
    """
    flats = [root.flat for root in roots]
    out: Dict[str, tuple] = {}
    if isinstance(indices, _np.ndarray):
        remaining = indices.astype(_np.int64, copy=False)
    elif isinstance(indices, range):
        if indices.step == 1 and len(roots) == 1:
            _contiguous_walk(flats[0], indices.start, indices.stop, out)
            return out
        remaining = _np.arange(
            indices.start, indices.stop, indices.step, dtype=_np.int64
        )
    else:
        remaining = _np.fromiter(indices, dtype=_np.int64, count=len(indices))
    last = len(roots) - 1
    for position, root in enumerate(roots):
        if position < last:
            suffix = 1
            for later in roots[position + 1:]:
                suffix *= later.buckets[()].total
            digit, remaining = _np.divmod(remaining, suffix)
            _flat_walk(flats[position], digit, out)
        else:
            _flat_walk(flats[position], remaining, out)
    return out


def _gather(pick: tuple, encoded: bool = False) -> list:
    """One picked column's values — or, ``encoded``, their JSON text."""
    flat, column, rows = pick
    if encoded:
        return flat.encoded[column][flat.ids[column][rows]].tolist()
    return flat.values[column][rows].tolist()


def _pick(flat: FlatNode, rows, out: Dict[str, tuple]) -> None:
    for column, name in enumerate(flat.columns):
        out[name] = (flat, column, rows)


#: Above this batch size an unsorted ``searchsorted`` goes cache-bound
#: (random probes of the prefix array), and paying one ``argsort`` to
#: binary-search in ascending order wins ~3× on the lookup.
_SORT_MIN = 4096


def _locate(flat: FlatNode, offsets):
    """Per-offset ``(row position, in-row remainder)`` for one node.

    Three regimes, fastest first: a uniform-stride node is one ``divmod``
    (the prefix sums are ``stride · arange``); already-ascending offsets
    (pagination) binary-search directly; large unsorted batches sort
    first — ``searchsorted`` with ascending needles walks the prefix
    array coherently instead of cache-missing per probe — and scatter the
    hits back into request order.
    """
    stride = flat.uniform_stride
    if stride == 1:
        # Offsets ARE row positions and every remainder is 0 — the
        # ``None`` sentinel lets the walk skip the dead divmods.
        return offsets, None
    if stride:
        positions, remainders = _np.divmod(offsets, stride)
        return positions, remainders
    row_start = flat.row_start
    if offsets.size >= _SORT_MIN and (offsets[1:] < offsets[:-1]).any():
        order = _np.argsort(offsets)
        hits = _np.searchsorted(row_start, offsets[order], side="right") - 1
        positions = _np.empty_like(hits)
        positions[order] = hits
    else:
        positions = _np.searchsorted(row_start, offsets, side="right") - 1
    return positions, offsets - row_start[positions]


def _flat_walk(flat: FlatNode, offsets, out: Dict[str, tuple]) -> None:
    """One node level of the vectorized walk (absolute offsets in)."""
    positions, remainders = _locate(flat, offsets)
    _pick(flat, positions, out)
    _descend(flat, positions, remainders, out)


def _descend(flat: FlatNode, positions, remainders, out) -> None:
    """Recurse into the children given this level's located rows."""
    last = len(flat.children) - 1
    for i, child in enumerate(flat.children):
        if remainders is None:
            # Unit-stride node: every SplitIndex digit is 0.
            _flat_walk(child, flat.child_base[i][positions], out)
            continue
        if i < last:
            digits, remainders = _np.divmod(
                remainders, flat.child_suffix[i][positions]
            )
        else:
            digits = remainders
        _flat_walk(child, flat.child_base[i][positions] + digits, out)


def _contiguous_tuples(
    flat: FlatNode, start: int, stop: int, project: Sequence[str]
) -> Optional[List[tuple]]:
    """Projected tuples for a contiguous run on a two-level chain, or ``None``.

    The most common pagination shape — a uniform-stride root over one
    unit-leaf child — admits a result-direct construction: within one
    root row the projected root values are constants and the leaf values
    are one contiguous slice of the leaf's column (offset ``base + r`` for
    remainders ``0 … stride``), so each row's answers come out of a single
    ``zip(leaf_slice, repeat(const), …)``. That builds the final tuples
    with no offset arrays, no gathers, and no per-column ``tolist`` over
    the full run — the page costs O(rows touched) python iterations plus
    the unavoidable tuple construction both backends share.
    """
    stride = flat.uniform_stride
    if stride <= 1 or len(flat.children) != 1:
        return None
    child = flat.children[0]
    if child.children or child.uniform_stride != 1:
        return None
    sources = []
    for name in project:
        if name in flat.columns:
            sources.append((True, flat.columns.index(name)))
        elif name in child.columns:
            sources.append((False, child.columns.index(name)))
        else:  # pragma: no cover - projections are head variables
            return None
    lo = start // stride
    hi = (stop - 1) // stride + 1
    shift = start - lo * stride
    bases = flat.child_base[0][lo:hi].tolist()
    row_values = [
        flat.values[position][lo:hi].tolist() if is_root else None
        for is_root, position in sources
    ]
    leaf_values = [
        None if is_root else child.values[position]
        for is_root, position in sources
    ]
    out: List[tuple] = []
    extend = out.extend
    for row, base in enumerate(bases):
        extend(zip(*[
            _repeat(row_values[slot][row], stride)
            if leaf_values[slot] is None
            else leaf_values[slot][base:base + stride].tolist()
            for slot in range(len(sources))
        ]))
    if shift or len(out) != stop - start:
        out = out[shift:shift + (stop - start)]
    return out


def _contiguous_walk(flat: FlatNode, start: int, stop: int, out) -> None:
    """:func:`_flat_walk` for one contiguous ``[start, stop)`` offset run.

    On a uniform-stride node the run touches rows ``start//s ..
    (stop-1)//s``; every per-offset array is a repeat (or, at stride 1, a
    plain slice) of that tiny row window, so the level costs a few
    O(rows-touched) ops instead of O(offsets) searches — the difference
    between a pagination sweep being search-bound or memcpy-bound.
    """
    stride = flat.uniform_stride
    if not stride:
        _flat_walk(flat, _np.arange(start, stop, dtype=_np.int64), out)
        return
    if stride == 1:
        rows = slice(start, stop)
        _pick(flat, rows, out)
        if flat.children:
            _descend(flat, rows, None, out)
        return
    lo = start // stride
    hi = (stop - 1) // stride + 1
    shift = start - lo * stride
    n = stop - start
    positions = _np.arange(lo, hi, dtype=_np.int64) \
        .repeat(stride)[shift:shift + n]
    _pick(flat, positions, out)
    if flat.children:
        remainders = _np.tile(
            _np.arange(stride, dtype=_np.int64), hi - lo
        )[shift:shift + n]
        _descend(flat, positions, remainders, out)


# ---------------------------------------------------------------------- #
# Slab-allocated order tree (the dynamic flat backend)                    #
# ---------------------------------------------------------------------- #


class FlatOrderTree:
    """A slab-allocated treap over canonically sorted weighted rows.

    The index-based sibling of
    :class:`~repro.core.order_tree.OrderedWeightTree`: node state lives in
    parallel int64/float64 columns (``left``/``right``/``parent``/
    ``weight``/``subtotal``/``priority``/``stamp``/``row_of``) instead of
    per-row objects, and handles are stable integer *row ids* — indexes
    into the append-only ``rows``/``keys``/``multiplicity`` lists, mapped
    to the row's current live slot by ``node_of``. Same operations, same
    costs, same snapshot/path-copy contract (see the module notes);
    priorities draw from the shared module PRNG, so shapes stay
    reproducible.

    :meth:`set_weights` re-weights many rows in one pass: it copies each
    changed row's frozen spine once, then updates every subtotal on the
    union of their root paths once, children first. Every build,
    insert and weight update first checks that the bucket total stays
    under ``2⁶²`` (:class:`FlatOverflowError` otherwise, nothing
    mutated).
    """

    __slots__ = ("rows", "keys", "multiplicity", "node_of",
                 "left", "right", "parent", "weight", "subtotal",
                 "priority", "stamp", "row_of", "slots_used",
                 "root", "size", "epoch")

    def __init__(self, capacity: int = 16):
        self.rows: List[tuple] = []
        self.keys: List[tuple] = []
        self.multiplicity: List[int] = []
        self.node_of: List[int] = []
        self._alloc(max(capacity, 4))
        self.slots_used = 0
        self.root = _NIL
        self.size = 0
        self.epoch = 0

    def _alloc(self, capacity: int) -> None:
        self.left = _np.full(capacity, _NIL, dtype=_np.int64)
        self.right = _np.full(capacity, _NIL, dtype=_np.int64)
        self.parent = _np.full(capacity, _NIL, dtype=_np.int64)
        self.weight = _np.zeros(capacity, dtype=_np.int64)
        self.subtotal = _np.zeros(capacity, dtype=_np.int64)
        self.priority = _np.zeros(capacity, dtype=_np.float64)
        self.stamp = _np.zeros(capacity, dtype=_np.int64)
        self.row_of = _np.full(capacity, _NIL, dtype=_np.int64)

    def _grow(self) -> None:
        """Double the slabs by copy — captured snapshots keep the old
        arrays, whose frozen slots are complete and never written again."""
        used = self.slots_used
        capacity = max(16, 2 * len(self.left))
        for name in ("left", "right", "parent", "weight", "subtotal",
                     "priority", "stamp", "row_of"):
            old = getattr(self, name)
            new = _np.full(capacity, _NIL, dtype=old.dtype) \
                if old.dtype == _np.int64 else _np.zeros(capacity, old.dtype)
            new[:used] = old[:used]
            setattr(self, name, new)

    def _new_row(self, row: tuple, multiplicity: int) -> int:
        row_id = len(self.rows)
        self.rows.append(row)
        self.keys.append(row_sort_key(row))
        self.multiplicity.append(multiplicity)
        self.node_of.append(_NIL)
        return row_id

    def _new_slot(self, row_id: int, weight: int, priority: float) -> int:
        if self.slots_used == len(self.left):
            self._grow()
        slot = self.slots_used
        self.slots_used = slot + 1
        self.left[slot] = _NIL
        self.right[slot] = _NIL
        self.parent[slot] = _NIL
        self.weight[slot] = weight
        self.subtotal[slot] = weight
        self.priority[slot] = priority
        self.stamp[slot] = self.epoch
        self.row_of[slot] = row_id
        self.node_of[row_id] = slot
        return slot

    # ------------------------------------------------------------------ #
    # Construction                                                        #
    # ------------------------------------------------------------------ #

    @classmethod
    def from_sorted(
        cls, entries: Sequence[Tuple[tuple, int, int]]
    ) -> Tuple["FlatOrderTree", List[int]]:
        """Bulk-build from canonically sorted ``(row, weight, mult)``;
        returns the tree and the row ids in input order."""
        weights = [entry[1] for entry in entries]
        _check_fits(weights, sum(weights))
        tree = cls(capacity=max(len(entries), 4))
        slots = []
        for row, weight, multiplicity in entries:
            row_id = tree._new_row(row, multiplicity)
            slots.append(tree._new_slot(row_id, weight, 0.0))
        tree._over_slots(slots)
        return tree, list(range(len(entries)))

    def _over_slots(self, slots: List[int]) -> None:
        """A balanced treap over existing, key-sorted slots (reused in
        place — the slab analog of ``OrderedWeightTree._over_nodes``)."""
        n = len(slots)
        self.size = n
        if n == 0:
            self.root = _NIL
            return
        left, right, parent = self.left, self.right, self.parent
        weight, subtotal = self.weight, self.subtotal

        def build(lo: int, hi: int) -> int:
            if lo >= hi:
                return _NIL
            mid = (lo + hi) // 2
            slot = slots[mid]
            a = build(lo, mid)
            b = build(mid + 1, hi)
            left[slot] = a
            right[slot] = b
            total = weight[slot]
            if a != _NIL:
                parent[a] = slot
                total += subtotal[a]
            if b != _NIL:
                parent[b] = slot
                total += subtotal[b]
            subtotal[slot] = total
            return slot

        self.root = build(0, n)
        parent[self.root] = _NIL
        priorities = _descending_priorities(n)
        order = [self.root]
        cursor = 0
        while cursor < len(order):
            slot = order[cursor]
            cursor += 1
            if left[slot] != _NIL:
                order.append(int(left[slot]))
            if right[slot] != _NIL:
                order.append(int(right[slot]))
        for slot, priority in zip(order, priorities):
            self.priority[slot] = priority

    # ------------------------------------------------------------------ #
    # Queries                                                             #
    # ------------------------------------------------------------------ #

    @property
    def total(self) -> int:
        return int(self.subtotal[self.root]) if self.root != _NIL else 0

    def __len__(self) -> int:
        return self.size

    def __iter__(self) -> Iterator[int]:
        """Row ids (tombstones included) in canonical order."""
        stack: List[int] = []
        slot = self.root
        left, right, row_of = self.left, self.right, self.row_of
        while stack or slot != _NIL:
            while slot != _NIL:
                stack.append(slot)
                slot = int(left[slot])
            slot = stack.pop()
            yield int(row_of[slot])
            slot = int(right[slot])

    # The handle accessors the owning bucket reads and writes through —
    # the object treap's, over row-id handles.

    def row_weight(self, row_id: int) -> int:
        return int(self.weight[self.node_of[row_id]])

    def row_multiplicity(self, row_id: int) -> int:
        return self.multiplicity[row_id]

    def set_multiplicity(self, row_id: int, multiplicity: int) -> None:
        """In-place write: writer bookkeeping, invisible to snapshots."""
        self.multiplicity[row_id] = multiplicity

    # ------------------------------------------------------------------ #
    # Snapshots (persistence)                                             #
    # ------------------------------------------------------------------ #

    def snapshot(self) -> "FlatSnapshotStore":
        """Freeze the current version in O(1) (see the module notes);
        returns its frozen view."""
        self.epoch += 1
        return FlatSnapshotStore(self)

    def _clone(self, slot: int) -> int:
        """A current-epoch copy of ``slot`` (links copied verbatim), now
        the row's live slot."""
        if self.slots_used == len(self.left):
            self._grow()
        fresh = self.slots_used
        self.slots_used = fresh + 1
        for column in (self.left, self.right, self.parent, self.weight,
                       self.subtotal, self.priority, self.row_of):
            column[fresh] = column[slot]
        self.stamp[fresh] = self.epoch
        self.node_of[int(self.row_of[slot])] = fresh
        return fresh

    def _own_child(self, parent_slot: int, slot: int) -> int:
        """``slot``, made safe to mutate in the current epoch (the parent
        must already be owned, or ``_NIL`` for the root)."""
        if self.stamp[slot] == self.epoch:
            return slot
        fresh = self._clone(slot)
        if parent_slot == _NIL:
            self.root = fresh
        elif self.left[parent_slot] == slot:
            self.left[parent_slot] = fresh
        else:
            self.right[parent_slot] = fresh
        self.parent[fresh] = parent_slot
        if self.left[fresh] != _NIL:
            self.parent[int(self.left[fresh])] = fresh
        if self.right[fresh] != _NIL:
            self.parent[int(self.right[fresh])] = fresh
        return fresh

    def _owned(self, slot: int) -> int:
        """An owned version of ``slot``, path-copying its frozen spine.

        Ownership is always established root-down, so an owned slot's
        ancestors are owned too: the copy starts below the first owned
        ancestor, not at the root.
        """
        stamp, parent, epoch = self.stamp, self.parent, self.epoch
        if stamp[slot] == epoch:
            return slot
        chain = [slot]
        owned = int(parent[slot])
        while owned != _NIL and stamp[owned] != epoch:
            chain.append(owned)
            owned = int(parent[owned])
        for current in reversed(chain):
            owned = self._own_child(owned, current)
        return owned

    # ------------------------------------------------------------------ #
    # Updates                                                             #
    # ------------------------------------------------------------------ #

    def set_weight(self, row_id: int, weight: int) -> None:
        """Point weight update: the one-pair :meth:`set_weights`."""
        self.set_weights(((row_id, weight),))

    def set_weights(self, updates: Iterable[Tuple[int, int]]) -> None:
        """Set many rows' weights in one pass.

        ``updates`` holds ``(row_id, weight)`` pairs; a row listed twice
        takes its last weight, and an unchanged weight is a no-op. Every
        new weight and the new total are checked before anything is
        mutated. Each changed row's frozen spine is then path-copied and
        its weight written, and each subtotal on the union of the changed
        rows' root paths is updated once, children first, by the whole
        weight change below it — one pass for a run of adjacent rows
        instead of one root walk per row.
        """
        node_of = self.node_of
        changed = []
        total = self.total
        for row_id, weight in dict(updates).items():
            delta = weight - int(self.weight[node_of[row_id]])
            if delta:
                changed.append((row_id, weight, delta))
                total += delta
        if not changed:
            return
        _check_fits([weight for __, weight, __d in changed], total)
        marked = set()
        # Per changed row: its weight change, its path up to the first
        # marked ancestor, and that ancestor (_NIL past the root).
        paths = []
        for row_id, weight, delta in changed:
            # No slab locals across _owned: its clones may _grow() them.
            slot = self._owned(node_of[row_id])
            self.weight[slot] = weight
            parent = self.parent
            path = []
            while slot != _NIL and slot not in marked:
                path.append(slot)
                slot = int(parent[slot])
            marked.update(path)
            paths.append((delta, path, slot))
        # A later path hangs below an earlier one, so reading the paths
        # last-first, each bottom-up, reaches every slot after all of its
        # marked descendants; ``carry`` holds what they pass up to it.
        subtotals = self.subtotal
        carry: Dict[int, int] = {}
        for delta, path, above in reversed(paths):
            for slot in path:
                if carry:
                    delta += carry.pop(slot, 0)
                subtotals[slot] += delta
            if above != _NIL:
                carry[above] = carry.get(above, 0) + delta

    def insert_row(self, row: tuple, weight: int, multiplicity: int) -> int:
        """Insert a new row at its canonical position; returns its row id."""
        _check_fits((weight,), self.total + weight)
        row_id = self._new_row(row, multiplicity)
        slot = self._new_slot(row_id, weight, _PRIORITIES.random())
        self.size += 1
        if self.root == _NIL:
            self.root = slot
            return row_id
        key = self.keys[row_id]
        keys = self.keys
        # No slab locals here: _own_child clones may _grow() the arrays,
        # which rebinds self.left & co. mid-descent.
        current = self._own_child(_NIL, self.root)
        while True:
            self.subtotal[current] += weight
            if key < keys[int(self.row_of[current])]:
                nxt = int(self.left[current])
                if nxt == _NIL:
                    self.left[current] = slot
                    break
                current = self._own_child(current, nxt)
            else:
                nxt = int(self.right[current])
                if nxt == _NIL:
                    self.right[current] = slot
                    break
                current = self._own_child(current, nxt)
        self.parent[slot] = current
        priority = self.priority
        while (self.parent[slot] != _NIL
               and priority[slot] > priority[int(self.parent[slot])]):
            self._rotate_up(slot)
        return row_id

    def _rotate_up(self, slot: int) -> None:
        left, right, parent = self.left, self.right, self.parent
        weight, subtotal = self.weight, self.subtotal
        up = int(parent[slot])
        grand = int(parent[up])
        if left[up] == slot:
            left[up] = right[slot]
            if right[slot] != _NIL:
                parent[int(right[slot])] = up
            right[slot] = up
        else:
            right[up] = left[slot]
            if left[slot] != _NIL:
                parent[int(left[slot])] = up
            left[slot] = up
        parent[up] = slot
        parent[slot] = grand
        if grand == _NIL:
            self.root = slot
        elif left[grand] == up:
            left[grand] = slot
        else:
            right[grand] = slot
        a, b = int(left[up]), int(right[up])
        subtotal[up] = (weight[up] + (subtotal[a] if a != _NIL else 0)
                        + (subtotal[b] if b != _NIL else 0))
        a, b = int(left[slot]), int(right[slot])
        subtotal[slot] = (weight[slot] + (subtotal[a] if a != _NIL else 0)
                          + (subtotal[b] if b != _NIL else 0))

    def insert_sorted(
        self, entries: Sequence[Tuple[tuple, int, int]]
    ) -> List[int]:
        """Bulk-insert canonically sorted new rows; returns their row ids.

        Same split as the object treap: small batches insert one by one,
        large ones merge with the in-order slot sequence and rebuild —
        frozen slots are cloned first, so captured snapshots stay intact,
        while row-id handles are untouched by construction.
        """
        k = len(entries)
        if k == 0:
            return []
        weights = [entry[1] for entry in entries]
        _check_fits(weights, self.total + sum(weights))
        n = self.size
        if n and k * (n + k).bit_length() <= n + k:
            return [
                self.insert_row(row, weight, multiplicity)
                for row, weight, multiplicity in entries
            ]
        epoch = self.epoch
        row_ids = []
        new_slots = []
        for row, weight, multiplicity in entries:
            row_id = self._new_row(row, multiplicity)
            row_ids.append(row_id)
            new_slots.append(self._new_slot(row_id, weight, 0.0))
        in_order = []
        stack: List[int] = []
        slot = self.root
        while stack or slot != _NIL:
            while slot != _NIL:
                stack.append(slot)
                slot = int(self.left[slot])
            slot = stack.pop()
            in_order.append(slot)
            slot = int(self.right[slot])
        merged: List[int] = []
        fresh = iter(new_slots)
        pending = next(fresh)
        keys, row_of = self.keys, self.row_of
        for slot in in_order:
            slot_key = keys[int(row_of[slot])]
            while pending is not None and keys[int(row_of[pending])] < slot_key:
                merged.append(pending)
                pending = next(fresh, None)
            if self.stamp[slot] != epoch:
                slot = self._clone(slot)
            merged.append(slot)
        if pending is not None:
            merged.append(pending)
            merged.extend(fresh)
        self._over_slots(merged)
        return row_ids

    def compacted(self) -> Tuple["FlatOrderTree", List[Tuple[tuple, int]]]:
        """A fresh tree without tombstones; the old one stays intact for
        any snapshot still holding its slabs. Returns the new tree and
        ``(row, row_id)`` pairs for re-pointing a rank map."""
        live = [
            (self.rows[row_id], self.row_weight(row_id),
             self.multiplicity[row_id])
            for row_id in self
            if self.multiplicity[row_id] > 0
        ]
        tree, row_ids = FlatOrderTree.from_sorted(live)
        return tree, [(entry[0], row_id) for entry, row_id in zip(live, row_ids)]


class FlatSnapshotStore:
    """The read-only :class:`~repro.core.access_engine.BucketStore` over
    one frozen :class:`FlatOrderTree` version — the slab analog of
    :class:`~repro.core.order_tree.SnapshotBucketStore`.

    Captures the root slot and the slab references at snapshot time:
    every slot reachable from ``root`` is frozen (the live tree clones
    into fresh slots before mutating), and growth reallocates the slabs
    by copy, so these arrays never change under a reader. Descents are
    root-down only; ``parent`` and ``multiplicity`` are never read.
    """

    __slots__ = ("root", "left", "right", "weight", "subtotal",
                 "row_of", "rows", "keys", "total")

    #: Frozen dynamic buckets hold zero-weight tombstones.
    unit_leaf = False

    def __init__(self, tree: FlatOrderTree):
        self.root = tree.root
        self.left = tree.left
        self.right = tree.right
        self.weight = tree.weight
        self.subtotal = tree.subtotal
        self.row_of = tree.row_of
        self.rows = tree.rows
        self.keys = tree.keys
        self.total = tree.total

    def __len__(self) -> int:
        count = 0
        for __ in self.iter_rows():
            count += 1
        return count

    def locate_run(self, offset: int) -> Tuple[tuple, int, int]:
        if not 0 <= offset < self.total:
            raise IndexError(f"offset {offset} outside [0, {self.total})")
        left, right, weight, subtotal = (
            self.left, self.right, self.weight, self.subtotal,
        )
        slot = self.root
        start = 0
        remaining = offset
        while True:
            a = left[slot]
            left_total = subtotal[a] if a != _NIL else 0
            if remaining < left_total:
                slot = a
                continue
            remaining -= left_total
            start += left_total
            w = weight[slot]
            if remaining < w:
                return self.rows[int(self.row_of[slot])], int(start), int(w)
            remaining -= w
            start += w
            slot = right[slot]

    def rank_start(self, row: tuple) -> Optional[int]:
        before, present = self.rank_before(row)
        return before if present else None

    def rank_before(self, row: tuple) -> Tuple[int, bool]:
        key = row_sort_key(row)
        left, right, weight, subtotal = (
            self.left, self.right, self.weight, self.subtotal,
        )
        slot = self.root
        before = 0
        while slot != _NIL:
            row_id = int(self.row_of[slot])
            slot_key = self.keys[row_id]
            a = left[slot]
            if key < slot_key:
                slot = a
            elif slot_key < key:
                before += (subtotal[a] if a != _NIL else 0) + weight[slot]
                slot = right[slot]
            else:
                if a != _NIL:
                    before += subtotal[a]
                # Weight 0 is the dangling/tombstone case.
                return int(before), bool(weight[slot]) and self.rows[row_id] == row
        return int(before), False

    def iter_rows(self) -> Iterator[Tuple[tuple, int]]:
        stack: List[int] = []
        slot = self.root
        while stack or slot != _NIL:
            while slot != _NIL:
                stack.append(slot)
                slot = int(self.left[slot])
            slot = stack.pop()
            yield self.rows[int(self.row_of[slot])], int(self.weight[slot])
            slot = int(self.right[slot])
