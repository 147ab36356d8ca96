"""Zero-copy columnar serve-state blobs (the ``serve-flat/`` format).

Pickled serve-state pays O(answers): every interned value, every id
array, every prefix-sum slab is rebuilt as python objects before the
first answer can be served. For a flat-backed entry that work is pure
waste — the arrays are already in their serving layout. This module
writes them *as that layout*:

* every int64 slab of every :class:`~repro.core.flat_store.FlatNode`
  (``row_start``, ``weights``, per-column ``ids``, per-child
  ``child_suffix``/``child_base``) as a raw ``.npy`` file, loadable with
  ``np.load(..., mmap_mode="r")`` — the page cache *is* the index;
* the interned value tables through the canonical scalar codec
  (:func:`repro.storage.values.encode_cell`) as a JSON sidecar per node,
  decoded **lazily**: recovery hands the node a deferred loader, so
  counting and offset location run on the mmapped slabs alone and the
  first object-gathering read pays the (one-time) decode;
* everything shape-like — columns, bucket spans, child wiring, counts —
  in one ``meta.json``.

The writer stages into the checkpoint's own staging directory; crc32s of
every file go into the checkpoint manifest, so the established
"manifest-last, all-files-checksummed" validity rules cover blobs with
no new machinery: a torn slab or flipped byte invalidates the whole
checkpoint and recovery falls back to the previous one plus WAL replay.

Only plain static ``CQIndex`` entries actually serving from the flat
backend qualify (:func:`can_blob`); dynamic entries, tuple-backed
entries, and int64-overflow fallbacks keep riding the pickle path.
"""

from __future__ import annotations

import io
import json
import pathlib
import pickle
from typing import Callable, Dict, List, Optional, Tuple

import numpy as _np

from repro import faults
from repro.storage.values import ValueEncodingError, decode_cell, encode_cell

#: Directory (inside a checkpoint) holding one subdirectory per blob entry.
BLOB_DIR = "serve-flat"

#: Format stamp inside each entry's ``meta.json``.
_FORMAT = 1

#: Failpoint at the head of every blob-entry load: recovery must treat
#: an unreadable entry as "rebuild lazily", never as a failed recovery.
FP_LOAD = faults.register("serve_blob.load")


def can_blob(entry) -> bool:
    """Is ``entry`` a static flat-backed ``CQIndex`` the blob format can
    represent? (Dynamic indexes, unions, tuple-backed entries, and
    overflow fallbacks all answer ``False`` and stay on the pickle path.)
    """
    from repro.core.cq_index import CQIndex

    if type(entry) is not CQIndex:
        return False
    if entry.store != "flat":
        return False
    return all(
        node.flat is not None
        for root in entry._forest.roots
        for node in root.all_nodes()
    )


def _npy_bytes(array) -> bytes:
    """The ``.npy`` serialization of one int slab."""
    buffer = io.BytesIO()
    _np.save(buffer, _np.ascontiguousarray(array), allow_pickle=False)
    return buffer.getvalue()


def _encode_cells(values) -> List[str]:
    return [encode_cell(value) for value in values]


def _decode_cells(texts) -> List[object]:
    return [decode_cell(text) for text in texts]


# ---------------------------------------------------------------------- #
# Writing                                                                 #
# ---------------------------------------------------------------------- #


def write_serve_entry(
    directory: pathlib.Path,
    query_key: tuple,
    entry,
    write_file: Callable[[pathlib.Path, bytes], None],
) -> Dict[str, bytes]:
    """Serialize one blob-eligible entry into ``directory``.

    ``write_file(path, payload)`` performs the actual write (the
    checkpoint writer's fsync discipline). Returns ``{relative file name:
    payload bytes}`` for the caller's crc/size bookkeeping. Raises
    :class:`~repro.storage.values.ValueEncodingError` when any interned
    value or bucket-key cell falls outside the codec's scalar domain —
    the caller falls back to pickling the entry.
    """
    forest = entry._forest
    nodes: List[object] = []
    roots: List[int] = []
    for root in forest.roots:
        roots.append(len(nodes))
        nodes.extend(root.all_nodes())  # pre-order: parents before children
    node_id = {id(node): position for position, node in enumerate(nodes)}

    records = []
    payloads: Dict[str, bytes] = {}
    for position, node in enumerate(nodes):
        meta, slabs, tables = node.flat.to_slabs()
        files = {}
        for slab_name, array in slabs.items():
            file_name = f"node{position}.{slab_name}.npy"
            files[slab_name] = file_name
            payloads[file_name] = _npy_bytes(array)
        tables_name = f"node{position}.tables.json"
        payloads[tables_name] = json.dumps(
            {"tables": [_encode_cells(table) for table in tables]},
            ensure_ascii=False,
        ).encode("utf-8")
        records.append({
            "columns": meta["columns"],
            "uniform_stride": meta["uniform_stride"],
            "children": [node_id[id(child)] for child in node.children],
            "variables": list(node.variables),
            "parent_key_positions": list(node.parent_key_positions),
            "child_key_positions": [
                list(positions) for positions in node.child_key_positions
            ],
            "spans": [
                [_encode_cells(key), bucket.lo, bucket.hi,
                 bucket.base, bucket.total]
                for key, bucket in node.buckets.items()
            ],
            "files": files,
            "tables": tables_name,
        })

    payloads["meta.json"] = json.dumps(
        {
            "format": _FORMAT,
            "count": forest.count,
            "sort_buckets": forest.sort_buckets,
            "head_variables": list(entry.head_variables),
            "roots": roots,
            "nodes": records,
        },
        ensure_ascii=False,
    ).encode("utf-8")
    # The query itself (and the cache key) stay pickled: they are O(query)
    # structures, not O(data), so the legacy path costs nothing here.
    payloads["entry.pkl"] = pickle.dumps(
        (query_key, entry.query), protocol=pickle.HIGHEST_PROTOCOL
    )

    directory.mkdir(parents=True)
    for file_name, payload in payloads.items():
        write_file(directory / file_name, payload)
    return payloads


# ---------------------------------------------------------------------- #
# Loading                                                                 #
# ---------------------------------------------------------------------- #


def _table_loader(path: pathlib.Path) -> Callable[[], List[List[object]]]:
    def load() -> List[List[object]]:
        sidecar = json.loads(path.read_text(encoding="utf-8"))
        return [_decode_cells(table) for table in sidecar["tables"]]

    return load


def load_serve_entry(directory: pathlib.Path) -> Tuple[tuple, object]:
    """Reconstruct ``(query_key, CQIndex)`` from one blob directory.

    O(metadata): int slabs arrive as read-only ``mmap_mode="r"`` views
    (no bytes are faulted in until an access touches them) and each
    node's value tables stay a deferred loader until the first
    object-gathering read materializes them.
    """
    from repro.core.cq_index import CQIndex
    from repro.core.index import JoinForestIndex, _IndexNode
    from repro.core.flat_store import FlatNode, bucket_views

    faults.inject(FP_LOAD)
    meta = json.loads((directory / "meta.json").read_text(encoding="utf-8"))
    if meta.get("format") != _FORMAT:
        raise ValueError(f"unsupported serve blob format {meta.get('format')!r}")
    query_key, query = pickle.loads((directory / "entry.pkl").read_bytes())

    records = meta["nodes"]
    flats: List[Optional[FlatNode]] = [None] * len(records)
    shells: List[Optional[_IndexNode]] = [None] * len(records)
    # Pre-order puts every child after its parent, so a reverse sweep
    # always finds children already built.
    for position in range(len(records) - 1, -1, -1):
        record = records[position]
        slabs = {
            slab_name: _np.load(directory / file_name, mmap_mode="r")
            for slab_name, file_name in record["files"].items()
        }
        spans = [
            (tuple(_decode_cells(key)), lo, hi, base, total)
            for key, lo, hi, base, total in record["spans"]
        ]
        flat = FlatNode.from_slabs(
            {
                "columns": record["columns"],
                "n_children": len(record["children"]),
                "uniform_stride": record["uniform_stride"],
                "bucket_base": [
                    [list(key), base, lo] for key, lo, __, base, __ in spans
                ],
            },
            slabs,
            children=[flats[child] for child in record["children"]],
            table_loader=_table_loader(directory / record["tables"]),
        )
        flats[position] = flat
        node = _IndexNode.__new__(_IndexNode)
        node.variables = tuple(record["variables"])
        node.columns = tuple(record["columns"])
        node.relation = None  # reduction artifacts are not persisted
        node.children = [shells[child] for child in record["children"]]
        node.parent_key_positions = tuple(record["parent_key_positions"])
        node.child_key_positions = [
            tuple(positions) for positions in record["child_key_positions"]
        ]
        node.flat = flat
        node.buckets = bucket_views(flat, spans)
        shells[position] = node

    forest = JoinForestIndex.__new__(JoinForestIndex)
    forest.reduced = None
    forest.sort_buckets = meta["sort_buckets"]
    forest.store = "flat"
    forest.roots = [shells[root] for root in meta["roots"]]
    forest.count = meta["count"]
    forest._inverted_ready = False

    entry = CQIndex.__new__(CQIndex)
    entry.query = query
    entry.head_variables = tuple(meta["head_variables"])
    entry._reduced = None
    entry._forest = forest
    return tuple(query_key), entry


__all__ = [
    "BLOB_DIR",
    "ValueEncodingError",
    "can_blob",
    "load_serve_entry",
    "write_serve_entry",
]
