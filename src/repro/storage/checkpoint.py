"""Atomic database checkpoints: relations + version + serve-state.

A checkpoint is a directory ``checkpoints/ckpt-<version>/`` holding:

``relations.pkl``
    Every relation's ``(columns, rows)`` plus the database version and
    instance id, pickled — loading this is an order of magnitude faster
    than re-parsing CSV text, which is what makes recovery beat a cold
    rebuild (the :mod:`benchmarks.bench_recovery` gate).
``serve-flat/entry-<n>/`` (optional, one per flat-backed entry)
    Columnar serve-state: the entry's ``FlatNode`` slabs as raw ``.npy``
    files plus a canonical-codec value-table sidecar and a shape
    manifest (see :mod:`repro.storage.serve_blob`). Recovery mmaps the
    slabs read-only (``np.load(..., mmap_mode="r")``) — restart cost is
    O(metadata), not O(answers).
``serve.pkl`` (optional)
    Pickled serve-state for everything the blob format cannot carry
    (dynamic indexes, unions, tuple-backed entries): ``(canonical query
    key, built index)`` pairs a
    :class:`~repro.service.query_service.QueryService` wants re-seeded
    into its cache on recovery, so a restarted service reaches its first
    served answer without an O(|D|) index build.
``manifest.json``
    Format version, database version, instance id, a crc32 per payload
    file (blob files included), and a per-entry size/kind report.
    **Written last**: a checkpoint without a valid manifest (or whose
    files fail their checksums) does not exist as far as recovery is
    concerned.

Atomicity: everything is staged into a ``*.tmp-<pid>`` sibling directory
(payload files fsynced, manifest written last) and published with one
``os.rename``. A crash at any instant leaves either no trace (an ignored
``.tmp`` directory) or a complete checkpoint; the previous checkpoint is
never touched. Recovery scans for the **newest valid** checkpoint and
ignores everything else, so a torn write can only ever cost the tail the
WAL will replay anyway, never correctness.
"""

from __future__ import annotations

import json
import os
import pathlib
import pickle
import shutil
import zlib
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

from repro import faults
from repro.errors import ReproError
from repro.storage import serve_blob
from repro.storage.atomic import fsync_directory

PathLike = Union[str, os.PathLike]

_FORMAT = 1
_DIR_PREFIX = "ckpt-"

#: Failpoints at the two instants a checkpoint write can die: while
#: staging payload files, and at the atomic rename that publishes the
#: staged directory. Either failure must leave the previous checkpoint
#: the newest valid one and only ``.tmp`` litter behind.
FP_STAGE = faults.register("checkpoint.stage")
FP_PUBLISH = faults.register("checkpoint.publish")

#: Recognized ``serve_format=`` values for :func:`write_checkpoint`.
SERVE_FORMATS = ("blob", "pickle")


class CheckpointError(ReproError):
    """Raised when a checkpoint cannot be written, or when a directory
    holds no valid checkpoint to load."""


class CheckpointData(NamedTuple):
    """One loaded checkpoint."""

    version: int
    instance_id: str
    #: ``[(name, columns, rows), ...]`` in registration order.
    relations: List[tuple]
    #: ``[(canonical query key, index object), ...]`` — empty when the
    #: checkpoint carried no serve-state or it failed to unpickle.
    serve_state: List[Tuple[tuple, object]]
    path: pathlib.Path
    #: The checkpoint's manifest (sizes, per-entry report) — ``None``
    #: only for hand-built instances.
    manifest: Optional[dict] = None


def _write_file(path: pathlib.Path, payload: bytes) -> str:
    faults.inject(FP_STAGE)
    with open(path, "wb") as handle:
        handle.write(payload)
        handle.flush()
        os.fsync(handle.fileno())
    return "%08x" % zlib.crc32(payload)


def checkpoint_root(directory: PathLike) -> pathlib.Path:
    return pathlib.Path(directory) / "checkpoints"


def _entry_label(query_key, entry) -> str:
    query = getattr(entry, "query", None)
    name = getattr(query, "name", None)
    if name:
        return str(name)
    if isinstance(query_key, tuple) and query_key:
        return str(query_key[0])
    return type(entry).__name__


def write_checkpoint(
    directory: PathLike,
    database,
    serve_state: Optional[Sequence[Tuple[tuple, object]]] = None,
    serve_format: str = "blob",
) -> pathlib.Path:
    """Write one checkpoint of ``database`` under ``directory``.

    With ``serve_format="blob"`` (default), flat-backed static entries
    are written as ``serve-flat/entry-<n>/`` columnar blob directories
    (see :mod:`repro.storage.serve_blob`); everything else — and every
    entry under ``serve_format="pickle"`` — rides the legacy pickle
    path. ``serve_state`` entries that cannot be pickled are skipped and
    counted in the manifest's ``skipped_entries`` (an index backed by
    unpicklable resources simply rebuilds on recovery); the relations
    themselves must pickle, or this raises :class:`CheckpointError` with
    nothing published.

    ``database`` is pinned once: directory name, payload and manifest all
    describe that one version. ``serve_state`` must be of the same one —
    pass the pin it was selected against.
    """
    if serve_format not in SERVE_FORMATS:
        raise ValueError(
            f"unknown serve_format {serve_format!r}; "
            f"expected one of {SERVE_FORMATS}"
        )
    database = database.pin()
    root = checkpoint_root(directory)
    root.mkdir(parents=True, exist_ok=True)
    final = root / f"{_DIR_PREFIX}{database.version:012d}"
    staging = root / f"{final.name}.tmp-{os.getpid()}"
    if staging.exists():
        shutil.rmtree(staging)
    staging.mkdir()
    try:
        payload = {
            "version": database.version,
            "instance": database.instance_id,
            "relations": [
                (relation.name, relation.columns, relation.rows)
                for relation in database
            ],
        }
        try:
            blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as error:
            raise CheckpointError(f"relations are not serializable: {error}")
        files = {"relations.pkl": _write_file(staging / "relations.pkl", blob)}

        kept_serve: List[bytes] = []
        blob_dirs: List[str] = []
        entries_report: List[dict] = []
        skipped = 0
        for query_key, entry in serve_state or ():
            if serve_format == "blob" and serve_blob.can_blob(entry):
                relative = f"{serve_blob.BLOB_DIR}/entry-{len(blob_dirs)}"
                try:
                    payloads = serve_blob.write_serve_entry(
                        staging / relative, query_key, entry, _write_file
                    )
                except serve_blob.ValueEncodingError:
                    # Values outside the codec's scalar domain — fall
                    # back to pickling this entry below.
                    shutil.rmtree(staging / relative, ignore_errors=True)
                else:
                    for file_name, file_payload in payloads.items():
                        files[f"{relative}/{file_name}"] = (
                            "%08x" % zlib.crc32(file_payload)
                        )
                    blob_dirs.append(relative)
                    entries_report.append({
                        "label": _entry_label(query_key, entry),
                        "kind": "flat-blob",
                        "location": relative,
                        "bytes": sum(len(p) for p in payloads.values()),
                    })
                    continue
            try:
                pair = pickle.dumps(
                    (query_key, entry), protocol=pickle.HIGHEST_PROTOCOL
                )
            except Exception:
                skipped += 1
                continue  # rebuilt lazily on recovery instead
            entries_report.append({
                "label": _entry_label(query_key, entry),
                "kind": "pickle",
                "location": f"serve.pkl#{len(kept_serve)}",
                "bytes": len(pair),
            })
            kept_serve.append(pair)
        if kept_serve:
            serve_payload = pickle.dumps(
                kept_serve, protocol=pickle.HIGHEST_PROTOCOL
            )
            files["serve.pkl"] = _write_file(
                staging / "serve.pkl", serve_payload
            )

        manifest = {
            "format": _FORMAT,
            "version": database.version,
            "instance": database.instance_id,
            "relation_count": len(payload["relations"]),
            "fact_count": sum(len(rows) for __, __, rows in payload["relations"]),
            "serve_entries": len(kept_serve) + len(blob_dirs),
            "serve_format": serve_format,
            "serve_flat": blob_dirs,
            "skipped_entries": skipped,
            "entries": entries_report,
            "files": files,
        }
        # Manifest last: a staging directory is never valid without it,
        # and the directory itself only becomes visible via the rename.
        _write_file(staging / "manifest.json",
                    json.dumps(manifest, indent=2).encode("utf-8"))
        faults.inject(FP_PUBLISH)
        if final.exists():
            shutil.rmtree(final)
        os.rename(staging, final)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    fsync_directory(root)
    return final


def _load_manifest(path: pathlib.Path) -> Optional[dict]:
    """The manifest of one checkpoint directory, or ``None`` if the
    checkpoint is invalid (missing/corrupt manifest, missing payload
    files, checksum mismatches)."""
    manifest_path = path / "manifest.json"
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, ValueError):
        return None
    if not isinstance(manifest, dict) or manifest.get("format") != _FORMAT:
        return None
    files = manifest.get("files")
    if not isinstance(files, dict) or "relations.pkl" not in files:
        return None
    for name, checksum in files.items():
        try:
            blob = (path / name).read_bytes()
        except OSError:
            return None
        if "%08x" % zlib.crc32(blob) != checksum:
            return None
    return manifest


def _valid_checkpoint_items(
    directory: PathLike,
) -> List[Tuple[pathlib.Path, dict]]:
    """``(path, manifest)`` per valid checkpoint, oldest first."""
    root = checkpoint_root(directory)
    if not root.is_dir():
        return []
    found = []
    for child in sorted(root.iterdir()):
        if not child.is_dir() or not child.name.startswith(_DIR_PREFIX):
            continue
        if ".tmp" in child.name:
            continue  # a crashed writer's staging litter
        manifest = _load_manifest(child)
        if manifest is not None:
            found.append((child, manifest))
    return found


def valid_checkpoints(directory: PathLike) -> List[pathlib.Path]:
    """Valid checkpoint directories under ``directory``, oldest first."""
    return [path for path, __ in _valid_checkpoint_items(directory)]


def load_checkpoint(
    path: PathLike, manifest: Optional[dict] = None
) -> CheckpointData:
    """Load one checkpoint directory.

    ``manifest`` lets a caller that just validated the directory (the
    :func:`valid_checkpoints` scan checksums every payload file) skip
    the second full read; without it the directory is re-validated.
    """
    path = pathlib.Path(path)
    if manifest is None:
        manifest = _load_manifest(path)
    if manifest is None:
        raise CheckpointError(f"{path} holds no valid checkpoint")
    payload = pickle.loads((path / "relations.pkl").read_bytes())
    serve_state: List[Tuple[tuple, object]] = []
    if "serve.pkl" in manifest["files"]:
        try:
            loaded = pickle.loads((path / "serve.pkl").read_bytes())
        except Exception:
            loaded = []  # serve-state is an optimization, not truth
        for element in loaded:
            try:
                # Current format: one pickled (key, entry) blob per
                # element; pre-blob checkpoints stored the pairs inline.
                pair = (
                    pickle.loads(element)
                    if isinstance(element, bytes) else element
                )
                serve_state.append((pair[0], pair[1]))
            except Exception:
                continue
    for relative in manifest.get("serve_flat") or ():
        try:
            serve_state.append(serve_blob.load_serve_entry(path / relative))
        except Exception:
            continue  # this entry rebuilds lazily instead
    return CheckpointData(
        version=payload["version"],
        instance_id=payload["instance"],
        relations=payload["relations"],
        serve_state=serve_state,
        path=path,
        manifest=manifest,
    )


def latest_checkpoint(directory: PathLike) -> Optional[CheckpointData]:
    """The newest valid checkpoint under ``directory``, or ``None``."""
    items = _valid_checkpoint_items(directory)
    if not items:
        return None
    path, manifest = items[-1]
    return load_checkpoint(path, manifest=manifest)


def prune_checkpoints(directory: PathLike, keep: int = 2) -> int:
    """Remove all but the ``keep`` newest valid checkpoints (plus any
    staging litter). Returns how many directories were removed."""
    root = checkpoint_root(directory)
    if not root.is_dir():
        return 0
    valid = valid_checkpoints(directory)
    doomed = valid[:-keep] if keep > 0 else valid
    removed = 0
    for child in root.iterdir():
        if not child.is_dir() or not child.name.startswith(_DIR_PREFIX):
            continue
        if ".tmp" in child.name or child in doomed:
            shutil.rmtree(child, ignore_errors=True)
            removed += 1
    return removed
