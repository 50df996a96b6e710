"""The persistent pattern store: one complete mining result on disk.

Layout (``format_version`` 1)::

    <store>/
      manifest.json      version, options fingerprint, checksums (written last)
      labels.json        interner name tables + taxonomy parent map
      database.graphs    the mined database (graph-db text format)
      classes.json       per class: DFS code, occurrence columns, OIE name
      border.json        negative border: DFS code -> supporting graph ids
      oie/class_<k>/occurrence_index.sqlite3   per-class persisted OIE

Label ids are only meaningful relative to an interner, so ``labels.json``
stores the interner *name tables* plus the taxonomy as a ``label ->
parents`` item list in insertion order — the same rebuild recipe the
parallel runtime ships to workers, which reproduces the taxonomy (and
therefore DFS codes, children ordering and topological order)
bit-identical to the original.

``manifest.json`` is written last and carries SHA-256 checksums of every
JSON/text file plus per-class OIE row counts; a torn or tampered store
fails :meth:`PatternStore.open` with :class:`repro.exceptions.StoreError`
instead of producing silently wrong supports.  OIE directory names are
allocated from a monotonic counter, so class reordering across updates
never renames directories.

Stores may optionally be *compressed*: when ``PatternStore.initialize``
is given a codec name (see :mod:`repro.util.compression`), every store
file and every OIE occurrence blob is written as a self-describing
compressed container, and the manifest records a ``compression`` block
(codec plus per-file raw/stored sizes).  The block is simply absent on
legacy stores, so old stores open unchanged and the format version stays
1; checksums always cover the on-disk (compressed) bytes.

Concurrency contract (the serving read path relies on it): every
:meth:`PatternStore.save` bumps a monotonic ``store_version`` in the
manifest, and :class:`~repro.incremental.updater.IncrementalTaxogram`
drops an ``update.inprogress`` marker file before mutating any store
file in place.  :func:`fence_state` reads ``(version, stable)`` without
loading the store; a reader that observes the same stable version before
and after a disk read has read a consistent snapshot (the manifest
itself is replaced atomically).
"""

from __future__ import annotations

import hashlib
import json
import shutil
from dataclasses import dataclass
from pathlib import Path

from repro.core.disk_index import DiskOccurrenceIndex
from repro.core.occurrence_index import OccurrenceColumns
from repro.exceptions import CompressionError, StoreError
from repro.graphs.database import GraphDatabase
from repro.graphs.io import parse_graph_database, serialize_graph_database
from repro.mining.dfs_code import DFSCode, DFSEdge
from repro.taxonomy.io import serialize_taxonomy
from repro.taxonomy.taxonomy import Taxonomy
from repro.util.bitset import BitSet
from repro.util.compression import decode_container, encode_container
from repro.util.interner import LabelInterner

__all__ = [
    "PatternStore",
    "StoredClass",
    "FORMAT_VERSION",
    "fence_state",
    "taxonomy_fingerprint",
]

FORMAT_VERSION = 1

_MANIFEST = "manifest.json"
_UPDATE_MARKER = "update.inprogress"
_LABELS = "labels.json"
_DATABASE = "database.graphs"
_CLASSES = "classes.json"
_BORDER = "border.json"
_OIE_DIR = "oie"

_Code = tuple[DFSEdge, ...]


def fence_state(directory: str | Path) -> tuple[int | None, bool]:
    """``(committed store_version, stable)`` without loading the store.

    ``version`` is ``None`` when the manifest is missing or torn;
    ``stable`` is False whenever an update marker is present or the
    manifest is unreadable.  The marker is checked *before* the manifest
    is read: an update commits by atomically replacing the manifest and
    only then removing its marker, so a reader that sees no marker and
    then reads version ``V`` knows any concurrent mutation either had
    not started yet or already advanced the manifest past ``V``.
    Bracketing a disk read with two stable, equal-version fences
    therefore certifies the read as a consistent version-``V`` snapshot.
    """
    directory = Path(directory)
    stable = not (directory / _UPDATE_MARKER).exists()
    try:
        manifest = json.loads(
            (directory / _MANIFEST).read_text(encoding="utf-8")
        )
        version = int(manifest.get("store_version", 0))
    except (OSError, ValueError, TypeError):
        return None, False
    return version, stable


def taxonomy_fingerprint(taxonomy: Taxonomy) -> str:
    """SHA-256 of the canonical taxonomy serialization.

    Two taxonomies parsed from the same file (fresh interners) always
    fingerprint equal; a store refuses updates under a different one.
    """
    text = serialize_taxonomy(taxonomy)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class StoredClass:
    """One persisted pattern class: canonical code + occurrence state."""

    code: _Code
    columns: OccurrenceColumns
    oie_name: str

    @property
    def num_positions(self) -> int:
        return DFSCode(self.code).num_vertices


class PatternStore:
    """A mining result persisted under one directory.

    Create with :meth:`initialize` (mining a fresh store) or
    :meth:`open` (loading an existing one, with integrity checks); the
    incremental updater mutates the in-memory state and calls
    :meth:`save` once an update commits.
    """

    def __init__(
        self,
        directory: str | Path,
        database: GraphDatabase,
        taxonomy: Taxonomy,
        min_support: float,
        max_edges: int | None,
        artificial_root_name: str,
        compression: str | None = None,
    ) -> None:
        self.directory = Path(directory)
        self.database = database
        self.taxonomy = taxonomy
        self.min_support = min_support
        self.max_edges = max_edges
        self.artificial_root_name = artificial_root_name
        # Codec name for the store files and OIE blobs, or None for the
        # legacy raw layout.  Recorded in the manifest on save, restored
        # on open, so an updater re-saving a compressed store keeps its
        # codec without the caller re-negotiating.
        self.compression = compression
        # name -> {"raw": n, "stored": n} sizes from the last save/open.
        self.compression_stats: dict[str, dict[str, int]] = {}
        self.classes: list[StoredClass] = []
        self.border: dict[_Code, BitSet] = {}
        self.store_version = 0
        # Application state committed atomically with the manifest: the
        # streaming applier stores its applied WAL offset here so that
        # "delta applied" and "offset advanced" are one atomic rename
        # (the crash-recovery protocol of repro.streaming depends on it).
        self.app_state: dict = {}
        self._next_oie_id = 0
        self._taxonomy_sha = taxonomy_fingerprint(taxonomy)

    # -- creation -------------------------------------------------------------------

    @classmethod
    def initialize(
        cls,
        directory: str | Path,
        database: GraphDatabase,
        taxonomy: Taxonomy,
        min_support: float,
        max_edges: int | None,
        artificial_root_name: str,
        compression: str | None = None,
    ) -> "PatternStore":
        """Prepare ``directory`` for a fresh store, wiping a previous one.

        A non-empty directory that is *not* a pattern store (no
        ``manifest.json``) is refused rather than destroyed.
        """
        directory = Path(directory)
        if directory.exists():
            occupied = any(directory.iterdir())
            if occupied and not (directory / _MANIFEST).exists():
                raise StoreError(
                    f"refusing to overwrite {directory}: directory is not "
                    "empty and does not contain a pattern store"
                )
            shutil.rmtree(directory)
        directory.mkdir(parents=True)
        (directory / _OIE_DIR).mkdir()
        return cls(
            directory,
            database,
            taxonomy,
            min_support,
            max_edges,
            artificial_root_name,
            compression=compression,
        )

    # -- class management ------------------------------------------------------------

    def add_class(self, code: _Code, columns: OccurrenceColumns) -> StoredClass:
        """Register a class; its OIE directory name is allocated here."""
        stored = StoredClass(
            code=code, columns=columns, oie_name=f"class_{self._next_oie_id}"
        )
        self._next_oie_id += 1
        self.classes.append(stored)
        return stored

    def drop_class(self, stored: StoredClass) -> None:
        """Forget a class and delete its persisted OIE."""
        if stored in self.classes:
            self.classes.remove(stored)
        path = self.oie_path(stored)
        if path.exists():
            shutil.rmtree(path)

    def oie_path(self, stored: StoredClass) -> Path:
        return self.directory / _OIE_DIR / stored.oie_name

    def create_index(
        self, stored: StoredClass, max_resident_entries: int = 4096
    ) -> DiskOccurrenceIndex:
        """A fresh (empty) persisted OIE for a newly added class."""
        path = self.oie_path(stored)
        path.mkdir(parents=True, exist_ok=True)
        return DiskOccurrenceIndex(
            stored.num_positions,
            directory=path,
            max_resident_entries=max_resident_entries,
            codec=self.compression,
        )

    def load_index(
        self,
        stored: StoredClass,
        max_resident_entries: int = 4096,
        read_only: bool = False,
    ) -> DiskOccurrenceIndex:
        """Reopen a class's persisted OIE without resetting its rows.

        With ``read_only=True`` the SQLite file is opened in ``mode=ro``
        (the serving path), so the reader can never mutate a store it
        only queries.
        """
        path = self.oie_path(stored)
        if not (path / "occurrence_index.sqlite3").exists():
            raise StoreError(
                f"store {self.directory} is missing the occurrence index "
                f"of {stored.oie_name}"
            )
        return DiskOccurrenceIndex(
            stored.num_positions,
            directory=path,
            max_resident_entries=max_resident_entries,
            reset=False,
            read_only=read_only,
            codec=self.compression,
        )

    # -- update fencing ---------------------------------------------------------------

    def mark_update_in_progress(self) -> None:
        """Drop the marker readers use to detect in-place mutation.

        :meth:`save` removes it again once the update commits, so the
        marker's lifetime brackets exactly the window in which store
        files on disk may disagree with the manifest.
        """
        (self.directory / _UPDATE_MARKER).touch()

    def update_in_progress(self) -> bool:
        return (self.directory / _UPDATE_MARKER).exists()

    # -- fingerprint ------------------------------------------------------------------

    @property
    def taxonomy_sha(self) -> str:
        return self._taxonomy_sha

    def fingerprint(self) -> dict:
        return {
            "taxonomy_sha256": self._taxonomy_sha,
            "min_support": self.min_support,
            "max_edges": self.max_edges,
            "artificial_root": self.artificial_root_name,
        }

    def fingerprint_mismatch(
        self,
        min_support: float | None = None,
        max_edges: "int | None | str" = "unset",
        taxonomy: Taxonomy | None = None,
    ) -> str | None:
        """First mismatch between the store and a requested run, or None.

        Only the supplied components are checked, so a CLI flag the user
        did not pass never conflicts.
        """
        if min_support is not None and min_support != self.min_support:
            return (
                f"store was mined at min_support={self.min_support}, "
                f"requested {min_support}"
            )
        if max_edges != "unset" and max_edges != self.max_edges:
            return (
                f"store was mined at max_edges={self.max_edges}, "
                f"requested {max_edges}"
            )
        if taxonomy is not None:
            sha = taxonomy_fingerprint(taxonomy)
            if sha != self._taxonomy_sha:
                return (
                    "store taxonomy fingerprint "
                    f"{self._taxonomy_sha[:12]}... does not match the "
                    f"requested taxonomy ({sha[:12]}...)"
                )
        return None

    # -- persistence ------------------------------------------------------------------

    def save(self) -> None:
        """Write every store file; the manifest (with checksums) goes last.

        Each save bumps ``store_version`` and replaces the manifest
        atomically, then clears any update-in-progress marker — the
        commit point of the fencing protocol (see :func:`fence_state`).
        """
        labels_doc = {
            "node_labels": self.taxonomy.interner.names(),
            "edge_labels": self.database.edge_labels.names(),
            "taxonomy_parents": [
                [label, list(parents)]
                for label, parents in self.taxonomy.parent_map().items()
            ],
        }
        classes_doc = {
            "classes": [
                {
                    "code": [list(edge) for edge in stored.code],
                    "oie": stored.oie_name,
                    "columns": stored.columns.to_rows(),
                }
                for stored in self.classes
            ]
        }
        border_doc = {
            "border": [
                [[list(edge) for edge in code], sorted(gids)]
                for code, gids in sorted(self.border.items())
            ]
        }
        files = {
            _LABELS: json.dumps(labels_doc),
            _DATABASE: serialize_graph_database(self.database),
            _CLASSES: json.dumps(classes_doc),
            _BORDER: json.dumps(border_doc),
        }
        checksums: dict[str, str] = {}
        compression_stats: dict[str, dict[str, int]] = {}
        for name, text in files.items():
            data = text.encode("utf-8")
            if self.compression is not None:
                raw_len = len(data)
                data = encode_container(data, self.compression)
                compression_stats[name] = {
                    "raw": raw_len,
                    "stored": len(data),
                }
            (self.directory / name).write_bytes(data)
            # Checksums always cover the on-disk bytes, so integrity
            # verification on open never needs to decompress first.
            checksums[name] = hashlib.sha256(data).hexdigest()
        self.compression_stats = compression_stats
        oie_rows: dict[str, int] = {}
        for stored in self.classes:
            index = self.load_index(stored)
            try:
                oie_rows[stored.oie_name] = index.row_count()
            finally:
                index.close()
        self.store_version += 1
        manifest = {
            "format_version": FORMAT_VERSION,
            "store_version": self.store_version,
            "min_support": self.min_support,
            "max_edges": self.max_edges,
            "artificial_root": self.artificial_root_name,
            "taxonomy_sha256": self._taxonomy_sha,
            "database_size": len(self.database),
            "next_oie_id": self._next_oie_id,
            "app_state": dict(self.app_state),
            "checksums": checksums,
            "oie_rows": oie_rows,
        }
        if self.compression is not None:
            # Key absent entirely on legacy stores: old readers (which
            # ignore unknown keys) stay compatible, and new readers take
            # its absence as "raw layout".
            manifest["compression"] = {
                "codec": self.compression,
                "files": compression_stats,
            }
        manifest_path = self.directory / _MANIFEST
        tmp_path = manifest_path.with_name(_MANIFEST + ".tmp")
        tmp_path.write_text(json.dumps(manifest, indent=2), encoding="utf-8")
        tmp_path.replace(manifest_path)
        marker = self.directory / _UPDATE_MARKER
        if marker.exists():
            marker.unlink()

    @classmethod
    def open(cls, directory: str | Path) -> "PatternStore":
        """Load and integrity-check a persisted store."""
        directory = Path(directory)
        manifest_path = directory / _MANIFEST
        if not manifest_path.exists():
            raise StoreError(f"{directory} is not a pattern store (no manifest)")
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise StoreError(f"unreadable store manifest: {exc}") from exc
        version = manifest.get("format_version")
        if version != FORMAT_VERSION:
            raise StoreError(
                f"unsupported store format version {version!r} "
                f"(this build reads version {FORMAT_VERSION})"
            )
        compression_doc = manifest.get("compression")
        codec = compression_doc["codec"] if compression_doc else None
        texts: dict[str, str] = {}
        for name, expected in manifest["checksums"].items():
            path = directory / name
            if not path.exists():
                raise StoreError(f"store file {name} is missing")
            data = path.read_bytes()
            actual = hashlib.sha256(data).hexdigest()
            if actual != expected:
                raise StoreError(
                    f"store file {name} failed its integrity check "
                    f"(expected {expected[:12]}..., got {actual[:12]}...)"
                )
            if codec is not None:
                try:
                    data, _ = decode_container(data)
                except CompressionError as exc:
                    raise StoreError(f"store file {name}: {exc}") from exc
            texts[name] = data.decode("utf-8")

        labels_doc = json.loads(texts[_LABELS])
        node_labels = LabelInterner(labels_doc["node_labels"])
        edge_labels = LabelInterner(labels_doc["edge_labels"])
        taxonomy = Taxonomy(
            {
                int(label): tuple(int(p) for p in parents)
                for label, parents in labels_doc["taxonomy_parents"]
            },
            node_labels,
        )
        database = parse_graph_database(
            texts[_DATABASE], node_labels=node_labels, edge_labels=edge_labels
        )
        if len(database) != manifest["database_size"]:
            raise StoreError(
                f"store database has {len(database)} graphs, manifest "
                f"says {manifest['database_size']}"
            )

        store = cls(
            directory,
            database,
            taxonomy,
            manifest["min_support"],
            manifest["max_edges"],
            manifest["artificial_root"],
            compression=codec,
        )
        if compression_doc:
            store.compression_stats = {
                name: dict(sizes)
                for name, sizes in compression_doc.get("files", {}).items()
            }
        if store._taxonomy_sha != manifest["taxonomy_sha256"]:
            raise StoreError(
                "store taxonomy does not reproduce the fingerprint in "
                "the manifest"
            )
        store._next_oie_id = int(manifest["next_oie_id"])
        store.store_version = int(manifest.get("store_version", 0))
        store.app_state = dict(manifest.get("app_state", {}))

        oie_rows = manifest.get("oie_rows", {})
        for entry in json.loads(texts[_CLASSES])["classes"]:
            code = tuple(tuple(int(x) for x in edge) for edge in entry["code"])
            stored = StoredClass(
                code=code,
                columns=OccurrenceColumns.from_rows(entry["columns"]),
                oie_name=entry["oie"],
            )
            index = store.load_index(stored)  # raises StoreError if missing
            try:
                rows = index.row_count()
            finally:
                index.close()
            if rows != oie_rows.get(stored.oie_name):
                raise StoreError(
                    f"occurrence index {stored.oie_name} has {rows} rows, "
                    f"manifest says {oie_rows.get(stored.oie_name)}"
                )
            store.classes.append(stored)

        for code_doc, gids in json.loads(texts[_BORDER])["border"]:
            code = tuple(tuple(int(x) for x in edge) for edge in code_doc)
            store.border[code] = BitSet(int(g) for g in gids)
        return store
