"""Disk-backed occurrence indices (the paper's §6 future work).

The paper closes with: "taxonomy-superimposed graph mining is costly,
and requires enormous amounts of computational resources.  As future
work, we plan to develop disk-based algorithms for taxonomy-based graph
mining."  This module implements that direction for the dominant memory
consumer — the taxonomy-projected occurrence index of Step 2 (Lemma 4's
``O(|P| |T| Σ |G|!/(|G|-|P|)!)`` bound).

:class:`DiskOccurrenceIndex` keeps the per-(position, label) occurrence
bit-sets in a SQLite database.  Construction streams embeddings while
holding at most ``max_resident_entries`` label entries in memory;
overflow entries are OR-merged into SQLite.  Lookups go through a small
LRU cache, so Step 3's access pattern (repeated probes along taxonomy
chains) stays fast.

The class is interface-compatible with
:class:`~repro.core.occurrence_index.OccurrenceIndex`, and
:class:`~repro.core.taxogram.Taxogram` selects it through
``TaxogramOptions(occurrence_index_backend="disk")``.

Threading: construction and mutation (``insert`` / ``clear_bits`` /
``remap_bits`` / ``finish``) belong to the thread that created the
index — attempting them from elsewhere raises.  Reads (``bits``,
``covered``, ``dump_rows``...) are safe from any thread: each
non-owner thread lazily opens its own read-only SQLite connection (one
connection must never be shared across threads mid-statement), and the
shared LRU/staging/coverage state is guarded by a lock.  The serving
layer additionally opens whole indices with ``read_only=True`` so a
query path cannot mutate a store it only reads.
"""

from __future__ import annotations

import sqlite3
import tempfile
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Iterable

from repro.core.occurrence_index import OccurrenceColumns
from repro.core.results import MiningCounters
from repro.exceptions import MiningError
from repro.mining.gspan import Embedding
from repro.taxonomy.taxonomy import Taxonomy
from repro.util.compression import decode_container, encode_container

__all__ = ["DiskOccurrenceIndex", "build_disk_occurrence_index"]

_DEFAULT_RESIDENT = 4096
_LRU_SIZE = 1024


class DiskOccurrenceIndex:
    """Occurrence index with SQLite-resident occurrence sets."""

    def __init__(
        self,
        num_positions: int,
        directory: str | Path | None = None,
        max_resident_entries: int = _DEFAULT_RESIDENT,
        reset: bool = True,
        read_only: bool = False,
        codec: str | None = None,
    ) -> None:
        self._num_positions = num_positions
        # Occurrence-set blob codec.  The owning pattern store records
        # one codec per store in its manifest, so whether blobs are
        # compressed is configuration, not per-blob sniffing (a raw
        # little-endian mask could collide with any magic bytes).
        self._codec = codec
        if read_only and reset:
            raise MiningError(
                "a read-only occurrence index cannot reset its rows"
            )
        if directory is None:
            self._tempdir = tempfile.TemporaryDirectory(prefix="taxogram-oi-")
            directory = self._tempdir.name
        else:
            self._tempdir = None
        self._path = Path(directory) / "occurrence_index.sqlite3"
        self._read_only = read_only
        self._owner = threading.get_ident()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._extra_connections: list[sqlite3.Connection] = []
        self._connection = self._open_connection()
        if not read_only:
            self._connection.execute(
                "CREATE TABLE IF NOT EXISTS entries ("
                " position INTEGER NOT NULL,"
                " label INTEGER NOT NULL,"
                " bits BLOB NOT NULL,"
                " PRIMARY KEY (position, label))"
            )
        self._covered: list[set[int]] = [set() for _ in range(num_positions)]
        if reset:
            # An index instance always represents a single pattern class; a
            # reused directory (explicit ``disk_index_directory`` across
            # classes or runs) must not OR stale rows from a previous class
            # into this one's occurrence sets.
            self._connection.execute("DELETE FROM entries")
            self._connection.commit()
        else:
            # Reopen a persisted index (repro.incremental's pattern
            # store): the coverage map is rebuilt from the stored rows.
            for position, label in self._connection.execute(
                "SELECT position, label FROM entries"
            ):
                self._covered[position].add(label)
        self._max_resident = max(1, max_resident_entries)
        # Write-back staging area: (position, label) -> int bits.
        self._resident: dict[tuple[int, int], int] = {}
        self._lru: OrderedDict[tuple[int, int], int] = OrderedDict()
        self._closed = False

    # -- connections ----------------------------------------------------------

    def _open_connection(self) -> sqlite3.Connection:
        # check_same_thread=False lets close() tear down connections that
        # were opened by (now finished) reader threads; every connection
        # is still *queried* by a single thread only.
        if self._read_only:
            return sqlite3.connect(
                f"file:{self._path}?mode=ro", uri=True, check_same_thread=False
            )
        return sqlite3.connect(self._path, check_same_thread=False)

    def _read_connection(self) -> sqlite3.Connection:
        """This thread's connection: the owner reuses the main one, any
        other thread gets a lazily opened private read-only connection."""
        if threading.get_ident() == self._owner:
            return self._connection
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = sqlite3.connect(
                f"file:{self._path}?mode=ro", uri=True, check_same_thread=False
            )
            self._local.connection = connection
            with self._lock:
                self._extra_connections.append(connection)
        return connection

    def _assert_writable(self) -> None:
        if self._read_only:
            raise MiningError(
                f"occurrence index {self._path} is open read-only"
            )
        if threading.get_ident() != self._owner:
            raise MiningError(
                "occurrence index mutations are restricted to the thread "
                "that opened the index"
            )

    # -- blob codec -----------------------------------------------------------

    # With a codec configured, every blob carries a one-byte tag: 0x00
    # for raw little-endian mask bytes, 0x01 for a compression
    # container.  Small masks (the overwhelmingly common case) stay raw
    # — container framing alone would *grow* them — and only blobs the
    # codec genuinely shrinks get compressed.  Legacy stores (no codec
    # in the manifest) keep bare untagged blobs, so old indices read
    # unchanged.

    def _enc(self, bits: int) -> bytes:
        raw = bits.to_bytes((bits.bit_length() + 7) // 8 or 1, "little")
        if self._codec is None:
            return raw
        packed = encode_container(raw, self._codec)
        if len(packed) < len(raw):
            return b"\x01" + packed
        return b"\x00" + raw

    def _dec(self, blob: bytes) -> int:
        if self._codec is not None:
            tag, blob = blob[0], blob[1:]
            if tag == 1:
                blob, _ = decode_container(blob)
        return int.from_bytes(blob, "little")

    # -- construction ---------------------------------------------------------

    def insert(self, position: int, label: int, occurrence_bit: int) -> None:
        """OR one occurrence bit into the (position, label) entry."""
        self._assert_writable()
        key = (position, label)
        with self._lock:
            self._covered[position].add(label)
            self._resident[key] = self._resident.get(key, 0) | occurrence_bit
            overflow = len(self._resident) > self._max_resident
        if overflow:
            self._flush()

    def _flush(self) -> None:
        if not self._resident:
            return
        cursor = self._connection.cursor()
        for (position, label), bits in self._resident.items():
            row = cursor.execute(
                "SELECT bits FROM entries WHERE position = ? AND label = ?",
                (position, label),
            ).fetchone()
            if row is not None:
                bits |= self._dec(row[0])
            cursor.execute(
                "INSERT OR REPLACE INTO entries (position, label, bits) "
                "VALUES (?, ?, ?)",
                (position, label, self._enc(bits)),
            )
        self._connection.commit()
        with self._lock:
            self._resident.clear()
            self._lru.clear()  # staged values may have changed merged entries

    def finish(self) -> "DiskOccurrenceIndex":
        """Flush all staged entries; the index becomes read-mostly."""
        self._flush()
        return self

    # -- incremental maintenance -------------------------------------------------

    def clear_bits(self, mask: int) -> int:
        """AND-NOT ``mask`` out of every entry; drop rows that become empty.

        Returns the number of rows deleted.  Deleting emptied rows (rather
        than leaving zero-bit tombstones) keeps ``is_covered`` and
        ``covered_children`` exact after graph removals — a stale row
        would otherwise re-enter specialization with an empty occurrence
        set.
        """
        if mask <= 0:
            return 0
        self._assert_writable()
        self._flush()
        cursor = self._connection.cursor()
        dead: list[tuple[int, int]] = []
        updates: list[tuple[bytes, int, int]] = []
        for position, label, blob in cursor.execute(
            "SELECT position, label, bits FROM entries"
        ).fetchall():
            bits = self._dec(blob)
            cleared = bits & ~mask
            if cleared == bits:
                continue
            if cleared == 0:
                dead.append((position, label))
            else:
                updates.append((self._enc(cleared), position, label))
        if updates:
            cursor.executemany(
                "UPDATE entries SET bits = ? WHERE position = ? AND label = ?",
                updates,
            )
        if dead:
            cursor.executemany(
                "DELETE FROM entries WHERE position = ? AND label = ?", dead
            )
        self._connection.commit()
        with self._lock:
            for position, label in dead:
                self._covered[position].discard(label)
            self._lru.clear()
        return len(dead)

    def remap_bits(self, id_map: dict[int, int]) -> None:
        """Rewrite every entry's bit-set through ``id_map`` (compaction).

        Occurrence ids absent from ``id_map`` are dropped; rows left empty
        are deleted like in :meth:`clear_bits`.
        """
        from repro.util.bitset import BitSet

        self._assert_writable()
        self._flush()
        cursor = self._connection.cursor()
        dead: list[tuple[int, int]] = []
        updates: list[tuple[bytes, int, int]] = []
        for position, label, blob in cursor.execute(
            "SELECT position, label, bits FROM entries"
        ).fetchall():
            bits = BitSet.from_bits(self._dec(blob))
            remapped = bits.compact(id_map).bits
            if remapped == 0:
                dead.append((position, label))
            else:
                updates.append((self._enc(remapped), position, label))
        if updates:
            cursor.executemany(
                "UPDATE entries SET bits = ? WHERE position = ? AND label = ?",
                updates,
            )
        if dead:
            cursor.executemany(
                "DELETE FROM entries WHERE position = ? AND label = ?", dead
            )
        self._connection.commit()
        with self._lock:
            for position, label in dead:
                self._covered[position].discard(label)
            self._lru.clear()

    def row_count(self) -> int:
        """Number of persisted (position, label) rows."""
        self._flush()
        row = self._read_connection().execute(
            "SELECT COUNT(*) FROM entries"
        ).fetchone()
        return int(row[0])

    def dump_rows(self) -> list[tuple[int, int, int]]:
        """Every ``(position, label, bits)`` row, staged entries merged in.

        One bulk read instead of per-label probes: the serving layer
        loads a class's whole index under a single version fence and
        answers all later queries for that class from memory.
        """
        merged: dict[tuple[int, int], int] = {
            (position, label): self._dec(blob)
            for position, label, blob in self._read_connection().execute(
                "SELECT position, label, bits FROM entries"
            )
        }
        with self._lock:
            staged = dict(self._resident)
        for key, bits in staged.items():
            merged[key] = merged.get(key, 0) | bits
        return sorted(
            (position, label, bits)
            for (position, label), bits in merged.items()
        )

    # -- OccurrenceIndex interface ----------------------------------------------

    @property
    def num_positions(self) -> int:
        return self._num_positions

    def bits(self, position: int, label: int) -> int:
        key = (position, label)
        with self._lock:
            staged = self._resident.get(key)
            if staged is not None:
                return staged
            cached = self._lru.get(key)
            if cached is not None:
                self._lru.move_to_end(key)
                return cached
        row = self._read_connection().execute(
            "SELECT bits FROM entries WHERE position = ? AND label = ?",
            key,
        ).fetchone()
        value = self._dec(row[0]) if row is not None else 0
        with self._lock:
            self._lru[key] = value
            if len(self._lru) > _LRU_SIZE:
                self._lru.popitem(last=False)
        return value

    def covered(self, position: int) -> dict[int, int]:
        with self._lock:
            labels = sorted(self._covered[position])
        return {label: self.bits(position, label) for label in labels}

    def is_covered(self, position: int, label: int) -> bool:
        with self._lock:
            return label in self._covered[position]

    def covered_children(
        self, position: int, label: int, taxonomy: Taxonomy
    ) -> list[int]:
        with self._lock:
            entry = set(self._covered[position])
        return [c for c in taxonomy.children_of(label) if c in entry]

    def covered_entry_count(self) -> int:
        """Distinct (position, label) entries materialized so far."""
        with self._lock:
            return sum(len(labels) for labels in self._covered)

    # -- lifecycle ------------------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        with self._lock:
            extras = list(self._extra_connections)
            self._extra_connections.clear()
        for connection in extras:
            connection.close()
        self._connection.close()
        if self._tempdir is not None:
            self._tempdir.cleanup()

    def __enter__(self) -> "DiskOccurrenceIndex":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @property
    def database_path(self) -> Path:
        return self._path


def build_disk_occurrence_index(
    num_positions: int,
    embeddings: Iterable[Embedding],
    original_labels: list[list[int]],
    taxonomy: Taxonomy,
    allowed_labels: frozenset[int] | None = None,
    counters: MiningCounters | None = None,
    directory: str | Path | None = None,
    max_resident_entries: int = _DEFAULT_RESIDENT,
) -> tuple[OccurrenceColumns, DiskOccurrenceIndex]:
    """Disk-backed drop-in for
    :func:`repro.core.occurrence_index.build_occurrence_index`."""
    columns = OccurrenceColumns()
    index = DiskOccurrenceIndex(num_positions, directory, max_resident_entries)
    updates = 0
    ancestor_cache: dict[int, tuple[int, ...]] = {}
    for emb in embeddings:
        occ_bit = 1 << columns.append(emb.graph_id, emb.nodes)
        graph_originals = original_labels[emb.graph_id]
        for position, node in enumerate(emb.nodes):
            original = graph_originals[node]
            ancestors = ancestor_cache.get(original)
            if ancestors is None:
                pool = taxonomy.ancestors_or_self(original)
                if allowed_labels is not None:
                    pool = pool & allowed_labels
                ancestors = tuple(pool)
                ancestor_cache[original] = ancestors
            for label in ancestors:
                index.insert(position, label, occ_bit)
                updates += 1
    if counters is not None:
        counters.occurrence_index_updates += updates
        counters.oie_entries += index.covered_entry_count()
    return columns, index.finish()
