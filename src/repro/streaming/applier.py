"""Batching WAL applier with crash-safe shadow commits.

:class:`StreamApplier` drains a :class:`~repro.streaming.wal.
WriteAheadLog` in a background thread, coalescing journaled deltas into
micro-batches that it folds into a :class:`~repro.incremental.store.
PatternStore` through :class:`~repro.incremental.updater.
IncrementalTaxogram`.  Batches close under three bounds — record count,
graphs touched, and wall-clock latency since the first pending record —
so bursty ingest amortizes mining work while a trickle still lands
within ``max_latency_seconds``.

Crash safety is the shadow-swap protocol.  A batch never mutates the
live store: the store directory is copied to ``<store>.next``, the
batch's final WAL sequence is written into the shadow's ``app_state``
*before* the delta is applied (so the one atomic manifest rename inside
:meth:`PatternStore.save` commits "delta applied" and "offset advanced"
together), and only a fully-committed shadow is swapped in::

    <store>  ->  <store>.prev        # live store disappears...
    <store>.next  ->  <store>        # ...and reappears committed
    rmtree <store>.prev

:func:`shadow_commit` is that protocol's one implementation; the
one-shot ``taxogram update`` commits through it too.

:func:`recover_store` makes the protocol total: whatever instant the
process is killed, either the live manifest is intact (stray siblings
are discarded; the WAL replays anything past the committed offset) or
exactly one complete sibling exists and is adopted.  Replay is
idempotent because records at or below the committed
``wal_applied_seq`` are skipped.

Records are validated individually at compose time with *copies* of the
store's label interners (a rejected record must not leak labels into
the persisted ``labels.json``), and a rejected record — unparsable
text, labels outside the taxonomy, out-of-range remove ids, or a delta
that would empty the database — is skipped deterministically: offline
replay of the same WAL rejects exactly the same records, which is what
the differential crash tests assert.
"""

from __future__ import annotations

import shutil
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, TypeVar

from repro.exceptions import ReproError, StoreError
from repro.incremental.delta import DatabaseDelta
from repro.incremental.store import PatternStore
from repro.incremental.updater import IncrementalOptions, IncrementalTaxogram
from repro.observability.metrics import (
    LockingMetricsRegistry,
    MetricsRegistry,
)
from repro.observability.trace import NOOP_TRACER, Tracer
from repro.streaming.wal import WALRecord, WriteAheadLog

__all__ = [
    "ApplierOptions",
    "StreamApplier",
    "applied_wal_seq",
    "recover_store",
    "shadow_commit",
]

_MANIFEST = "manifest.json"
_NEXT_SUFFIX = ".next"
_PREV_SUFFIX = ".prev"
_APPLIED_KEY = "wal_applied_seq"

_T = TypeVar("_T")


def applied_wal_seq(store: PatternStore) -> int:
    """The store's committed WAL offset (-1 when nothing was applied)."""
    return int(store.app_state.get(_APPLIED_KEY, -1))


def recover_store(store_dir: str | Path) -> str:
    """Repair the shadow-swap state machine after a crash.

    Returns what was done: ``"clean"`` (live manifest intact, any
    leftover siblings discarded), ``"adopted_next"`` / ``"adopted_prev"``
    (the live store vanished mid-swap and a complete sibling was
    promoted).  Raises :class:`~repro.exceptions.StoreError` when no
    complete store survives at all.
    """
    base = Path(store_dir)
    next_dir = base.with_name(base.name + _NEXT_SUFFIX)
    prev_dir = base.with_name(base.name + _PREV_SUFFIX)
    # Remine scratch of a crashed shadow apply (see updater._full_remine).
    for scratch in (
        base.with_name(base.name + ".rebuild"),
        base.with_name(base.name + _NEXT_SUFFIX + ".rebuild"),
    ):
        if scratch.exists():
            shutil.rmtree(scratch)
    if (base / _MANIFEST).exists():
        # Crash before the swap: the shadow (possibly torn, possibly
        # complete-but-unswapped) is discarded; its records are still in
        # the WAL and replay idempotently.  A leftover .prev means the
        # crash hit after the swap completed, before cleanup.
        for stray in (next_dir, prev_dir):
            if stray.exists():
                shutil.rmtree(stray)
        return "clean"
    # Crash between the two renames: the live directory is gone (or is
    # manifest-less garbage).  A sibling with a manifest is complete —
    # shadows are only swapped after their save() committed.
    for candidate, tag in ((next_dir, "adopted_next"), (prev_dir, "adopted_prev")):
        if (candidate / _MANIFEST).exists():
            if base.exists():
                shutil.rmtree(base)
            candidate.rename(base)
            for stray in (next_dir, prev_dir):
                if stray.exists():
                    shutil.rmtree(stray)
            return tag
    raise StoreError(
        f"{base} is not a pattern store and no complete shadow copy "
        "survives to recover from"
    )


def shadow_commit(
    store_dir: str | Path,
    apply: Callable[[PatternStore], _T],
    tracer: Tracer = NOOP_TRACER,
) -> _T:
    """Run ``apply`` on a shadow copy of the store, then swap it in.

    ``apply`` receives the opened ``<store>.next`` copy and commits it
    (``IncrementalTaxogram.apply`` saves).  The live store is replaced
    only after ``apply`` returns; if it raises, the shadow is discarded
    and the live store is untouched.  A kill at any instant leaves
    either the live store or one complete sibling, which
    :func:`recover_store` adopts.
    """
    base = Path(store_dir)
    next_dir = base.with_name(base.name + _NEXT_SUFFIX)
    if next_dir.exists():
        shutil.rmtree(next_dir)
    with tracer.span("streaming.shadow_copy"):
        shutil.copytree(base, next_dir)
    try:
        result = apply(PatternStore.open(next_dir))
    except BaseException:
        shutil.rmtree(next_dir, ignore_errors=True)
        raise
    prev_dir = base.with_name(base.name + _PREV_SUFFIX)
    if prev_dir.exists():
        shutil.rmtree(prev_dir)
    base.rename(prev_dir)
    next_dir.rename(base)
    shutil.rmtree(prev_dir)
    return result


def _split_graph_chunks(add_text: str) -> list[str]:
    """Split database text into one chunk per ``t``-headed graph."""
    chunks: list[list[str]] = []
    for line in add_text.splitlines():
        if line.strip().startswith("t"):
            chunks.append([])
        if chunks and line.strip():
            chunks[-1].append(line)
    return ["\n".join(chunk) for chunk in chunks]


class _BatchComposer:
    """Coalesces sequential WAL records into one base-space delta.

    Each record's ``remove_ids`` address the database *as of that
    record*, so naive concatenation is wrong once a batch mixes adds and
    removes.  The composer tracks the batch as removals against the
    base database plus an ordered list of pending added graphs; a
    record's remove id either maps back to a base id through the
    survivor-rank translation or cancels a pending add outright.  The
    composed delta applied once is equivalent to applying the accepted
    records one by one.

    Validation uses interner *copies* so rejected records cannot intern
    new labels into the store (``labels.json`` persists interner
    contents).
    """

    def __init__(self, store: PatternStore) -> None:
        self._taxonomy = store.taxonomy
        self._node_labels = store.database.node_labels.copy()
        self._edge_labels = store.database.edge_labels.copy()
        self._base_size = len(store.database)
        self._base_removes: set[int] = set()
        self._pending_adds: list[str] = []
        self.accepted: list[int] = []
        self.rejected: list[tuple[int, str]] = []

    def _current_size(self) -> int:
        return (
            self._base_size - len(self._base_removes) + len(self._pending_adds)
        )

    def push(self, record: WALRecord) -> bool:
        """Fold one record in; False (with a logged reason) on rejection."""
        reason = self._try_push(record.delta)
        if reason is None:
            self.accepted.append(record.seq)
            return True
        self.rejected.append((record.seq, reason))
        return False

    def _try_push(self, delta: DatabaseDelta) -> str | None:
        current = self._current_size()
        try:
            adds_db = delta.added_database(self._node_labels, self._edge_labels)
        except ReproError as exc:
            return f"unparsable additions: {exc}"
        for label in adds_db.distinct_node_labels():
            if label not in self._taxonomy:
                return (
                    f"node label {self._node_labels.name_of(label)!r} "
                    "is not a taxonomy concept"
                )
        for gid in delta.remove_ids:
            if gid >= current:
                return (
                    f"remove id {gid} is out of range for a database of "
                    f"{current} graphs"
                )
        if current - len(delta.remove_ids) + len(adds_db) <= 0:
            return "delta removes every graph in the database"
        # Validation passed: commit the record into the composed state.
        survivors = self._base_size - len(self._base_removes)
        new_base_removes: list[int] = []
        cancelled_pending: list[int] = []
        for gid in delta.remove_ids:
            if gid < survivors:
                # Survivor rank -> base id: every earlier base removal
                # shifted this survivor's id down by one.
                base_id = gid
                for removed in sorted(self._base_removes):
                    if removed <= base_id:
                        base_id += 1
                new_base_removes.append(base_id)
            else:
                cancelled_pending.append(gid - survivors)
        self._base_removes.update(new_base_removes)
        for index in sorted(cancelled_pending, reverse=True):
            del self._pending_adds[index]
        self._pending_adds.extend(_split_graph_chunks(delta.add_text))
        return None

    def composed(self) -> DatabaseDelta:
        add_text = "\n".join(self._pending_adds)
        if add_text:
            add_text += "\n"
        return DatabaseDelta(
            add_text=add_text,
            remove_ids=tuple(sorted(self._base_removes)),
        )


@dataclass(frozen=True)
class ApplierOptions:
    """Batching and commit knobs for :class:`StreamApplier`.

    A batch closes when it holds ``max_batch_records`` records, when its
    records touch ``max_batch_graphs`` graphs, or when
    ``max_latency_seconds`` elapsed since its first record — whichever
    comes first.  ``truncate_wal`` reclaims fully-applied WAL segments
    after each commit.
    """

    max_batch_records: int = 256
    max_batch_graphs: int = 2048
    max_latency_seconds: float = 0.25
    truncate_wal: bool = True
    incremental: IncrementalOptions = field(default_factory=IncrementalOptions)


class StreamApplier:
    """Drains a WAL into a pattern store, in-thread or in the background.

    Construction runs :func:`recover_store`, opens the store once to
    learn the committed offset, and verifies the WAL still holds every
    unapplied record.  :meth:`drain` applies synchronously (the CLI's
    one-shot mode); :meth:`start` runs the same batching loop in a
    daemon thread for live ingest.
    """

    def __init__(
        self,
        store_dir: str | Path,
        wal: WriteAheadLog,
        options: ApplierOptions | None = None,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.store_dir = Path(store_dir)
        self.wal = wal
        self.options = options if options is not None else ApplierOptions()
        self.metrics = (
            metrics if metrics is not None else LockingMetricsRegistry()
        )
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        self.recovery = recover_store(self.store_dir)
        store = PatternStore.open(self.store_dir)
        self._lock = threading.Lock()
        self._applied = threading.Condition(self._lock)
        self._applied_seq = applied_wal_seq(store)
        self._error: BaseException | None = None
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        self._flush = threading.Event()
        self.rejected: list[tuple[int, str]] = []
        # Extra keys committed into the store's app_state with every
        # batch (same atomic manifest rename as the WAL offset).  The
        # replication tier stamps its role/source here.
        self.app_state_extra: dict[str, object] = {}
        # Fail fast if offset bookkeeping and WAL retention diverged.
        self.wal.read_from(self._applied_seq + 1, max_records=0)

    # -- state ----------------------------------------------------------------

    @property
    def applied_seq(self) -> int:
        with self._lock:
            return self._applied_seq

    @property
    def lag(self) -> int:
        """Journaled-but-unapplied record count."""
        return max(0, self.wal.last_seq - self.applied_seq)

    @property
    def error(self) -> BaseException | None:
        with self._lock:
            return self._error

    # -- applying -------------------------------------------------------------

    def _next_batch(self) -> list[WALRecord]:
        records = self.wal.read_from(
            self.applied_seq + 1, max_records=self.options.max_batch_records
        )
        batch: list[WALRecord] = []
        graphs = 0
        for record in records:
            if batch and graphs + record.size() > self.options.max_batch_graphs:
                break
            batch.append(record)
            graphs += record.size()
        return batch

    def apply_next_batch(self) -> int:
        """Apply one micro-batch; returns the number of records consumed."""
        batch = self._next_batch()
        if not batch:
            return 0
        with self.tracer.span("streaming.apply_batch"):
            self._apply_records(batch)
        return len(batch)

    def _apply_records(self, batch: list[WALRecord]) -> None:
        def apply(shadow: PatternStore):
            composer = _BatchComposer(shadow)
            for record in batch:
                composer.push(record)
            delta = composer.composed()
            # Written before apply(): the updater's single manifest
            # rename commits the delta and the offset atomically.
            shadow.app_state[_APPLIED_KEY] = batch[-1].seq
            if self.app_state_extra:
                shadow.app_state.update(self.app_state_extra)
            updater = IncrementalTaxogram(shadow, self.options.incremental)
            with self.tracer.span("streaming.incremental_apply"):
                return composer, delta, updater.apply(delta, self.tracer)

        composer, delta, result = shadow_commit(
            self.store_dir, apply, self.tracer
        )
        with self._applied:
            self._applied_seq = batch[-1].seq
            self._applied.notify_all()
        self.rejected.extend(composer.rejected)
        self.metrics.add("streaming.batches_applied", 1)
        self.metrics.add("streaming.records_applied", len(composer.accepted))
        self.metrics.add("streaming.records_rejected", len(composer.rejected))
        self.metrics.add("streaming.graphs_batched", delta.size())
        # Fold the incremental run's counters (iso.tests,
        # incremental.fallbacks, ...) into the shared registry so the
        # ingest service's /metrics — and the benchmarks — can see how
        # much mining work the apply path is really doing.
        if result.report is not None:
            for name, value in result.report.counters.items():
                if value:
                    self.metrics.add(name, value)
        if self.options.truncate_wal:
            self.wal.truncate_applied(batch[-1].seq)

    def drain(self) -> int:
        """Apply until the WAL is exhausted; returns records consumed."""
        total = 0
        while True:
            consumed = self.apply_next_batch()
            if consumed == 0:
                return total
            total += consumed

    # -- background loop ------------------------------------------------------

    def start(self) -> None:
        if self._thread is not None:
            raise RuntimeError("applier already started")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="stream-applier", daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        try:
            while not self._stop.is_set():
                if not self.wal.wait_for(self.applied_seq + 1, timeout=0.05):
                    continue
                deadline = time.monotonic() + self.options.max_latency_seconds
                while (
                    not self._stop.is_set()
                    and not self._flush.is_set()
                    and time.monotonic() < deadline
                    and self.lag < self.options.max_batch_records
                ):
                    time.sleep(
                        min(0.01, max(0.0, deadline - time.monotonic()))
                    )
                self.apply_next_batch()
                # A flush stays urgent until the backlog is gone, so a
                # large backlog drains back-to-back without re-entering
                # the latency wait between batches.
                if self.lag == 0:
                    self._flush.clear()
            # Drain whatever arrived before stop was requested, so a
            # graceful shutdown never abandons acknowledged records.
            self.drain()
        except BaseException as exc:  # surfaced to waiters and /lag
            with self._applied:
                self._error = exc
                self._applied.notify_all()

    def flush(self, timeout: float | None = None) -> bool:
        """Apply everything journaled so far; False on timeout."""
        target = self.wal.last_seq
        if self._thread is None or not self._thread.is_alive():
            self.drain()
        else:
            self._flush.set()
        return self.wait_applied(target, timeout)

    def wait_applied(self, seq: int, timeout: float | None = None) -> bool:
        """Block until ``seq`` is committed; re-raises an applier crash."""
        if self._thread is None or not self._thread.is_alive():
            while self.applied_seq < seq and self.error is None:
                if self.apply_next_batch() == 0:
                    break
        with self._applied:
            ok = self._applied.wait_for(
                lambda: self._applied_seq >= seq or self._error is not None,
                timeout,
            )
            if self._error is not None:
                raise StoreError(
                    f"stream applier failed: {self._error}"
                ) from self._error
            return ok

    def stop(self, timeout: float | None = 30.0) -> None:
        """Stop the background loop after draining pending records."""
        if self._thread is None:
            return
        self._stop.set()
        self._flush.set()
        self._thread.join(timeout)
        self._thread = None
