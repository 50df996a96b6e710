"""Live ingest service: the serving endpoints plus a WAL pipeline.

:class:`IngestCore` composes the whole streaming stack *without* a
transport: a :class:`~repro.streaming.wal.WriteAheadLog` as the durable
front door, a background :class:`~repro.streaming.applier.StreamApplier`
folding journaled deltas into the pattern store, and a
:class:`~repro.serving.reader.StoreReader` answering queries against
whichever store version is committed.  Readers never observe a
half-applied batch — the applier's shadow-swap commit means the store
directory always holds a complete, checksummed version.

``ingest --serve`` mounts :meth:`IngestCore.routes` on the asyncio
:class:`~repro.serving.aserver.AsyncHTTPFront`; the table is the
read-only surface plus :func:`repro.serving.endpoints.ingest_routes`.

Endpoints added on top of the serving surface:

* ``POST /ingest`` — body ``{"add": <graph-db text>, "remove": [ids],
  "wait": bool}``.  Acknowledged (``202``, with the record's ``seq``)
  once the record is durably journaled; with ``"wait": true`` the
  response is delayed until the record's batch commits (``200``,
  read-your-writes).  When the journaled-but-unapplied backlog exceeds
  ``max_lag_records`` the request is shed with ``429`` and a
  ``Retry-After`` hint instead of letting the WAL grow without bound.
* ``POST /flush`` — apply everything journaled so far; returns the
  committed offset.
* ``GET /lag`` — journaled/applied offsets, backlog size, rejected
  record count, and applier liveness.

A crashed applier turns ``/ingest`` into ``503`` (the journal would
accept records nobody will ever apply) while leaving query endpoints
up.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.exceptions import ReproError
from repro.incremental.delta import DatabaseDelta
from repro.observability.metrics import (
    LockingMetricsRegistry,
    MetricsRegistry,
)
from repro.observability.trace import NOOP_TRACER, Tracer
from repro.serving.endpoints import RouteTable, ingest_routes, serving_routes
from repro.serving.reader import StoreReader
from repro.streaming.applier import ApplierOptions, StreamApplier
from repro.streaming.wal import WriteAheadLog

__all__ = [
    "IngestCore",
    "IngestOptions",
]


@dataclass(frozen=True)
class IngestOptions:
    """Admission and wait knobs for :class:`IngestCore`.

    ``max_lag_records`` is the hard backpressure bound: once that many
    acknowledged records await application, further ingests are shed
    with 429 (the asyncio front-end additionally sheds probabilistically
    *before* this bound via :mod:`repro.serving.admission`).
    ``wait_timeout_seconds`` caps ``"wait": true`` blocking.
    ``wal_compress`` names the codec sealed WAL segments are rewritten
    with at rotation (None keeps the raw frame layout; see
    :mod:`repro.streaming.wal` for the logical-byte contract that keeps
    replication digests stable either way).
    """

    max_lag_records: int = 1024
    wait_timeout_seconds: float = 60.0
    wal_compress: str | None = None


class IngestCore:
    """WAL + applier + reader over one pattern store directory.

    Construction recovers the store (crash repair) and replays any
    journaled-but-unapplied records' bookkeeping; once :meth:`start` is
    called the applier folds batches in the background.  :meth:`close`
    drains pending records and releases everything; it is what SIGTERM
    handling calls for a graceful exit.  The core is transport-free —
    a front-end mounts :meth:`routes`.
    """

    role = "primary"

    def __init__(
        self,
        store_dir: str | Path,
        wal_dir: str | Path,
        options: IngestOptions | None = None,
        applier_options: ApplierOptions | None = None,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.options = options if options is not None else IngestOptions()
        self.metrics = (
            metrics if metrics is not None else LockingMetricsRegistry()
        )
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        self.wal = WriteAheadLog(
            wal_dir,
            metrics=self.metrics,
            compress=self.options.wal_compress,
        )
        self.applier = StreamApplier(
            store_dir,
            self.wal,
            options=applier_options,
            metrics=self.metrics,
            tracer=self.tracer,
        )
        self.reader = StoreReader(store_dir, tracer=self.tracer)
        self._closed = False

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        """Start the background applier."""
        self.applier.start()

    def close(self, drain: bool = True) -> None:
        """Optionally drain the backlog, then release WAL and applier."""
        if self._closed:
            return
        self._closed = True
        if drain and self.applier.error is None:
            self.applier.stop()
        self.wal.close()

    # -- transport hooks ------------------------------------------------------

    def routes(self) -> RouteTable:
        """The full endpoint table for mounting on any front-end."""
        return serving_routes(
            self.reader, role=self.role, health_extras=self.health_extras
        ).merge(ingest_routes(self))

    def health_extras(self) -> dict:
        return {
            "applier_alive": self.applier.error is None,
            "applied_seq": self.applier.applied_seq,
            "journaled_seq": self.wal.last_seq,
            "lag": self.applier.lag,
        }

    # -- ingest path ----------------------------------------------------------

    def ingest(
        self, delta: DatabaseDelta, wait: bool = False
    ) -> tuple[int, dict]:
        """Journal one delta; returns ``(http_status, payload)``."""
        error = self.applier.error
        if error is not None:
            return 503, {"error": f"stream applier failed: {error}"}
        lag = self.applier.lag
        if lag >= self.options.max_lag_records:
            self.metrics.add("streaming.ingest_shed", 1)
            return 429, {"error": "ingest backlog is full", "lag": lag}
        try:
            seq = self.wal.append(delta)
        except OSError as exc:
            # The WAL volume rejected the write (disk full, EIO...).
            # Nothing was acked and the log is untouched, so this is
            # back-pressure, not a server fault: shed with 429 like the
            # lag cliff and let the client retry once space frees up.
            self.metrics.add("streaming.ingest_disk_full", 1)
            return 429, {
                "error": f"WAL volume rejected the write: {exc}",
                "lag": lag,
            }
        self.metrics.add("streaming.ingest_accepted", 1)
        if not wait:
            return 202, {"seq": seq, "applied": False, "lag": lag + 1}
        try:
            applied = self.applier.wait_applied(
                seq, timeout=self.options.wait_timeout_seconds
            )
        except ReproError as exc:
            return 503, {"error": str(exc), "seq": seq}
        if not applied:
            return 504, {
                "error": "timed out waiting for application",
                "seq": seq,
            }
        return 200, {
            "seq": seq,
            "applied": True,
            "store_version": self.reader.refresh(),
        }

    def flush(self) -> bool:
        return self.applier.flush(self.options.wait_timeout_seconds)

    def lag_snapshot(self) -> dict:
        error = self.applier.error
        return {
            "journaled_seq": self.wal.last_seq,
            "applied_seq": self.applier.applied_seq,
            "lag": self.applier.lag,
            "rejected_records": len(self.applier.rejected),
            "applier_alive": error is None,
            "error": None if error is None else str(error),
        }
