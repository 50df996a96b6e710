"""Durable streaming ingestion for taxonomy-superimposed mining.

The streaming layer turns the incremental maintenance of
:mod:`repro.incremental` into a crash-safe online pipeline:

* :mod:`repro.streaming.wal` — a segmented, checksummed write-ahead log
  that makes an ingest durable before it is applied;
* :mod:`repro.streaming.applier` — a batching applier that folds WAL
  records into the pattern store through shadow-swap commits, recording
  the applied WAL offset atomically with the store version so a
  ``kill -9`` at any instant recovers by idempotent replay;
* :mod:`repro.streaming.service` — the PR-4 serving endpoints plus
  ``POST /ingest`` (with backpressure and read-your-writes),
  ``POST /flush`` and ``GET /lag``.
"""

import importlib

# Public name -> defining module, resolved on first access (module
# ``__getattr__`` below) so that ``import repro.streaming.wal`` does not
# load the service and all of ``repro.serving``.
_EXPORTS = {
    name: module
    for module, names in {
        "repro.streaming.applier": (
            "ApplierOptions",
            "StreamApplier",
            "applied_wal_seq",
            "recover_store",
        ),
        "repro.streaming.service": (
            "IngestCore",
            "IngestOptions",
        ),
        "repro.streaming.wal": (
            "SegmentView",
            "WALRecord",
            "WriteAheadLog",
            "decode_frames",
        ),
    }.items()
    for name in names
}


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(
            f"module 'repro.streaming' has no attribute {name!r}"
        )
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))


__all__ = sorted(_EXPORTS)
