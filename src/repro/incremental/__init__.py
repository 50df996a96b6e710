"""Persistent pattern stores and incremental maintenance under deltas.

``repro.incremental`` turns a mining run into a durable artifact and
keeps it current as the database changes:

* :mod:`repro.incremental.store` — :class:`PatternStore`, a versioned
  on-disk serialization of a complete mining result (pattern classes,
  per-class occurrence indices, negative border, options fingerprint).
* :mod:`repro.incremental.delta` — :class:`DatabaseDelta` (batched graph
  additions/removals).  Each class's occurrence-id space is a
  :class:`repro.core.occurrence_index.OccurrenceColumns`, maintained
  across deltas.
* :mod:`repro.incremental.pipeline` — :func:`mine_to_store`, mining into
  a fresh store (``TaxogramOptions(store_out=...)`` routes here).
* :mod:`repro.incremental.updater` — :class:`IncrementalTaxogram`, which
  applies deltas with results always equivalent to fresh mining.

See docs/API.md ("Incremental mining") for the store format and the
fallback policy.
"""

from repro.incremental.delta import DatabaseDelta
from repro.incremental.pipeline import mine_to_store
from repro.incremental.store import (
    FORMAT_VERSION,
    PatternStore,
    StoredClass,
    fence_state,
    taxonomy_fingerprint,
)
from repro.incremental.updater import IncrementalOptions, IncrementalTaxogram

__all__ = [
    "DatabaseDelta",
    "mine_to_store",
    "PatternStore",
    "StoredClass",
    "FORMAT_VERSION",
    "fence_state",
    "taxonomy_fingerprint",
    "IncrementalOptions",
    "IncrementalTaxogram",
]
