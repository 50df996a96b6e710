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

import importlib

# Public name -> defining module, resolved on first access (module
# ``__getattr__`` below) so that importing one submodule (the WAL needs
# only ``delta``) does not load the store, the updater and the miner.
_EXPORTS = {
    name: module
    for module, names in {
        "repro.incremental.delta": ("DatabaseDelta",),
        "repro.incremental.pipeline": ("mine_to_store",),
        "repro.incremental.store": (
            "FORMAT_VERSION",
            "PatternStore",
            "StoredClass",
            "fence_state",
            "taxonomy_fingerprint",
        ),
        "repro.incremental.updater": (
            "IncrementalOptions",
            "IncrementalTaxogram",
        ),
    }.items()
    for name in names
}


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(
            f"module 'repro.incremental' has no attribute {name!r}"
        )
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))


__all__ = sorted(_EXPORTS)
