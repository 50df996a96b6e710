"""Read-optimized concurrent query serving over persisted pattern stores.

Mining (paper §3) pays isomorphism tests once and records its work as
taxonomy-projected occurrence bit-sets; this package turns a persisted
:class:`~repro.incremental.store.PatternStore` into a query engine that
answers from those bit-sets:

* :class:`StoreReader` — a read-only, thread-safe view of a store
  directory.  ``support(pattern)`` is exact for *any* pattern at or
  below a mined class — including over-generalized patterns that were
  never materialized — with zero isomorphism tests; negative-border
  entries give exact sub-threshold supports; everything else falls back
  to (counted) VF2.  Readers stay valid while an
  :class:`~repro.incremental.updater.IncrementalTaxogram` updates the
  store: version fencing reloads the snapshot at the next query.
* :class:`VersionedResultCache` — the reader's LRU result cache, keyed
  by canonical DFS code + store version and invalidated wholesale on a
  version bump.
* :class:`BatchExecutor` / :class:`Query` — batch execution grouping
  queries per pattern class across a thread pool.
* :mod:`repro.serving.endpoints` — every HTTP route as a transport-
  neutral :class:`RouteTable`, mounted on the asyncio
  :class:`AsyncHTTPFront` (:func:`serve_async`, ``taxogram serve``) or
  the thread-per-request :class:`ThreadedHTTPFront` (followers, the
  query router).

Similarity queries (``similar`` / ``similarity_score`` /
``fuzzy_contains``) ride the same reader, cache, batch executor and
HTTP fronts (``POST /similar``), backed by the
:mod:`repro.similarity` engine; exact-threshold fuzzy containment
(``threshold=1.0``) is bit-identical to the exact ``graphs`` path.

Typical use::

    from repro.serving import StoreReader

    reader = StoreReader("go_store")
    n = reader.support(pattern)          # exact, no isomorphism tests
    top = reader.top_k(10, label_filter="binding")
"""

from repro.serving.admission import (
    AdmissionController,
    AdmissionDecision,
    AdmissionLimits,
    AdmissionPolicy,
)
from repro.serving.aserver import AsyncHTTPFront, serve_async
from repro.serving.batch import BatchExecutor, Query
from repro.serving.cache import VersionedResultCache, query_key
from repro.serving.endpoints import (
    Endpoint,
    HTTPRequest,
    RouteTable,
    ingest_routes,
    replication_routes,
    serving_routes,
    value_payload,
)
from repro.serving.reader import (
    DEFAULT_SIMILAR_THRESHOLD,
    SIMILARITY_OPS,
    MatchResult,
    ServingAnswer,
    StoreReader,
)
from repro.serving.server import ThreadedHTTPFront
from repro.similarity.engine import ScoredGraph, SimilarityEngine

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "AdmissionLimits",
    "AdmissionPolicy",
    "AsyncHTTPFront",
    "BatchExecutor",
    "DEFAULT_SIMILAR_THRESHOLD",
    "Endpoint",
    "HTTPRequest",
    "MatchResult",
    "Query",
    "RouteTable",
    "SIMILARITY_OPS",
    "ScoredGraph",
    "ServingAnswer",
    "SimilarityEngine",
    "StoreReader",
    "ThreadedHTTPFront",
    "VersionedResultCache",
    "ingest_routes",
    "query_key",
    "replication_routes",
    "serve_async",
    "serving_routes",
    "value_payload",
]
