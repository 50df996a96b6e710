"""Scatter-gather query routing over replicas or shard-partitioned stores.

:class:`QueryRouter` answers the serving ops (``support`` /
``contains`` / ``graphs`` / ``specializations`` / ``top_k``) and the
similarity ops (``similar`` / ``similarity_score`` /
``fuzzy_contains``) through a pool of :class:`ReplicaEndpoint`\\ s —
HTTP servers (:class:`HTTPReplica`) or in-process readers
(:class:`LocalReplica`).
Answers are the *payload* form the HTTP layer serves
(:func:`repro.serving.endpoints.value_payload`), so a routed answer and a
direct single-store answer are bit-identical after JSON encoding; the
differential harness pins that.

Two modes:

* **Replicated** (default): every replica holds a full store copy
  (WAL-shipped followers).  Requests round-robin across healthy
  replicas; a transport failure evicts the replica for
  ``eviction_seconds`` and the request retries on the next one.
  Per-request freshness: ``min_applied_seq`` (the ingest ack's ``seq``)
  restricts dispatch to replicas whose committed WAL offset has reached
  it — read-your-writes across the fleet — and ``max_staleness``
  bounds how far behind the freshest known replica any serving replica
  may lag.  When every live replica is merely *stale* (not down), the
  router sheds with :class:`StaleReplicasError`, which the HTTP face
  maps to the streaming tier's 429 + ``Retry-After`` convention.
* **Sharded**: each endpoint holds a store mined over a contiguous
  shard of the database (:mod:`repro.parallel.sharding` order).
  ``support`` and ``graphs`` fan out to *every* shard and merge exactly
  by re-basing per-shard graph-id sets with
  :func:`repro.parallel.merge.merge_support_sets` — the same
  shifted-OR the parallel miner uses.  The similarity ops merge exactly
  too, because a similarity score depends only on ``(pattern, graph,
  taxonomy)``, never on cross-graph state: ``fuzzy_contains`` merges
  graph-id sets like ``graphs``, ``similar`` re-bases per-shard scored
  lists and re-sorts by ``(-score, graph_id)`` (per-shard ``k`` must
  stay unbounded so the global top-``k`` is exact), and
  ``similarity_score`` routes to the single shard owning the graph id.
  ``contains`` / ``specializations`` / ``top_k`` are refused: frequency
  and over-generalization are properties of the *global* occurrence
  state, and per-shard mined result sets cannot be merged into them
  exactly (the parallel runtime merges occurrence fragments *before*
  deciding either — shard-local decisions are unavoidably lossy).

:func:`router_routes` is the router's HTTP surface as a route table:
``POST /query`` / ``POST /similar`` and ``GET /top`` (all accepting
``min_applied_seq``), ``GET /health`` listing per-replica liveness,
``GET /metrics``, and the session routes of
:data:`~repro.serving.endpoints.SESSION_ROUTES`.  :class:`RouterService`
mounts it on the threaded transport behind one socket.

Interactive sessions (PR 10) are replica-local state — the scratch
workspace and per-tenant caches live in one server's memory — so the
router *pins* each session to the replica that created it:
``POST /sessions`` round-robins to a healthy replica and records the
``session_id -> replica`` binding; every later ``/sessions/...``
request forwards to the pinned replica for the session's lifetime.
When the pinned replica is evicted the pin is dropped and the request
falls through to the next healthy replica, which faithfully answers
404 (the session's state died with its replica) — clients re-create
and re-submit.  Sessions are refused outright in sharded mode: a
session's examples mine against one *whole* store.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from repro.exceptions import ReplicationError, ReproError
from repro.observability.metrics import (
    LockingMetricsRegistry,
    MetricsRegistry,
)
from repro.observability.trace import NOOP_TRACER, Tracer
from repro.parallel.merge import merge_support_sets
from repro.serving.endpoints import (
    SESSION_ROUTES,
    Endpoint,
    HTTPRequest,
    HTTPResult,
    RouteTable,
    value_payload,
)
from repro.serving.reader import StoreReader
from repro.serving.server import ThreadedHTTPFront

__all__ = [
    "HTTPReplica",
    "LocalReplica",
    "QueryRejected",
    "QueryRouter",
    "RouterOptions",
    "RouterService",
    "StaleReplicasError",
    "router_routes",
]

_SIMILARITY_OPS = ("similar", "similarity_score", "fuzzy_contains")
_ROUTED_OPS = (
    "support", "contains", "graphs", "specializations", "top_k",
) + _SIMILARITY_OPS
_SHARDED_OPS = ("support", "graphs") + _SIMILARITY_OPS


class StaleReplicasError(ReplicationError):
    """Every live replica lags the request's staleness bound.

    Transient by construction — followers are catching up — so carries
    ``retry_after`` for the 429 + ``Retry-After`` shedding convention.
    """

    retry_after = 1


class QueryRejected(ReproError):
    """The query itself is invalid (bad pattern, unknown op).

    Distinguished from transport failures: a rejection is the replica
    *answering* (HTTP 400), so it must propagate to the client instead
    of evicting the replica and retrying elsewhere.
    """


class HTTPReplica:
    """A replica reached over the serving HTTP surface."""

    def __init__(self, base_url: str, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    @property
    def name(self) -> str:
        return self.base_url

    def health(self) -> dict:
        with urllib.request.urlopen(
            self.base_url + "/health", timeout=self.timeout
        ) as response:
            return json.loads(response.read())

    def query(
        self,
        op: str,
        pattern: str | None = None,
        min_support: float | None = None,
        k: int | None = None,
        label_filter: str | None = None,
        sim_threshold: float | None = None,
        semantics: str | None = None,
        graph_id: int | None = None,
    ) -> dict:
        if op == "top_k":
            path = f"/top?k={10 if k is None else int(k)}"
            if label_filter is not None:
                path += f"&label={label_filter}"
            request = urllib.request.Request(self.base_url + path)
        elif op in _SIMILARITY_OPS:
            doc = {"op": op, "pattern": pattern}
            if sim_threshold is not None:
                doc["threshold"] = sim_threshold
            if semantics is not None:
                doc["semantics"] = semantics
            if k is not None:
                doc["k"] = k
            if graph_id is not None:
                doc["graph_id"] = graph_id
            request = urllib.request.Request(
                self.base_url + "/similar",
                json.dumps(doc).encode("utf-8"),
                {"Content-Type": "application/json"},
            )
        else:
            doc = {"op": op, "pattern": pattern}
            if min_support is not None:
                doc["min_support"] = min_support
            request = urllib.request.Request(
                self.base_url + "/query",
                json.dumps(doc).encode("utf-8"),
                {"Content-Type": "application/json"},
            )
        try:
            with urllib.request.urlopen(
                request, timeout=self.timeout
            ) as response:
                return json.loads(response.read())
        except urllib.error.HTTPError as exc:
            detail = exc.read().decode("utf-8", "replace")
            if exc.code == 400:
                try:
                    message = json.loads(detail).get("error", detail)
                except ValueError:
                    message = detail
                raise QueryRejected(str(message)) from exc
            raise ReplicationError(
                f"replica {self.base_url} failed a {op} query: "
                f"{exc.code} {detail}"
            ) from exc

    def request(
        self, method: str, path: str, body: bytes | None = None
    ) -> tuple[int, object, dict]:
        """Forward a raw request (session pinning path).

        Unlike :meth:`query`, *every* HTTP status is an answer to relay
        (404 session-not-found, 429 quota breach with ``Retry-After``);
        only transport failures raise, so the router evicts on dead
        replicas but never on application errors.
        """
        request = urllib.request.Request(
            self.base_url + path,
            body,
            {"Content-Type": "application/json"} if body else {},
            method=method,
        )
        try:
            with urllib.request.urlopen(
                request, timeout=self.timeout
            ) as response:
                return (
                    response.status,
                    json.loads(response.read()),
                    dict(response.headers),
                )
        except urllib.error.HTTPError as exc:
            detail = exc.read()
            try:
                payload: object = json.loads(detail)
            except ValueError:
                payload = {"error": detail.decode("utf-8", "replace")}
            return exc.code, payload, dict(exc.headers)


class LocalReplica:
    """An in-process reader presenting the same payload surface.

    Useful for tests, for routing over local store directories without
    sockets, and as the reference the differential harness compares
    HTTP answers against.
    """

    def __init__(
        self, store: str | Path | StoreReader, name: str | None = None
    ) -> None:
        self.reader = (
            store if isinstance(store, StoreReader) else StoreReader(store)
        )
        self._name = (
            name if name is not None else f"local:{self.reader.directory}"
        )

    @property
    def name(self) -> str:
        return self._name

    def health(self) -> dict:
        reader = self.reader
        reader.refresh()
        applied = reader.app_state.get("wal_applied_seq")
        return {
            "status": "ok",
            "role": "local",
            "store_version": reader.version,
            "classes": reader.num_classes,
            "database_size": reader.database_size,
            "min_support": reader.min_support,
            "applied_seq": None if applied is None else int(applied),
        }

    def query(
        self,
        op: str,
        pattern: str | None = None,
        min_support: float | None = None,
        k: int | None = None,
        label_filter: str | None = None,
        sim_threshold: float | None = None,
        semantics: str | None = None,
        graph_id: int | None = None,
    ) -> dict:
        reader = self.reader
        try:
            parsed = (
                None if pattern is None else reader.parse_pattern(pattern)
            )
            answer = reader.query(
                op,
                parsed,
                min_support=min_support,
                k=k,
                label_filter=label_filter,
                sim_threshold=sim_threshold,
                semantics=semantics,
                graph_id=graph_id,
            )
        except ReproError as exc:
            raise QueryRejected(str(exc)) from exc
        return {
            "op": op,
            "store_version": answer.store_version,
            "cached": answer.cached,
            "value": value_payload(reader, op, answer.value),
        }

    def request(
        self, method: str, path: str, body: bytes | None = None
    ) -> tuple[int, object, dict]:
        """Dispatch a raw ``/sessions`` request against an in-process
        session surface (built lazily over this replica's reader)."""
        from repro.serving.endpoints import HTTPRequest, session_routes
        from repro.sessions.manager import SessionManager

        if getattr(self, "_session_routes", None) is None:
            self._session_routes = session_routes(
                SessionManager(self.reader)
            )
        endpoint, path_args = self._session_routes.match(method, path)
        if endpoint is None:
            return 404, {"error": f"unknown path {path!r}"}, {}
        request = HTTPRequest(
            method=method, path=path, body=body or b"",
            path_args=path_args,
        )
        return endpoint.handler(request)


@dataclass(frozen=True)
class RouterOptions:
    """Dispatch knobs for :class:`QueryRouter`.

    ``sharded`` switches to exact scatter-gather over disjoint shards
    (endpoints listed in :func:`~repro.parallel.sharding.shard_database`
    order).  ``max_staleness`` (replicated mode) is the most records a
    chosen replica may lag behind the freshest known replica; ``None``
    disables the fleet-relative bound (per-request ``min_applied_seq``
    still applies).

    Evictions back off exponentially: the first failure sidelines a
    replica for ``eviction_seconds``, each consecutive failure doubles
    the penalty up to ``eviction_seconds * eviction_backoff_cap``.  A
    flapping replica therefore costs the router at most one probe per
    capped window instead of one per ``eviction_seconds``; one healthy
    answer resets the streak.
    """

    sharded: bool = False
    max_staleness: int | None = None
    health_max_age_seconds: float = 1.0
    eviction_seconds: float = 2.0
    eviction_backoff_cap: float = 8.0


class _ReplicaState:
    def __init__(self, replica) -> None:
        self.replica = replica
        self.health: dict | None = None
        self.health_at = float("-inf")
        self.down_until = float("-inf")
        self.failures = 0

    @property
    def applied_seq(self) -> int:
        if not self.health:
            return -1
        applied = self.health.get("applied_seq")
        return -1 if applied is None else int(applied)

    def up(self, now: float) -> bool:
        return now >= self.down_until


class QueryRouter:
    """Fan queries across replicas; merge or retry as the mode demands."""

    def __init__(
        self,
        replicas,
        options: RouterOptions | None = None,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        states = [_ReplicaState(replica) for replica in replicas]
        if not states:
            raise ReplicationError("router needs at least one replica")
        self.options = options if options is not None else RouterOptions()
        self.metrics = (
            metrics if metrics is not None else LockingMetricsRegistry()
        )
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        self._states = states
        self._lock = threading.Lock()
        self._round_robin = 0
        # session_id -> _ReplicaState: sessions are replica-local state,
        # so every request for a session must reach the replica that
        # created it (see the module docstring).
        self._session_pins: dict[str, _ReplicaState] = {}
        self._pool = (
            ThreadPoolExecutor(
                max_workers=len(states),
                thread_name_prefix="router-shard",
            )
            if self.options.sharded
            else None
        )

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False)

    # -- health ---------------------------------------------------------------

    def _refresh_health(self, state: _ReplicaState, now: float) -> None:
        if now - state.health_at < self.options.health_max_age_seconds:
            return
        try:
            state.health = state.replica.health()
            state.health_at = now
            state.failures = 0
        except (ReproError, OSError, ValueError) as exc:
            self._evict(state, now, f"health check failed: {exc}")

    def _evict(self, state: _ReplicaState, now: float, reason: str) -> None:
        state.failures += 1
        backoff = min(
            2.0 ** (state.failures - 1),
            max(1.0, self.options.eviction_backoff_cap),
        )
        state.down_until = now + self.options.eviction_seconds * backoff
        state.health = None
        state.health_at = float("-inf")
        self.metrics.add("replication.router_evictions", 1)

    def replica_states(self) -> list[dict]:
        """Health snapshot for ``GET /health`` on the router."""
        now = time.monotonic()
        out = []
        for state in self._states:
            self._refresh_health(state, now)
            out.append(
                {
                    "replica": state.replica.name,
                    "up": state.up(now),
                    "applied_seq": (
                        state.applied_seq if state.health else None
                    ),
                    "store_version": (
                        state.health.get("store_version")
                        if state.health
                        else None
                    ),
                }
            )
        return out

    # -- dispatch -------------------------------------------------------------

    def query(
        self,
        op: str,
        pattern: str | None = None,
        *,
        min_support: float | None = None,
        k: int | None = None,
        label_filter: str | None = None,
        min_applied_seq: int | None = None,
        sim_threshold: float | None = None,
        semantics: str | None = None,
        graph_id: int | None = None,
    ) -> dict:
        """Route one query; returns the HTTP-shaped answer payload.

        ``pattern`` is graph-db text (the wire format), not a parsed
        graph — the router never opens a store itself.
        """
        if op not in _ROUTED_OPS:
            raise QueryRejected(f"unknown query op {op!r}")
        with self.tracer.span(f"replication.route_{op}"):
            if self.options.sharded:
                payload = self._query_sharded(
                    op, pattern, min_support, min_applied_seq,
                    sim_threshold, semantics, graph_id, k,
                )
            else:
                payload = self._query_replicated(
                    op, pattern, min_support, k, label_filter,
                    min_applied_seq, sim_threshold, semantics, graph_id,
                )
        self.metrics.add("replication.router_queries", 1)
        return payload

    # -- replicated mode ------------------------------------------------------

    def _eligible(
        self, now: float, min_applied_seq: int | None
    ) -> tuple[list[_ReplicaState], bool]:
        """Live replicas satisfying the staleness bounds.

        Returns ``(eligible, any_live)``; a live-but-stale replica gets
        one immediate health re-poll before being ruled out, since
        followers advance continuously.
        """
        floor = -1 if min_applied_seq is None else min_applied_seq
        live = [s for s in self._states if s.up(now)]
        for state in live:
            self._refresh_health(state, now)
        live = [s for s in live if s.up(now)]
        if self.options.max_staleness is not None and live:
            freshest = max(s.applied_seq for s in live)
            floor = max(floor, freshest - self.options.max_staleness)
        eligible = []
        for state in live:
            if state.applied_seq < floor:
                # Maybe it caught up since the cached health: re-poll.
                state.health_at = float("-inf")
                self._refresh_health(state, now)
            if state.up(now) and state.applied_seq >= floor:
                eligible.append(state)
        return eligible, bool(live)

    def _query_replicated(
        self, op, pattern, min_support, k, label_filter, min_applied_seq,
        sim_threshold, semantics, graph_id,
    ) -> dict:
        now = time.monotonic()
        eligible, any_live = self._eligible(now, min_applied_seq)
        if not eligible:
            if any_live:
                self.metrics.add("replication.router_shed_stale", 1)
                raise StaleReplicasError(
                    f"no replica has reached applied seq "
                    f"{min_applied_seq} yet; retry shortly"
                )
            raise ReplicationError(
                "no healthy replica is available to route to"
            )
        with self._lock:
            start = self._round_robin
            self._round_robin += 1
        order = [
            eligible[(start + i) % len(eligible)]
            for i in range(len(eligible))
        ]
        last_error: Exception | None = None
        for state in order:
            try:
                payload = state.replica.query(
                    op,
                    pattern,
                    min_support=min_support,
                    k=k,
                    label_filter=label_filter,
                    sim_threshold=sim_threshold,
                    semantics=semantics,
                    graph_id=graph_id,
                )
            except QueryRejected:
                raise
            except (ReproError, OSError, ValueError) as exc:
                last_error = exc
                self._evict(state, time.monotonic(), str(exc))
                self.metrics.add("replication.router_retries", 1)
                continue
            payload["replica"] = state.replica.name
            return payload
        raise ReplicationError(
            f"every eligible replica failed the {op} query; "
            f"last error: {last_error}"
        )

    # -- session pinning ------------------------------------------------------

    @staticmethod
    def _session_id_of(path: str) -> str | None:
        parts = path.strip("/").split("/")
        if len(parts) >= 2 and parts[0] == "sessions":
            return parts[1]
        return None

    def session_pins(self) -> dict[str, str]:
        """``session_id -> replica name`` (health snapshot surface)."""
        with self._lock:
            return {
                session_id: state.replica.name
                for session_id, state in self._session_pins.items()
            }

    def session_request(
        self, method: str, path: str, body: bytes | None = None
    ) -> tuple[int, object, dict]:
        """Route one ``/sessions`` request, honoring the session's pin.

        ``POST /sessions`` picks a healthy replica round-robin and pins
        the returned session id to it; every other request forwards to
        the pinned replica.  A pin whose replica has been evicted is
        dropped and the request falls through to the next healthy
        replica (which answers 404 for the dead session — faithful, the
        state is gone).  ``DELETE`` and 404 answers unpin.
        """
        if self.options.sharded:
            raise QueryRejected(
                "sessions are not supported over shard-partitioned "
                "stores; a session's examples mine against one whole "
                "store"
            )
        session_id = self._session_id_of(path)
        now = time.monotonic()
        eligible, any_live = self._eligible(now, None)
        if not eligible:
            if any_live:
                raise StaleReplicasError(
                    "no replica is within the staleness bound; retry "
                    "shortly"
                )
            raise ReplicationError(
                "no healthy replica is available to route to"
            )
        pinned: _ReplicaState | None = None
        if session_id is not None:
            with self._lock:
                pinned = self._session_pins.get(session_id)
            if pinned is not None and not pinned.up(now):
                # The pinned replica died; its session state died too.
                with self._lock:
                    self._session_pins.pop(session_id, None)
                self.metrics.add("replication.router_session_repins", 1)
                pinned = None
        if pinned is not None:
            order = [pinned]
        else:
            with self._lock:
                start = self._round_robin
                self._round_robin += 1
            order = [
                eligible[(start + i) % len(eligible)]
                for i in range(len(eligible))
            ]
        last_error: Exception | None = None
        for state in order:
            try:
                status, payload, headers = state.replica.request(
                    method, path, body
                )
            except (ReproError, OSError, ValueError) as exc:
                last_error = exc
                self._evict(state, time.monotonic(), str(exc))
                self.metrics.add("replication.router_retries", 1)
                if state is pinned:
                    with self._lock:
                        self._session_pins.pop(session_id, None)
                    self.metrics.add(
                        "replication.router_session_repins", 1
                    )
                continue
            self.metrics.add("replication.router_session_forwards", 1)
            created = (
                method == "POST"
                and session_id is None
                and status in (200, 201)
                and isinstance(payload, dict)
                and payload.get("session_id")
            )
            if created:
                with self._lock:
                    self._session_pins[str(payload["session_id"])] = state
                self.metrics.add("replication.router_session_pins", 1)
            if session_id is not None and (
                status == 404 or (method == "DELETE" and status == 200)
            ):
                with self._lock:
                    self._session_pins.pop(session_id, None)
            if isinstance(payload, dict):
                payload = dict(payload)
                payload["replica"] = state.replica.name
            return status, payload, headers
        raise ReplicationError(
            f"every eligible replica failed the session request; "
            f"last error: {last_error}"
        )

    # -- sharded mode ---------------------------------------------------------

    def _shard_starts(self, now: float) -> list[int]:
        """Global start offsets from per-shard database sizes.

        Endpoints must be listed in shard order over a contiguous
        partition (the :func:`~repro.parallel.sharding.shard_database`
        invariant); the router derives each shard's global start as the
        prefix sum of the sizes reported by ``/health``.
        """
        starts = []
        total = 0
        for state in self._states:
            self._refresh_health(state, now)
            if not state.health:
                raise ReplicationError(
                    f"shard {state.replica.name} is unreachable; sharded "
                    f"answers need every shard"
                )
            starts.append(total)
            total += int(state.health["database_size"])
        return starts

    def _query_sharded(
        self, op, pattern, min_support, min_applied_seq,
        sim_threshold, semantics, graph_id, k,
    ) -> dict:
        if op not in _SHARDED_OPS:
            raise QueryRejected(
                f"op {op!r} cannot be answered exactly over "
                f"shard-partitioned stores (shard-local mined sets do "
                f"not merge); sharded routing supports "
                f"{', '.join(_SHARDED_OPS)}"
            )
        if min_applied_seq is not None:
            raise QueryRejected(
                "min_applied_seq is not meaningful across shards (their "
                "WAL offsets are independent)"
            )
        now = time.monotonic()
        starts = self._shard_starts(now)
        if op == "similarity_score":
            return self._score_sharded(starts, pattern, graph_id)
        if op in ("similar", "fuzzy_contains"):
            # Per-shard k must stay unbounded: the globally k-th best
            # score may rank below a shard's local top-k cut.
            kwargs = {
                "sim_threshold": sim_threshold, "semantics": semantics,
            }
            fan_op = op
        else:
            kwargs = {"min_support": min_support}
            fan_op = "graphs"
        futures = [
            self._pool.submit(
                state.replica.query, fan_op, pattern, **kwargs
            )
            for state in self._states
        ]
        answers = []
        for state, future in zip(self._states, futures):
            try:
                answers.append(future.result())
            except QueryRejected:
                raise
            except (ReproError, OSError, ValueError) as exc:
                self._evict(state, time.monotonic(), str(exc))
                raise ReplicationError(
                    f"shard {state.replica.name} failed; sharded answers "
                    f"need every shard: {exc}"
                ) from exc
        self.metrics.add("replication.router_shard_merges", 1)
        if op == "similar":
            # Scores depend only on (pattern, graph, taxonomy), so
            # re-basing shard-local ids and re-sorting is an exact merge.
            scored = [
                [int(gid) + start, score]
                for answer, start in zip(answers, starts)
                for gid, score in answer["value"]
            ]
            scored.sort(key=lambda entry: (-entry[1], entry[0]))
            value: object = scored if k is None else scored[:k]
        else:
            merged = merge_support_sets(
                [answer["value"]["graph_ids"] for answer in answers],
                starts,
            )
            if op == "support":
                value = len(merged)
            else:
                value = {
                    "support": len(merged),
                    "graph_ids": sorted(merged),
                    # Cross-shard occurrence ids live in different class-
                    # local spaces; exact occurrence merging is the
                    # parallel miner's job, not the router's.
                    "occurrences": None,
                    "path": "sharded:" + ",".join(
                        str(answer["value"]["path"]) for answer in answers
                    ),
                }
        return {
            "op": op,
            "sharded": True,
            "shards": len(answers),
            "store_versions": [a["store_version"] for a in answers],
            "value": value,
        }

    def _score_sharded(self, starts, pattern, graph_id) -> dict:
        """Route ``similarity_score`` to the one shard owning the id."""
        if graph_id is None:
            raise QueryRejected("similarity_score requires a graph_id")
        sizes = [
            int(state.health["database_size"]) for state in self._states
        ]
        total = starts[-1] + sizes[-1] if starts else 0
        if not 0 <= graph_id < total:
            raise QueryRejected(
                f"graph id {graph_id} is out of range for a database of "
                f"{total} graphs"
            )
        shard = max(
            index for index, start in enumerate(starts)
            if start <= graph_id
        )
        state = self._states[shard]
        try:
            answer = state.replica.query(
                "similarity_score",
                pattern,
                graph_id=graph_id - starts[shard],
            )
        except QueryRejected:
            raise
        except (ReproError, OSError, ValueError) as exc:
            self._evict(state, time.monotonic(), str(exc))
            raise ReplicationError(
                f"shard {state.replica.name} failed; sharded answers "
                f"need every shard: {exc}"
            ) from exc
        self.metrics.add("replication.router_shard_merges", 1)
        return {
            "op": "similarity_score",
            "sharded": True,
            "shards": 1,
            "store_versions": [answer["store_version"]],
            "value": answer["value"],
        }


# -- HTTP face ----------------------------------------------------------------


def _routed_answer(call) -> HTTPResult:
    """Run one router call, mapping its failures to HTTP answers."""
    try:
        return call()
    except QueryRejected as exc:
        return 400, {"error": str(exc)}, {}
    except StaleReplicasError as exc:
        return 429, {"error": str(exc)}, {
            "Retry-After": str(exc.retry_after)
        }
    except ReplicationError as exc:
        return 503, {"error": str(exc)}, {}
    except ReproError as exc:
        return 400, {"error": str(exc)}, {}


def router_routes(router: QueryRouter) -> RouteTable:
    """The router's surface: ``/health``, ``/metrics``, ``/top``,
    ``/query``, ``/similar`` and the session routes, which forward to
    the pinned replica."""

    def routed(**kwargs) -> HTTPResult:
        return _routed_answer(lambda: (200, router.query(**kwargs), {}))

    def handle_health(request: HTTPRequest) -> HTTPResult:
        mode = "sharded" if router.options.sharded else "replicated"
        return 200, {
            "status": "ok",
            "role": "router",
            "mode": mode,
            "replicas": router.replica_states(),
            "session_pins": router.session_pins(),
        }, {}

    def handle_metrics(request: HTTPRequest) -> HTTPResult:
        return 200, router.metrics.as_dict(), {}

    def handle_top(request: HTTPRequest) -> HTTPResult:
        try:
            k = int(request.param("k", "10"))
            min_applied = request.param("min_applied_seq")
            min_applied_seq = (
                None if min_applied is None else int(min_applied)
            )
        except ValueError as exc:
            return 400, {"error": f"malformed request: {exc!r}"}, {}
        return routed(
            op="top_k",
            k=k,
            label_filter=request.param("label"),
            min_applied_seq=min_applied_seq,
        )

    def query_handler(default_op: str, ops: tuple[str, ...] | None):
        def handle(request: HTTPRequest) -> HTTPResult:
            try:
                doc = request.json()
                op = str(doc.get("op", default_op))
                pattern = doc.get("pattern")
                min_support = doc.get("min_support")
                min_applied = doc.get("min_applied_seq")
                threshold = doc.get("threshold")
                semantics = doc.get("semantics")
                k = doc.get("k")
                graph_id = doc.get("graph_id")
                kwargs = {
                    "op": op,
                    "pattern": None if pattern is None else str(pattern),
                    "min_support": (
                        None if min_support is None else float(min_support)
                    ),
                    "min_applied_seq": (
                        None if min_applied is None else int(min_applied)
                    ),
                    "sim_threshold": (
                        None if threshold is None else float(threshold)
                    ),
                    "semantics": (
                        None if semantics is None else str(semantics)
                    ),
                    "k": None if k is None else int(k),
                    "graph_id": None if graph_id is None else int(graph_id),
                }
            except (ValueError, TypeError, KeyError) as exc:
                return 400, {
                    "error": f"malformed query request: {exc!r}"
                }, {}
            if ops is not None and op not in ops:
                return 400, {
                    "error": f"op {op!r} is not a similarity op; expected "
                    f"one of {', '.join(ops)}"
                }, {}
            return routed(**kwargs)

        return handle

    def forward_session(request: HTTPRequest) -> HTTPResult:
        def call() -> HTTPResult:
            status, payload, headers = router.session_request(
                request.method, request.path, request.body or None
            )
            retry_after = headers.get("Retry-After")
            return status, payload, (
                {} if retry_after is None
                else {"Retry-After": str(retry_after)}
            )

        return _routed_answer(call)

    table = RouteTable([
        Endpoint("GET", "/health", "health", "control", handle_health),
        Endpoint("GET", "/metrics", "metrics", "control", handle_metrics),
        Endpoint("GET", "/top", "top", "query", handle_top),
        Endpoint(
            "POST", "/query", "query", "query",
            query_handler("support", None),
        ),
        Endpoint(
            "POST", "/similar", "similar", "query",
            query_handler("similar", _SIMILARITY_OPS),
        ),
    ])
    for method, path, name, kind in SESSION_ROUTES:
        table.add(Endpoint(method, path, name, kind, forward_session))
    return table


class RouterService:
    """The router behind one socket (``taxogram route``)."""

    def __init__(
        self,
        replicas,
        host: str = "127.0.0.1",
        port: int = 0,
        options: RouterOptions | None = None,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.router = QueryRouter(
            replicas, options=options, metrics=metrics, tracer=tracer
        )
        self.metrics = self.router.metrics
        self.server = ThreadedHTTPFront(router_routes(self.router), host, port)

    @property
    def address(self) -> tuple[str, int]:
        return self.server.address

    def serve_forever(self) -> None:
        self.server.serve_forever()

    def close(self) -> None:
        self.server.server_close()
        self.router.close()
