"""The asyncio serving front-end: async accept, pooled compute.

The threaded transport (:mod:`repro.serving.server`) spends one OS
thread per in-flight request; under heavy fan-in the thread explosion —
not the bit-set math — is what falls over first, and its only defense
is the ingest path's fixed lag cliff.  This front, which ``serve`` and
``ingest --serve`` run on, keeps the *compute* exactly as blocking and
batch-friendly as the threaded one but moves *accept/parse/respond*
onto one event loop:

* connections are accepted and HTTP/1.1 requests parsed by
  ``asyncio.start_server`` coroutines — thousands of idle or slow
  connections cost bytes, not threads;
* each admitted request runs its (blocking, shared-with-the-threaded-
  front) :mod:`repro.serving.endpoints` handler on a bounded
  ``ThreadPoolExecutor`` via ``run_in_executor``, capped per endpoint
  kind by an ``asyncio.Semaphore``;
* *before* queueing, an :class:`~repro.serving.admission.
  AdmissionController` may shed the request with 429 and a jittered
  ``Retry-After`` — queue-depth and lag pressure shed probabilistically
  instead of at a cliff, and control endpoints (health/metrics/lag/
  flush) are never shed, so the server stays observable and drainable
  at any load;
* per-kind :class:`~repro.observability.metrics.LatencyHistogram`\\ s
  record end-to-end request latency, surfaced as a ``front`` block on
  ``GET /metrics``.

Response bodies are byte-identical to the threaded transport for
every shared endpoint (same ``json.dumps(..., indent=2)``), so a route
table answers the same whichever transport mounts it.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import threading
from concurrent.futures import ThreadPoolExecutor
from http.client import responses as _HTTP_REASONS
from pathlib import Path
from urllib.parse import parse_qs, urlparse

from repro.observability.metrics import LatencyHistogram
from repro.serving.admission import (
    ENDPOINT_KINDS,
    AdmissionController,
)
from repro.serving.endpoints import (
    HTTPRequest,
    RouteTable,
    content_length,
    not_found,
    serving_routes,
)
from repro.serving.reader import StoreReader

__all__ = ["AsyncHTTPFront", "serve_async"]

# Parse limit: a header section larger than this is hostile, not load.
_MAX_HEADER_BYTES = 32 * 1024


class _BadRequest(Exception):
    """The bytes on the wire are not a parseable HTTP/1.1 request."""


class AsyncHTTPFront:
    """One event loop, one route table, one bounded compute pool.

    ``routes`` is owned by the front (its ``GET /metrics`` handler is
    decorated in place).  ``admission=None`` disables shedding — every
    request is admitted, still bounded by the per-kind semaphores.
    ``max_requests`` stops the front after N responses (testing aid,
    backs the CLI's ``--max-requests``).

    Drive it either natively (``await start()`` /
    ``await serve_until_stopped()`` inside a running loop) or from
    synchronous code via :meth:`start_background` /
    :meth:`stop_background`, which run the loop on a daemon thread.
    """

    def __init__(
        self,
        routes: RouteTable,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        admission: AdmissionController | None = None,
        max_workers: int | None = None,
        max_requests: int | None = None,
    ) -> None:
        self.routes = routes
        self.admission = admission
        self.max_requests = max_requests
        self.host = host
        self.port = port
        if max_workers is None:
            if admission is not None:
                max_workers = sum(
                    admission.limits.concurrency(kind)
                    for kind in ENDPOINT_KINDS
                )
            else:
                max_workers = 16
        self.max_workers = max(1, min(64, max_workers))
        self.latency = {kind: LatencyHistogram() for kind in ENDPOINT_KINDS}
        self.handled = 0
        self.errors = 0
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._stop_requested = False
        self._server: asyncio.AbstractServer | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._semaphores: dict[str, asyncio.Semaphore] = {}
        self._clients: set[asyncio.Task] = set()
        self._thread: threading.Thread | None = None
        self._thread_error: list[BaseException] = []
        self._decorate_metrics()

    # -- observability --------------------------------------------------------

    def stats(self) -> dict:
        """The front's own counters for ``/metrics`` and reports."""
        payload: dict = {
            "requests": self.handled,
            "internal_errors": self.errors,
            "latency": {
                kind: hist.as_dict() for kind, hist in self.latency.items()
            },
        }
        if self.admission is not None:
            payload["admission"] = self.admission.snapshot()
        return payload

    def _decorate_metrics(self) -> None:
        if self.routes.resolve("GET", "/metrics") is None:
            return

        def wrap(current):
            def handler(request: HTTPRequest):
                status, payload, headers = current.handler(request)
                if isinstance(payload, dict):
                    payload = dict(payload)
                    payload["front"] = self.stats()
                return status, payload, headers

            return handler

        self.routes.replace("GET", "/metrics", wrap)

    # -- native asyncio API ---------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Bind the socket; returns the bound ``(host, port)``."""
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        if self._stop_requested:
            self._stop.set()
        limits = self.admission.limits if self.admission else None
        for kind in ENDPOINT_KINDS:
            bound = limits.concurrency(kind) if limits else 16
            self._semaphores[kind] = asyncio.Semaphore(bound)
        self._executor = ThreadPoolExecutor(
            max_workers=self.max_workers, thread_name_prefix="aserve"
        )
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port
        )
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        return self.host, self.port

    async def serve_until_stopped(self) -> None:
        """Accept until :meth:`request_stop` (or ``max_requests``)."""
        assert self._stop is not None and self._server is not None
        await self._stop.wait()
        self._server.close()
        await self._server.wait_closed()
        # Let in-flight requests finish writing, then drop stragglers.
        pending = [task for task in self._clients if not task.done()]
        if pending:
            await asyncio.wait(pending, timeout=5.0)
        for task in self._clients:
            if not task.done():
                task.cancel()

    async def shutdown(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
        if self._server is not None:
            self._server.close()
            self._server = None

    def request_stop(self) -> None:
        """Thread-safe: unblock :meth:`serve_until_stopped`.  Sticky —
        a stop requested before :meth:`start` takes effect on start."""
        self._stop_requested = True
        loop, stop = self._loop, self._stop
        if loop is not None and stop is not None and not loop.is_closed():
            loop.call_soon_threadsafe(stop.set)

    # -- background-thread helpers (tests, sync callers) ----------------------

    def start_background(self, timeout: float = 30.0) -> tuple[str, int]:
        """Run the front on a daemon thread; returns the bound address."""
        ready = threading.Event()

        async def _main() -> None:
            try:
                await self.start()
            except BaseException as exc:  # surface bind errors
                self._thread_error.append(exc)
                ready.set()
                return
            ready.set()
            try:
                await self.serve_until_stopped()
            finally:
                await self.shutdown()

        self._thread = threading.Thread(
            target=lambda: asyncio.run(_main()), daemon=True
        )
        self._thread.start()
        if not ready.wait(timeout):
            raise RuntimeError("async front did not start in time")
        if self._thread_error:
            # Surface bind failures (port in use, bad host) as their
            # original exception type, as a blocking bind would.
            raise self._thread_error[0]
        return self.host, self.port

    def stop_background(self, timeout: float = 30.0) -> None:
        self.request_stop()
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None

    # -- connection handling --------------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._clients.add(task)
            task.add_done_callback(self._clients.discard)
        try:
            while True:
                try:
                    request, keep_alive = await self._read_request(reader)
                except _BadRequest as exc:
                    await self._write_response(
                        writer, 400, {"error": str(exc)}, {}, False
                    )
                    break
                if request is None:
                    break
                status, payload, headers = await self._process(request)
                await self._write_response(
                    writer, status, payload, headers, keep_alive
                )
                self.handled += 1
                if (
                    self.max_requests is not None
                    and self.handled >= self.max_requests
                ):
                    self.request_stop()
                    break
                if not keep_alive:
                    break
        except (
            ConnectionError,
            asyncio.IncompleteReadError,
            asyncio.CancelledError,
        ):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[HTTPRequest | None, bool]:
        try:
            line = await reader.readline()
        except (ValueError, asyncio.LimitOverrunError) as exc:
            raise _BadRequest(f"request line too long: {exc}") from exc
        if not line:
            return None, False
        parts = line.decode("latin-1").strip().split()
        if len(parts) < 2:
            raise _BadRequest(f"malformed request line {line!r}")
        method, target = parts[0].upper(), parts[1]
        version = parts[2] if len(parts) > 2 else "HTTP/1.1"
        headers: dict[str, str] = {}
        header_bytes = 0
        while True:
            try:
                raw = await reader.readline()
            except (ValueError, asyncio.LimitOverrunError) as exc:
                raise _BadRequest(f"header line too long: {exc}") from exc
            if raw in (b"\r\n", b"\n", b""):
                break
            header_bytes += len(raw)
            if header_bytes > _MAX_HEADER_BYTES:
                raise _BadRequest("header section too large")
            name, _sep, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = content_length(headers.get("content-length"))
        except ValueError as exc:
            raise _BadRequest(str(exc)) from exc
        body = b""
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError as exc:
                raise _BadRequest("request body truncated") from exc
        parsed = urlparse(target)
        connection = headers.get("connection", "").lower()
        keep_alive = (
            connection == "keep-alive"
            or (version == "HTTP/1.1" and connection != "close")
        )
        request = HTTPRequest(
            method=method,
            path=parsed.path,
            params=parse_qs(parsed.query),
            body=body,
        )
        return request, keep_alive

    async def _process(self, request: HTTPRequest):
        endpoint, path_args = self.routes.match(request.method, request.path)
        if endpoint is None:
            return not_found(request.path)
        if path_args:
            request = dataclasses.replace(request, path_args=path_args)
        if self.admission is not None:
            decision = self.admission.try_admit(endpoint.kind)
            if not decision.admitted:
                retry = decision.retry_after
                return 429, {
                    "error": "server over capacity",
                    "reason": decision.reason,
                    "retry_after": round(retry, 3),
                }, {"Retry-After": f"{retry:.3f}"}
        loop = asyncio.get_running_loop()
        start = loop.time()
        try:
            async with self._semaphores[endpoint.kind]:
                try:
                    future = loop.run_in_executor(
                        self._executor, endpoint.handler, request
                    )
                except RuntimeError:
                    # Submission failed: executor shutting down.  A
                    # handler's own RuntimeError takes the 500 path.
                    self.errors += 1
                    future = None
                if future is None:
                    result = (
                        503, {"error": "server is shutting down"}, {}
                    )
                else:
                    result = await future
        except Exception as exc:
            self.errors += 1
            result = (500, {"error": f"internal server error: {exc!r}"}, {})
        finally:
            if self.admission is not None:
                self.admission.release(endpoint.kind)
        self.latency[endpoint.kind].observe(loop.time() - start)
        return result

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: object,
        headers: dict,
        keep_alive: bool,
    ) -> None:
        if isinstance(payload, (bytes, bytearray)):
            body = bytes(payload)
            content_type = "application/octet-stream"
        else:
            body = json.dumps(payload, indent=2).encode("utf-8")
            content_type = "application/json"
        reason = _HTTP_REASONS.get(status, "Unknown")
        head = [f"HTTP/1.1 {status} {reason}"]
        head.append(f"Content-Type: {content_type}")
        head.append(f"Content-Length: {len(body)}")
        head.append(
            "Connection: keep-alive" if keep_alive else "Connection: close"
        )
        for name, value in headers.items():
            head.append(f"{name}: {value}")
        writer.write(
            ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body
        )
        await writer.drain()


def serve_async(
    store_dir: str | Path,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    admission: AdmissionController | None = None,
    max_requests: int | None = None,
    sessions=True,
) -> tuple[AsyncHTTPFront, StoreReader]:
    """An async front over a read-only store (``taxogram serve``).

    Returns the (unstarted) front and its reader.  ``sessions`` mounts
    the interactive-session surface: ``True`` builds a default
    :class:`~repro.sessions.manager.SessionManager` over the reader, a
    manager instance is used as-is, and ``False``/``None`` disables the
    surface.  The manager (if any) is exposed as ``front.sessions``.
    """
    from repro.serving.endpoints import session_routes
    from repro.sessions.manager import SessionManager

    reader = StoreReader(store_dir)
    routes = serving_routes(reader, role="standalone")
    manager = None
    if sessions is True:
        manager = SessionManager(reader)
    elif sessions:
        manager = sessions
    if manager is not None:
        routes.merge(session_routes(manager))
    front = AsyncHTTPFront(
        routes,
        host,
        port,
        admission=admission,
        max_requests=max_requests,
    )
    front.sessions = manager
    return front, reader
