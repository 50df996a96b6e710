"""The thread-per-request JSON/HTTP transport for a :class:`RouteTable`.

:class:`ThreadedHTTPFront` is a :class:`ThreadingHTTPServer` that
dispatches every request through a route table built in
:mod:`repro.serving.endpoints` (or :func:`repro.replication.router.
router_routes`), so it answers byte-identically to the asyncio
:class:`~repro.serving.aserver.AsyncHTTPFront` mounting the same table.

Followers and the query router run on it: a follower's CPU-bound
replay thread shares the interpreter with the front, and under that
load the event loop answered slower than one thread per request.
Unknown paths are 404; a malformed ``Content-Length`` is 400 with the
same JSON error the asyncio front sends.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro.serving.endpoints import (
    HTTPRequest,
    RouteTable,
    content_length,
    not_found,
)

__all__ = ["ThreadedHTTPFront"]


class ThreadedHTTPFront(ThreadingHTTPServer):
    """One route table shared by every request-handler thread.

    Binds on construction (``port=0`` picks a free port); the caller
    drives it with ``serve_forever()`` or ``handle_request()``.
    """

    daemon_threads = True

    def __init__(
        self, routes: RouteTable, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        super().__init__((host, port), _RouteRequestHandler)
        self.routes = routes

    @property
    def address(self) -> tuple[str, int]:
        return self.server_address[0], self.server_address[1]


class _RouteRequestHandler(BaseHTTPRequestHandler):
    server: ThreadedHTTPFront

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # keep test and CLI output deterministic

    def _send(
        self, status: int, payload: object, headers: dict | None = None
    ) -> None:
        if isinstance(payload, (bytes, bytearray)):
            body = bytes(payload)
            content_type = "application/octet-stream"
        else:
            body = json.dumps(payload, indent=2).encode("utf-8")
            content_type = "application/json"
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _dispatch(self, method: str) -> None:
        try:
            length = content_length(self.headers.get("Content-Length"))
        except ValueError as exc:
            self._send(400, {"error": str(exc)})
            return
        parsed = urlparse(self.path)
        endpoint, path_args = self.server.routes.match(method, parsed.path)
        if endpoint is None:
            path = parsed.path if method == "GET" else self.path
            self._send(*not_found(path))
            return
        body = self.rfile.read(length) if length else b""
        request = HTTPRequest(
            method=method,
            path=parsed.path,
            params=parse_qs(parsed.query),
            body=body,
            path_args=path_args,
        )
        status, payload, headers = endpoint.handler(request)
        self._send(status, payload, headers)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("POST")

    def do_DELETE(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("DELETE")
