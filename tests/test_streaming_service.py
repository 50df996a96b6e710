"""HTTP-level tests for the live ingest service.

The service is exercised for real: an :class:`IngestCore` mounted on an
:class:`AsyncHTTPFront` running on a background thread, requests
through ``urllib`` against the ephemeral port.  Covers
acknowledgement vs read-your-writes, backpressure shedding, flush, lag
reporting, per-record rejection visibility, and that the PR-4 query
endpoints keep answering (against committed versions) while ingest is
live.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.core.taxogram import Taxogram, TaxogramOptions
from repro.graphs.database import GraphDatabase
from repro.serving import AsyncHTTPFront
from repro.streaming import ApplierOptions, IngestCore, IngestOptions
from repro.taxonomy.builders import taxonomy_from_parent_names

ADD_ONE = "t # 0\nv 0 b\nv 1 c\ne 0 1 x\n"


def _request(url, path, doc=None):
    if doc is None:
        req = urllib.request.Request(url + path)
    else:
        req = urllib.request.Request(
            url + path,
            json.dumps(doc).encode("utf-8"),
            {"Content-Type": "application/json"},
        )
    try:
        with urllib.request.urlopen(req, timeout=30) as response:
            return response.status, json.loads(response.read()), response
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), exc


@pytest.fixture
def service(tmp_path):
    taxonomy = taxonomy_from_parent_names({"b": "a", "c": "a"})
    db = GraphDatabase(node_labels=taxonomy.interner)
    for name in ["x", "x", "y"]:
        db.new_graph(["b", "c"], [(0, 1, name)])
    store_dir = tmp_path / "store"
    Taxogram(
        TaxogramOptions(min_support=0.4, store_out=str(store_dir))
    ).mine(db, taxonomy)
    service = IngestCore(
        store_dir,
        tmp_path / "wal",
        options=IngestOptions(max_lag_records=4, wait_timeout_seconds=60.0),
        applier_options=ApplierOptions(max_latency_seconds=0.02),
    )
    service.start()
    front = AsyncHTTPFront(service.routes())
    host, port = front.start_background()
    try:
        yield service, f"http://{host}:{port}"
    finally:
        front.stop_background()
        service.close()


class TestIngest:
    def test_ack_without_wait(self, service):
        svc, url = service
        status, doc, _ = _request(url, "/ingest", {"add": ADD_ONE})
        assert status == 202
        assert doc["seq"] == 0
        assert doc["applied"] is False
        # Durably journaled even before application.
        assert svc.wal.last_seq == 0

    def test_read_your_writes(self, service):
        svc, url = service
        before = svc.reader.version
        status, doc, _ = _request(
            url, "/ingest", {"add": ADD_ONE, "wait": True}
        )
        assert status == 200
        assert doc["applied"] is True
        assert doc["store_version"] > before
        status, doc, _ = _request(
            url, "/query", {"op": "support", "pattern": ADD_ONE}
        )
        assert status == 200
        assert doc["value"] == 3  # two seed x-graphs + the ingested one

    def test_remove_roundtrip(self, service):
        svc, url = service
        status, _, _ = _request(
            url, "/ingest", {"remove": [0], "wait": True}
        )
        assert status == 200
        status, doc, _ = _request(url, "/health")
        assert doc["database_size"] == 2

    def test_empty_delta_rejected(self, service):
        _, url = service
        status, doc, _ = _request(url, "/ingest", {})
        assert status == 400
        assert "empty" in doc["error"]

    def test_malformed_body_rejected(self, service):
        _, url = service
        status, _, _ = _request(url, "/ingest", {"remove": ["x"]})
        assert status == 400
        status, _, _ = _request(url, "/ingest", {"remove": [0, 0]})
        assert status == 400

    def test_rejected_record_reported_in_lag(self, service):
        _, url = service
        bad = "t # 0\nv 0 nope\n"
        status, _, _ = _request(url, "/ingest", {"add": bad, "wait": True})
        assert status == 200  # journaled and applied (as a rejection)
        _, doc, _ = _request(url, "/lag")
        assert doc["rejected_records"] == 1
        assert doc["lag"] == 0


class TestBackpressure:
    def test_sheds_with_429_when_backlog_full(self, tmp_path):
        taxonomy = taxonomy_from_parent_names({"b": "a", "c": "a"})
        db = GraphDatabase(node_labels=taxonomy.interner)
        for name in ["x", "x", "y"]:
            db.new_graph(["b", "c"], [(0, 1, name)])
        store_dir = tmp_path / "store"
        Taxogram(
            TaxogramOptions(min_support=0.4, store_out=str(store_dir))
        ).mine(db, taxonomy)
        service = IngestCore(
            store_dir,
            tmp_path / "wal",
            options=IngestOptions(max_lag_records=2),
        )
        # Applier deliberately NOT started: the backlog can only grow.
        front = AsyncHTTPFront(service.routes())
        host, port = front.start_background()
        url = f"http://{host}:{port}"
        try:
            assert _request(url, "/ingest", {"add": ADD_ONE})[0] == 202
            assert _request(url, "/ingest", {"add": ADD_ONE})[0] == 202
            status, doc, response = _request(
                url, "/ingest", {"add": ADD_ONE}
            )
            assert status == 429
            assert doc["lag"] == 2
            assert response.headers.get("Retry-After") == "1"
            # Nothing was journaled for the shed request.
            assert service.wal.last_seq == 1
            _, doc, _ = _request(url, "/lag")
            assert doc["lag"] == 2
        finally:
            front.stop_background()
            service.close(drain=False)

    def test_flush_clears_backlog(self, service):
        svc, url = service
        for _ in range(3):
            assert _request(url, "/ingest", {"add": ADD_ONE})[0] == 202
        status, doc, _ = _request(url, "/flush", {})
        assert status == 200
        assert doc["applied_seq"] == 2
        _, doc, _ = _request(url, "/lag")
        assert doc["lag"] == 0


class TestServingSurface:
    def test_query_endpoints_still_served(self, service):
        _, url = service
        assert _request(url, "/health")[0] == 200
        assert _request(url, "/top?k=2")[0] == 200
        status, doc, _ = _request(url, "/metrics")
        assert status == 200
        assert "counters" in doc

    def test_unknown_paths_are_404(self, service):
        _, url = service
        assert _request(url, "/nope")[0] == 404
        assert _request(url, "/nope", {})[0] == 404

    def test_streaming_metrics_exposed(self, service):
        svc, url = service
        _request(url, "/ingest", {"add": ADD_ONE, "wait": True})
        assert svc.metrics.counter("streaming.wal_appends") == 1
        assert svc.metrics.counter("streaming.batches_applied") >= 1
        assert svc.metrics.counter("streaming.ingest_accepted") == 1


class TestDiskFull:
    """ENOSPC on the WAL volume mid-run: every affected ingest must be
    answered 429 + ``Retry-After`` (back-pressure, nothing acked), the
    log must stay byte-identical, and service must resume untouched
    once space frees up — a 500 or a lost ack is a contract breach."""

    def test_enospc_sheds_429_and_resumes_clean(self, tmp_path, monkeypatch):
        from repro.loadtest.faults import disk_full

        control = tmp_path / "faults.json"
        disk_full(control, False)
        monkeypatch.setenv("REPRO_FAULTPOINTS_FILE", str(control))

        taxonomy = taxonomy_from_parent_names({"b": "a", "c": "a"})
        db = GraphDatabase(node_labels=taxonomy.interner)
        for name in ["x", "x", "y"]:
            db.new_graph(["b", "c"], [(0, 1, name)])
        store_dir = tmp_path / "store"
        Taxogram(
            TaxogramOptions(min_support=0.4, store_out=str(store_dir))
        ).mine(db, taxonomy)
        service = IngestCore(
            store_dir,
            tmp_path / "wal",
            applier_options=ApplierOptions(max_latency_seconds=0.02),
        )
        service.start()
        front = AsyncHTTPFront(service.routes())
        host, port = front.start_background()
        url = f"http://{host}:{port}"
        try:
            assert _request(url, "/ingest", {"add": ADD_ONE})[0] == 202

            disk_full(control, True)
            status, doc, response = _request(
                url, "/ingest", {"add": ADD_ONE}
            )
            assert status == 429
            assert "WAL volume" in doc["error"]
            assert response.headers.get("Retry-After") == "1"
            # Nothing acked, nothing journaled for the shed request.
            assert service.wal.last_seq == 0
            assert service.metrics.counter("streaming.ingest_disk_full") == 1
            # Queries keep answering while ingest sheds.
            assert _request(url, "/health")[0] == 200

            disk_full(control, False)
            status, doc, _ = _request(
                url, "/ingest", {"add": ADD_ONE, "wait": True}
            )
            assert (status, doc["seq"]) == (200, 1)
        finally:
            front.stop_background()
            service.close(drain=False)
