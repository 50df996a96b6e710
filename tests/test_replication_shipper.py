"""Primary-side publishing: manifests, signatures, snapshots.

The shipper is pinned at two levels: :class:`SegmentShipper` directly
against a WAL + store on disk, and the HTTP surface through a real
:class:`PrimaryCore` mounted on one socket (one port serving ingest,
queries and replication at once).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tarfile
import urllib.error
import urllib.request

import pytest

from repro.core.taxogram import Taxogram, TaxogramOptions
from repro.graphs.database import GraphDatabase
from repro.incremental import DatabaseDelta, PatternStore
from repro.replication import (
    PrimaryCore,
    SegmentShipper,
    sign_manifest,
    verify_manifest,
)
from repro.serving import AsyncHTTPFront
from repro.streaming import ApplierOptions, IngestOptions, WriteAheadLog
from repro.taxonomy.builders import taxonomy_from_parent_names

ADD_ONE = "t # 0\nv 0 b\nv 1 c\ne 0 1 x\n"


def _delta(tag: str) -> DatabaseDelta:
    return DatabaseDelta(add_text=f"t # 0\nv 0 {tag}\n")


def _mine_store(tmp_path, names=("x", "x", "y")):
    taxonomy = taxonomy_from_parent_names({"b": "a", "c": "a"})
    db = GraphDatabase(node_labels=taxonomy.interner)
    for name in names:
        db.new_graph(["b", "c"], [(0, 1, name)])
    store_dir = tmp_path / "store"
    Taxogram(
        TaxogramOptions(min_support=0.4, store_out=str(store_dir))
    ).mine(db, taxonomy)
    return store_dir


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
            return response.status, response.read(), dict(response.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read(), dict(exc.headers)


@contextlib.contextmanager
def _serve_primary(tmp_path):
    """A publishing primary core, its running front and its URL."""
    store_dir = _mine_store(tmp_path)
    service = PrimaryCore(
        store_dir,
        tmp_path / "wal",
        secret="hush",
        options=IngestOptions(max_lag_records=64, wait_timeout_seconds=60.0),
        applier_options=ApplierOptions(max_latency_seconds=0.02),
    )
    service.start()
    front = AsyncHTTPFront(service.routes())
    host, port = front.start_background()
    try:
        yield service, front, f"http://{host}:{port}"
    finally:
        front.stop_background()
        service.close()


@pytest.fixture
def primary(tmp_path):
    with _serve_primary(tmp_path) as (service, _front, url):
        yield service, url


class TestManifest:
    def test_shape_watermark_and_versioning(self, tmp_path):
        _mine_store(tmp_path)
        with WriteAheadLog(tmp_path / "wal", segment_max_bytes=1) as wal:
            shipper = SegmentShipper(wal, tmp_path / "store")
            empty = shipper.manifest()
            assert empty["watermark"] == 0
            assert empty["earliest_seq"] == 0
            for d in [_delta("x"), _delta("y"), _delta("z")]:
                wal.append(d)
            doc = shipper.manifest()
            assert doc["watermark"] == 3
            # Shape changed, so the manifest version advanced.
            assert doc["manifest_version"] > empty["manifest_version"]
            again = shipper.manifest()
            assert again["manifest_version"] == doc["manifest_version"]
            # segment_max_bytes=1: every append seals its segment.
            sealed = [s for s in doc["segments"] if s["sealed"]]
            assert len(sealed) == 3
            for entry in sealed:
                assert len(entry["sha256"]) == 64
                data = wal.read_segment_chunk(
                    entry["start_seq"], 0, entry["bytes"]
                )
                assert hashlib.sha256(data).hexdigest() == entry["sha256"]

    def test_signature_roundtrip_and_tamper(self, tmp_path):
        _mine_store(tmp_path)
        with WriteAheadLog(tmp_path / "wal") as wal:
            wal.append(_delta("x"))
            shipper = SegmentShipper(wal, tmp_path / "store", secret="k1")
            doc = shipper.manifest()
        assert verify_manifest(doc, "k1")
        assert not verify_manifest(doc, "k2")
        forged = dict(doc)
        forged["watermark"] = 99
        assert not verify_manifest(forged, "k1")
        assert sign_manifest(forged, "k1") != doc["signature"]

    def test_unsigned_manifest_has_no_signature(self, tmp_path):
        _mine_store(tmp_path)
        with WriteAheadLog(tmp_path / "wal") as wal:
            shipper = SegmentShipper(wal, tmp_path / "store")
            assert "signature" not in shipper.manifest()


class TestSnapshot:
    def test_snapshot_restores_an_identical_store(self, tmp_path):
        store_dir = _mine_store(tmp_path)
        with WriteAheadLog(tmp_path / "wal") as wal:
            shipper = SegmentShipper(wal, store_dir)
            version, data = shipper.snapshot()
        restored = tmp_path / "restored"
        restored.mkdir()
        with tarfile.open(fileobj=io.BytesIO(data), mode="r:gz") as archive:
            archive.extractall(restored)
        # Byte-identical file set, and it opens checksum-clean.
        originals = {
            p.relative_to(store_dir): p.read_bytes()
            for p in store_dir.rglob("*")
            if p.is_file()
        }
        copies = {
            p.relative_to(restored): p.read_bytes()
            for p in restored.rglob("*")
            if p.is_file()
        }
        assert copies == originals
        store = PatternStore.open(restored)
        assert store.store_version == version


class TestPrimaryHTTP:
    def test_manifest_over_http_is_signed(self, primary):
        _service, url = primary
        status, body, _ = _request(url, "/replication/manifest")
        assert status == 200
        doc = json.loads(body)
        assert verify_manifest(doc, "hush")
        assert doc["watermark"] == 0

    def test_segment_bytes_follow_ingest(self, primary):
        service, url = primary
        for _ in range(3):
            status, body, _ = _request(
                url, "/ingest", {"add": ADD_ONE, "wait": True}
            )
            assert status == 200
        status, body, _ = _request(url, "/replication/manifest")
        doc = json.loads(body)
        assert doc["watermark"] == 3
        entry = doc["segments"][0]
        status, data, _ = _request(
            url,
            f"/replication/segment?start={entry['start_seq']}"
            f"&offset=0&length={entry['bytes']}",
        )
        assert status == 200
        assert len(data) == entry["bytes"]
        # The served bytes are exactly the on-disk segment prefix.
        on_disk = service.wal.read_segment_chunk(
            entry["start_seq"], 0, entry["bytes"]
        )
        assert data == on_disk

    def test_segment_errors_map_to_http_statuses(self, primary):
        _service, url = primary
        status, body, _ = _request(
            url, "/replication/segment?start=42&offset=0&length=10"
        )
        assert status == 404
        status, body, _ = _request(
            url, "/replication/segment?start=abc"
        )
        assert status == 400
        status, body, _ = _request(url, "/replication/nope")
        assert status == 404

    def test_snapshot_over_http_carries_version(self, primary):
        _service, url = primary
        status, data, headers = _request(url, "/replication/snapshot")
        assert status == 200
        assert int(headers["X-Store-Version"]) >= 1
        with tarfile.open(fileobj=io.BytesIO(data), mode="r:gz") as archive:
            assert "manifest.json" in archive.getnames()

    def test_health_reports_primary_role_and_liveness(self, primary):
        _service, url = primary
        status, body, _ = _request(url, "/health")
        doc = json.loads(body)
        assert doc["role"] == "primary"
        assert doc["applier_alive"] is True
        assert doc["journaled_seq"] == -1
        _request(url, "/ingest", {"add": ADD_ONE, "wait": True})
        status, body, _ = _request(url, "/health")
        doc = json.loads(body)
        assert doc["applied_seq"] == 0
        assert doc["journaled_seq"] == 0
        assert doc["lag"] == 0
