"""Differential harness: routed answers are bit-identical to a
single-store reader.

The replication tier's correctness claim is exactness, not
best-effort: a query routed through replicas must return bytes that a
:class:`~repro.serving.reader.StoreReader` over the same store state
would have produced — at every committed version a catching-up
follower passes through, and under live ingest.
"""

from __future__ import annotations

import json
import shutil
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.replication import (
    Follower,
    FollowerOptions,
    FollowerService,
    HTTPReplica,
    LocalReplica,
    QueryRouter,
    RouterService,
)
from repro.serving import StoreReader, value_payload
from repro.streaming import ApplierOptions
from tests.test_replication_follower import _unapplied_primary
from tests.test_replication_shipper import (
    ADD_ONE,
    _mine_store,
    _request,
    primary,  # noqa: F401 - fixture re-export
)

GENERAL = "t # 0\nv 0 a\nv 1 a\ne 0 1 x\n"
PATTERNS = [
    GENERAL,  # generalized labels
    ADD_ONE,  # concrete mined pattern
    "t # 0\nv 0 b\nv 1 c\ne 0 1 y\n",  # different edge label
    "t # 0\nv 0 c\nv 1 c\ne 0 1 x\n",  # vf2 fallback territory
]
OPS = ("support", "contains", "graphs", "specializations")


def _canon(value) -> bytes:
    return json.dumps(value, sort_keys=True).encode("utf-8")


def _assert_bit_identical(router: QueryRouter, reader: StoreReader) -> None:
    """Every op, every probe pattern: routed bytes == direct bytes."""
    for pattern in PATTERNS:
        parsed = reader.parse_pattern(pattern)
        for op in OPS:
            routed = router.query(op, pattern)
            direct = reader.query(op, parsed)
            assert _canon(routed["value"]) == _canon(
                value_payload(reader, op, direct.value)
            ), f"{op} diverged on {pattern!r}"
    routed = router.query("top_k", k=5)
    direct = reader.query("top_k", None, k=5)
    assert _canon(routed["value"]) == _canon(
        value_payload(reader, "top_k", direct.value)
    )


class TestStaticIdentity:
    def test_replica_copies_answer_identically(self, tmp_path):
        store = _mine_store(tmp_path)
        copy = tmp_path / "copy"
        shutil.copytree(store, copy)
        router = QueryRouter(
            [LocalReplica(store), LocalReplica(copy)]
        )
        _assert_bit_identical(router, StoreReader(store))
        router.close()


class TestCatchUpIdentity:
    def test_every_intermediate_version_answers_identically(
        self, tmp_path
    ):
        """Step a follower through its catch-up batch by batch; at each
        committed version, answers routed to it must be bit-identical
        to a fresh reader over its store."""
        service, url, front = _unapplied_primary(tmp_path, 6)
        try:
            with Follower(
                tmp_path / "replica",
                tmp_path / "rwal",
                url,
                options=FollowerOptions(poll_interval_seconds=0.02),
                applier_options=ApplierOptions(max_batch_records=2),
            ) as follower:
                follower.sync_once()
                versions_checked = 0
                while True:
                    router = QueryRouter(
                        [LocalReplica(tmp_path / "replica")]
                    )
                    _assert_bit_identical(
                        router, StoreReader(tmp_path / "replica")
                    )
                    router.close()
                    versions_checked += 1
                    if not follower.applier.apply_next_batch():
                        break
                assert follower.lag() == 0
                # 6 records in batches of <= 2: at least 4 distinct
                # committed versions were exercised.
                assert versions_checked >= 4
        finally:
            front.stop_background()
            service.close()


class TestLiveIngestIdentity:
    def test_routed_reads_follow_live_ingest(self, primary, tmp_path):
        """Live ingest into the primary with two followers catching up
        behind a router: read-your-writes via min_applied_seq, then
        full-fleet bit-identity once everyone converges."""
        _service, url = primary
        followers, fthreads = [], []
        router_service = None
        rthread = None
        try:
            for i in range(2):
                fsvc = FollowerService(
                    tmp_path / f"replica{i}",
                    tmp_path / f"rwal{i}",
                    url,
                    port=0,
                    options=FollowerOptions(poll_interval_seconds=0.02),
                    applier_options=ApplierOptions(
                        max_latency_seconds=0.02
                    ),
                )
                fsvc.start()
                thread = threading.Thread(
                    target=fsvc.serve_forever, daemon=True
                )
                thread.start()
                followers.append(fsvc)
                fthreads.append(thread)
            urls = [
                f"http://{f.address[0]}:{f.address[1]}" for f in followers
            ]
            router_service = RouterService(
                [HTTPReplica(u) for u in urls], port=0
            )
            rthread = threading.Thread(
                target=router_service.serve_forever, daemon=True
            )
            rthread.start()
            rhost, rport = router_service.address
            rurl = f"http://{rhost}:{rport}"

            supports = []
            for _ in range(5):
                status, body, _ = _request(url, "/ingest", {"add": ADD_ONE})
                assert status in (200, 202)
                seq = json.loads(body)["seq"]
                # Read-your-writes: retry on 429 until a replica that
                # has applied our write serves the query.
                deadline = time.monotonic() + 30
                while True:
                    status, body, headers = _request(
                        rurl,
                        "/query",
                        {
                            "op": "support",
                            "pattern": GENERAL,
                            "min_applied_seq": seq,
                        },
                    )
                    if status == 200:
                        break
                    assert status == 429
                    assert headers["Retry-After"] == "1"
                    assert time.monotonic() < deadline, "never caught up"
                    time.sleep(0.05)
                supports.append(json.loads(body)["value"])
            # Each ingested graph adds one supporting graph; serving a
            # replica that applied write k means >= k+1 of them landed.
            base = supports[0]
            for i, value in enumerate(supports):
                assert value >= base + i
            # Convergence: wait for both followers to reach the final
            # write, then the routed answer must be byte-identical to
            # the primary's own store.
            final_seq = 4
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if all(
                    f.follower.applied_seq >= final_seq for f in followers
                ):
                    break
                time.sleep(0.05)
            router = QueryRouter(
                [LocalReplica(tmp_path / "replica0")]
            )
            _assert_bit_identical(
                router, StoreReader(_service.applier.store_dir)
            )
            router.close()
        finally:
            if router_service is not None:
                router_service.server.shutdown()
                rthread.join(timeout=10)
                router_service.close()
            for fsvc, thread in zip(followers, fthreads):
                fsvc.server.shutdown()
                thread.join(timeout=10)
                fsvc.close()
