"""Crash-recovery differential tests: ``kill -9`` the applier anywhere.

A worker subprocess drains a prepared WAL batch by batch while the
parent SIGKILLs it at randomized instants — during shadow copies,
incremental applies, swaps, or between batches.  Each kill delay is
drawn after the worker reports that it started applying, so the kills
land mid-apply however long the interpreter takes to start.  After
every kill the parent asserts the recovery invariant (the store
directory repairs to a complete, checksum-clean store) and relaunches;
once the WAL is fully applied, the surviving store must be
semantically identical to offline one-by-one application of the same
records — same database, class codes, live occurrences, and negative
border.

The in-process test at the bottom covers the reader side: queries
running concurrently with live batches only ever observe committed
versions, monotonically.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.taxogram import Taxogram, TaxogramOptions
from repro.graphs.database import GraphDatabase
from repro.incremental import DatabaseDelta, PatternStore
from repro.serving import StoreReader
from repro.streaming import (
    ApplierOptions,
    StreamApplier,
    WriteAheadLog,
    recover_store,
)
from repro.taxonomy.builders import taxonomy_from_parent_names
from tests.test_streaming_applier import _offline_replay, _store_digest

_WORKER = """
import sys, time
from repro.streaming import ApplierOptions, StreamApplier, WriteAheadLog

store_dir, wal_dir = sys.argv[1], sys.argv[2]
with WriteAheadLog(wal_dir) as wal:
    applier = StreamApplier(
        store_dir, wal, ApplierOptions(max_batch_records=2)
    )
    print("applying", flush=True)
    while applier.apply_next_batch():
        time.sleep(0.03)
print("drained", applier.applied_seq)
"""


def _build_case(tmp_path, seed):
    """A mined seed store plus a randomized WAL of adds and removes."""
    rng = random.Random(seed)
    taxonomy = taxonomy_from_parent_names({"b": "a", "c": "a", "d": "b"})

    def edge_db(names, nodes=("b", "c")):
        db = GraphDatabase(node_labels=taxonomy.interner)
        for name in names:
            db.new_graph(list(nodes), [(0, 1, name)])
        return db

    store_dir = tmp_path / "store"
    Taxogram(
        TaxogramOptions(min_support=0.3, store_out=str(store_dir))
    ).mine(db := edge_db(["x", "x", "y", "y", "x"]), taxonomy)
    del db
    records = []
    labels = ["x", "y", "w"]
    nodes_pool = [("b", "c"), ("d", "c"), ("b", "ghost")]  # ghost -> reject
    for _ in range(10):
        if rng.random() < 0.6:
            names = [rng.choice(labels) for _ in range(rng.randint(1, 2))]
            records.append(
                DatabaseDelta.adding(edge_db(names, rng.choice(nodes_pool)))
            )
        else:
            ids = rng.sample(range(10), rng.randint(1, 2))  # some invalid
            records.append(DatabaseDelta.removing(ids))
    with WriteAheadLog(tmp_path / "wal") as wal:
        for record in records:
            wal.append(record)
    return store_dir, tmp_path / "wal", records


def _run_with_kills(tmp_path, store_dir, wal_dir, rng, max_rounds=40):
    worker = tmp_path / "worker.py"
    worker.write_text(_WORKER)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    kills = 0
    for _ in range(max_rounds):
        proc = subprocess.Popen(
            [sys.executable, str(worker), str(store_dir), str(wal_dir)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            # Unbuffered: readline() below must not pull later output
            # into a buffer that communicate() does not see.
            bufsize=0,
        )
        # Blocks until the worker starts applying (or exits early).  A
        # full drain of the 10-record WAL pauses 30 ms after each of its
        # five batches, so a delay under 0.15 s lands mid-drain on any
        # machine; resumed workers drain less and may finish first.
        proc.stdout.readline()
        time.sleep(rng.uniform(0.0, 0.15))
        if proc.poll() is None:
            proc.kill()
            proc.wait()
            kills += 1
        else:
            stdout, stderr = proc.communicate()
            assert proc.returncode == 0, stderr.decode()
            assert b"drained" in stdout
            return kills
        # The crash invariant: whatever instant the kill landed, the
        # store repairs to a complete, checksum-clean state and the WAL
        # reopens (repairing a torn tail at worst).
        recover_store(store_dir)
        PatternStore.open(store_dir)
        WriteAheadLog(wal_dir).close()
    pytest.fail("worker never completed the WAL")


def test_sigkill_at_random_points_recovers_bit_identical(tmp_path):
    store_dir, wal_dir, records = _build_case(tmp_path, seed=1)
    oracle = _offline_replay(store_dir, tmp_path / "oracle", records)
    rng = random.Random(2)
    kills = _run_with_kills(tmp_path, store_dir, wal_dir, rng)
    assert _store_digest(store_dir) == _store_digest(oracle)
    # The store's committed offset reached the end of the journal.
    with WriteAheadLog(wal_dir) as wal:
        applier = StreamApplier(store_dir, wal)
        assert applier.lag == 0
        assert applier.drain() == 0
    assert kills >= 1, "no kill ever interrupted the worker"


@pytest.mark.slow
@pytest.mark.parametrize("seed", [3, 4, 5])
def test_sigkill_differential_wide(tmp_path, seed):
    store_dir, wal_dir, records = _build_case(tmp_path, seed=seed)
    oracle = _offline_replay(store_dir, tmp_path / "oracle", records)
    rng = random.Random(seed * 17 + 1)
    _run_with_kills(tmp_path, store_dir, wal_dir, rng)
    assert _store_digest(store_dir) == _store_digest(oracle)


def test_readers_only_observe_committed_versions(tmp_path):
    """Concurrent queries during live batches see a monotone sequence of
    committed versions and never a torn store."""
    store_dir, wal_dir, _records = _build_case(tmp_path, seed=6)
    reader = StoreReader(store_dir)
    versions = [reader.version]
    with WriteAheadLog(wal_dir) as wal:
        applier = StreamApplier(
            store_dir,
            wal,
            ApplierOptions(max_batch_records=1, max_latency_seconds=0.0),
        )
        applier.start()
        try:
            deadline = time.monotonic() + 60.0
            while applier.lag > 0 and applier.error is None:
                assert time.monotonic() < deadline
                answer = reader.query("top_k", k=3)
                versions.append(answer.store_version)
            assert applier.error is None
        finally:
            applier.stop()
    assert versions == sorted(versions)
    # Every batch was one record, so the reader had committed versions
    # to observe all along; the final query sees the final version.
    final = reader.query("top_k", k=3)
    assert final.store_version == StoreReader(store_dir).version
