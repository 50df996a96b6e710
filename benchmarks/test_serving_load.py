"""The asyncio serving front under open-loop load (beyond-paper
experiment).

A mined store is served by ``taxogram serve`` (the asyncio front) and
driven with a seeded open-loop plan from :mod:`repro.loadtest`.
Claims pinned here:

* at an offered 150 rps of top-k queries the front keeps pace: it
  completes at least 80% of the offered rate inside the default
  failure envelope;
* driven past capacity, the front's admission control keeps the
  failure surface clean — every response is a 200 or a 429, never a
  hang, a socket error, or a 500.

With ``REPRO_BENCH_JSON_DIR`` set, each run appends its throughput and
latency summary to ``BENCH_serving_load.json``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from benchmarks._common import MAX_EDGES, dataset, print_header, print_row
from repro.core.taxogram import Taxogram, TaxogramOptions
from repro.loadtest import Envelope, LoadOptions, LoadRunner, build_plan
from repro.loadtest.cluster import spawn_serve

SIGMA = 0.2
_GRAPH_SCALE = 0.1
_TAXONOMY_SCALE = 0.01


@pytest.fixture(scope="module")
def store_dir(tmp_path_factory):
    database, taxonomy = dataset("D5000", _GRAPH_SCALE, _TAXONOMY_SCALE)
    out = tmp_path_factory.mktemp("serving_load") / "store"
    result = Taxogram(
        TaxogramOptions(
            min_support=SIGMA, max_edges=MAX_EDGES, store_out=str(out)
        )
    ).mine(database, taxonomy)
    assert len(result) > 0
    return out


def _record(label: str, report) -> None:
    bench_dir = os.environ.get("REPRO_BENCH_JSON_DIR")
    if not bench_dir:
        return
    Path(bench_dir).mkdir(parents=True, exist_ok=True)
    path = Path(bench_dir) / "BENCH_serving_load.json"
    points = json.loads(path.read_text()) if path.exists() else []
    doc = report.as_dict()
    doc["label"] = label
    points.append(doc)
    path.write_text(json.dumps(points, indent=2, sort_keys=True) + "\n")


def _drive(url: str, *, rate: float, duration: float, workers: int,
           seed: int):
    options = LoadOptions(
        duration_seconds=duration, rate=rate, seed=seed, workers=workers
    )
    plan = build_plan(options, [], [])  # top-k queries only
    return LoadRunner(url, plan, workers=workers).run()


def test_async_front_keeps_pace_with_offered_load(store_dir):
    rate = 150
    process = spawn_serve(store_dir)
    process.start()
    try:
        # Warm the reader so the measured run pays no first row load.
        _drive(process.url, rate=20, duration=0.5, workers=4, seed=1)
        report = _drive(
            process.url, rate=rate, duration=3.0, workers=16, seed=42
        )
    finally:
        process.terminate()
    print_header(
        f"serving front (open loop, {rate} rps offered)",
        f"{'front':>12}  {'ok':>12}  {'rps':>12}  {'p50 ms':>12}  "
        f"{'p99 ms':>12}",
    )
    Envelope().check(report)
    latency = report.as_dict()["latency"]["query"]
    print_row(
        "async", report.counts["ok"],
        f"{report.throughput:.1f}",
        f"{latency['p50_ms']:.2f}", f"{latency['p99_ms']:.2f}",
    )
    _record("async", report)
    assert report.throughput >= 0.8 * rate


def test_async_overload_fails_clean(store_dir):
    process = spawn_serve(store_dir)
    process.start()
    try:
        report = _drive(
            process.url, rate=600, duration=3.0, workers=32, seed=7
        )
    finally:
        process.terminate()
    statuses = set(report.status_counts)
    assert statuses <= {200, 429}, statuses
    assert report.counts["timeout"] == 0
    assert report.counts["transport"] == 0
    assert report.counts["ok"] > 0
    _record("async-overload", report)
