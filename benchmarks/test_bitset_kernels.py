"""Bit-set kernel and compression benchmarks.

Four measurements, each with a machine-readable point when
``REPRO_BENCH_JSON_DIR`` is set (the CI bench-regression job diffs
these against the previous nightly's artifacts):

* **support_adaptive** — the adaptive ``OccurrenceColumns.support_count``
  kernel (O(popcount) bit-walk on sparse candidate sets) against the
  full mask scan (O(#graphs)).  The specialize phase is mostly this
  kernel; the gate asserts >= 3x (typically far more).
* **intersection_count** — AND + popcount without building a result
  set, against materializing the intersection and taking its length.
* **store_compression** — the fig 4.2-family store, persisted raw and
  zlib-compressed; records both byte totals and asserts compression
  actually saves space.
* **min_code_cache** — min-DFS-code memoization hit rate over a mining
  run (cold caches), asserting the memo genuinely fires.
"""

from __future__ import annotations

import random
import time

from benchmarks._common import (
    MAX_EDGES,
    dataset,
    print_header,
    print_row,
    record_bench_point,
)
from repro.core.occurrence_index import OccurrenceColumns
from repro.core.taxogram import Taxogram, TaxogramOptions
from repro.mining.dfs_code import (
    canonical_cache_info,
    clear_canonical_caches,
)
from repro.util.bitset import BitSet

SIGMA = 0.2
_GRAPH_SCALE = 0.1  # D5000 analog -> ~500 graphs at default scale
_TAXONOMY_SCALE = 0.01


class _KernelPoint:
    """record_bench_point shim: iteration count + ad-hoc gauges."""

    def __init__(self, iterations: int, gauges: dict) -> None:
        self._iterations = iterations
        self._gauges = gauges

    def __len__(self) -> int:
        return self._iterations

    @property
    def counters(self) -> "_KernelPoint":
        return self

    def as_metrics(self) -> dict:
        return dict(self._gauges)


def _full_scan_support(columns: OccurrenceColumns, bits: int) -> int:
    """The reference kernel: unconditionally scan every graph mask."""
    return sum(
        1 for mask in columns._graph_masks.values() if mask & bits
    )


def test_adaptive_support_kernel():
    rng = random.Random(42)
    n_graphs = 4000
    columns = OccurrenceColumns()
    for gid in range(n_graphs):
        for _ in range(rng.randint(1, 3)):
            columns.append(gid, (0, 1))
    # Sparse candidate sets: the shape the specialize phase produces
    # when a label's occurrence column intersects a small class.
    probes = []
    for _ in range(200):
        bits = 0
        for _ in range(rng.randint(2, 40)):
            bits |= 1 << rng.randrange(len(columns))
        probes.append(bits)

    start = time.perf_counter()
    adaptive = [columns.support_count(b) for b in probes]
    adaptive_seconds = time.perf_counter() - start

    start = time.perf_counter()
    scanned = [_full_scan_support(columns, b) for b in probes]
    scan_seconds = time.perf_counter() - start

    assert adaptive == scanned  # identical answers, always
    speedup = scan_seconds / max(adaptive_seconds, 1e-9)
    print_header(
        "Adaptive support_count vs full scan",
        f"{'kernel':>12}  {'ms':>12}  {'speedup':>12}",
    )
    print_row("full-scan", f"{scan_seconds * 1e3:.2f}", "1.0x")
    print_row("adaptive", f"{adaptive_seconds * 1e3:.2f}", f"{speedup:.1f}x")
    record_bench_point(
        "bitset_support_adaptive",
        f"{n_graphs}g",
        adaptive_seconds,
        _KernelPoint(len(probes), {"speedup": speedup}),
    )
    record_bench_point(
        "bitset_support_scan",
        f"{n_graphs}g",
        scan_seconds,
        _KernelPoint(len(probes), {}),
    )
    # The floor is 5x on the fig 4.2-scale workload; gate
    # conservatively at 3x so slow shared runners don't flake.
    assert speedup >= 3.0


def test_intersection_count_kernel():
    rng = random.Random(7)
    pairs = []
    for _ in range(60):
        a = BitSet(rng.randrange(1 << 18) for _ in range(3000))
        b = BitSet(rng.randrange(1 << 18) for _ in range(3000))
        pairs.append((a, b))

    start = time.perf_counter()
    counted = [a.intersection_count(b) for a, b in pairs]
    count_seconds = time.perf_counter() - start

    start = time.perf_counter()
    materialized = [len(a & b) for a, b in pairs]
    mat_seconds = time.perf_counter() - start

    assert counted == materialized
    ratio = mat_seconds / max(count_seconds, 1e-9)
    print_header(
        "intersection_count vs materialized AND",
        f"{'kernel':>12}  {'ms':>12}  {'speedup':>12}",
    )
    print_row("len(a & b)", f"{mat_seconds * 1e3:.2f}", "1.0x")
    print_row("count", f"{count_seconds * 1e3:.2f}", f"{ratio:.1f}x")
    record_bench_point(
        "bitset_intersection_count",
        "3000x3000",
        count_seconds,
        _KernelPoint(len(pairs), {"speedup": ratio}),
    )
    # Never materializing can't be slower by any real margin; assert
    # loosely so CI noise can't trip it.
    assert count_seconds <= mat_seconds * 1.5


def test_store_compression_ratio(tmp_path):
    database, taxonomy = dataset("D1000", _GRAPH_SCALE, _TAXONOMY_SCALE)
    sizes = {}
    for name, codec in (("raw", None), ("zlib", "zlib")):
        start = time.perf_counter()
        Taxogram(
            TaxogramOptions(
                min_support=SIGMA,
                max_edges=MAX_EDGES,
                store_out=str(tmp_path / name),
                store_compression=codec,
            )
        ).mine(database, taxonomy)
        seconds = time.perf_counter() - start
        total = sum(
            p.stat().st_size
            for p in (tmp_path / name).rglob("*")
            if p.is_file()
        )
        sizes[name] = total
        record_bench_point(
            f"store_{name}",
            f"{len(database)}g@{SIGMA:g}",
            seconds,
            _KernelPoint(1, {"store_bytes": total}),
        )
    ratio = sizes["zlib"] / sizes["raw"]
    print_header(
        "Store size, raw vs zlib",
        f"{'layout':>12}  {'bytes':>12}  {'ratio':>12}",
    )
    print_row("raw", sizes["raw"], "1.000")
    print_row("zlib", sizes["zlib"], f"{ratio:.3f}")
    assert sizes["zlib"] < sizes["raw"]


def test_min_code_cache_hit_rate(tmp_path):
    """Canonicality memoization pays on incremental replay.

    A single cold gSpan run checks every code exactly once (zero hits
    by construction); the caches earn their keep when the incremental
    updater re-seeds growth after a delta and re-derives the canonical
    codes of surviving classes in the same process.
    """
    from repro.graphs.database import GraphDatabase
    from repro.incremental import DatabaseDelta, IncrementalTaxogram

    database, taxonomy = dataset("D1000", _GRAPH_SCALE, _TAXONOMY_SCALE)
    clear_canonical_caches()
    Taxogram(
        TaxogramOptions(
            min_support=SIGMA,
            max_edges=MAX_EDGES,
            store_out=str(tmp_path / "store"),
        )
    ).mine(database, taxonomy)
    cold = canonical_cache_info()
    assert cold["is_min_code_hits"] == 0  # cold run: all misses

    add = GraphDatabase(
        node_labels=database.node_labels,
        edge_labels=database.edge_labels,
    )
    add.add_graph(database[0].copy())
    updater = IncrementalTaxogram(tmp_path / "store")
    start = time.perf_counter()
    updater.apply(DatabaseDelta.adding(add))
    seconds = time.perf_counter() - start
    info = canonical_cache_info()
    is_min_hits = info["is_min_code_hits"]
    min_code_hits = info["min_dfs_code_hits"]
    print_header(
        "min-DFS-code memoization (incremental replay)",
        f"{'metric':>12}  {'value':>12}",
    )
    print_row("is_min hits", is_min_hits)
    print_row("code hits", min_code_hits)
    print_row("code misses", info["min_dfs_code_misses"])
    record_bench_point(
        "min_code_cache",
        f"{len(database)}g@{SIGMA:g}",
        seconds,
        _KernelPoint(is_min_hits + min_code_hits, dict(info)),
    )
    assert is_min_hits > 0
    assert min_code_hits > 0
