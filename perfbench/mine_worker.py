"""The program-side process of the benchmark's mining steps.

Runs inside the program's interpreter (``PYTHONPATH=src``) and talks to
the benchmark only through files and stdout lines.

* ``--mode probe``: import the library, load the inputs, print
  ``ready`` and exit (one set-up sample).
* ``--mode mine``: the ``mine`` workload's closed loop.  Each iteration
  runs one in-memory ``Taxogram.mine`` and one
  ``Taxogram.mine(store_out=<fresh dir>)``, until ``--seconds`` have
  passed and at least ``--min-iterations`` ran; then, outside the timed loop, ``mine_baseline`` on the same
  input checks both pattern sets.
* ``--mode store``: mine once into ``--store`` and write the pattern
  set (label names, supports, graph ids, class ids) for the ``query``
  workload's key space.

Usage: ``python perfbench/mine_worker.py --mode M --graphs G
--taxonomy T --out RESULT.json [--store DIR] [--seconds S]
[--min-iterations N] [--trace]``
"""

from __future__ import annotations

import argparse
import gc
import json
import shutil
import sys
import time
from pathlib import Path

import spans
from common import MAX_EDGES, SIGMA, dir_bytes, proc_readings


def _load(graphs: str, taxonomy: str):
    from repro.graphs.io import read_graph_database
    from repro.taxonomy.io import read_taxonomy

    tax = read_taxonomy(taxonomy)
    db = read_graph_database(graphs, node_labels=tax.interner)
    return db, tax


def _key(pattern) -> tuple:
    return (tuple(pattern.code.edges), pattern.support_count, pattern.class_id)


def _counters(result) -> dict:
    return dict(result.report.counters) if result.report is not None else {}


def run_mine(args, db, tax, recorder) -> dict:
    from repro.core.taxogram import Taxogram, TaxogramOptions, mine_baseline

    memory = Taxogram(TaxogramOptions(min_support=SIGMA, max_edges=MAX_EDGES))
    work = Path(args.store)
    iterations = []
    expected = None
    mismatched = 0
    deadline = time.perf_counter() + args.seconds
    last_store = None
    while True:
        # Each mine starts from a collected heap that holds no earlier
        # result, so its time does not depend on what the mine before it
        # left behind.
        gc.collect()
        t0 = time.perf_counter()
        mem = memory.mine(db, tax)
        t1 = time.perf_counter()
        mem_keys, mem_counters = sorted(map(_key, mem.patterns)), _counters(mem)
        del mem
        store_dir = work / f"store-{len(iterations)}"
        to_store = Taxogram(TaxogramOptions(
            min_support=SIGMA, max_edges=MAX_EDGES, store_out=str(store_dir)
        ))
        gc.collect()
        t2 = time.perf_counter()
        stored = to_store.mine(db, tax)
        t3 = time.perf_counter()
        store_keys, store_counters = sorted(map(_key, stored.patterns)), _counters(stored)
        del stored
        if expected is None:
            expected = mem_keys
        mismatched += (mem_keys != expected) + (store_keys != expected)
        iterations.append({
            "mine_s": t1 - t0, "mine_store_s": t3 - t2,
            "counters_mem": mem_counters, "counters_store": store_counters,
        })
        if last_store is not None:
            shutil.rmtree(last_store, ignore_errors=True)
        last_store = store_dir
        if (len(iterations) >= args.min_iterations
                and time.perf_counter() >= deadline):
            break
    readings = proc_readings()
    store_bytes, store_files = dir_bytes(last_store)
    if recorder is not None:
        recorder.enabled = False
    baseline = mine_baseline(db, tax, min_support=SIGMA, max_edges=MAX_EDGES)
    baseline_keys = sorted(map(_key, baseline.patterns))
    return {
        "iterations": iterations,
        "readings": readings,
        "store_bytes": store_bytes,
        "store_files": store_files,
        "patterns": len(expected),
        "baseline_patterns": len(baseline_keys),
        # Iterations whose in-memory or store pattern set differs from
        # the first one, and whether that one equals the baseline's.
        "unstable_sets": mismatched,
        "baseline_equal": expected == baseline_keys,
    }


def run_store(args, db, tax) -> dict:
    from repro.core.taxogram import Taxogram, TaxogramOptions

    t0 = time.perf_counter()
    result = Taxogram(TaxogramOptions(
        min_support=SIGMA, max_edges=MAX_EDGES, store_out=args.store
    )).mine(db, tax)
    elapsed = time.perf_counter() - t0
    name_of = db.node_label_name
    edge_name = db.edge_label_name
    patterns = []
    for p in result.patterns:
        graph = p.graph
        patterns.append({
            "labels": [name_of(graph.node_label(v)) for v in graph.nodes()],
            "edges": [[u, v, edge_name(l)] for u, v, l in graph.edges()],
            "support": p.support_count,
            "graph_ids": sorted(p.support_set),
            "class_id": p.class_id,
        })
    return {
        "mine_store_s": elapsed,
        "patterns": patterns,
        "database_size": len(db),
        "readings": proc_readings(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("probe", "mine", "store"), required=True)
    parser.add_argument("--graphs", required=True)
    parser.add_argument("--taxonomy", required=True)
    parser.add_argument("--out")
    parser.add_argument("--store")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--min-iterations", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    import repro.core.taxogram  # noqa: F401 - part of set-up

    recorder = spans.install() if args.trace else None
    db, tax = _load(args.graphs, args.taxonomy)
    print("ready", flush=True)
    if args.mode == "probe":
        return 0
    if args.mode == "mine":
        result = run_mine(args, db, tax, recorder)
    else:
        result = run_store(args, db, tax)
    if recorder is not None:
        result["trace"] = recorder.snapshot()
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
