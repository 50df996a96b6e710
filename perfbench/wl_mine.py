"""``mine`` workload: the paper's algorithm and the production mine path.

A closed loop in one program process (:mod:`mine_worker`): each
iteration runs one in-memory ``Taxogram.mine`` and one
``Taxogram.mine(store_out=<fresh dir>)``.  Loads ``gspan``,
``occurrence_index``, ``specializer`` and ``incremental.store``; never
touches ``serving``, ``streaming`` or ``replication``.
"""

from __future__ import annotations

import sys

import spans
from common import BENCH, BenchError, fresh_dir, load_json, median
from report import Outcome

SETUP_SAMPLES = 3  # worker starts; one in each pass of a --trace 1 run
# Iterations a pass runs at least, whatever --seconds is: single mines
# vary by about a quarter, so each median needs several.  The two
# passes of a --trace 1 run each run fewer.
MIN_ITERATIONS = 3
TRACE_RUN_MIN_ITERATIONS = 2

# Deterministic work counters of one in-memory (mem) and one
# to-store (store) mine; they must repeat exactly for a seed.
COUNTS = (
    "gspan.candidates_generated",
    "gspan.candidates_pruned_nonminimal",
    "mine.pattern_classes",
    "index.updates",
    "index.oie_entries",
    "specialize.bitset_intersections",
    "specialize.candidates_enumerated",
)


def _worker_argv(ctx, mode: str, traced: bool, out=None, store=None):
    argv = [sys.executable, str(BENCH / "mine_worker.py"), "--mode", mode,
            "--graphs", str(ctx.graphs), "--taxonomy", str(ctx.taxonomy)]
    if out is not None:
        iterations = TRACE_RUN_MIN_ITERATIONS if ctx.trace else MIN_ITERATIONS
        argv += ["--out", str(out), "--store", str(store),
                 "--seconds", str(ctx.seconds),
                 "--min-iterations", str(iterations)]
    if traced:
        argv.append("--trace")
    return argv


def run(ctx, traced: bool) -> Outcome:
    tag = "traced" if traced else "plain"
    work = fresh_dir(ctx.workdir / f"mine-{tag}")
    setup = []
    for _ in range(0 if ctx.trace else SETUP_SAMPLES - 1):
        probe = ctx.procs.start(
            _worker_argv(ctx, "probe", traced), ctx.env, ctx.root, "mine probe"
        )
        setup.append(probe.ready_seconds(r"^ready$"))
        if probe.wait(60) != 0:
            raise BenchError(f"mine probe failed: {probe.tail()}")
    out = work / "result.json"
    worker = ctx.procs.start(
        _worker_argv(ctx, "mine", traced, out, work), ctx.env, ctx.root,
        "mine worker",
    )
    setup.append(worker.ready_seconds(r"^ready$"))
    if worker.wait(175) != 0 or not out.exists():
        raise BenchError(f"mine worker failed: {worker.tail()}")
    result = load_json(out)
    iterations = result["iterations"]

    outcome = Outcome("mine")
    mine_s = [it["mine_s"] for it in iterations]
    store_s = [it["mine_store_s"] for it in iterations]
    outcome.e2e = {
        "setup_s": (median(setup), "s"),
        "peak_rss_mb": (result["readings"]["vmhwm_mb"], "MB"),
        "store_mb": (result["store_bytes"] / 1e6, "MB"),
        "main_ms": (median(mine_s) * 1000, "ms"),
        "second_ms": (median(store_s) * 1000, "ms"),
    }
    outcome.named = [
        ("setup_s", median(setup), "s", f"median of {len(setup)} worker starts"),
        ("peak_rss_mb", result["readings"]["vmhwm_mb"], "MB", "mine worker VmHWM"),
        ("mine_s", median(mine_s), "s", f"median of n={len(mine_s)}"),
        ("mine_store_s", median(store_s), "s", f"median of n={len(store_s)}"),
        ("store_mb", result["store_bytes"] / 1e6, "MB",
         f"{result['store_files']} files"),
    ]
    outcome.attempted = 2 * len(iterations)
    outcome.failed = result["unstable_sets"]
    if not result["baseline_equal"]:
        outcome.failed = outcome.attempted
    outcome.checks.append(
        f"pattern sets (code, support, class id) of {outcome.attempted} mines "
        f"vs mine_baseline: {result['patterns']} vs "
        f"{result['baseline_patterns']} patterns, "
        f"{'equal' if result['baseline_equal'] else 'DIFFERENT'}; "
        f"{result['unstable_sets']} mines differ from the first"
    )
    first = iterations[0]
    counts = {}
    for kind in ("mem", "store"):
        for name in COUNTS:
            counts[f"{kind}.{name}"] = first[f"counters_{kind}"].get(name, 0)
    repeat = all(
        it[f"counters_{kind}"].get(name, 0) == counts[f"{kind}.{name}"]
        for it in iterations for kind in ("mem", "store") for name in COUNTS
    )
    outcome.set_counts(counts, repeat,
                       f"{len(iterations)} iterations of this run agree")
    outcome.wall_per_op = [it["mine_s"] + it["mine_store_s"] for it in iterations]
    if traced:
        _layers(outcome, result, iterations)
    outcome.resources = {"mine": result["readings"]}
    return outcome


def _layers(outcome: Outcome, result: dict, iterations: list) -> None:
    trace = result["trace"]
    recorded = trace["spans"]
    selfs = spans.self_times(recorded)
    n_iter = len(iterations)
    counters = spans.call_totals(trace, "taxogram.mine")

    def per(name):
        return selfs.get(name, 0.0) / n_iter

    def cnt(name):
        return counters.get(name, 0) / n_iter

    generated = cnt("gspan.candidates_generated")
    enumerated = cnt("specialize.candidates_enumerated")
    patterns = 2 * result["patterns"]
    layers = {
        "relabel.time_s": (per("relabel"), "s"),
        "gspan.self_s": (per("gspan"), "s"),
        "gspan.candidates_generated": (generated, "count"),
        "gspan.candidates_pruned_nonminimal": (
            cnt("gspan.candidates_pruned_nonminimal"), "count"),
        "gspan.classes_per_candidate": (
            cnt("mine.pattern_classes") / generated if generated else 0.0, "ratio"),
        "occurrence_index.build_s": (per("occurrence_index"), "s"),
        "index.updates": (cnt("index.updates"), "count"),
        "index.oie_entries": (cnt("index.oie_entries"), "count"),
        "specializer.time_s": (per("specializer"), "s"),
        "specialize.bitset_intersections": (
            cnt("specialize.bitset_intersections"), "count"),
        "specialize.candidates_enumerated": (enumerated, "count"),
        "specializer.patterns_per_candidate": (
            patterns / enumerated if enumerated else 0.0, "ratio"),
        "store.save_s": (per("store.save"), "s"),
        "store.files": (result["store_files"], "count"),
        "mine.cpu_s": (result["readings"]["cpu_s"], "s"),
    }
    outcome.layers.update(layers)
    # Reconciliation per iteration (one in-memory + one store mine).
    wall = sum(it["mine_s"] + it["mine_store_s"] for it in iterations) / n_iter
    rows = [(name, value / n_iter) for name, value in selfs.items()
            if name != "taxogram.mine"]
    rows.append(("taxogram.mine (self: glue not in a hooked layer)",
                 selfs.get("taxogram.mine", 0.0) / n_iter))
    outcome.reconcile("one iteration (in-memory mine + mine to store)", wall,
                      rows, trace["absent"])
