"""The repository benchmark: ``mine``, ``query`` and ``ingest`` workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload mine --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing.
``--trace 1`` runs the workload twice, untraced and then with span
recording around the program's public functions, and reports the
per-layer metrics, the span reconciliation and the tracing overhead of
the second pass against the first.  The metric lists come from
``BENCHMARK.json``.
Human-readable lines come first; the last line of stdout is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.

Exits 2 without a result when the program (``src/repro``) or
``BENCHMARK.json`` is missing or a workload cannot be measured.  See README.md for what each workload
and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import sys
import time

from common import (
    DATABASE_GRAPHS, ROOT, WORK_ROOT, BenchError, ProcGroup, check_program,
    child_env, fresh_dir, median,
)


class Context:
    """Inputs and process bookkeeping shared by a run's passes."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        # A --trace 1 run makes two passes, so its passes may be shorter.
        self.trace = trace
        self.root = ROOT
        self.workdir = fresh_dir(WORK_ROOT / f"{workload}-{seed}-{os.getpid()}")
        self.env = child_env(self.workdir)
        self.procs = ProcGroup()

    def rng_for(self, purpose: str) -> random.Random:
        """A generator that depends only on the seed and ``purpose``, so
        the untraced and the traced pass see the same inputs."""
        return random.Random(f"perfbench:{self.seed}:{purpose}")

    def prepare_inputs(self) -> None:
        from inputs import (
            generate_base, parse_graphs, parse_taxonomy, reencode, write_graphs,
        )

        generated, base_taxonomy = generate_base(self.workdir, self.env)
        generated = parse_graphs(generated)
        # The database as generated, and the generator's later graphs.
        self.base_graphs = generated[:DATABASE_GRAPHS]
        self.pool = generated[DATABASE_GRAPHS:]
        graphs, taxonomy_text = reencode(
            self.base_graphs, base_taxonomy, self.rng_for("inputs")
        )
        self.graphs = self.workdir / "input.graphs"
        self.taxonomy = self.workdir / "input.tax"
        write_graphs(graphs, self.graphs)
        self.taxonomy.write_text(taxonomy_text)
        self.graph_list = graphs
        self.taxonomy_parents = parse_taxonomy(taxonomy_text)

    def keep_traces(self) -> None:
        """Copy the traced pass's span files out of the work directory,
        which :meth:`close` removes."""
        keep = fresh_dir(WORK_ROOT / "traces" / f"{self.workload}-seed{self.seed}")
        for path in (self.workdir / f"{self.workload}-traced").glob("*.json"):
            shutil.copy(path, keep / path.name)
        print(f"spans written to {keep.relative_to(ROOT)}")

    def close(self) -> None:
        self.procs.stop_all()
        shutil.rmtree(self.workdir, ignore_errors=True)


def _workload_module(name: str):
    if name == "mine":
        import wl_mine as module
    elif name == "query":
        import wl_query as module
    else:
        import wl_ingest as module
    return module


def _metric_lists() -> tuple[dict, dict]:
    """(end-to-end, per-layer) metric name -> unit, from BENCHMARK.json."""
    path = ROOT / "BENCHMARK.json"
    try:
        doc = json.loads(path.read_text())
        return ({m["name"]: m["unit"] for m in doc["end_to_end"]},
                {m["name"]: m["unit"] for m in doc["per_layer"]})
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise BenchError(f"cannot read the metric lists from {path}: {exc}")


def _measure(args) -> tuple:
    """Run the workload: one untraced pass, and with ``--trace 1`` a
    traced pass of the same inputs after it.  Returns (untraced
    outcome, traced outcome or None)."""
    ctx = Context(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        ctx.prepare_inputs()
        module = _workload_module(args.workload)
        plain = module.run(ctx, traced=False)
        traced = None
        if args.trace:
            ctx.procs.stop_all()
            traced = module.run(ctx, traced=True)
            ctx.keep_traces()
            traced.compare_counts(plain)
        return plain, traced
    finally:
        ctx.close()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("mine", "query", "ingest"),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # A SIGTERM unwinds through the cleanup that stops every child.
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    started = time.perf_counter()
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}", flush=True)
    try:
        check_program()
        end_to_end, per_layer = _metric_lists()
        plain, traced = _measure(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    for line in plain.lines(traced=False):
        print(line)
    if traced is not None:
        traced_op = median(traced.wall_per_op)
        reference = median(plain.wall_per_op)
        overhead = traced_op / reference - 1.0
        traced.layers["trace.overhead_ratio"] = (overhead, "ratio")
        print(f"traced pass (tracing overhead {overhead:+.1%}: median operation "
              f"{traced_op:.4f} s traced vs {reference:.4f} s in the untraced "
              f"pass)")
        for line in traced.lines(traced=True):
            print(line)
        missing = sorted(set(per_layer) - set(traced.layers))
        if missing:
            print("layers this workload does not exercise (reported as 0): "
                  + ", ".join(missing))
        metrics = {
            name: {"value": float(traced.layers.get(name, (0.0, unit))[0]),
                   "unit": unit}
            for name, unit in per_layer.items()
        }
        print("per-layer metrics:")
        for name, entry in metrics.items():
            print(f"  {name:<40} {entry['value']:14.6g} {entry['unit']}")
    else:
        metrics = {
            name: {"value": float(plain.e2e[name][0]), "unit": unit}
            for name, unit in end_to_end.items()
        }
        print("end-to-end metrics:")
        for name, entry in metrics.items():
            print(f"  {name:<20} {entry['value']:14.6g} {entry['unit']}")
    passes = [o for o in (plain, traced) if o is not None]
    failed = sum(o.failed for o in passes)
    attempted = sum(o.attempted for o in passes)
    correct = failed == 0 and all(o.counts_repeat is not False for o in passes)
    print(f"run took {time.perf_counter() - started:.1f} s")
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
