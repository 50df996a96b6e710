"""Command-line interface: ``taxogram <command>`` / ``python -m repro``.

Commands:

* ``mine`` — mine a graph database file against a taxonomy file with
  Taxogram, the baseline, or TAcGM.
* ``generate`` — synthesize a dataset (Table 1 spec, pathways or PTE)
  to graph/taxonomy files.
* ``compare`` — run Taxogram, the baseline and TAcGM on the same input
  and report times, work counters and pattern-set agreement.
* ``update`` — apply a database delta (added graphs and/or removed graph
  ids) to a pattern store written by ``mine --store-out``.
* ``query`` — answer support/containment/specialization queries against
  a pattern store without re-mining (see :mod:`repro.serving`).
* ``serve`` — expose a pattern store over a JSON/HTTP endpoint.
* ``ingest`` — drain a write-ahead log of deltas into a pattern store,
  or run the live ingest service (``--serve``) that journals ``POST
  /ingest`` deltas durably and applies them in the background (see
  :mod:`repro.streaming`).
* ``loadtest`` — drive seeded open-loop load (and optional fault
  injection) against a spawned or running service and judge the run
  against the declared backpressure envelope (see
  :mod:`repro.loadtest`).
* ``info`` — print a pattern store's manifest summary (version, counts,
  WAL lag when a journal is present).
* ``stats`` — print Table 1-style statistics for a graph database file.
* ``datasets`` — list the built-in Table 1 dataset specifications.

``serve`` and ``ingest --serve`` exit gracefully on SIGTERM/SIGINT:
they stop accepting connections, flush the applier (ingest), and
return exit code 0.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.core.results import format_pattern
from repro.core.tacgm import TAcGM, TAcGMOptions
from repro.core.taxogram import Taxogram, TaxogramOptions
from repro.datagen.datasets import DATASET_FAMILIES, build_dataset, dataset_spec
from repro.exceptions import ReproError
from repro.graphs.io import read_graph_database, write_graph_database
from repro.observability import RunReport, Tracer
from repro.taxonomy.io import read_taxonomy, write_taxonomy
from repro.util.stats import DatabaseStats

__all__ = ["main", "build_parser"]


def _support_type(token: str) -> float:
    """argparse type for ``--support``: a fraction in (0, 1]."""
    try:
        value = float(token)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"support must be a number, got {token!r}"
        ) from None
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(
            f"support must be in (0, 1], got {value}"
        )
    return value


def _workers_type(token: str) -> int:
    """argparse type for ``--workers``: an integer >= 1."""
    try:
        value = int(token)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"workers must be an integer, got {token!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"workers must be at least 1, got {value}"
        )
    return value


def _remove_ids_type(token: str) -> tuple[int, ...]:
    """argparse type for ``--remove``: comma-separated graph ids."""
    ids: list[int] = []
    for part in token.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            value = int(part)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"remove ids must be integers, got {part!r}"
            ) from None
        if value < 0:
            raise argparse.ArgumentTypeError(
                f"remove ids must be non-negative, got {value}"
            )
        ids.append(value)
    if not ids:
        raise argparse.ArgumentTypeError("no graph ids given")
    return tuple(ids)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="taxogram",
        description="Taxonomy-superimposed graph mining (EDBT 2008 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    mine = sub.add_parser("mine", help="mine a graph database over a taxonomy")
    mine.add_argument("database", type=Path, help="graph database file")
    mine.add_argument("taxonomy", type=Path, help="taxonomy file")
    mine.add_argument(
        "--algorithm",
        choices=("taxogram", "baseline", "tacgm"),
        default="taxogram",
    )
    mine.add_argument("--support", type=_support_type, default=0.2, metavar="SIGMA")
    mine.add_argument("--max-edges", type=int, default=None)
    mine.add_argument(
        "--workers",
        type=_workers_type,
        default=1,
        metavar="N",
        help="mine with N worker processes (taxogram/baseline only; "
        "results are identical to a sequential run)",
    )
    mine.add_argument(
        "--memory-budget",
        type=int,
        default=None,
        help="TAcGM deterministic memory budget in cells",
    )
    mine.add_argument(
        "--limit", type=int, default=50, help="patterns to print (0 = all)"
    )
    mine.add_argument(
        "--disk-index",
        action="store_true",
        help="keep occurrence indices in SQLite instead of memory",
    )
    mine.add_argument(
        "--directed",
        action="store_true",
        help="parse the database as directed ('a' arc records) and mine "
        "weakly connected directed patterns (taxogram/baseline only)",
    )
    mine.add_argument(
        "--store-out",
        type=Path,
        default=None,
        metavar="DIR",
        help="persist the mining result as a pattern store in DIR, "
        "enabling later `taxogram update` runs (taxogram/baseline only)",
    )
    mine.add_argument(
        "--compress",
        nargs="?",
        const="auto",
        default=None,
        metavar="CODEC",
        help="compress the pattern store written by --store-out "
        "('auto' picks the best codec available: zstd when the optional "
        "zstandard package is installed, zlib otherwise)",
    )
    _add_observability_arguments(mine)

    update = sub.add_parser(
        "update",
        help="apply a database delta to a pattern store written by "
        "`mine --store-out`",
    )
    update.add_argument("store", type=Path, help="pattern store directory")
    update.add_argument(
        "--add",
        type=Path,
        default=None,
        metavar="FILE",
        help="graph database file whose graphs are added to the store",
    )
    update.add_argument(
        "--remove",
        type=_remove_ids_type,
        default=None,
        metavar="IDS",
        help="comma-separated pre-delta graph ids to remove, e.g. 0,3,17",
    )
    update.add_argument(
        "--support",
        type=_support_type,
        default=None,
        metavar="SIGMA",
        help="assert the store was mined at this support "
        "(mismatch is an error)",
    )
    update.add_argument(
        "--max-edges",
        type=int,
        default=None,
        help="assert the store was mined with this edge cap "
        "(mismatch is an error)",
    )
    update.add_argument(
        "--taxonomy",
        type=Path,
        default=None,
        metavar="FILE",
        help="assert the store's taxonomy fingerprint matches this file "
        "(mismatch is an error)",
    )
    update.add_argument(
        "--remine-fraction",
        type=float,
        default=0.5,
        metavar="F",
        help="fall back to a full remine when the delta touches more "
        "than this fraction of the database (default 0.5)",
    )
    update.add_argument(
        "--limit", type=int, default=50, help="patterns to print (0 = all)"
    )
    _add_observability_arguments(update)

    query = sub.add_parser(
        "query",
        help="answer queries against a pattern store without re-mining",
    )
    query.add_argument("store", type=Path, help="pattern store directory")
    query.add_argument(
        "--pattern",
        type=Path,
        default=None,
        metavar="FILE",
        help="graph-db file holding exactly one query pattern",
    )
    query.add_argument(
        "--top-k",
        type=int,
        default=None,
        metavar="K",
        help="print the K highest-support mined patterns instead of "
        "answering a pattern query",
    )
    query.add_argument(
        "--op",
        choices=("support", "contains", "graphs", "specializations"),
        default="support",
        help="what to compute for --pattern (default: support)",
    )
    query.add_argument(
        "--min-support",
        type=_support_type,
        default=None,
        metavar="SIGMA",
        help="specialization threshold (specializations op only; "
        "defaults to the store's sigma)",
    )
    query.add_argument(
        "--label",
        default=None,
        metavar="NAME",
        help="with --top-k, keep only patterns mentioning NAME or one "
        "of its specializations",
    )
    _add_observability_arguments(query)

    similar = sub.add_parser(
        "similar",
        help="similarity queries against a pattern store: MCS-based "
        "scores and similarity-thresholded containment",
    )
    similar.add_argument(
        "store", type=Path, help="pattern store directory"
    )
    similar.add_argument(
        "--pattern",
        type=Path,
        required=True,
        metavar="FILE",
        help="graph-db file holding exactly one query pattern",
    )
    similar.add_argument(
        "--op",
        choices=("similar", "similarity_score", "fuzzy_contains"),
        default="similar",
        help="what to compute (default: similar = rank graphs by "
        "MCS-based score)",
    )
    similar.add_argument(
        "--threshold",
        type=float,
        default=None,
        metavar="T",
        help="similarity threshold in (0, 1] (default: 0.5 for "
        "similar, 1.0 = exact for fuzzy_contains)",
    )
    similar.add_argument(
        "--k",
        type=int,
        default=None,
        metavar="K",
        help="with --op similar, keep only the K best-scoring graphs",
    )
    similar.add_argument(
        "--semantics",
        choices=("isomorphism", "homomorphism"),
        default=None,
        help="match semantics for fuzzy_contains (default: isomorphism)",
    )
    similar.add_argument(
        "--graph-id",
        type=int,
        default=None,
        metavar="G",
        help="with --op similarity_score, the database graph to score",
    )
    _add_observability_arguments(similar)

    session = sub.add_parser(
        "session",
        help="run an example-driven session mine against a pattern "
        "store: candidates are seeded from the example graphs, "
        "supports come from the store's bit-sets",
    )
    session.add_argument(
        "store", type=Path, help="pattern store directory"
    )
    session.add_argument(
        "--examples",
        type=Path,
        required=True,
        metavar="FILE",
        help="graph-db file holding the session's example graphs",
    )
    session.add_argument(
        "--min-support",
        type=_support_type,
        default=None,
        metavar="SIGMA",
        help="session mining threshold (>= the store's sigma; "
        "defaults to the store's sigma)",
    )
    session.add_argument(
        "--semantics",
        choices=("isomorphism", "homomorphism"),
        default="isomorphism",
        help="witness semantics for the example filter "
        "(default: isomorphism)",
    )
    session.add_argument(
        "--tenant",
        default="cli",
        metavar="NAME",
        help="tenant the session is accounted against (default: cli)",
    )
    session.add_argument(
        "--top-k",
        type=int,
        default=None,
        metavar="K",
        help="print only the K highest-support mined patterns",
    )
    _add_observability_arguments(session)

    serve = sub.add_parser(
        "serve",
        help="expose a pattern store over a JSON/HTTP endpoint",
    )
    serve.add_argument("store", type=Path, help="pattern store directory")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=8080,
        help="TCP port to bind (0 = pick a free port)",
    )
    serve.add_argument(
        "--max-requests",
        type=int,
        default=None,
        metavar="N",
        help="exit after handling N requests (testing aid; default: "
        "serve until interrupted)",
    )

    ingest = sub.add_parser(
        "ingest",
        help="drain a delta write-ahead log into a pattern store, or "
        "run the live ingest service with --serve",
    )
    ingest.add_argument("store", type=Path, help="pattern store directory")
    ingest.add_argument(
        "--wal",
        type=Path,
        required=True,
        metavar="DIR",
        help="write-ahead log directory (created if missing)",
    )
    ingest.add_argument(
        "--serve",
        action="store_true",
        help="expose the store plus POST /ingest, POST /flush and "
        "GET /lag over HTTP and apply journaled deltas in the "
        "background (default: apply the journal once and exit)",
    )
    ingest.add_argument("--host", default="127.0.0.1")
    ingest.add_argument(
        "--port",
        type=int,
        default=8080,
        help="TCP port to bind with --serve (0 = pick a free port)",
    )
    ingest.add_argument(
        "--batch-records",
        type=int,
        default=256,
        metavar="N",
        help="apply at most N journaled records per micro-batch",
    )
    ingest.add_argument(
        "--batch-latency",
        type=float,
        default=0.25,
        metavar="SECONDS",
        help="maximum time a journaled record waits before its batch "
        "is applied (--serve only)",
    )
    ingest.add_argument(
        "--max-lag",
        type=int,
        default=1024,
        metavar="N",
        help="shed POST /ingest with 429 once N acknowledged records "
        "await application (--serve only)",
    )
    ingest.add_argument(
        "--max-requests",
        type=int,
        default=None,
        metavar="N",
        help="with --serve, exit after handling N requests (testing "
        "aid; default: serve until interrupted)",
    )
    ingest.add_argument(
        "--publish",
        action="store_true",
        help="with --serve, also publish the WAL for follower replicas "
        "(GET /replication/manifest, /segment, /snapshot)",
    )
    ingest.add_argument(
        "--secret",
        default=None,
        metavar="KEY",
        help="with --publish, HMAC-sign the replication manifest so "
        "followers can verify its origin",
    )
    ingest.add_argument(
        "--compress",
        nargs="?",
        const="auto",
        default=None,
        metavar="CODEC",
        help="compress sealed WAL segments with CODEC ('zlib', 'zstd' "
        "when available, or bare --compress for the best codec); the "
        "active segment and all replication offsets stay in raw frame "
        "bytes, so mixed compressed/raw fleets replicate unchanged",
    )

    replicate = sub.add_parser(
        "replicate",
        help="maintain a follower replica of a published primary store",
    )
    replicate.add_argument(
        "store", type=Path, help="local replica store directory"
    )
    replicate.add_argument(
        "--from",
        dest="primary",
        required=True,
        metavar="URL",
        help="base URL of the primary (an `ingest --serve --publish` "
        "endpoint)",
    )
    replicate.add_argument(
        "--wal",
        type=Path,
        required=True,
        metavar="DIR",
        help="local write-ahead log directory for re-journaled records",
    )
    replicate.add_argument(
        "--serve",
        action="store_true",
        help="keep syncing in the background and expose the replica's "
        "read-only query endpoints over HTTP (default: catch up to "
        "the primary's watermark once and exit)",
    )
    replicate.add_argument(
        "--secret",
        default=None,
        metavar="KEY",
        help="verify the primary's manifest signature with this key",
    )
    replicate.add_argument(
        "--poll-interval",
        type=float,
        default=0.2,
        metavar="SECONDS",
        help="how often the background sync polls the primary "
        "(--serve only)",
    )
    replicate.add_argument(
        "--timeout",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help="without --serve, give up if the replica has not reached "
        "the primary's watermark after this long",
    )
    replicate.add_argument("--host", default="127.0.0.1")
    replicate.add_argument(
        "--port",
        type=int,
        default=8081,
        help="TCP port to bind with --serve (0 = pick a free port)",
    )
    replicate.add_argument(
        "--max-requests",
        type=int,
        default=None,
        metavar="N",
        help="with --serve, exit after handling N requests (testing "
        "aid; default: serve until interrupted)",
    )

    route = sub.add_parser(
        "route",
        help="scatter-gather query router over replica (or sharded) "
        "store servers",
    )
    route.add_argument(
        "--replica",
        dest="replicas",
        action="append",
        required=True,
        metavar="URL",
        help="base URL of a replica to route to (repeatable)",
    )
    route.add_argument(
        "--sharded",
        action="store_true",
        help="treat the replicas as disjoint database shards in shard "
        "order and merge support/graphs answers exactly (other ops "
        "are refused)",
    )
    route.add_argument(
        "--max-staleness",
        type=int,
        default=None,
        metavar="N",
        help="never route to a replica more than N applied records "
        "behind the freshest replica",
    )
    route.add_argument("--host", default="127.0.0.1")
    route.add_argument(
        "--port",
        type=int,
        default=8082,
        help="TCP port to bind (0 = pick a free port)",
    )
    route.add_argument(
        "--max-requests",
        type=int,
        default=None,
        metavar="N",
        help="exit after handling N requests (testing aid; default: "
        "serve until interrupted)",
    )

    loadtest = sub.add_parser(
        "loadtest",
        help="drive seeded open-loop load (and optional faults) "
        "against a spawned or running service",
    )
    loadtest.add_argument("store", type=Path, help="pattern store directory")
    loadtest.add_argument(
        "--wal",
        type=Path,
        default=None,
        metavar="DIR",
        help="spawn `ingest --serve` over this WAL (mixed traffic); "
        "without it, a read-only `serve` (query-only traffic)",
    )
    loadtest.add_argument(
        "--url",
        default=None,
        metavar="URL",
        help="drive an already-running service instead of spawning one "
        "(incompatible with --fault)",
    )
    loadtest.add_argument("--duration", type=float, default=5.0,
                          metavar="SECONDS")
    loadtest.add_argument(
        "--rate",
        type=float,
        default=50.0,
        metavar="RPS",
        help="open-loop arrival rate in requests/second",
    )
    loadtest.add_argument(
        "--mix",
        default="80:15:5",
        metavar="Q:I:F",
        help="query:ingest:flush traffic weights (default 80:15:5)",
    )
    loadtest.add_argument("--seed", type=int, default=0)
    loadtest.add_argument("--workers", type=_workers_type, default=8)
    loadtest.add_argument(
        "--pattern-file",
        dest="pattern_files",
        type=Path,
        action="append",
        metavar="FILE",
        help="graph database file whose graphs become support/graphs "
        "query patterns (repeatable; default: GET /top only)",
    )
    loadtest.add_argument(
        "--add-file",
        dest="add_files",
        type=Path,
        action="append",
        metavar="FILE",
        help="graph database file whose graphs cycle through POST "
        "/ingest deltas (repeatable; required for ingest traffic)",
    )
    loadtest.add_argument(
        "--fault",
        choices=("none", "kill-applier", "stall-fsync"),
        default="none",
        help="inject one seeded fault mid-run: SIGKILL + pinned-port "
        "restart of the service, or a wal.fsync stall window",
    )
    loadtest.add_argument(
        "--stall-ms",
        type=int,
        default=150,
        metavar="MS",
        help="per-append fsync stall for --fault stall-fsync",
    )
    loadtest.add_argument(
        "--max-lag",
        type=int,
        default=1024,
        help="spawned service's hard ingest backlog bound",
    )
    loadtest.add_argument(
        "--report-out",
        type=Path,
        default=None,
        metavar="FILE",
        help="write the full JSON report here (REPRO_BENCH_JSON_DIR "
        "also receives a copy when set)",
    )

    info = sub.add_parser(
        "info",
        help="print a pattern store's manifest summary",
    )
    info.add_argument("store", type=Path, help="pattern store directory")
    info.add_argument(
        "--wal",
        type=Path,
        default=None,
        metavar="DIR",
        help="also report this write-ahead log's lag against the store",
    )

    generate = sub.add_parser("generate", help="synthesize a dataset to files")
    generate.add_argument("name", help="Table 1 dataset id, e.g. D1000 or PTE")
    generate.add_argument("--graphs-out", type=Path, required=True)
    generate.add_argument("--taxonomy-out", type=Path, required=True)
    generate.add_argument("--graph-scale", type=float, default=1.0)
    generate.add_argument("--taxonomy-scale", type=float, default=1.0)

    stats = sub.add_parser("stats", help="Table 1-style statistics for a database")
    stats.add_argument("database", type=Path)

    sub.add_parser("datasets", help="list built-in dataset specifications")

    compare = sub.add_parser(
        "compare",
        help="run taxogram, baseline and TAcGM on the same input and "
        "report times, work counters and agreement",
    )
    compare.add_argument("database", type=Path)
    compare.add_argument("taxonomy", type=Path)
    compare.add_argument("--support", type=_support_type, default=0.2, metavar="SIGMA")
    compare.add_argument("--max-edges", type=int, default=None)
    compare.add_argument(
        "--workers",
        type=_workers_type,
        default=1,
        metavar="N",
        help="also run parallel taxogram with N worker processes",
    )
    compare.add_argument(
        "--memory-budget",
        type=int,
        default=2_000_000,
        help="TAcGM deterministic memory budget in cells (0 = unlimited)",
    )
    _add_observability_arguments(compare)
    return parser


def _add_observability_arguments(command: argparse.ArgumentParser) -> None:
    command.add_argument(
        "--trace",
        action="store_true",
        help="record phase spans and print the run report "
        "(counters, gauges, span tree) after mining",
    )
    command.add_argument(
        "--metrics-out",
        type=Path,
        default=None,
        metavar="PATH",
        help="write the run report as JSON to PATH",
    )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "mine":
            return _cmd_mine(args)
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "stats":
            return _cmd_stats(args)
        if args.command == "datasets":
            return _cmd_datasets()
        if args.command == "compare":
            return _cmd_compare(args)
        if args.command == "update":
            return _cmd_update(args)
        if args.command == "query":
            return _cmd_query(args)
        if args.command == "similar":
            return _cmd_similar(args)
        if args.command == "session":
            return _cmd_session(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "ingest":
            return _cmd_ingest(args)
        if args.command == "replicate":
            return _cmd_replicate(args)
        if args.command == "route":
            return _cmd_route(args)
        if args.command == "loadtest":
            return _cmd_loadtest(args)
        if args.command == "info":
            return _cmd_info(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Downstream consumer (e.g. `taxogram mine ... | head`) closed
        # the pipe; point stdout at devnull so the interpreter's exit
        # flush stays quiet, and exit like other well-behaved CLIs.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    raise AssertionError("unreachable: argparse enforces a valid command")


def _wants_report(args: argparse.Namespace) -> bool:
    return bool(args.trace or args.metrics_out)


def _result_report(result) -> RunReport:
    """The result's attached report, or one assembled from its counters
    (miners predating repro.observability, e.g. TAcGM)."""
    if getattr(result, "report", None) is not None:
        return result.report
    return RunReport.from_run(
        result.algorithm, result.counters, result.stage_seconds
    )


def _emit_report(args: argparse.Namespace, report: RunReport) -> None:
    if args.trace:
        print(report.render())
    if args.metrics_out:
        args.metrics_out.write_text(report.to_json() + "\n")


def _cmd_mine(args: argparse.Namespace) -> int:
    if args.directed and args.algorithm == "tacgm":
        print(
            "error: --directed supports only the taxogram algorithm "
            "and its baseline",
            file=sys.stderr,
        )
        return 1
    if args.workers > 1 and (args.algorithm == "tacgm" or args.directed):
        print(
            "error: --workers applies only to the undirected "
            "taxogram/baseline algorithms",
            file=sys.stderr,
        )
        return 2
    if args.store_out is not None and (args.algorithm == "tacgm" or args.directed):
        print(
            "error: --store-out applies only to the undirected "
            "taxogram/baseline algorithms",
            file=sys.stderr,
        )
        return 2
    if args.compress is not None and args.store_out is None:
        print(
            "error: --compress requires --store-out (it names the "
            "pattern-store codec)",
            file=sys.stderr,
        )
        return 2
    if args.compress is not None:
        from repro.exceptions import CompressionError
        from repro.util.compression import normalize_codec

        try:
            normalize_codec(args.compress)
        except CompressionError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    taxonomy = read_taxonomy(args.taxonomy)
    tracer = Tracer() if _wants_report(args) else None
    if args.directed:
        from repro.directed.io import read_digraph_database as read_database
    else:
        read_database = read_graph_database
    database = read_database(args.database, node_labels=taxonomy.interner)
    if args.algorithm == "tacgm":
        result = TAcGM(
            TAcGMOptions(
                min_support=args.support,
                max_edges=args.max_edges,
                memory_budget=args.memory_budget,
            )
        ).mine(database, taxonomy)
    else:
        from dataclasses import replace

        if args.algorithm == "baseline":
            options = TaxogramOptions.baseline(args.support, args.max_edges)
        else:
            options = TaxogramOptions(
                min_support=args.support, max_edges=args.max_edges
            )
        if args.disk_index:
            options = replace(options, occurrence_index_backend="disk")
        if args.workers > 1:
            options = replace(options, workers=args.workers)
        if args.store_out is not None:
            options = replace(
                options,
                store_out=str(args.store_out),
                store_compression=args.compress,
            )
        result = Taxogram(options).mine(database, taxonomy, tracer)
        if args.store_out is not None:
            print(f"pattern store written to {args.store_out}")

    print(result.summary())
    shown = result.patterns if args.limit == 0 else result.patterns[: args.limit]
    for pattern in shown:
        if args.directed:
            arcs = ", ".join(
                f"{taxonomy.name_of(pattern.graph.node_label(s))}"
                f"->{taxonomy.name_of(pattern.graph.node_label(t))}"
                for s, t, _l in pattern.graph.arcs()
            )
            print(f"  [{arcs}] sup={pattern.support:.3f}")
        else:
            print(
                " ",
                format_pattern(pattern, taxonomy.interner, database.edge_labels),
            )
    hidden = len(result.patterns) - len(shown)
    if hidden > 0:
        print(f"  ... and {hidden} more (use --limit 0 to print all)")
    if _wants_report(args):
        _emit_report(args, _result_report(result))
    return 0


def _cmd_update(args: argparse.Namespace) -> int:
    from repro.incremental import (
        DatabaseDelta,
        IncrementalOptions,
        IncrementalTaxogram,
        PatternStore,
    )
    from repro.streaming.applier import recover_store, shadow_commit

    if args.add is None and args.remove is None:
        print(
            "error: nothing to update: pass --add and/or --remove",
            file=sys.stderr,
        )
        return 2
    recovery = recover_store(args.store)
    if recovery != "clean":
        print(f"recovered store after crash ({recovery})")
    store = PatternStore.open(args.store)
    requested_taxonomy = (
        read_taxonomy(args.taxonomy) if args.taxonomy is not None else None
    )
    mismatch = store.fingerprint_mismatch(
        min_support=args.support,
        max_edges=args.max_edges if args.max_edges is not None else "unset",
        taxonomy=requested_taxonomy,
    )
    if mismatch is not None:
        print(f"error: store fingerprint mismatch: {mismatch}", file=sys.stderr)
        return 2
    delta = DatabaseDelta(
        add_text=args.add.read_text() if args.add is not None else "",
        remove_ids=args.remove if args.remove is not None else (),
    )
    tracer = Tracer() if _wants_report(args) else None

    def apply(shadow):
        updater = IncrementalTaxogram(
            shadow,
            IncrementalOptions(full_remine_fraction=args.remine_fraction),
        )
        # A fallback remine swaps in a fresh store object.
        return updater.apply(delta, tracer), updater.store

    result, store = shadow_commit(args.store, apply)
    print(
        f"applied delta (+{delta.added_count} graphs, "
        f"-{len(delta.remove_ids)} graphs) to {args.store}"
    )
    print(result.summary())
    shown = result.patterns if args.limit == 0 else result.patterns[: args.limit]
    for pattern in shown:
        print(
            " ",
            format_pattern(
                pattern, store.taxonomy.interner, store.database.edge_labels
            ),
        )
    hidden = len(result.patterns) - len(shown)
    if hidden > 0:
        print(f"  ... and {hidden} more (use --limit 0 to print all)")
    if _wants_report(args):
        _emit_report(args, _result_report(result))
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.serving import StoreReader

    if (args.pattern is None) == (args.top_k is None):
        print(
            "error: pass exactly one of --pattern or --top-k",
            file=sys.stderr,
        )
        return 2
    tracer = Tracer() if _wants_report(args) else None
    reader = StoreReader(args.store, tracer=tracer)
    database_size = reader.database_size
    if args.top_k is not None:
        answer = reader.query("top_k", k=args.top_k, label_filter=args.label)
        patterns = answer.value
        print(
            f"top {len(patterns)} patterns "
            f"(store version {answer.store_version})"
        )
        for pattern in patterns:
            print(" ", reader.render(pattern))
    else:
        pattern = reader.parse_pattern(args.pattern.read_text())
        answer = reader.query(
            args.op, pattern, min_support=args.min_support
        )
        if args.op == "support":
            count = answer.value
            fraction = count / database_size if database_size else 0.0
            print(
                f"support = {count}/{database_size} ({fraction:.3f}) "
                f"[store version {answer.store_version}]"
            )
        elif args.op == "contains":
            print(
                f"contains = {answer.value} "
                f"[store version {answer.store_version}]"
            )
        elif args.op == "graphs":
            match = answer.value
            gids = ", ".join(str(g) for g in sorted(match.graph_ids))
            print(
                f"support = {match.support_count}/{database_size} "
                f"via {match.path} [store version {answer.store_version}]"
            )
            print(f"  graphs: {gids if gids else '(none)'}")
            if match.occurrences is not None:
                print(f"  occurrences: {len(match.occurrences)}")
        else:  # specializations
            patterns = answer.value
            print(
                f"{len(patterns)} specializations "
                f"[store version {answer.store_version}]"
            )
            for spec in patterns:
                print(" ", reader.render(spec))
    if _wants_report(args):
        report = RunReport(
            algorithm="serving",
            counters=dict(reader.metrics.counters),
            gauges=dict(reader.metrics.gauges),
        )
        if tracer is not None and tracer.enabled:
            report.spans = tracer.root
        _emit_report(args, report)
    return 0


def _cmd_similar(args: argparse.Namespace) -> int:
    from repro.serving import StoreReader

    tracer = Tracer() if _wants_report(args) else None
    reader = StoreReader(args.store, tracer=tracer)
    database_size = reader.database_size
    pattern = reader.parse_pattern(args.pattern.read_text())
    answer = reader.query(
        args.op,
        pattern,
        sim_threshold=args.threshold,
        semantics=args.semantics,
        k=args.k,
        graph_id=args.graph_id,
    )
    if args.op == "similar":
        scored = answer.value
        print(
            f"{len(scored)} similar graphs "
            f"[store version {answer.store_version}]"
        )
        for entry in scored:
            print(f"  graph {entry.graph_id}: score {entry.score:.4f}")
    elif args.op == "similarity_score":
        print(
            f"similarity = {answer.value:.4f} "
            f"[store version {answer.store_version}]"
        )
    else:  # fuzzy_contains
        match = answer.value
        gids = ", ".join(str(g) for g in sorted(match.graph_ids))
        print(
            f"support = {match.support_count}/{database_size} "
            f"via {match.path} [store version {answer.store_version}]"
        )
        print(f"  graphs: {gids if gids else '(none)'}")
    if _wants_report(args):
        report = RunReport(
            algorithm="serving",
            counters=dict(reader.metrics.counters),
            gauges=dict(reader.metrics.gauges),
        )
        if tracer is not None and tracer.enabled:
            report.spans = tracer.root
        _emit_report(args, report)
    return 0


def _cmd_session(args: argparse.Namespace) -> int:
    from repro.serving import StoreReader
    from repro.sessions import SessionManager

    tracer = Tracer() if _wants_report(args) else None
    reader = StoreReader(args.store, tracer=tracer)
    manager = SessionManager(reader, tracer=tracer, instance="cli")
    session = manager.create(args.tenant)
    manager.add_examples(session.session_id, args.examples.read_text())
    result = manager.mine(
        session.session_id,
        min_support=args.min_support,
        semantics=args.semantics,
    )
    print(
        f"session {session.session_id} (tenant {session.tenant}): "
        f"{session.num_examples} examples, "
        f"{session.num_example_edges} edges"
    )
    print(
        f"mined {len(result.patterns)} patterns from "
        f"{result.candidates} candidates [store version "
        f"{result.store_version}, semantics {result.semantics}, "
        f"sigma {result.min_support}]"
    )
    shown = (
        result.patterns
        if args.top_k is None
        else result.patterns[: max(0, args.top_k)]
    )
    for pattern in shown:
        print(" ", manager.render(pattern))
    if args.top_k is not None and len(shown) < len(result.patterns):
        print(f"  ... and {len(result.patterns) - len(shown)} more")
    manager.delete(session.session_id)
    if _wants_report(args):
        report = RunReport(
            algorithm="sessions",
            counters=dict(reader.metrics.counters),
            gauges=dict(reader.metrics.gauges),
        )
        if tracer is not None and tracer.enabled:
            report.spans = tracer.root
        _emit_report(args, report)
    return 0


def _install_graceful_shutdown(server):
    """SIGTERM/SIGINT stop ``serve_forever()`` without killing the
    process, so the caller can flush and exit 0.

    ``shutdown()`` must not run on the ``serve_forever`` thread (it
    blocks until the serve loop acknowledges, which would deadlock a
    signal handler), so the handler hands it to a helper thread.
    Returns an event that is set once a signal arrived.
    """
    import signal
    import threading

    stopped = threading.Event()

    def _handler(signum: int, frame) -> None:
        if not stopped.is_set():
            stopped.set()
            threading.Thread(target=server.shutdown, daemon=True).start()

    signal.signal(signal.SIGTERM, _handler)
    signal.signal(signal.SIGINT, _handler)
    return stopped


def _say_stopped(args, signalled: bool, action: str) -> None:
    """The last line a serving command prints before it cleans up."""
    if args.max_requests is not None:
        print(f"handled {args.max_requests} requests, exiting")
    elif signalled:
        print(f"received shutdown signal, {action}")


def _run_threaded_front(args, server, banner, post_banner=None) -> bool:
    """Drive a :class:`~repro.serving.server.ThreadedHTTPFront`: banner
    after bind, then ``--max-requests`` requests or ``serve_forever()``
    until SIGTERM/SIGINT.  Returns whether a shutdown signal arrived."""
    # Install before the banner: orchestrators treat the banner as
    # "ready" and may signal immediately after.
    stopped = (
        _install_graceful_shutdown(server)
        if args.max_requests is None
        else None
    )
    print(banner(*server.address))
    sys.stdout.flush()
    if post_banner is not None:
        post_banner()
    try:
        if args.max_requests is not None:
            # Handler threads must outlive handle_request() so the
            # final response is written before the server closes.
            server.daemon_threads = False
            for _ in range(args.max_requests):
                server.handle_request()
        else:
            server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive mode
        pass
    return stopped is not None and stopped.is_set()


def _run_async_front(args, front, banner, post_banner=None) -> bool:
    """Drive an :class:`AsyncHTTPFront` the same way: banner after bind,
    graceful SIGTERM/SIGINT when running without ``--max-requests``.
    Returns whether a shutdown signal arrived."""
    import asyncio
    import signal

    stopped = {"signal": False}

    async def _run() -> None:
        # Handlers must be live before the banner: callers treat the
        # banner as "ready" and may SIGTERM immediately after it.
        if args.max_requests is None:
            loop = asyncio.get_running_loop()

            def _on_signal() -> None:
                stopped["signal"] = True
                front.request_stop()

            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(signum, _on_signal)
                except (NotImplementedError, RuntimeError):
                    pass
        host, port = await front.start()
        print(banner(host, port))
        if post_banner is not None:
            post_banner()
        sys.stdout.flush()
        try:
            await front.serve_until_stopped()
        finally:
            await front.shutdown()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:  # pragma: no cover - interactive mode
        pass
    return stopped["signal"]


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serving import AdmissionController, serve_async

    front, reader = serve_async(
        args.store,
        host=args.host,
        port=args.port,
        admission=AdmissionController(),
        max_requests=args.max_requests,
    )
    signalled = _run_async_front(
        args,
        front,
        lambda host, port: (
            f"serving {args.store} at http://{host}:{port} "
            f"(store version {reader.version}, {reader.num_classes} "
            f"classes, {reader.database_size} graphs)"
        ),
    )
    _say_stopped(args, signalled, "exiting")
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    from repro.observability import MetricsRegistry
    from repro.streaming import (
        ApplierOptions,
        StreamApplier,
        WriteAheadLog,
    )

    applier_options = ApplierOptions(
        max_batch_records=args.batch_records,
        max_latency_seconds=args.batch_latency,
    )
    if args.publish and not args.serve:
        print("error: --publish requires --serve", file=sys.stderr)
        return 2
    if args.secret is not None and not args.publish:
        print("error: --secret requires --publish", file=sys.stderr)
        return 2
    from repro.exceptions import CompressionError
    from repro.util.compression import normalize_codec

    try:
        wal_compress = normalize_codec(args.compress)
    except CompressionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.serve:
        return _cmd_ingest_serve(args, applier_options, wal_compress)
    metrics = MetricsRegistry()
    with WriteAheadLog(
        args.wal, metrics=metrics, compress=wal_compress
    ) as wal:
        applier = StreamApplier(
            args.store, wal, applier_options, metrics=metrics
        )
        if applier.recovery != "clean":
            print(f"recovered store after crash ({applier.recovery})")
        consumed = applier.drain()
    print(
        f"applied {consumed} journaled records to {args.store} "
        f"(applied seq {applier.applied_seq}, lag {applier.lag})"
    )
    for seq, reason in applier.rejected:
        print(f"  rejected record {seq}: {reason}")
    return 0


def _cmd_ingest_serve(
    args: argparse.Namespace, applier_options, wal_compress: str | None
) -> int:
    from repro.serving import (
        AdmissionController,
        AdmissionLimits,
        AdmissionPolicy,
        AsyncHTTPFront,
    )
    from repro.streaming import IngestCore, IngestOptions

    options = IngestOptions(
        max_lag_records=args.max_lag, wal_compress=wal_compress
    )
    if args.publish:
        from repro.replication import PrimaryCore

        core = PrimaryCore(
            args.store,
            args.wal,
            secret=args.secret,
            options=options,
            applier_options=applier_options,
        )
    else:
        core = IngestCore(
            args.store,
            args.wal,
            options=options,
            applier_options=applier_options,
        )
    admission = AdmissionController(
        AdmissionPolicy(AdmissionLimits.for_max_lag(args.max_lag)),
        lag_fn=lambda: core.applier.lag,
        metrics=core.metrics,
    )
    front = AsyncHTTPFront(
        core.routes(),
        host=args.host,
        port=args.port,
        admission=admission,
        max_requests=args.max_requests,
    )
    role = "publishing" if args.publish else "ingesting"

    def _post_banner() -> None:
        if core.applier.recovery != "clean":
            print(f"recovered store after crash ({core.applier.recovery})")
        core.start()

    signalled = _run_async_front(
        args,
        front,
        lambda host, port: (
            f"{role} into {args.store} at http://{host}:{port} "
            f"(wal {args.wal}, store version {core.reader.version}, "
            f"{core.reader.database_size} graphs)"
        ),
        post_banner=_post_banner,
    )
    _say_stopped(args, signalled, "flushing applier")
    core.close(drain=True)
    print(
        f"applied seq {core.applier.applied_seq}, lag {core.applier.lag}"
    )
    return 0


def _cmd_replicate(args: argparse.Namespace) -> int:
    from repro.replication import Follower, FollowerOptions, FollowerService
    from repro.streaming import ApplierOptions

    options = FollowerOptions(
        poll_interval_seconds=args.poll_interval,
        secret=args.secret,
    )
    if not args.serve:
        with Follower(
            args.store, args.wal, args.primary, options=options
        ) as follower:
            follower.catch_up(timeout=args.timeout)
            if follower.recovery not in (None, "clean"):
                print(
                    f"recovered replica after crash ({follower.recovery})"
                )
            if follower.bootstrapped:
                print(f"bootstrapped from {args.primary} store snapshot")
            print(
                f"replica {args.store} caught up to {args.primary} "
                f"(applied seq {follower.applied_seq}, "
                f"watermark {follower.last_watermark})"
            )
        return 0

    service = FollowerService(
        args.store,
        args.wal,
        args.primary,
        host=args.host,
        port=args.port,
        options=options,
        applier_options=ApplierOptions(max_latency_seconds=0.05),
    )
    try:
        signalled = _run_threaded_front(
            args,
            service.server,
            lambda host, port: (
                f"replicating {args.primary} into {args.store} at "
                f"http://{host}:{port} (wal {args.wal}, applied seq "
                f"{service.follower.applied_seq})"
            ),
            post_banner=service.start,
        )
        _say_stopped(args, signalled, "exiting")
    finally:
        applied = service.follower.applied_seq
        service.close()
    print(f"applied seq {applied}")
    return 0


def _cmd_route(args: argparse.Namespace) -> int:
    from repro.replication import HTTPReplica, RouterOptions, RouterService

    service = RouterService(
        [HTTPReplica(url) for url in args.replicas],
        host=args.host,
        port=args.port,
        options=RouterOptions(
            sharded=args.sharded, max_staleness=args.max_staleness
        ),
    )
    mode = "sharded" if args.sharded else "replicated"
    try:
        signalled = _run_threaded_front(
            args,
            service.server,
            lambda host, port: (
                f"routing over {len(args.replicas)} {mode} replicas at "
                f"http://{host}:{port}"
            ),
        )
        _say_stopped(args, signalled, "exiting")
    finally:
        service.close()
    return 0


def _graph_texts(path: Path) -> list[str]:
    """Split a graph-database file into per-graph texts, re-headered
    as standalone single-graph documents (``t # 0``)."""
    chunks: list[list[str]] = []
    current: list[str] | None = None
    for line in Path(path).read_text().splitlines():
        if line.startswith("t #"):
            if current is not None:
                chunks.append(current)
            current = ["t # 0"]
        elif line.strip() and current is not None:
            current.append(line)
    if current is not None:
        chunks.append(current)
    return ["\n".join(chunk) + "\n" for chunk in chunks if len(chunk) > 1]


def _cmd_loadtest(args: argparse.Namespace) -> int:
    import json
    import os
    import tempfile

    from repro.loadtest import (
        Envelope,
        FaultInjector,
        LoadOptions,
        LoadRunner,
        WorkloadMix,
        build_plan,
        seeded_fault_plan,
        verify_no_lost_acks,
        verify_version_monotonic,
    )
    from repro.loadtest.cluster import spawn_ingest, spawn_serve
    from repro.loadtest.faults import (
        FaultEvent,
        kill_and_restart,
        stall_fsync,
    )

    try:
        mix = WorkloadMix.parse(args.mix)
    except ValueError as exc:
        raise ReproError(str(exc)) from exc
    if args.url is not None and args.fault != "none":
        raise ReproError(
            "--fault needs a harness-spawned service; drop --url"
        )
    patterns = [
        text
        for file in (args.pattern_files or [])
        for text in _graph_texts(file)
    ]
    add_texts = [
        text
        for file in (args.add_files or [])
        for text in _graph_texts(file)
    ]
    options = LoadOptions(
        duration_seconds=args.duration,
        rate=args.rate,
        mix=mix,
        seed=args.seed,
        workers=args.workers,
    )
    plan = build_plan(options, patterns, add_texts)
    ingest_traffic = any(r.kind in ("ingest", "flush") for r in plan)
    if ingest_traffic and args.wal is None and args.url is None:
        raise ReproError(
            "ingest traffic needs --wal (to spawn `ingest --serve`) "
            "or --url of a live ingest service"
        )

    env = None
    faultpoints_path = None
    if args.fault == "stall-fsync":
        faultpoints_path = Path(tempfile.mkdtemp()) / "faults.json"
        faultpoints_path.write_text("{}")
        env = {"REPRO_FAULTPOINTS_FILE": str(faultpoints_path)}

    process = None
    if args.url is not None:
        base_url = args.url
    elif args.wal is not None:
        process = spawn_ingest(
            args.store, args.wal, max_lag=args.max_lag, env=env
        ).start()
        base_url = process.url
    else:
        process = spawn_serve(args.store, env=env).start()
        base_url = process.url

    events = []
    envelope = Envelope()
    if args.fault == "kill-applier":
        (kill_at, _), = seeded_fault_plan(
            args.seed, args.duration, ["kill_applier"]
        )
        events.append(
            FaultEvent(
                kill_at, "kill_applier",
                lambda: kill_and_restart(process),
            )
        )
        # The service is down for part of the window by design.
        envelope = Envelope(max_transport_fraction=0.75)
    elif args.fault == "stall-fsync":
        (stall_at, _), = seeded_fault_plan(
            args.seed, args.duration, ["stall_fsync"]
        )
        clear_at = min(args.duration * 0.9, stall_at + args.duration * 0.3)
        events.append(
            FaultEvent(
                stall_at, "stall_fsync",
                lambda: stall_fsync(faultpoints_path, args.stall_ms),
            )
        )
        events.append(
            FaultEvent(
                clear_at, "clear_fsync",
                lambda: stall_fsync(faultpoints_path, 0),
            )
        )
    injector = FaultInjector(events).start()

    print(
        f"load: {len(plan)} planned requests over {args.duration:g}s "
        f"at {args.rate:g} rps (seed {args.seed}, mix "
        f"{mix.query:g}:{mix.ingest:g}:{mix.flush:g}, fault "
        f"{args.fault})"
    )
    sys.stdout.flush()
    exit_code = 0
    try:
        report = LoadRunner(
            base_url, plan, workers=args.workers
        ).run()
        injector.join()
        if injector.fired:
            print(f"faults fired: {', '.join(injector.fired)}")
        for error in injector.errors:
            print(f"fault error: {error}", file=sys.stderr)
            exit_code = 1

        counts = report.counts
        print(
            f"outcomes: {report.total} total — ok {counts['ok']}, "
            f"shed {counts['shed']}, rejected {counts['rejected']}, "
            f"server_error {counts['server_error']}, transport "
            f"{counts['transport']}, timeout {counts['timeout']}"
        )
        print(f"throughput: {report.throughput:.1f} completed rps")
        for kind, hist in sorted(report.latency.items()):
            summary = hist.as_dict()
            print(
                f"latency[{kind}]: p50 {summary['p50_ms']:.1f}ms  "
                f"p99 {summary['p99_ms']:.1f}ms  "
                f"max {summary['max_ms']:.1f}ms"
            )

        if report.max_acked_seq is not None:
            snapshot = verify_no_lost_acks(base_url, report)
            print(
                f"durability: applied seq "
                f"{snapshot['applied_seq']} covers all "
                f"{len(report.acked_seqs)} acked writes"
            )
        verify_version_monotonic(report)
        print("consistency: store versions monotone per client")

        violations = envelope.violations(report)
        for violation in violations:
            print(f"envelope violation: {violation}", file=sys.stderr)
            exit_code = exit_code or 1
        if not violations:
            print("backpressure: inside the declared envelope")

        doc = report.as_dict()
        doc.update(
            {
                "seed": args.seed,
                "rate": args.rate,
                "duration_seconds": args.duration,
                "mix": args.mix,
                "fault": args.fault,
                "faults_fired": list(injector.fired),
            }
        )
        if args.report_out is not None:
            args.report_out.write_text(json.dumps(doc, indent=2) + "\n")
            print(f"report written to {args.report_out}")
        bench_dir = os.environ.get("REPRO_BENCH_JSON_DIR")
        if bench_dir:
            bench_path = Path(bench_dir) / "BENCH_loadtest.json"
            points = (
                json.loads(bench_path.read_text())
                if bench_path.exists()
                else []
            )
            points.append(doc)
            bench_path.write_text(
                json.dumps(points, indent=2, sort_keys=True) + "\n"
            )
    except (AssertionError, TimeoutError) as exc:
        print(f"chaos check failed: {exc}", file=sys.stderr)
        exit_code = 1
    finally:
        injector.cancel()
        if process is not None:
            process.terminate()
    return exit_code


def _print_store_compression(store_dir: Path) -> None:
    """Report the manifest's ``compression`` block, when present.

    Legacy (raw) stores have no such block and print nothing, keeping
    the pre-compression ``info`` output byte-identical.
    """
    import json

    try:
        manifest = json.loads(
            (store_dir / "manifest.json").read_text(encoding="utf-8")
        )
    except (OSError, ValueError):
        return
    block = manifest.get("compression")
    if not isinstance(block, dict):
        return
    files = block.get("files", {})
    raw = sum(int(s.get("raw", 0)) for s in files.values())
    stored = sum(int(s.get("stored", 0)) for s in files.values())
    print(f"compression: {block.get('codec')}")
    if raw:
        print(
            f"compression ratio: {stored / raw:.3f} "
            f"({raw} -> {stored} bytes)"
        )
    for name in sorted(files):
        stats = files[name]
        print(
            f"  {name}: {int(stats.get('raw', 0))} -> "
            f"{int(stats.get('stored', 0))} bytes"
        )


def _cmd_info(args: argparse.Namespace) -> int:
    from repro.incremental.store import FORMAT_VERSION
    from repro.serving import StoreReader
    from repro.streaming import WriteAheadLog

    reader = StoreReader(args.store)
    max_edges = reader.max_edges
    print(f"store: {args.store}")
    print(f"format version: {FORMAT_VERSION}")
    print(f"store version: {reader.version}")
    print(f"min support: {reader.min_support}")
    print(
        f"max edges: {'unlimited' if max_edges is None else max_edges}"
    )
    print(f"database: {reader.database_size} graphs")
    print(f"pattern classes: {reader.num_classes}")
    print(f"mined patterns: {reader.num_patterns}")
    print(f"border entries: {reader.num_border_entries}")
    _print_store_compression(args.store)
    applied = reader.app_state.get("wal_applied_seq")
    if applied is not None:
        print(f"applied wal seq: {applied}")
    role = reader.app_state.get("replication_role")
    if role is not None:
        print(f"replication role: {role}")
    source = reader.app_state.get("replication_source")
    if source is not None:
        print(f"replication source: {source}")
    if args.wal is not None:
        if not args.wal.is_dir():
            print(f"error: {args.wal} is not a directory", file=sys.stderr)
            return 2
        with WriteAheadLog(args.wal, fsync=False) as wal:
            journaled = wal.last_seq
        applied_seq = (
            int(applied) if applied is not None else -1
        )
        print(f"wal: {args.wal}")
        print(f"journaled seq: {journaled}")
        print(f"wal lag: {max(0, journaled - applied_seq)}")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    spec = dataset_spec(args.name)
    database, taxonomy = build_dataset(
        spec, graph_scale=args.graph_scale, taxonomy_scale=args.taxonomy_scale
    )
    write_graph_database(database, args.graphs_out)
    write_taxonomy(taxonomy, args.taxonomy_out)
    stats = database.stats()
    print(f"wrote {stats.graph_count} graphs to {args.graphs_out}")
    print(f"wrote {len(taxonomy)} concepts to {args.taxonomy_out}")
    print(DatabaseStats.header())
    print(stats.as_row(spec.name))
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    database = read_graph_database(args.database)
    print(DatabaseStats.header())
    print(database.stats().as_row(args.database.name))
    return 0


def _cmd_datasets() -> int:
    for family, specs in DATASET_FAMILIES.items():
        names = ", ".join(spec.name for spec in specs)
        print(f"{family}: {names}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    import time

    from repro.exceptions import MemoryBudgetExceeded

    taxonomy = read_taxonomy(args.taxonomy)
    database = read_graph_database(args.database, node_labels=taxonomy.interner)
    budget = None if args.memory_budget == 0 else args.memory_budget
    tracers: dict[str, Tracer] = {}

    def _tracer(name: str) -> Tracer | None:
        if not _wants_report(args):
            return None
        tracers[name] = Tracer()
        return tracers[name]

    runs = {
        "taxogram": lambda: Taxogram(
            TaxogramOptions(min_support=args.support, max_edges=args.max_edges)
        ).mine(database, taxonomy, _tracer("taxogram")),
        "baseline": lambda: Taxogram(
            TaxogramOptions.baseline(args.support, args.max_edges)
        ).mine(database, taxonomy, _tracer("baseline")),
        "tacgm": lambda: TAcGM(
            TAcGMOptions(
                min_support=args.support,
                max_edges=args.max_edges,
                memory_budget=budget,
            )
        ).mine(database, taxonomy),
    }
    if args.workers > 1:
        runs["parallel"] = lambda: Taxogram(
            TaxogramOptions(
                min_support=args.support,
                max_edges=args.max_edges,
                workers=args.workers,
            )
        ).mine(database, taxonomy, _tracer("parallel"))

    print(
        f"{'algorithm':<10} {'time':>10} {'patterns':>9} {'iso tests':>10} "
        f"{'bitset ops':>11}"
    )
    results = {}
    for name, run in runs.items():
        start = time.perf_counter()
        try:
            result = run()
        except MemoryBudgetExceeded as exc:
            print(f"{name:<10} {'OOM':>10}  ({exc})")
            continue
        elapsed = time.perf_counter() - start
        results[name] = result
        counters = result.counters
        print(
            f"{name:<10} {elapsed * 1000:9.0f}ms {len(result):>9} "
            f"{counters.isomorphism_tests:>10} "
            f"{counters.bitset_intersections:>11}"
        )

    if len(results) >= 2:
        values = list(results.values())
        reference = values[0].pattern_codes()
        agree = all(r.pattern_codes() == reference for r in values[1:])
        print(f"pattern sets agree: {agree}")
        if not agree:
            return 1

    if _wants_report(args):
        reports = {
            name: _result_report(result) for name, result in results.items()
        }
        if args.trace:
            for name in reports:
                print(reports[name].render())
            if "taxogram" in reports and "baseline" in reports:
                print(
                    RunReport.render_diff(
                        "taxogram",
                        "baseline",
                        reports["taxogram"].diff_counters(
                            reports["baseline"]
                        ),
                    )
                )
        if args.metrics_out:
            import json

            payload = {
                "runs": {
                    name: reports[name].to_dict() for name in sorted(reports)
                }
            }
            args.metrics_out.write_text(
                json.dumps(payload, indent=2, sort_keys=True) + "\n"
            )
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess tests
    sys.exit(main())
