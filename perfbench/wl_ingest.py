"""``ingest`` workload: writes beside reads through a replicated fleet.

One ``ingest --serve --publish`` primary, one ``replicate --serve``
follower and one ``route`` router, all started through the ``taxogram``
CLI.  A closed-loop writer alternates adding a graph and removing the
graph it added, so the store size stays level.  The added graphs are
drawn by the seed from the pool of graphs the D5000 generator makes
after the database's 500, so they follow the database's distribution
(its planted patterns and label skew).  For
each record it sends ``POST /ingest`` to the primary, then polls the
router with ``min_applied_seq`` until a probe ``support`` answer is
visible and correct (write-to-visible), then times one router ``/top``
(the first on the new store version).  A reader thread meanwhile sends
paced ``support`` queries through the router.  ``incremental``,
``streaming`` and ``replication`` do most of the work; ``serving``
runs with a cache that every version bump invalidates.

The client process runs two threads (writer and reader), no more than
the two cores it was sized on.
"""

from __future__ import annotations

import bisect
import shutil
import threading
import time

import spans
from common import (
    BATCH_LATENCY_S, FOLLOWER_POLL_S, MAX_EDGES, SIGMA, BenchError, Client,
    cli_argv, counter_delta, dir_bytes, fetch_metrics, fresh_dir, load_json,
    median, percentile, readings_delta, run_cli,
)
from inputs import Checker, Graph, parse_graphs, random_subgraph
from report import Outcome

SETUP_SAMPLES = 3  # fleet starts; one in each pass of a --trace 1 run
PROBE_POLL_S = 0.01
VISIBLE_TIMEOUT_S = 60.0
READER_PATTERNS = 40
READER_PAUSE_S = 0.1
TOP_K = 10
COUNTED_RECORDS = 2


def _parse_rendered(text: str) -> Graph:
    """A ``/top`` pattern rendering ``[0:a, 1:b | 0-1:e] sup=..``."""
    body = text[text.index("[") + 1:text.rindex("]")]
    nodes, _bar, edges = body.partition(" | ")
    labels = [item.split(":", 1)[1] for item in nodes.split(", ")]
    parsed = []
    for item in edges.split(", "):
        ends, _colon, label = item.partition(":")
        u, v = ends.split("-")
        parsed.append((int(u), int(v), label))
    return Graph(labels, parsed)


class Fleet:
    """Primary, follower and router processes of one set-up."""

    def __init__(self, ctx, store, wal, replica, replica_wal, trace_dir, tag):
        def argv(args, role):
            out = trace_dir / f"{role}-{tag}.json" if trace_dir else None
            self.trace_files[role] = out
            return cli_argv(args, out, role)

        self.trace_files: dict[str, object] = {}
        started = time.perf_counter()
        self.primary = ctx.procs.start(argv(
            ["ingest", str(store), "--wal", str(wal), "--serve", "--publish",
             "--port", "0", "--batch-latency", str(BATCH_LATENCY_S)],
            "primary"), ctx.env, ctx.root, "primary")
        self.primary_url = self.primary.url()
        self.follower = ctx.procs.start(argv(
            ["replicate", str(replica), "--from", self.primary_url,
             "--wal", str(replica_wal), "--serve", "--port", "0",
             "--poll-interval", str(FOLLOWER_POLL_S)],
            "follower"), ctx.env, ctx.root, "follower")
        self.follower_url = self.follower.url()
        self.router = ctx.procs.start(argv(
            ["route", "--replica", self.follower_url, "--port", "0"],
            "router"), ctx.env, ctx.root, "router")
        self.router_url = self.router.url()
        self.started = started

    def roles(self):
        return {"primary": self.primary, "follower": self.follower,
                "router": self.router}

    def stop(self) -> None:
        procs = (self.router, self.follower, self.primary)
        for proc in procs:
            proc.terminate()
        for proc in procs:
            proc.stop()


def run(ctx, traced: bool) -> Outcome:
    tag = "traced" if traced else "plain"
    work = fresh_dir(ctx.workdir / f"ingest-{tag}")
    if not hasattr(ctx, "ingest_store"):
        ctx.ingest_store = ctx.workdir / "ingest-pristine"
        run_cli(["mine", str(ctx.graphs), str(ctx.taxonomy), "--support",
                 str(SIGMA), "--max-edges", str(MAX_EDGES),
                 "--store-out", str(ctx.ingest_store)], ctx.env, ctx.root)
    store = work / "store"
    shutil.copytree(ctx.ingest_store, store)
    rng = ctx.rng_for("ingest")
    # The database as the writer knows it, with independent supports.
    model = Checker(ctx.taxonomy_parents, ctx.graph_list)
    # Reader patterns: support on the base database, and the added
    # graphs each contributes to later.
    reader_patterns = [random_subgraph(rng, rng.choice(ctx.graph_list), rng.randint(1, 2))
                       for _ in range(READER_PATTERNS)]
    reader_base = [model.support(p) for p in reader_patterns]
    reader_texts = [p.text() for p in reader_patterns]

    outcome = Outcome("ingest")
    setup = []
    trace_dir = work if traced else None
    fleet = None
    launches = 1 if ctx.trace else SETUP_SAMPLES
    for launch in range(launches):
        if fleet is not None:
            fleet.stop()
        last = launch == launches - 1
        fleet = Fleet(ctx, store, work / "wal", fresh_dir(work / f"replica{launch}"),
                      work / f"replica{launch}.wal", trace_dir if last else None,
                      str(launch))
        router = Client(fleet.router_url)
        deadline = time.monotonic() + VISIBLE_TIMEOUT_S
        while True:
            status, payload = router.request(
                "POST", "/query", {"op": "support", "pattern": reader_texts[0]})
            if status == 200:
                break
            if time.monotonic() > deadline:
                raise BenchError(f"router not answering: {status} {payload!r}")
            time.sleep(PROBE_POLL_S)
        if payload.get("value") != reader_base[0]:
            raise BenchError(f"router answered {payload!r}, expected "
                             f"{reader_base[0]}")
        setup.append(time.perf_counter() - fleet.started)
        router.close()
    replica = work / f"replica{launches - 1}"
    primary = Client(fleet.primary_url)
    router = Client(fleet.router_url)
    follower = Client(fleet.follower_url)
    states = {payload["store_version"]: None}  # version -> added graph

    reads: list[tuple] = []
    stop_reading = threading.Event()

    def reader() -> None:
        client = Client(fleet.router_url)
        read_rng = ctx.rng_for("ingest reads")
        while not stop_reading.is_set():
            index = read_rng.randrange(len(reader_texts))
            sent = time.perf_counter()
            try:
                status, payload = client.request(
                    "POST", "/query",
                    {"op": "support", "pattern": reader_texts[index]})
            except OSError:
                status, payload = 0, None
            done = time.perf_counter()
            reads.append((sent, done, status, index, payload))
            stop_reading.wait(READER_PAUSE_S)
        client.close()

    before = {role: proc.readings() for role, proc in fleet.roles().items()}
    metrics_before = {"follower": fetch_metrics(follower),
                      "router": fetch_metrics(router)}
    reading = threading.Thread(target=reader, name="reader")
    reading.start()
    cycles = []
    probe_calls: list[tuple[float, float]] = []
    counts: dict[str, int] = {}
    failed = 0
    added: Graph | None = None
    loop_start = time.perf_counter()
    try:
        while True:
            if added is None:
                graph = rng.choice(ctx.pool)
                doc = {"add": graph.text()}
                kind = "add"
            else:
                graph = added
                doc = {"remove": [len(model.graphs) - 1]}
                kind = "remove"
            probe = random_subgraph(rng, graph, rng.randint(1, 2))
            if kind == "add":
                model.add(graph)
            else:
                model.remove(len(model.graphs) - 1)
            expected = model.support(probe)
            probe_text = probe.text()
            sent = time.perf_counter()
            status, ack = primary.request("POST", "/ingest", doc)
            acked = time.perf_counter()
            if status != 202:
                raise BenchError(f"ingest refused: {status} {ack!r}")
            seq = ack["seq"]
            visible = None
            wrong = 0
            while time.perf_counter() - sent < VISIBLE_TIMEOUT_S:
                call = time.perf_counter()
                status, payload = router.request("POST", "/query", {
                    "op": "support", "pattern": probe_text,
                    "min_applied_seq": seq})
                probe_calls.append((call, time.perf_counter()))
                if status == 200:
                    if payload.get("value") == expected:
                        visible = time.perf_counter()
                        states[payload["store_version"]] = (
                            graph if kind == "add" else None)
                        break
                    wrong += 1
                time.sleep(PROBE_POLL_S)
            if visible is None or wrong:
                failed += 1
            top_start = time.perf_counter()
            status, top = router.request(
                "GET", f"/top?k={TOP_K}&min_applied_seq={seq}")
            top_done = time.perf_counter()
            if status != 200 or not _top_correct(top, model):
                failed += 1
            cycles.append({
                "kind": kind, "seq": seq, "sent": sent, "acked": acked,
                "visible": visible, "top_s": top_done - top_start,
                "ack_ms": (acked - sent) * 1000,
                "w2v_s": (visible - sent) if visible else None,
            })
            added = graph if kind == "add" else None
            if len(cycles) <= COUNTED_RECORDS:
                counts.update(_record_counts(primary, store, work / "wal",
                                             len(cycles)))
            # At least one add and one remove, whatever --seconds is.
            if (len(cycles) >= COUNTED_RECORDS
                    and time.perf_counter() - loop_start >= ctx.seconds):
                break
    finally:
        stop_reading.set()
        reading.join(30)
    after = {role: proc.readings() for role, proc in fleet.roles().items()}
    metrics_after = {"follower": fetch_metrics(follower),
                     "router": fetch_metrics(router)}

    # Reader answers: each served version maps to the database state
    # the writer's probe saw at that version.
    read_failed = 0
    for _sent, _done, status, index, payload in reads:
        if status != 200:
            read_failed += 1
            continue
        version = payload.get("store_version")
        candidates = ([states[version]] if version in states
                      else list(states.values()))
        allowed = {reader_base[index] + (
            1 if g is not None and model.embeds(reader_patterns[index], g) else 0)
            for g in candidates}
        if payload.get("value") not in allowed:
            read_failed += 1
    last_seq = cycles[-1]["seq"]
    durable = _final_check(follower, primary, store, replica, model, last_seq)
    primary.close(), router.close(), follower.close()
    fleet.stop()

    w2v = [c["w2v_s"] for c in cycles if c["w2v_s"] is not None]
    acks = [c["ack_ms"] for c in cycles]
    tops = [c["top_s"] for c in cycles]
    read_ms = [(done - sent) * 1000 for sent, done, _s, _i, _p in reads]
    records = len(cycles)
    roles = {role: dict(readings_delta(before[role], after[role]), records=records)
             for role in before}
    store_bytes, store_files = dir_bytes(store)
    peak = max(r["vmhwm_mb"] for r in roles.values())
    outcome.e2e = {
        "setup_s": (median(setup), "s"),
        "peak_rss_mb": (peak, "MB"),
        "store_mb": (store_bytes / 1e6, "MB"),
        "main_ms": (median(read_ms), "ms"),
        "second_ms": (median(tops) * 1000, "ms"),
    }
    outcome.named = [
        ("setup_s", median(setup), "s",
         f"median of {len(setup)} fleet starts to a first routed answer"),
        ("peak_rss_mb", peak, "MB", "max VmHWM over primary, follower, router"),
        ("w2v_p50_s", median(w2v) if w2v else float("nan"), "s",
         f"POST /ingest to a correct routed answer, n={len(w2v)}"),
        ("ingest_ack_p50_ms", median(acks), "ms", f"durable 202, n={len(acks)}"),
        ("top_after_write_p50_s", median(tops), "s", f"n={len(tops)}"),
        ("read_p50_ms", median(read_ms), "ms", f"router reads, n={len(read_ms)}"),
        ("read_p99_ms", percentile(read_ms, 99), "ms",
         f"n={len(read_ms)}, {max(0, len(read_ms) - -(-len(read_ms) * 99 // 100))}"
         " beyond"),
        ("store_mb", store_bytes / 1e6, "MB", f"{store_files} files"),
    ]
    outcome.attempted = 2 * records + len(reads)
    outcome.failed = failed + read_failed + (0 if durable else 1)
    outcome.checks.append(
        f"{records} records ({sum(c['kind'] == 'add' for c in cycles)} adds): "
        f"probe answers equal an independent count over the database as of "
        f"each seq, /top supports recounted; {failed} failed")
    outcome.checks.append(
        f"{len(reads)} router reads checked against the state of their store "
        f"version: {read_failed} failed")
    outcome.checks.append(
        f"follower database equals the primary's and the writer's model "
        f"after seq {last_seq}: {'yes' if durable else 'NO'}")
    # One pass cannot repeat its records; a --trace 1 run compares
    # these counts with those of its traced pass.
    outcome.set_counts(counts, None,
                       f"WAL and primary store after each of the first "
                       f"{COUNTED_RECORDS} records")
    outcome.wall_per_op = w2v or [VISIBLE_TIMEOUT_S]
    outcome.resources = roles
    if traced:
        _layers(outcome, fleet, cycles, probe_calls, roles, metrics_before,
                metrics_after)
    return outcome


def _record_counts(primary: Client, store, wal, record: int) -> dict:
    """Sizes after a record is applied on the primary (outside the
    timed part of the cycle)."""
    deadline = time.monotonic() + VISIBLE_TIMEOUT_S
    while time.monotonic() < deadline:
        _status, lag = primary.request("GET", "/lag")
        if isinstance(lag, dict) and lag.get("lag") == 0:
            break
        time.sleep(PROBE_POLL_S)
    wal_bytes, _ = dir_bytes(wal)
    store_bytes, store_files = dir_bytes(store)
    return {f"record{record}.wal_bytes": wal_bytes,
            f"record{record}.store_bytes": store_bytes,
            f"record{record}.store_files": store_files}


def _top_correct(payload, model: Checker) -> bool:
    if not isinstance(payload, dict) or not isinstance(payload.get("value"), list):
        return False
    supports = []
    for item in payload["value"]:
        if model.support(_parse_rendered(item["pattern"])) != item["support_count"]:
            return False
        supports.append(item["support_count"])
    return len(supports) == TOP_K and supports == sorted(supports, reverse=True)


def _final_check(follower, primary, store, replica, model, last_seq) -> bool:
    """No acknowledged write lost: both stores hold the writer's model."""
    deadline = time.monotonic() + VISIBLE_TIMEOUT_S
    while time.monotonic() < deadline:
        _s, health = follower.request("GET", "/health")
        _s, lag = primary.request("GET", "/lag")
        if (isinstance(health, dict) and health.get("applied_seq", -1) >= last_seq
                and isinstance(lag, dict) and lag.get("lag") == 0):
            break
        time.sleep(0.05)
    else:
        return False
    texts = [(store / "database.graphs"), (replica / "database.graphs")]
    if not all(path.exists() for path in texts):
        return False
    stored = [parse_graphs(path.read_text()) for path in texts]
    expected = [_normal(g) for g in model.graphs]
    return all([_normal(g) for g in graphs] == expected for graphs in stored)


def _normal(graph: Graph) -> tuple:
    return (tuple(graph.labels),
            tuple(sorted((min(u, v), max(u, v), l) for u, v, l in graph.edges)))


# Stage priority for the write-to-visible sweep: where spans of several
# layers overlap, the instant goes to the one listed first.  The
# follower's stages lead because visibility waits on the follower.
_W2V_STAGES = (
    ("follower", "store.save"),
    ("follower", "incremental.apply"),
    ("follower", "applier.batch"),
    ("follower", "follower.sync"),
    ("follower", "reader.query.support"),
    ("router", "router.query"),
    ("primary", "store.save"),
    ("primary", "incremental.apply"),
    ("primary", "applier.batch"),
    ("primary", "wal.append"),
)


def _layers(outcome, fleet, cycles, probe_calls, roles, before, after) -> None:
    traces = {}
    for role, path in fleet.trace_files.items():
        traces[role] = load_json(path) if path is not None and path.exists() else None
    absent = set()
    for role, trace in traces.items():
        if trace is None:
            absent.add(f"{role} trace")
        else:
            absent.update(trace["absent"])
    primary = (traces.get("primary") or {}).get("spans", [])
    follower = (traces.get("follower") or {}).get("spans", [])
    router = (traces.get("router") or {}).get("spans", [])
    records = len(cycles)

    def mean(recorded, name):
        values = spans.durations(recorded, name)
        return sum(values) / len(values) if values else 0.0

    def harvested(name):
        trace = traces.get("primary") or {}
        return spans.call_totals(trace, "incremental.apply").get(name, 0) / records

    follower_counters = (traces.get("follower") or {}).get("registry_counters", {})
    applies = [c for hook, c in (traces.get("primary") or {}).get("calls", [])
               if hook == "incremental.apply"]
    for number, counters in enumerate(applies[:COUNTED_RECORDS], start=1):
        for name in ("specialize.bitset_intersections",
                     "incremental.embeddings_replayed", "incremental.fallbacks",
                     "specialize.candidates_enumerated"):
            outcome.counts[f"record{number}.{name}"] = counters.get(name, 0)
    fb, fa = before["follower"], after["follower"]
    rb, ra = before["router"], after["router"]
    hits = counter_delta(fb, fa, "serving.cache_hits")
    misses = counter_delta(fb, fa, "serving.cache_misses")
    refresh = [s[2] - s[1] for i, s in enumerate(follower) if s[0] == "store.open"
               and spans.has_ancestor(follower, i, "reader.query.")]
    batch, apply = _applied_batches(primary)
    syncs = []
    for c in cycles:
        if c["visible"] is None:
            continue
        intervals = [(s[1], s[2]) for s in follower if s[0] == "follower.sync"]
        syncs.append(spans.covered(intervals, c["sent"], c["visible"]))
    outcome.layers.update({
        "store.save_s": (mean(primary, "store.save"), "s"),
        "incremental.apply_s": (mean(primary, "incremental.apply"), "s"),
        "incremental.bitset_intersections": (
            harvested("specialize.bitset_intersections"), "count"),
        "incremental.embeddings_replayed": (
            harvested("incremental.embeddings_replayed"), "count"),
        "incremental.fallbacks": (harvested("incremental.fallbacks"), "count"),
        "wal.append_s": (mean(primary, "wal.append"), "s"),
        "applier.batch_s": (batch, "s"),
        "applier.commit_overhead_s": (batch - apply, "s"),
        "primary.write_bytes_per_record": (roles["primary"]["wchar"] / records, "bytes"),
        "follower.write_bytes_per_record": (
            roles["follower"]["wchar"] / records, "bytes"),
        "follower.sync_s": (median(syncs) if syncs else 0.0, "s"),
        "follower.apply_s": (_applied_batches(follower)[0], "s"),
        "replication.records_fetched": (
            follower_counters.get("replication.records_fetched", 0), "count"),
        "router.query_s": (mean(router, "router.query"), "s"),
        "router.shed_stale": (
            counter_delta(rb, ra, "replication.router_shed_stale"), "count"),
        "router.retries": (
            counter_delta(rb, ra, "replication.router_retries"), "count"),
        "reader.query_s.support": (mean(follower, "reader.query.support"), "s"),
        "reader.query_s.graphs": (mean(follower, "reader.query.graphs"), "s"),
        "reader.query_s.top_k": (mean(follower, "reader.query.top_k"), "s"),
        "reader.refresh_s": (sum(refresh) / len(refresh) if refresh else 0.0, "s"),
        "reader.cache_hit_rate": (hits / (hits + misses) if hits + misses else 0.0,
                                  "ratio"),
        "serving.vf2_fallbacks": (
            counter_delta(fb, fa, "serving.vf2_fallbacks"), "count"),
        "serving.row_loads": (
            counter_delta(fb, fa, "serving.row_loads"), "count"),
        "serving.bitset_intersections": (
            counter_delta(fb, fa, "serving.bitset_intersections"), "count"),
        "primary.cpu_s": (roles["primary"]["cpu_s"], "s"),
        "follower.cpu_s": (roles["follower"]["cpu_s"], "s"),
        "router.cpu_s": (roles["router"]["cpu_s"], "s"),
    })
    # Only the writer's probe queries are on the write-to-visible path;
    # the reader thread's concurrent queries are not.
    by_role = {"primary": primary,
               "follower": [s for s in follower if s[0] != "reader.query.support"
                            or _within(s, probe_calls)],
               "router": [s for s in router if _within(s, probe_calls)]}
    totals = {f"{role}:{name}": 0.0 for role, name in _W2V_STAGES}
    visible = [c for c in cycles if c["visible"] is not None]
    wall = 0.0
    for c in visible:
        wall += c["visible"] - c["sent"]
        for key, value in _sweep(by_role, c["sent"], c["visible"]).items():
            totals[key] += value
    n = max(1, len(visible))
    rows = [(key, value / n) for key, value in totals.items()]
    outcome.reconcile(
        f"record, write-to-visible ({len(visible)} records; overlapping spans "
        "go to the later stage)", wall / n, rows, sorted(absent))


def _applied_batches(recorded) -> tuple[float, float]:
    """Mean duration of the applier batches that applied records (the
    applier loop also polls with empty batches), and of their
    ``incremental.apply`` children."""
    pairs = [(recorded[s[3]], s) for s in recorded
             if s[0] == "incremental.apply" and s[3] >= 0
             and recorded[s[3]][0] == "applier.batch"]
    if not pairs:
        return 0.0, 0.0
    batch = sum(b[2] - b[1] for b, _a in pairs) / len(pairs)
    apply = sum(a[2] - a[1] for _b, a in pairs) / len(pairs)
    return batch, apply


def _within(span, calls: list[tuple[float, float]]) -> bool:
    """Whether ``span`` lies inside one of the sorted client ``calls``."""
    index = bisect.bisect_right(calls, (span[1], float("inf"))) - 1
    return index >= 0 and calls[index][0] <= span[1] and span[2] <= calls[index][1]


def _sweep(by_role, lo: float, hi: float) -> dict[str, float]:
    """Split ``[lo, hi]`` among the stages, highest priority first."""
    events = []
    for rank, (role, name) in enumerate(_W2V_STAGES):
        for span in by_role[role]:
            if span[0] == name and span[2] > lo and span[1] < hi:
                events.append((max(span[1], lo), 1, rank))
                events.append((min(span[2], hi), -1, rank))
    events.sort()
    active = [0] * len(_W2V_STAGES)
    out = {f"{role}:{name}": 0.0 for role, name in _W2V_STAGES}
    previous = lo
    for moment, step, rank in events:
        top = next((r for r, count in enumerate(active) if count), None)
        if top is not None:
            role, name = _W2V_STAGES[top]
            out[f"{role}:{name}"] += moment - previous
        active[rank] += step
        previous = moment
    return out
