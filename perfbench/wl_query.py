"""``query`` workload: open-loop reads against one ``taxogram serve``.

Requests arrive on a seeded Poisson schedule and are timed from when
each was due, so a stall shows up in every request queued behind it.
The mix: mostly ``support``/``contains``/``graphs`` on mined patterns
and their generalizations and specializations, about a tenth on 4-edge
structures outside every mined class (the reader's VF2 fallback), and
a few ``/top``.  Keys are Zipf-skewed over a space about four times the
reader's 1,024-entry result cache.  No mining happens while measuring;
the load falls on ``serving`` (reader, cache, asyncio HTTP front).

Before the open loop, every ``serve`` start answers the same fixed
sequential probes on a fresh reader; their medians are the gated
latencies.
"""

from __future__ import annotations

import bisect
import queue
import random
import sys
import threading
import time

import spans
from common import (
    BENCH, BenchError, Client, cli_argv, counter_delta, dir_bytes,
    fetch_metrics, fresh_dir, load_json, median, percentile, readings_delta,
)
from inputs import Checker, Graph, canonical, random_path, random_subgraph
from report import Outcome

# serve starts; two in each pass of a --trace 1 run, which reports no
# set-up time and compares its counts across its passes.
SETUP_SAMPLES = 3
CLIENT_THREADS = 32
TOP_K = 10

# Key space: about 4x the reader's 1,024-entry result cache.
MINED_KEYS = 820
GENERALIZED_KEYS = 160
SPECIALIZED_KEYS = 140
OUTSIDE_KEYS = 256
MIX = (("in_class", 0.88), ("outside", 0.10), ("top", 0.02))
ZIPF_S = 1.0

# Load schedule, in shares of --seconds: the base rate, then a fixed
# ladder of higher rates (stopping at the first step that misses the
# limit).
BASE_RATE = 60.0
BASE_SHARE = 0.7
LADDER = (150.0, 220.0, 320.0, 460.0)
LADDER_SHARE = 0.3
P99_LIMIT_MS = 200.0
MISS_WINDOWS = 5
WARM_SECONDS = 1.0
FALLBACK_PROBES = 16
INCLASS_PROBES = 100
COUNT_PASS_REQUESTS = 100


class KeySpace:
    """Patterns with independently known answers, and a seeded stream of
    requests over them."""

    def __init__(self, dump: dict, ctx) -> None:
        rng = ctx.rng_for("query keys")
        self.patterns: list[tuple[Graph, dict]] = []
        mined = dump["patterns"]
        mined_canon = {}
        for entry in mined:
            graph = Graph(entry["labels"], [tuple(e) for e in entry["edges"]])
            mined_canon[canonical(graph)] = entry
        self.top_supports = sorted((e["support"] for e in mined), reverse=True)[:TOP_K]
        checker = Checker(ctx.taxonomy_parents, ctx.graph_list)
        children: dict[str, list[str]] = {}
        for concept, parents in ctx.taxonomy_parents.items():
            for parent in parents:
                children.setdefault(parent, []).append(concept)
        index_of: dict = {}

        def add(graph: Graph) -> bool:
            key = canonical(graph)
            if key in index_of:
                return False
            index_of[key] = len(self.patterns)
            known = mined_canon.get(key)
            if known is not None:
                ids = known["graph_ids"]
            else:
                ids = checker.graph_ids(graph)
            self.patterns.append((graph, {
                "support": len(ids), "graph_ids": ids,
                "in_result": known is not None,
            }))
            return True

        for entry in rng.sample(mined, min(MINED_KEYS, len(mined))):
            add(Graph(entry["labels"], [tuple(e) for e in entry["edges"]]))
        n_mined = len(self.patterns)
        for relation, target in ((ctx.taxonomy_parents, GENERALIZED_KEYS),
                                 (children, SPECIALIZED_KEYS)):
            goal = len(self.patterns) + target
            for _attempt in range(50 * target):
                if len(self.patterns) >= goal:
                    break
                entry = rng.choice(mined)
                node = rng.randrange(len(entry["labels"]))
                options = relation.get(entry["labels"][node], ())
                if not options:
                    continue
                labels = list(entry["labels"])
                labels[node] = rng.choice(sorted(options))
                add(Graph(labels, [tuple(e) for e in entry["edges"]]))
        in_class = len(self.patterns)

        def add_outside(count: int, relabel, draw) -> None:
            goal = len(self.patterns) + count
            for _attempt in range(50 * count):
                if len(self.patterns) >= goal:
                    break
                graph = draw(rng, rng.choice(ctx.graph_list), 4)
                # Four edges: larger than any mined class (max 3 edges).
                if graph is not None and len(graph.edges) == 4:
                    add(Graph([relabel(label) for label in graph.labels],
                              graph.edges))

        def some_ancestor(label: str) -> str:
            if rng.random() < 0.5:
                return label
            return rng.choice(sorted(checker.ancestors[label]))

        def root_of(label: str) -> str:
            return min(a for a in checker.ancestors[label]
                       if not ctx.taxonomy_parents.get(a))

        add_outside(OUTSIDE_KEYS, some_ancestor, random_subgraph)
        outside_end = len(self.patterns)

        # The sequential probes are the same on every seed (drawn from
        # the database as generated, before the seed re-encodes it), so
        # a seed changes their cost only through the encoding.  Warm-up:
        # one mined pattern per class, so every class's rows are loaded
        # before the in-class probes, which are other mined patterns
        # (not the readiness probe, index 0, either).  Fallback: 4-edge
        # paths with every label generalized to its root, so each one
        # scans every graph.
        fixed = random.Random("perfbench:query probes")
        representative = {}
        for key in sorted(mined_canon):
            representative.setdefault(mined_canon[key]["class_id"], key)
        taken = set(representative.values()) | {canonical(self.patterns[0][0])}
        candidates = sorted(set(mined_canon) - taken)

        def add_mined(keys) -> list[int]:
            for key in keys:
                entry = mined_canon[key]
                add(Graph(entry["labels"], [tuple(e) for e in entry["edges"]]))
            return [index_of[key] for key in keys]

        self.class_warmers = add_mined(sorted(representative.values()))
        self.inclass_probes = add_mined(fixed.sample(candidates, INCLASS_PROBES))
        probe_start = len(self.patterns)
        for _attempt in range(50 * FALLBACK_PROBES):
            if len(self.patterns) - probe_start >= FALLBACK_PROBES:
                break
            path = random_path(fixed, fixed.choice(ctx.base_graphs), 4)
            if path is not None:
                add(Graph([root_of(label) for label in path.labels], path.edges))
        self.fallback_probes = list(range(probe_start, len(self.patterns)))
        self.counts = {
            "mined": n_mined, "generalized_specialized": in_class - n_mined,
            "outside": outside_end - in_class,
            "fallback_probes": len(self.fallback_probes),
        }
        ops = ("support", "contains", "graphs")
        categories = {
            "in_class": [(op, i) for i in range(in_class) for op in ops],
            "outside": [(op, i) for i in range(in_class, outside_end)
                        for op in ops],
        }
        self.keys = sum(len(v) for v in categories.values())
        self.samplers = {}
        for name, keys in categories.items():
            rng.shuffle(keys)
            weights, total = [], 0.0
            for rank in range(1, len(keys) + 1):
                total += rank ** -ZIPF_S
                weights.append(total)
            self.samplers[name] = (keys, weights)
        self.texts = [g.text() for g, _ in self.patterns]

    def stream(self, rng):
        """Endless seeded request stream: (category, op, pattern index)."""
        names = [name for name, _ in MIX]
        cumulative, total = [], 0.0
        for _name, share in MIX:
            total += share
            cumulative.append(total)
        while True:
            category = names[bisect.bisect(cumulative, rng.random() * total)]
            if category == "top":
                yield category, "top", -1
                continue
            keys, weights = self.samplers[category]
            op, index = keys[bisect.bisect(weights, rng.random() * weights[-1])]
            yield category, op, index

    def send(self, client: Client, op: str, index: int):
        if op == "top":
            return client.request("GET", f"/top?k={TOP_K}")
        return client.request(
            "POST", "/query", {"op": op, "pattern": self.texts[index]}
        )

    def correct(self, op: str, index: int, payload) -> bool:
        if not isinstance(payload, dict) or "value" not in payload:
            return False
        value = payload["value"]
        if op == "top":
            return [p.get("support_count") for p in value] == self.top_supports
        expected = self.patterns[index][1]
        if op == "support":
            return value == expected["support"]
        if op == "contains":
            return value is expected["in_result"]
        return (value.get("support") == expected["support"]
                and value.get("graph_ids") == expected["graph_ids"])


class OpenLoop:
    """Seeded Poisson arrivals, a pool of keep-alive connections, and
    per-request records timed from each request's due time."""

    def __init__(self, url: str, space: KeySpace, stream, rng) -> None:
        self.space = space
        self.stream = stream
        self.rng = rng
        self.jobs: queue.Queue = queue.Queue()
        self.records: list[tuple] = []
        self._lock = threading.Lock()
        self.threads = [
            threading.Thread(target=self._work, args=(Client(url),), daemon=True)
            for _ in range(CLIENT_THREADS)
        ]
        for thread in self.threads:
            thread.start()

    def _work(self, client: Client) -> None:
        while True:
            job = self.jobs.get()
            if job is None:
                client.close()
                return
            phase, category, op, index, due = job
            sent = time.perf_counter()
            try:
                status, payload = self.space.send(client, op, index)
            except OSError:
                status, payload = 0, None
            done = time.perf_counter()
            ok = status == 200 and self.space.correct(op, index, payload)
            cached = isinstance(payload, dict) and payload.get("cached") is True
            with self._lock:
                self.records.append(
                    (phase, category, op, due, sent, done, status, ok, cached)
                )
            self.jobs.task_done()

    def phase(self, name: str, rate: float, seconds: float) -> dict:
        """Offer ``rate`` requests/s for ``seconds``; returns its summary."""
        start = time.perf_counter()
        due = start
        offered = 0
        late = []
        while True:
            due += self.rng.expovariate(rate)
            if due - start >= seconds:
                break
            now = time.perf_counter()
            if due > now:
                time.sleep(due - now)
            late.append(time.perf_counter() - due)
            category, op, index = next(self.stream)
            self.jobs.put((name, category, op, index, due))
            offered += 1
        end = start + seconds
        backlog = self.jobs.qsize()
        drain_deadline = time.perf_counter() + 30
        while self.jobs.unfinished_tasks and time.perf_counter() < drain_deadline:
            time.sleep(0.01)
        with self._lock:
            mine = [r for r in self.records if r[0] == name]
        lat = [(r[5] - r[3]) * 1000 for r in mine]
        ok = [r for r in mine if r[7]]
        return {
            "name": name, "rate": rate, "seconds": seconds, "offered": offered,
            "completed": len(mine), "ok": len(ok),
            "p50_ms": median(lat), "p99_ms": percentile(lat, 99),
            "achieved_per_s": sum(1 for r in ok if r[5] <= end) / seconds,
            "queued_at_end": backlog,
            "late_p50_ms": median(late) * 1000 if late else 0.0,
            "late_p99_ms": percentile(late, 99) * 1000 if late else 0.0,
            "shed": sum(1 for r in mine if r[6] == 429),
            "records": mine,
        }

    def close(self) -> None:
        for _ in self.threads:
            self.jobs.put(None)
        for thread in self.threads:
            thread.join(10)


def _serve(ctx, store, traced: bool, trace_dir, tag: str):
    trace_out = trace_dir / f"serve-{tag}.json" if traced else None
    argv = cli_argv(["serve", str(store), "--port", "0"], trace_out, "serve")
    proc = ctx.procs.start(argv, ctx.env, ctx.root, f"serve {tag}")
    return proc, trace_out


def _ready(proc, space: KeySpace) -> tuple[Client, float]:
    """Wait for the serve banner and one correct answer."""
    client = Client(proc.url())
    status, payload = space.send(client, "support", 0)
    if status != 200 or not space.correct("support", 0, payload):
        raise BenchError(f"serve answered {status} {payload!r} to the probe")
    return client, time.perf_counter() - proc.started


def run(ctx, traced: bool) -> Outcome:
    tag = "traced" if traced else "plain"
    work = fresh_dir(ctx.workdir / f"query-{tag}")
    if not hasattr(ctx, "query_space"):
        dump_path = ctx.workdir / "patterns.json"
        store = ctx.workdir / "query-store"
        worker = ctx.procs.start(
            [sys.executable, str(BENCH / "mine_worker.py"), "--mode", "store",
             "--graphs", str(ctx.graphs), "--taxonomy", str(ctx.taxonomy),
             "--store", str(store), "--out", str(dump_path)],
            ctx.env, ctx.root, "store worker",
        )
        if worker.wait(170) != 0:
            raise BenchError(f"store worker failed: {worker.tail()}")
        ctx.query_dump = load_json(dump_path)
        ctx.query_store = store
        ctx.query_space = KeySpace(ctx.query_dump, ctx)
    space: KeySpace = ctx.query_space
    store = ctx.query_store
    outcome = Outcome("query")

    setup = []
    # Each launch's fresh reader first loads every class's rows (one
    # query per class), then answers the sequential probes, one request
    # in flight at a time on keys it has not answered yet: the uncached
    # service latency of the bit-set path and of the VF2 fallback, with
    # no queueing behind other requests.  Probing every launch spreads
    # the samples over the run, so a few seconds of a slowed machine
    # move the medians less.  Every launch but the last then makes the
    # exact-count replay; the replays must agree.
    inclass: list[float] = []
    fallback: list[float] = []
    probes_ok = probes_sent = 0
    replays = []
    launches = 2 if ctx.trace else SETUP_SAMPLES
    for launch in range(launches):
        main = launch == launches - 1
        proc, trace_out = _serve(ctx, store, traced and main, work,
                                 "main" if main else f"probe{launch}")
        client, ready = _ready(proc, space)
        setup.append(ready)
        for indices, latencies in ((space.class_warmers, []),
                                   (space.inclass_probes, inclass),
                                   (space.fallback_probes, fallback)):
            probes_ok += _sequential(client, space, indices, latencies)
            probes_sent += len(indices)
        if main:
            break
        replays.append(_count_pass(client, space, ctx))
        client.close()
        proc.stop()
    outcome.set_counts(replays[0],
                       all(r == replays[0] for r in replays) if len(replays) > 1
                       else None,
                       f"sequential replay of {COUNT_PASS_REQUESTS} seeded "
                       f"requests on fresh readers: {len(replays)}")
    status, payload = client.request("GET", f"/top?k={TOP_K}")
    if status != 200 or not space.correct("top", -1, payload):
        raise BenchError(f"warm-up /top failed: {status}")
    loop = OpenLoop(proc.url(), space, space.stream(ctx.rng_for("query stream")),
                    ctx.rng_for("query arrivals"))
    loop.phase("warm", BASE_RATE, WARM_SECONDS)
    before = proc.readings()
    metrics_before = fetch_metrics(client)
    phases = [loop.phase("base", BASE_RATE, ctx.seconds * BASE_SHARE)]
    mid = proc.readings()
    metrics_mid = fetch_metrics(client)
    step_s = ctx.seconds * LADDER_SHARE / len(LADDER)
    for rate in LADDER:
        result = loop.phase(f"ladder{rate:g}", rate, step_s)
        phases.append(result)
        if not _meets(result):
            break
    loop.close()
    after = proc.readings()
    client.close()
    proc.stop()

    base = phases[0]
    measured = [r for p in phases for r in p["records"]]
    # Cache misses of mined-class queries take the bit-set path; their
    # median is steadier than the all-request median, which sits
    # between the cached and the uncached mode.  The median of the
    # per-window medians keeps a few seconds of a slowed machine from
    # moving it.
    misses = [((r[5] - r[3]) * 1000, r[3]) for r in base["records"]
              if r[1] == "in_class" and not r[8]]
    start = min(r[3] for r in base["records"])
    width = ctx.seconds * BASE_SHARE / MISS_WINDOWS
    windows = [[ms for ms, due in misses if int((due - start) // width) == k]
               for k in range(MISS_WINDOWS)]
    miss_p50 = median([median(w) for w in windows if w])
    cpu_ms_per_answer = (readings_delta(before, mid)["cpu_s"] * 1000
                         / max(base["ok"], 1))
    store_bytes, store_files = dir_bytes(store)
    outcome.e2e = {
        "setup_s": (median(setup), "s"),
        "peak_rss_mb": (after["vmhwm_mb"], "MB"),
        "store_mb": (store_bytes / 1e6, "MB"),
        "main_ms": (median(fallback), "ms"),
        "second_ms": (cpu_ms_per_answer, "ms"),
    }
    outcome.named = [
        ("setup_s", median(setup), "s", f"median of {len(setup)} serve starts"),
        ("peak_rss_mb", after["vmhwm_mb"], "MB", "serve VmHWM"),
        ("query_p50_ms", base["p50_ms"], "ms",
         f"base rate {BASE_RATE:g}/s, n={base['completed']}"),
        ("miss_p50_ms", miss_p50, "ms",
         f"uncached in-class requests at the base rate, n={len(misses)}; "
         f"median of the medians of {MISS_WINDOWS} equal windows"),
        ("query_p99_ms", base["p99_ms"], "ms",
         f"n={base['completed']}, {_beyond(base['completed'], 99)} beyond"),
        ("inclass_p50_ms", median(inclass), "ms",
         f"{len(inclass)} mined-pattern support queries one at a time, "
         f"{len(space.inclass_probes)} distinct on each of {len(setup)} "
         "fresh readers (bit-set path, uncached)"),
        ("fallback_p50_ms", median(fallback), "ms",
         f"{len(fallback)} out-of-class support queries one at a time, "
         f"{len(space.fallback_probes)} distinct on each of {len(setup)} "
         "fresh readers (VF2 fallback, uncached)"),
        ("query_max_qps", _highest_meeting(phases), "1/s",
         f"highest rate of the ladder {BASE_RATE:g}, "
         f"{', '.join(f'{r:g}' for r in LADDER)}/s with p99 <= "
         f"{P99_LIMIT_MS:g} ms, no refusal and no backlog"),
        ("cpu_ms_per_answer", cpu_ms_per_answer, "ms",
         "serve process CPU per base-rate answer"),
        ("store_mb", store_bytes / 1e6, "MB", f"{store_files} files"),
    ]
    for p in phases:
        outcome.checks.append(
            f"phase {p['name']}: offered {p['offered']} at "
            f"{p['rate']:g}/s, "
            f"ok {p['ok']}, shed {p['shed']}, p50 {p['p50_ms']:.2f} ms, "
            f"p99 {p['p99_ms']:.2f} ms, queued at end {p['queued_at_end']}, "
            f"generator late p50/p99 {p['late_p50_ms']:.2f}/"
            f"{p['late_p99_ms']:.2f} ms"
            f" -> {'meets' if _meets(p) else 'misses'} the limit"
        )
    outcome.attempted = len(measured) + probes_sent
    # Wrong answers fail anywhere; refusals (429) fail at the base rate
    # and only make an over-capacity step miss its limit.
    outcome.failed = sum(1 for r in measured if not r[7] and r[6] != 429)
    outcome.failed += base["shed"] + probes_sent - probes_ok
    outcome.checks.insert(0, (
        f"{len(space.patterns)} patterns ({space.counts}), {space.keys} keys; "
        f"answers checked against mining supports / independent matcher: "
        f"{sum(1 for r in measured if r[7]) + probes_ok} of "
        f"{outcome.attempted} correct"
    ))
    outcome.wall_per_op = [(r[5] - r[4]) for r in base["records"]]
    outcome.resources = {"serve": readings_delta(before, mid)}
    outcome.resources["serve"]["vmhwm_mb"] = after["vmhwm_mb"]
    if traced:
        _layers(outcome, trace_out, phases, metrics_before, metrics_mid,
                outcome.resources["serve"])
    return outcome


def _sequential(client: Client, space: KeySpace, indices,
                latencies: list[float]) -> int:
    """``support`` queries on ``indices``, one at a time; appends their
    latencies (ms) and returns how many answers were correct."""
    ok = 0
    for index in indices:
        sent = time.perf_counter()
        status, payload = space.send(client, "support", index)
        latencies.append((time.perf_counter() - sent) * 1000)
        ok += status == 200 and space.correct("support", index, payload)
    return ok


def _highest_meeting(phases: list[dict]) -> float:
    meeting = [p["rate"] for p in phases if _meets(p)]
    return max(meeting) if meeting else 0.0


def _meets(phase: dict) -> bool:
    return (phase["p99_ms"] <= P99_LIMIT_MS and phase["shed"] == 0
            and phase["ok"] == phase["completed"]
            and phase["queued_at_end"] <= max(2, phase["rate"] * 0.05))


def _beyond(n: int, pct: float) -> int:
    return n - int(-(-n * pct // 100))


def _count_pass(client: Client, space: KeySpace, ctx) -> dict:
    """A sequential replay of a seeded request prefix on a fresh reader;
    returns its counters, which repeat exactly for a seed."""
    stream = space.stream(ctx.rng_for("query count pass"))
    sent = 0
    while sent < COUNT_PASS_REQUESTS:
        _category, op, index = next(stream)
        if op == "top":
            continue
        space.send(client, op, index)
        sent += 1
    first = fetch_metrics(client)
    names = ("serving.cache_hits", "serving.cache_misses", "serving.row_loads",
             "serving.vf2_fallbacks", "serving.vf2_tests",
             "serving.bitset_intersections")
    return {name: counter_delta({}, first, name) for name in names}


def _layers(outcome, trace_out, phases, before, after, serve) -> None:
    """Per-layer figures over the base-rate phase."""
    trace = load_json(trace_out)
    base = phases[0]
    lo = min(r[3] for r in base["records"])
    hi = max(r[5] for r in base["records"])
    recorded = trace["spans"]
    in_base = [i for i, s in enumerate(recorded) if lo <= s[1] and s[2] <= hi]
    window = set(in_base)

    def mean_of(name):
        values = [recorded[i][2] - recorded[i][1] for i in in_base
                  if recorded[i][0] == name]
        return sum(values) / len(values) if values else 0.0

    def delta(name):
        return counter_delta(before, after, name)

    hits, misses = delta("serving.cache_hits"), delta("serving.cache_misses")
    reader_ms = [(recorded[i][2] - recorded[i][1]) * 1000 for i in in_base
                 if recorded[i][0].startswith("reader.query.")]
    client_ms = [(r[5] - r[4]) * 1000 for r in base["records"]]
    overhead = (sum(client_ms) - sum(reader_ms)) / len(client_ms)
    refresh = [recorded[i][2] - recorded[i][1] for i in in_base
               if recorded[i][0] == "store.open"
               and spans.has_ancestor(recorded, i, "reader.query.")]
    outcome.layers.update({
        "reader.query_s.support": (mean_of("reader.query.support"), "s"),
        "reader.query_s.graphs": (mean_of("reader.query.graphs"), "s"),
        "reader.query_s.top_k": (mean_of("reader.query.top_k"), "s"),
        "reader.refresh_s": (sum(refresh) / len(refresh) if refresh else 0.0, "s"),
        "reader.cache_hit_rate": (hits / (hits + misses) if hits + misses else 0.0,
                                  "ratio"),
        "serving.vf2_fallbacks": (delta("serving.vf2_fallbacks"), "count"),
        "serving.row_loads": (delta("serving.row_loads"), "count"),
        "serving.bitset_intersections": (
            delta("serving.bitset_intersections"), "count"),
        "aserver.overhead_ms": (overhead, "ms"),
        "aserver.shed": (sum(p["shed"] for p in phases), "count"),
        "serve.cpu_s": (serve["cpu_s"], "s"),
    })
    # Reconciliation per base-rate request: client time from send to
    # answer = reader compute (spans) + the rest (HTTP front, queueing
    # for the interpreter lock, transport: the unattributed remainder).
    n = len(client_ms)
    rows = [(name, value / n) for name, value in
            spans.self_times(recorded, window).items()]
    outcome.reconcile(
        f"base-rate request ({n} requests, send to answer; the remainder is "
        "the HTTP front, queueing and transport)", sum(client_ms) / n / 1000,
        rows, trace["absent"],
    )


