"""Executable check of the docs/TUTORIAL.md walkthrough.

Documentation that doesn't run is worse than none; this test mirrors the
tutorial's snippets step by step so the walkthrough can never drift from
the library.
"""

from __future__ import annotations

from repro import (
    GraphDatabase,
    GSpanMiner,
    MemoryBudgetExceeded,
    TAcGM,
    TAcGMOptions,
    Taxogram,
    TaxogramOptions,
    format_pattern,
    mine,
    mine_with_oracle,
    taxonomy_from_parent_names,
)


def _setup():
    taxonomy = taxonomy_from_parent_names(
        {
            "molecular_function": [],
            "transporter": "molecular_function",
            "catalytic_activity": "molecular_function",
            "carrier": "transporter",
            "cation_transporter": "transporter",
            "helicase": "catalytic_activity",
            "dna_helicase": "helicase",
        }
    )
    db = GraphDatabase(node_labels=taxonomy.interner)
    db.new_graph(
        ["carrier", "dna_helicase", "cation_transporter"],
        [(0, 1, "interacts"), (1, 2, "interacts")],
    )
    db.new_graph(["cation_transporter", "helicase"], [(0, 1, "interacts")])
    db.new_graph(["carrier", "helicase"], [(0, 1, "interacts")])
    return taxonomy, db


class TestTutorial:
    def test_step2_plain_mining_finds_nothing(self):
        taxonomy, db = _setup()
        assert GSpanMiner(db, min_support=1.0).mine() == []

    def test_step3_taxogram_finds_the_implied_pattern(self):
        taxonomy, db = _setup()
        result = mine(db, taxonomy, min_support=1.0)
        rendered = {format_pattern(p, taxonomy.interner) for p in result}
        assert "[0:helicase, 1:transporter | 0-1] sup=1.000" in rendered
        pattern = result.patterns[0]
        assert pattern.support == 1.0
        assert pattern.support_set == frozenset({0, 1, 2})
        assert set(result.stage_seconds) == {
            "relabel", "mine_classes", "specialize",
        }

    def test_step4_options_and_disk_backend(self):
        taxonomy, db = _setup()
        options = TaxogramOptions(min_support=0.5, max_edges=3)
        reference = Taxogram(options).mine(db, taxonomy)
        disk = Taxogram(
            TaxogramOptions(
                min_support=0.5, max_edges=3, occurrence_index_backend="disk"
            )
        ).mine(db, taxonomy)
        baseline = Taxogram(
            TaxogramOptions.baseline(min_support=0.5, max_edges=3)
        ).mine(db, taxonomy)
        assert disk.pattern_codes() == reference.pattern_codes()
        assert baseline.pattern_codes() == reference.pattern_codes()

    def test_step5_tacgm_agreement_or_oom(self):
        taxonomy, db = _setup()
        reference = mine(db, taxonomy, min_support=0.5)
        try:
            bottom_up = TAcGM(
                TAcGMOptions(min_support=0.5, memory_budget=1_000_000)
            ).mine(db, taxonomy)
        except MemoryBudgetExceeded:
            return  # also a documented outcome
        assert bottom_up.pattern_codes() == reference.pattern_codes()
        assert bottom_up.counters.isomorphism_tests > 0

    def test_step8_directed(self):
        taxonomy, _db = _setup()
        from repro.directed import DiGraphDatabase, mine_directed

        ddb = DiGraphDatabase(node_labels=taxonomy.interner)
        ddb.new_graph(["carrier", "helicase"], [(0, 1, "activates")])
        ddb.new_graph(["transporter", "dna_helicase"], [(0, 1, "activates")])
        directed = mine_directed(ddb, taxonomy, min_support=1.0)
        assert len(directed) == 1
        pattern = directed.patterns[0]
        (source, target, _label), = pattern.graph.arcs()
        assert taxonomy.name_of(pattern.graph.node_label(source)) == "transporter"
        assert taxonomy.name_of(pattern.graph.node_label(target)) == "helicase"

    def test_step6_oracle_agreement(self):
        taxonomy, db = _setup()
        oracle = mine_with_oracle(db, taxonomy, min_support=1.0, max_edges=3)
        result = mine(db, taxonomy, min_support=1.0, max_edges=3)
        assert oracle.pattern_codes() == result.pattern_codes()

    def test_step11_observability(self):
        taxonomy, db = _setup()
        from repro import RunReport, Tracer, mine_baseline

        tracer = Tracer()
        result = mine(db, taxonomy, min_support=1.0, tracer=tracer)
        report = result.report
        assert report is not None
        assert report.counter("specialize.bitset_intersections") > 0
        rendered = report.render()
        assert "== run report: taxogram ==" in rendered
        assert "spans:" in rendered
        assert "gspan.extend" in rendered

        fast = mine(db, taxonomy, min_support=1.0).report
        slow = mine_baseline(db, taxonomy, min_support=1.0).report
        deltas = fast.diff_counters(slow)
        # The paper's story in two counters: the enhanced pipeline
        # intersects bit-sets where the baseline isomorphism-tests.
        assert "specialize.bitset_intersections" in deltas
        assert deltas["specialize.bitset_intersections"][0] > 0

        restored = RunReport.from_json(report.to_json())
        assert restored.to_dict() == report.to_dict()

    def test_step12_incremental_mining(self, tmp_path):
        taxonomy, db = _setup()
        from repro import DatabaseDelta, IncrementalTaxogram

        store_dir = tmp_path / "pathways.store"
        options = TaxogramOptions(min_support=0.5, store_out=str(store_dir))
        Taxogram(options).mine(db, taxonomy)  # also writes the store

        # later — a new pathway arrives...
        adds = GraphDatabase(node_labels=taxonomy.interner)
        adds.new_graph(["carrier", "dna_helicase"], [(0, 1, "interacts")])

        updater = IncrementalTaxogram(str(store_dir))
        updated = updater.apply(DatabaseDelta.adding(adds))
        assert updated.report.counter("incremental.fallbacks") == 0

        # ...and graph 1 is retracted
        updated = updater.apply(DatabaseDelta.removing([1]))

        # every apply is equivalent to fresh mining of the updated database
        expected = GraphDatabase(node_labels=taxonomy.interner)
        expected.new_graph(
            ["carrier", "dna_helicase", "cation_transporter"],
            [(0, 1, "interacts"), (1, 2, "interacts")],
        )
        expected.new_graph(["carrier", "helicase"], [(0, 1, "interacts")])
        expected.new_graph(["carrier", "dna_helicase"], [(0, 1, "interacts")])
        fresh = mine(expected, taxonomy, min_support=0.5)
        assert updated.pattern_codes() == fresh.pattern_codes()
        assert [p.class_id for p in updated.patterns] == [
            p.class_id for p in fresh.patterns
        ]

        # the store survives restarts: reopening continues from disk
        reopened = IncrementalTaxogram(str(store_dir))
        assert len(reopened.store.database) == 3

    def test_step13_querying_a_store(self, tmp_path):
        taxonomy, db = _setup()
        from repro import StoreReader

        store_dir = tmp_path / "pathways.store"
        options = TaxogramOptions(min_support=0.5, store_out=str(store_dir))
        Taxogram(options).mine(db, taxonomy)

        reader = StoreReader(store_dir)

        # Exact support for any pattern at or below a mined class — no
        # isomorphism tests, even for patterns mining never emitted.
        pattern = reader.parse_pattern(
            "t # 0\nv 0 transporter\nv 1 helicase\ne 0 1 interacts\n"
        )
        assert reader.support(pattern) == 3
        assert reader.contains(pattern)

        specialized = reader.parse_pattern(
            "t # 0\nv 0 carrier\nv 1 helicase\ne 0 1 interacts\n"
        )
        assert reader.support(specialized) == 2

        # top-k over everything the store mined, most frequent first.
        top = reader.top_k(3)
        assert top and top[0].support_count >= top[-1].support_count

        # the whole session ran on bit-sets alone
        assert reader.metrics.counter("serving.vf2_tests") == 0

        # repeated queries come from the versioned cache...
        assert reader.query("support", pattern).cached

        # ...which an incremental update invalidates: readers follow the
        # store to its new version at the next query.
        from repro import DatabaseDelta, IncrementalTaxogram

        IncrementalTaxogram(str(store_dir)).apply(DatabaseDelta.removing([1]))
        answer = reader.query("support", pattern)
        assert answer.store_version == reader.version == 2
        assert answer.value == 2

    def test_step14_streaming_ingest(self, tmp_path):
        taxonomy, db = _setup()
        from repro import DatabaseDelta, mine
        from repro.streaming import StreamApplier, WriteAheadLog

        store_dir = tmp_path / "pathways.store"
        options = TaxogramOptions(min_support=0.5, store_out=str(store_dir))
        Taxogram(options).mine(db, taxonomy)

        adds = GraphDatabase(node_labels=taxonomy.interner)
        adds.new_graph(["carrier", "dna_helicase"], [(0, 1, "interacts")])

        wal_dir = tmp_path / "pathways.wal"
        with WriteAheadLog(wal_dir) as wal:
            seq = wal.append(DatabaseDelta.adding(adds))
            wal.append(DatabaseDelta.removing([99]))  # will be rejected

            applier = StreamApplier(store_dir, wal)
            assert applier.drain() == 2
            # The committed offset covers both records — including the
            # deterministically rejected one, which is reported, not
            # silently dropped and not batch-poisoning.
            assert applier.applied_seq == seq + 1
            assert applier.lag == 0
            [(rejected_seq, reason)] = applier.rejected
            assert rejected_seq == seq + 1
            assert "out of range" in reason

        # The drained store is what fresh mining of the updated
        # database would produce.
        expected = GraphDatabase(node_labels=taxonomy.interner)
        for gid in range(len(db)):
            expected.add_graph(db[gid].copy())
        expected.new_graph(["carrier", "dna_helicase"], [(0, 1, "interacts")])
        fresh = mine(expected, taxonomy, min_support=0.5)
        from repro import StoreReader

        reader = StoreReader(store_dir)
        assert reader.database_size == 4
        for pattern in fresh.patterns:
            assert reader.contains(pattern.graph)

        # Replay is idempotent: reopening applies nothing new.
        with WriteAheadLog(wal_dir) as wal:
            assert StreamApplier(store_dir, wal).drain() == 0

    def test_step15_replication(self, tmp_path):
        taxonomy, db = _setup()
        import json
        import urllib.request

        from repro import StoreReader
        from repro.replication import (
            Follower,
            FollowerOptions,
            LocalReplica,
            PrimaryCore,
            QueryRouter,
            StaleReplicasError,
        )
        from repro.serving import AsyncHTTPFront
        from repro.streaming import ApplierOptions, IngestOptions

        store_dir = tmp_path / "pathways.store"
        options = TaxogramOptions(min_support=0.5, store_out=str(store_dir))
        Taxogram(options).mine(db, taxonomy)

        # A publishing primary: the step-14 ingest surface plus the
        # replication surface (manifest / segments / snapshot), signed,
        # mounted on one asyncio front.
        primary = PrimaryCore(
            store_dir,
            tmp_path / "pathways.wal",
            secret="hush",
            options=IngestOptions(wait_timeout_seconds=60.0),
            applier_options=ApplierOptions(max_latency_seconds=0.02),
        )
        primary.start()
        front = AsyncHTTPFront(primary.routes())
        host, port = front.start_background()
        primary_url = f"http://{host}:{port}"
        try:
            # Ingest one pathway and wait for its batch to commit.
            request = urllib.request.Request(
                primary_url + "/ingest",
                json.dumps({
                    "add": "t # 0\nv 0 carrier\nv 1 helicase\n"
                           "e 0 1 interacts\n",
                    "wait": True,
                }).encode("utf-8"),
                {"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request, timeout=30) as response:
                ack = json.loads(response.read())
            assert ack["seq"] == 0

            # A follower is the same journal applied by the same code.
            follower = Follower(
                tmp_path / "replica.store",
                tmp_path / "replica.wal",
                primary_url,
                options=FollowerOptions(secret="hush"),
            )
            with follower:
                follower.catch_up(timeout=60)
                assert follower.lag() == 0
                assert follower.applied_seq == ack["seq"]

            # Route queries over the replica: exact, as always.
            pattern_text = (
                "t # 0\nv 0 transporter\nv 1 helicase\ne 0 1 interacts\n"
            )
            router = QueryRouter([LocalReplica(tmp_path / "replica.store")])
            try:
                routed = router.query("support", pattern_text)
                reader = StoreReader(tmp_path / "replica.store")
                direct = reader.query(
                    "support", reader.parse_pattern(pattern_text)
                )
                assert routed["value"] == direct.value == 4

                # Read-your-writes: the applied WAL offset is the
                # fleet-comparable freshness key.  A floor every live
                # replica misses sheds instead of answering stale.
                fresh = router.query(
                    "support", pattern_text, min_applied_seq=ack["seq"]
                )
                assert fresh["value"] == 4
                try:
                    router.query(
                        "support", pattern_text,
                        min_applied_seq=ack["seq"] + 1,
                    )
                    raise AssertionError("stale read was not shed")
                except StaleReplicasError as exc:
                    assert exc.retry_after == 1
            finally:
                router.close()
        finally:
            front.stop_background()
            primary.close()

    def test_step16_loadtest(self, tmp_path):
        taxonomy, db = _setup()
        import json

        from repro.cli import main as taxogram
        from repro.graphs.io import write_graph_database
        from repro.taxonomy.io import write_taxonomy

        store_dir = tmp_path / "pathways.store"
        options = TaxogramOptions(min_support=0.5, store_out=str(store_dir))
        Taxogram(options).mine(db, taxonomy)
        write_taxonomy(taxonomy, str(tmp_path / "tax.txt"))
        write_graph_database(db, str(tmp_path / "pathways.graphs"))
        add_file = tmp_path / "new_pathways.graphs"
        add_file.write_text(
            "t # 0\nv 0 carrier\nv 1 dna_helicase\ne 0 1 interacts\n"
        )

        # The console snippet, miniaturised: a seeded 2.5s mixed load
        # with a mid-run SIGKILL + same-port restart of the server.
        report_path = tmp_path / "report.json"
        assert taxogram([
            "loadtest", str(store_dir),
            "--wal", str(tmp_path / "pathways.wal"),
            "--duration", "2.5", "--rate", "25", "--seed", "7",
            "--fault", "kill-applier",
            "--add-file", str(add_file),
            "--report-out", str(report_path),
        ]) == 0

        # The audited invariants made it into the persisted report.
        report = json.loads(report_path.read_text())
        assert report["total"] > 0
        assert report["outcomes"]["ok"] > 0
        assert report["outcomes"]["server_error"] == 0
        assert report["outcomes"]["timeout"] == 0
        assert report["faults_fired"] == ["kill_applier"]
        assert set(report["latency"]) <= {"query", "ingest", "flush"}
        for histogram in report["latency"].values():
            assert histogram["p50_ms"] <= histogram["p99_ms"]

    def test_step17_similarity(self, tmp_path):
        taxonomy, db = _setup()
        from repro import StoreReader

        store_dir = tmp_path / "pathways.store"
        options = TaxogramOptions(min_support=0.5, store_out=str(store_dir))
        Taxogram(options).mine(db, taxonomy)

        reader = StoreReader(store_dir)
        pattern = reader.parse_pattern(
            "t # 0\nv 0 carrier\nv 1 dna_helicase\ne 0 1 interacts\n"
        )

        # Exactly one pathway contains the pattern...
        assert reader.fuzzy_contains(pattern).graph_ids == frozenset({0})

        # ...but every pathway is *similar* to it, with the scores the
        # tutorial prints (carrier matches graph 2 exactly; helicase is
        # one taxonomy hop from dna_helicase).
        ranked = reader.similar_patterns(pattern, threshold=0.2)
        assert [
            (s.graph_id, round(s.score, 4)) for s in ranked
        ] == [(0, 1.0), (2, 0.9167), (1, 0.8056)]

        assert round(reader.similarity_score(pattern, 1), 4) == 0.8056

        # Homomorphism semantics fold injectivity away: hom ⊇ iso.
        hom = reader.fuzzy_contains(
            pattern, threshold=0.6, semantics="homomorphism"
        )
        assert hom.graph_ids == frozenset({0, 1, 2})
        assert hom.path == "similarity:homomorphism"

        assert reader.metrics.counter("similarity.queries") > 0

    def test_step18_compression(self, tmp_path):
        taxonomy, db = _setup()
        import json

        from repro import StoreReader
        from repro.incremental.store import PatternStore
        from repro.util.bitset import kernel_counters, kernel_delta
        from repro.util.compression import (
            available_codecs,
            best_codec,
            normalize_codec,
        )

        # "auto" resolves to the best codec available in-process; zlib
        # is the stdlib fallback, so it is always on the menu.
        assert "zlib" in available_codecs()
        assert normalize_codec("auto") == best_codec()

        raw_dir = tmp_path / "raw.store"
        packed_dir = tmp_path / "pathways.store"
        for store_out, codec in ((raw_dir, None), (packed_dir, "auto")):
            Taxogram(
                TaxogramOptions(
                    min_support=1.0,
                    store_out=str(store_out),
                    store_compression=codec,
                )
            ).mine(db, taxonomy)

        # Manifest-driven negotiation: the raw store has no compression
        # block, the packed one records codec and per-file byte counts
        # (this is what `taxogram info` prints).
        raw_manifest = json.loads((raw_dir / "manifest.json").read_text())
        assert "compression" not in raw_manifest
        packed_manifest = json.loads(
            (packed_dir / "manifest.json").read_text()
        )
        block = packed_manifest["compression"]
        assert block["codec"] == best_codec()
        assert block["files"]["classes.json"]["stored"] < (
            block["files"]["classes.json"]["raw"]
        )

        # Both open, and answer identically.
        raw_store = PatternStore.open(raw_dir)
        packed_store = PatternStore.open(packed_dir)
        assert packed_store.compression == best_codec()
        assert raw_store.compression is None
        assert [c.code for c in packed_store.classes] == [
            c.code for c in raw_store.classes
        ]

        # The bit-set kernels keep process-level bitset.* counters;
        # snapshot-and-delta attributes work to one operation.
        reader = StoreReader(packed_dir)
        pattern = reader.parse_pattern(
            "t # 0\nv 0 carrier\nv 1 dna_helicase\ne 0 1 interacts\n"
        )
        snapshot = kernel_counters()
        ranked = reader.similar_patterns(pattern, threshold=0.2)
        assert [s.graph_id for s in ranked] == [0, 2, 1]
        delta = kernel_delta(snapshot)
        assert delta["bitset.jaccards"] > 0

    def test_step19_sessions(self, tmp_path):
        taxonomy, db = _setup()
        from repro import StoreReader
        from repro.sessions import (
            QuotaExceeded,
            SessionManager,
            TenantQuotas,
        )

        store_dir = tmp_path / "pathways.store"
        full = Taxogram(
            TaxogramOptions(min_support=0.5, store_out=str(store_dir))
        ).mine(db, taxonomy)
        assert len(full) == 3

        reader = StoreReader(store_dir)
        manager = SessionManager(reader)

        session = manager.create("alice")
        manager.add_examples(
            session.session_id,
            "t # 0\nv 0 carrier\nv 1 helicase\ne 0 1 interacts\n",
        )
        result = manager.mine(session.session_id)

        # The example witnesses two of the store's three patterns (the
        # cation_transporter specialization has no embedding into it)
        # from a single gSpan candidate, and the answers are the full
        # mine's, bit-identically.
        assert result.candidates == 1
        rendered = [
            format_pattern(p, taxonomy.interner) for p in result.patterns
        ]
        assert rendered == [
            "[0:helicase, 1:transporter | 0-1] sup=1.000",
            "[0:helicase, 1:carrier | 0-1] sup=0.667",
        ]
        by_code = {p.code.edges: p for p in full.patterns}
        for pattern in result.patterns:
            assert pattern.support_set == by_code[
                pattern.code.edges
            ].support_set

        # A second identical mine is a per-tenant cache hit.
        assert manager.mine(session.session_id).cached is True
        assert reader.metrics.counter("sessions.cache_hits") == 1

        # Quotas answer QuotaExceeded (429 + Retry-After over HTTP).
        strict = SessionManager(
            reader, quotas=TenantQuotas(max_sessions=1)
        )
        strict.create("bob")
        try:
            strict.create("bob")
            raise AssertionError("second session should breach quota")
        except QuotaExceeded as exc:
            assert exc.retry_after > 0
