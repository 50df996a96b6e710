"""Package-level API surface tests."""

from __future__ import annotations

import subprocess
import sys

import repro


class TestPublicAPI:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_quickstart_from_docstring(self):
        # The module docstring's quickstart must actually work.
        taxonomy = repro.taxonomy_from_parent_names(
            {
                "transporter": "molecular_function",
                "carrier": "transporter",
                "helicase": "catalytic_activity",
                "catalytic_activity": "molecular_function",
                "molecular_function": [],
            }
        )
        db = repro.GraphDatabase(node_labels=taxonomy.interner)
        db.new_graph(["carrier", "helicase"], [(0, 1)])
        db.new_graph(["transporter", "helicase"], [(0, 1)])
        result = repro.mine(db, taxonomy, min_support=1.0)
        assert len(result) == 1
        names = {
            taxonomy.name_of(result.patterns[0].graph.node_label(v))
            for v in result.patterns[0].graph.nodes()
        }
        assert names == {"transporter", "helicase"}

    def test_serving_exports(self):
        # The serving surface is re-exported at the top level...
        import repro.serving

        for name in ("StoreReader", "ServingAnswer", "BatchExecutor", "Query"):
            assert name in repro.__all__, name
            assert getattr(repro, name) is getattr(repro.serving, name)
        # ...and repro.serving.__all__ is complete and resolvable.
        for name in repro.serving.__all__:
            assert hasattr(repro.serving, name), name
        public = {
            name for name in dir(repro.serving) if not name.startswith("_")
        }
        modules = {
            "admission", "aserver", "batch", "cache", "endpoints",
            "reader", "server",
        }
        assert public - modules == set(repro.serving.__all__)

    def test_incremental_exports_fence_state(self):
        import repro.incremental

        assert "fence_state" in repro.incremental.__all__
        assert callable(repro.incremental.fence_state)

    def test_import_leaves_subsystems_unloaded(self):
        # ``import repro`` resolves its exports lazily, so a process
        # that needs one subsystem does not pay for the others.
        subsystems = (
            "repro.serving",
            "repro.replication",
            "repro.similarity",
            "repro.sessions",
            "repro.parallel",
        )
        code = (
            "import sys, repro; "
            f"print([m for m in {subsystems!r} if m in sys.modules])"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    def test_streaming_wal_import_leaves_service_unloaded(self):
        # ``repro.streaming`` resolves its exports lazily too: a process
        # that only journals deltas does not load the ingest service or
        # the serving stack.
        code = (
            "import sys, repro.streaming.wal; "
            "print([m for m in ('repro.streaming.service', 'repro.serving')"
            " if m in sys.modules])"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"
        import repro.streaming

        for name in repro.streaming.__all__:
            assert hasattr(repro.streaming, name), name

    def test_streaming_wal_import_leaves_mining_unloaded(self):
        # ``repro.incremental`` resolves its exports lazily: the WAL
        # needs only ``DatabaseDelta``, not the updater or the miner.
        mining = (
            "repro.incremental.pipeline",
            "repro.incremental.updater",
            "repro.core.taxogram",
        )
        code = (
            "import sys, repro.streaming.wal; "
            f"print([m for m in {mining!r} if m in sys.modules])"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"
        import repro.incremental

        for name in repro.incremental.__all__:
            assert hasattr(repro.incremental, name), name

    def test_python_dash_m_entrypoint(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "datasets"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0
        assert "D1000" in result.stdout


class TestExceptions:
    def test_hierarchy(self):
        for cls in (
            repro.GraphError,
            repro.TaxonomyError,
            repro.FormatError,
            repro.MiningError,
            repro.MemoryBudgetExceeded,
        ):
            assert issubclass(cls, repro.ReproError)

    def test_memory_budget_message(self):
        exc = repro.MemoryBudgetExceeded(150, 100)
        assert "150" in str(exc)
        assert "100" in str(exc)
        assert "memory budget exceeded" in str(exc)
        assert exc.used == 150
        assert exc.budget == 100

    def test_memory_budget_custom_detail(self):
        exc = repro.MemoryBudgetExceeded(5, 1, "level storage")
        assert "level storage" in str(exc)
        assert "memory budget exceeded" in str(exc)
