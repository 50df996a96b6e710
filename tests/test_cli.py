"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.graphs.io import write_graph_database
from repro.graphs.database import GraphDatabase
from repro.taxonomy.builders import taxonomy_from_parent_names
from repro.taxonomy.io import write_taxonomy


@pytest.fixture
def files(tmp_path):
    tax = taxonomy_from_parent_names({"b": "a", "c": "a"})
    db = GraphDatabase(node_labels=tax.interner)
    db.new_graph(["b", "c"], [(0, 1, "x")])
    db.new_graph(["c", "b"], [(0, 1, "x")])
    db.new_graph(["b", "b"], [(0, 1, "x")])
    tax_path = tmp_path / "tax.txt"
    db_path = tmp_path / "db.graphs"
    write_taxonomy(tax, tax_path)
    write_graph_database(db, db_path)
    return db_path, tax_path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_mine_defaults(self):
        args = build_parser().parse_args(["mine", "db", "tax"])
        assert args.algorithm == "taxogram"
        assert args.support == 0.2
        assert args.workers == 1

    @pytest.mark.parametrize("bad", ["0", "0.0", "1.5", "-0.2", "nan", "abc"])
    def test_support_outside_unit_interval_rejected(self, bad, capsys):
        with pytest.raises(SystemExit) as exc_info:
            build_parser().parse_args(["mine", "db", "tax", "--support", bad])
        assert exc_info.value.code == 2
        assert "support must be" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["0", "-1", "1.5", "two"])
    def test_workers_below_one_rejected(self, bad, capsys):
        with pytest.raises(SystemExit) as exc_info:
            build_parser().parse_args(["mine", "db", "tax", "--workers", bad])
        assert exc_info.value.code == 2
        assert "workers must be" in capsys.readouterr().err

    def test_compare_validates_support_and_workers(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare", "db", "tax", "--support", "2"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare", "db", "tax", "--workers", "0"])


class TestMine:
    def test_taxogram(self, files, capsys):
        db_path, tax_path = files
        code = main(["mine", str(db_path), str(tax_path), "--support", "1.0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "taxogram:" in out
        assert "sup=1.000" in out

    def test_disk_index_flag(self, files, capsys):
        db_path, tax_path = files
        code = main(
            ["mine", str(db_path), str(tax_path), "--support", "1.0",
             "--disk-index"]
        )
        assert code == 0
        assert "taxogram:" in capsys.readouterr().out

    def test_baseline_and_tacgm(self, files, capsys):
        db_path, tax_path = files
        for algo in ("baseline", "tacgm"):
            code = main(
                [
                    "mine", str(db_path), str(tax_path),
                    "--algorithm", algo, "--support", "1.0",
                ]
            )
            assert code == 0
            assert algo in capsys.readouterr().out

    def test_limit_and_truncation_notice(self, files, capsys):
        db_path, tax_path = files
        main(
            ["mine", str(db_path), str(tax_path), "--support", "0.3",
             "--limit", "1"]
        )
        out = capsys.readouterr().out
        assert "more (use --limit 0" in out

    def test_workers_smoke(self, files, capsys):
        db_path, tax_path = files
        code = main(
            ["mine", str(db_path), str(tax_path), "--support", "1.0",
             "--workers", "2"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "taxogram:" in out
        assert "sup=1.000" in out

    def test_workers_match_sequential_output(self, files, capsys):
        db_path, tax_path = files
        assert main(
            ["mine", str(db_path), str(tax_path), "--support", "0.5"]
        ) == 0
        sequential_out = capsys.readouterr().out
        assert main(
            ["mine", str(db_path), str(tax_path), "--support", "0.5",
             "--workers", "2"]
        ) == 0
        parallel_out = capsys.readouterr().out
        # Identical pattern lines; only the timing summary line differs.
        assert sequential_out.splitlines()[1:] == parallel_out.splitlines()[1:]

    def test_workers_rejected_for_tacgm(self, files, capsys):
        db_path, tax_path = files
        code = main(
            ["mine", str(db_path), str(tax_path), "--algorithm", "tacgm",
             "--workers", "2"]
        )
        assert code == 2
        assert "--workers" in capsys.readouterr().err

    def test_workers_rejected_for_directed(self, files, capsys):
        db_path, tax_path = files
        code = main(
            ["mine", str(db_path), str(tax_path), "--directed",
             "--workers", "2"]
        )
        assert code == 2
        assert "--workers" in capsys.readouterr().err

    def test_tacgm_memory_budget_error_reported(self, files, capsys):
        db_path, tax_path = files
        code = main(
            [
                "mine", str(db_path), str(tax_path),
                "--algorithm", "tacgm", "--support", "0.5",
                "--memory-budget", "1",
            ]
        )
        assert code == 1
        assert "memory budget" in capsys.readouterr().err


class TestStoreOutAndUpdate:
    @pytest.fixture
    def store(self, tmp_path, files, capsys):
        db_path, tax_path = files
        store_dir = tmp_path / "store"
        assert main(
            ["mine", str(db_path), str(tax_path), "--support", "0.5",
             "--store-out", str(store_dir)]
        ) == 0
        assert "pattern store written to" in capsys.readouterr().out
        return store_dir, db_path, tax_path

    def _write_add_file(self, tmp_path, files):
        db_path, tax_path = files
        tax = taxonomy_from_parent_names({"b": "a", "c": "a"})
        add_db = GraphDatabase(node_labels=tax.interner)
        add_db.new_graph(["b", "c"], [(0, 1, "x")])
        add_path = tmp_path / "adds.graphs"
        write_graph_database(add_db, add_path)
        return add_path

    def test_store_out_rejected_for_tacgm(self, tmp_path, files, capsys):
        db_path, tax_path = files
        code = main(
            ["mine", str(db_path), str(tax_path), "--algorithm", "tacgm",
             "--store-out", str(tmp_path / "s")]
        )
        assert code == 2
        assert "--store-out" in capsys.readouterr().err

    def test_store_out_rejected_for_directed(self, tmp_path, files, capsys):
        db_path, tax_path = files
        code = main(
            ["mine", str(db_path), str(tax_path), "--directed",
             "--store-out", str(tmp_path / "s")]
        )
        assert code == 2
        assert "--store-out" in capsys.readouterr().err

    def test_update_add(self, tmp_path, store, files, capsys):
        store_dir, _db_path, _tax_path = store
        add_path = self._write_add_file(tmp_path, files)
        code = main(["update", str(store_dir), "--add", str(add_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "applied delta (+1 graphs, -0 graphs)" in out
        assert "sup=" in out

    def test_update_remove(self, store, capsys):
        store_dir, _db_path, _tax_path = store
        code = main(["update", str(store_dir), "--remove", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "applied delta (+0 graphs, -1 graphs)" in out

    def test_update_nothing_to_do(self, store, capsys):
        store_dir, _db_path, _tax_path = store
        code = main(["update", str(store_dir)])
        assert code == 2
        assert "nothing to update" in capsys.readouterr().err

    def test_update_support_fingerprint_mismatch(self, store, capsys):
        store_dir, _db_path, _tax_path = store
        code = main(
            ["update", str(store_dir), "--remove", "0", "--support", "0.9"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "store fingerprint mismatch" in err
        assert "min_support" in err

    def test_update_taxonomy_fingerprint_mismatch(self, tmp_path, store,
                                                  capsys):
        store_dir, _db_path, _tax_path = store
        other = taxonomy_from_parent_names({"q": "p"})
        other_path = tmp_path / "other.tax"
        write_taxonomy(other, other_path)
        code = main(
            ["update", str(store_dir), "--remove", "0",
             "--taxonomy", str(other_path)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "store fingerprint mismatch" in err
        assert "taxonomy" in err

    def test_update_matching_fingerprint_accepted(self, store, capsys):
        store_dir, _db_path, tax_path = store
        code = main(
            ["update", str(store_dir), "--remove", "0",
             "--support", "0.5", "--taxonomy", str(tax_path)]
        )
        assert code == 0
        assert "applied delta" in capsys.readouterr().out

    def test_update_bad_remove_ids_rejected(self, store, capsys):
        store_dir, _db_path, _tax_path = store
        with pytest.raises(SystemExit) as exc_info:
            build_parser().parse_args(
                ["update", str(store_dir), "--remove", "0,x"]
            )
        assert exc_info.value.code == 2
        capsys.readouterr()

    def test_update_on_non_store_fails(self, tmp_path, capsys):
        bogus = tmp_path / "not-a-store"
        bogus.mkdir()
        code = main(["update", str(bogus), "--remove", "0"])
        assert code == 1
        assert "not a pattern store" in capsys.readouterr().err


class TestGenerateAndStats:
    def test_generate_writes_files(self, tmp_path, capsys):
        graphs_out = tmp_path / "g.graphs"
        tax_out = tmp_path / "t.tax"
        code = main(
            [
                "generate", "TS25",
                "--graphs-out", str(graphs_out),
                "--taxonomy-out", str(tax_out),
                "--graph-scale", "0.003",
                "--taxonomy-scale", "1.0",
            ]
        )
        assert code == 0
        assert graphs_out.exists()
        assert tax_out.exists()
        out = capsys.readouterr().out
        assert "wrote" in out

        code = main(["stats", str(graphs_out)])
        assert code == 0
        assert "DB Id" in capsys.readouterr().out

    def test_generate_unknown_dataset(self, tmp_path, capsys):
        code = main(
            [
                "generate", "BOGUS",
                "--graphs-out", str(tmp_path / "g"),
                "--taxonomy-out", str(tmp_path / "t"),
            ]
        )
        assert code == 1
        assert "unknown dataset" in capsys.readouterr().err

    def test_datasets_listing(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "D1000" in out
        assert "PTE" in out


def test_interrupted_update_keeps_the_old_store(tmp_path, capsys, monkeypatch):
    """An update that dies mid-apply leaves the store openable at its
    old version, and re-running it prints what an uninterrupted update
    prints."""
    import re
    import shutil

    import repro.incremental.updater as updater_module
    from repro.incremental import PatternStore

    def untimed(out, store_dir):
        # The summary line ends with per-stage wall times.
        return re.sub(r" \[[^\]]*\]$", "", out, flags=re.M).replace(
            str(store_dir), "STORE"
        )

    graphs, tax = tmp_path / "g.graphs", tmp_path / "t.tax"
    store_dir, twin = tmp_path / "store", tmp_path / "twin"
    assert main(
        ["generate", "D1000", "--graphs-out", str(graphs),
         "--taxonomy-out", str(tax), "--graph-scale", "0.02",
         "--taxonomy-scale", "0.05"]
    ) == 0
    assert main(
        ["mine", str(graphs), str(tax), "--support", "0.3",
         "--max-edges", "2", "--store-out", str(store_dir)]
    ) == 0
    shutil.copytree(store_dir, twin)
    adds = tmp_path / "adds.graphs"
    adds.write_text("t #" + "t #".join(graphs.read_text().split("t #")[1:4]))
    argv = ["--add", str(adds), "--remove", "1"]
    capsys.readouterr()
    assert main(["update", str(twin), *argv]) == 0
    expected = untimed(capsys.readouterr().out, twin)
    version = PatternStore.open(store_dir).store_version

    def interrupted(*args, **kwargs):
        raise RuntimeError("interrupted mid-apply")

    monkeypatch.setattr(updater_module, "specialize_class", interrupted)
    with pytest.raises(RuntimeError, match="interrupted"):
        main(["update", str(store_dir), *argv])
    monkeypatch.undo()
    capsys.readouterr()
    assert PatternStore.open(store_dir).store_version == version
    assert main(["update", str(store_dir), *argv]) == 0
    assert untimed(capsys.readouterr().out, store_dir) == expected
