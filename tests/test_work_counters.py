"""Exact work counters of the mine and incremental paths at reduced scale.

The benchmark's Fig 4.2 analog (``D5000`` at graph scale 0.1) gates its
deterministic work counters exactly; this module pins the same counters
on a 50-graph cut of the same generator (graph scale 0.01, taxonomy
scale 0.01, sigma 0.3, at most 2 edges) so that a change which adds or
removes work — more gSpan candidates, more occurrence-index updates,
more support-kernel intersections — fails in tier-1 instead of only on
the benchmark.  The expected values are the program's own counts; a
change that alters one on purpose must say why when it updates them.
"""

from __future__ import annotations

import pytest

from repro.core.taxogram import Taxogram, TaxogramOptions
from repro.datagen.datasets import build_dataset, dataset_spec
from repro.graphs.database import GraphDatabase
from repro.incremental import DatabaseDelta, IncrementalTaxogram

PINNED = (
    "gspan.candidates_generated",
    "index.updates",
    "index.oie_entries",
    "specialize.bitset_intersections",
    "specialize.candidates_enumerated",
    "incremental.embeddings_replayed",
)

EXPECTED_MEMORY = {
    "gspan.candidates_generated": 210,
    "index.updates": 46393,
    "index.oie_entries": 4057,
    "specialize.bitset_intersections": 8211,
    "specialize.candidates_enumerated": 918,
    "incremental.embeddings_replayed": 0,
}
# A store keeps every class's occurrence columns and specializes them
# all (the incremental updater needs them), so it does more index and
# specialize work than the in-memory mine on the same input.
EXPECTED_STORE = {
    "gspan.candidates_generated": 210,
    "index.updates": 77189,
    "index.oie_entries": 6988,
    "specialize.bitset_intersections": 21953,
    "specialize.candidates_enumerated": 2596,
    "incremental.embeddings_replayed": 0,
}
EXPECTED_ADD = {
    "gspan.candidates_generated": 0,
    "index.updates": 2417,
    "index.oie_entries": 0,
    "specialize.bitset_intersections": 18677,
    "specialize.candidates_enumerated": 2211,
    "incremental.embeddings_replayed": 105,
}
EXPECTED_REMOVE = {
    "gspan.candidates_generated": 0,
    "index.updates": 2378,
    "index.oie_entries": 269,
    "specialize.bitset_intersections": 25391,
    "specialize.candidates_enumerated": 3153,
    "incremental.embeddings_replayed": 0,
}


def _pinned(result) -> dict[str, int]:
    counters = result.report.counters
    return {name: counters.get(name, 0) for name in PINNED}


@pytest.fixture(scope="module")
def dataset():
    # The generator draws graphs one after another from one stream, so
    # the first 50 graphs of a 51-graph draw are the 50-graph dataset
    # (graph scale 0.01); the 51st is the add batch.
    full, taxonomy = build_dataset(
        dataset_spec("D5000"), graph_scale=0.0102, taxonomy_scale=0.01
    )
    assert len(full) == 51
    base = GraphDatabase(full.node_labels, full.edge_labels)
    for graph in full.graphs[:50]:
        base.add_graph(graph.copy())
    extra = GraphDatabase(full.node_labels, full.edge_labels)
    extra.add_graph(full[50].copy())
    return base, extra, taxonomy


def _options(**kwargs) -> TaxogramOptions:
    return TaxogramOptions(min_support=0.3, max_edges=2, **kwargs)


def test_mine_counters_in_memory_and_to_store(dataset, tmp_path):
    base, _extra, taxonomy = dataset
    memory = Taxogram(_options()).mine(base, taxonomy)
    stored = Taxogram(_options(store_out=str(tmp_path / "store"))).mine(
        base, taxonomy
    )
    assert _pinned(memory) == EXPECTED_MEMORY
    assert _pinned(stored) == EXPECTED_STORE


def test_incremental_counters_add_then_remove(dataset, tmp_path):
    base, extra, taxonomy = dataset
    store_dir = tmp_path / "store"
    Taxogram(_options(store_out=str(store_dir))).mine(base, taxonomy)
    updater = IncrementalTaxogram(store_dir)
    added = updater.apply(DatabaseDelta.adding(extra))
    assert _pinned(added) == EXPECTED_ADD
    removed = updater.apply(DatabaseDelta.removing([3]))
    assert _pinned(removed) == EXPECTED_REMOVE
