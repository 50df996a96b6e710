"""Tests for occurrence columns and taxonomy-projected occurrence indices."""

from __future__ import annotations

from repro.core.occurrence_index import (
    OccurrenceColumns,
    build_occurrence_index,
    generalized_label_supports,
)
from repro.core.results import MiningCounters
from repro.graphs.database import GraphDatabase
from repro.mining.gspan import Embedding
from repro.taxonomy.builders import taxonomy_from_parent_names


class TestOccurrenceColumns:
    def test_add_and_masks(self):
        columns = OccurrenceColumns()
        assert columns.append(0, (1, 2)) == 0
        assert columns.append(0, (2, 1)) == 1
        assert columns.append(3, (0, 1)) == 2
        assert len(columns) == 3
        assert columns.all_bits == 0b111

    def test_support_counts_distinct_graphs(self):
        columns = OccurrenceColumns()
        columns.append(0, (1,))
        columns.append(0, (2,))
        columns.append(1, (1,))
        assert columns.support_count(0b011) == 1  # both occurrences in graph 0
        assert columns.support_count(0b101) == 2
        assert columns.support_count(0b000) == 0
        assert columns.support_count(columns.all_bits) == 2

    def test_support_set(self):
        columns = OccurrenceColumns()
        columns.append(4, (1,))
        columns.append(9, (1,))
        assert columns.support_set(0b01) == frozenset({4})
        assert columns.support_set(0b11) == frozenset({4, 9})

    def test_occurrence_ids_paper_notation(self):
        columns = OccurrenceColumns()
        columns.append(1, (0,))
        columns.append(1, (1,))
        columns.append(2, (0,))
        assert columns.occurrence_ids(0b111) == ["G1.1", "G1.2", "G2.1"]


def _tax():
    return taxonomy_from_parent_names(
        {"a": [], "b": "a", "c": "a", "d": "b"}
    )


class TestBuildOccurrenceIndex:
    def test_projection_covers_ancestors(self):
        tax = _tax()
        a, b, c, d = (tax.id_of(n) for n in "abcd")
        originals = [[d, c]]
        embeddings = [Embedding(0, (0, 1), frozenset())]
        counters = MiningCounters()
        store, index = build_occurrence_index(
            2, embeddings, originals, tax, None, counters
        )
        assert len(store) == 1
        # Position 0 saw original d -> covers d, b, a.
        assert set(index.covered(0)) == {d, b, a}
        # Position 1 saw original c -> covers c, a.
        assert set(index.covered(1)) == {c, a}
        assert index.bits(0, d) == 0b1
        assert index.bits(1, c) == 0b1
        assert index.bits(0, c) == 0  # uncovered labels yield empty sets
        assert counters.occurrence_index_updates == 5

    def test_multiple_occurrences_accumulate_bits(self):
        tax = _tax()
        a, b, c, d = (tax.id_of(n) for n in "abcd")
        originals = [[b, c], [d, d]]
        embeddings = [
            Embedding(0, (0, 1), frozenset()),
            Embedding(1, (0, 1), frozenset()),
            Embedding(1, (1, 0), frozenset()),
        ]
        store, index = build_occurrence_index(
            2, embeddings, originals, tax, None, MiningCounters()
        )
        assert index.bits(0, a) == 0b111
        assert index.bits(0, b) == 0b111  # b covers b and d originals
        assert index.bits(0, c) == 0  # c never appears at position 0
        assert index.bits(0, d) == 0b110
        assert index.bits(1, c) == 0b001
        assert index.bits(1, d) == 0b110

    def test_allowed_labels_filter(self):
        tax = _tax()
        a, b, c, d = (tax.id_of(n) for n in "abcd")
        originals = [[d]]
        embeddings = [Embedding(0, (0,), frozenset())]
        store, index = build_occurrence_index(
            1, embeddings, originals, tax,
            allowed_labels=frozenset({a, b}),
            counters=MiningCounters(),
        )
        assert set(index.covered(0)) == {a, b}  # d filtered out

    def test_covered_children_follow_taxonomy(self):
        tax = _tax()
        a, b, c, d = (tax.id_of(n) for n in "abcd")
        originals = [[d]]
        embeddings = [Embedding(0, (0,), frozenset())]
        _store, index = build_occurrence_index(
            1, embeddings, originals, tax, None, MiningCounters()
        )
        assert index.covered_children(0, a, tax) == [b]  # c uncovered
        assert index.covered_children(0, b, tax) == [d]
        assert index.covered_children(0, d, tax) == []
        assert index.is_covered(0, b)
        assert not index.is_covered(0, c)
        assert index.num_positions == 1


class TestGeneralizedLabelSupports:
    def test_counts_distinct_graphs_via_ancestors(self):
        tax = _tax()
        db = GraphDatabase(node_labels=tax.interner)
        db.new_graph(["d", "d"], [(0, 1)])
        db.new_graph(["c"], [])
        db.new_graph(["b"], [])
        supports = generalized_label_supports(db, tax)
        assert supports[tax.id_of("a")] == 3
        assert supports[tax.id_of("b")] == 2  # graphs 0 (via d) and 2
        assert supports[tax.id_of("c")] == 1
        assert supports[tax.id_of("d")] == 1
