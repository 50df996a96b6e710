"""Tests for DFS codes and minimum-code canonicalization."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.directed.digraph import DiGraph
from repro.exceptions import MiningError
from repro.graphs.graph import Graph
from repro.mining.dfs_code import (
    DFSCode,
    clear_canonical_caches,
    code_lt,
    dfs_edge_lt,
    graph_from_code,
    is_min_code,
    min_dfs_code,
)


def random_connected_graph(rng: random.Random, max_nodes: int = 6) -> Graph:
    """A random connected labeled graph with at least one edge."""
    n = rng.randint(2, max_nodes)
    g = Graph()
    for _ in range(n):
        g.add_node(rng.randrange(3))
    # Spanning tree for connectivity, then extra edges.
    for v in range(1, n):
        g.add_edge(rng.randrange(v), v, rng.randrange(2))
    for _ in range(rng.randint(0, n)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and not g.has_edge(u, v):
            g.add_edge(u, v, rng.randrange(2))
    return g


def permuted(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.num_nodes))
    rng.shuffle(perm)
    out = Graph()
    for _ in range(g.num_nodes):
        out.add_node(0)
    for v in g.nodes():
        out.relabel_node(perm[v], g.node_label(v))
    for u, v, e in g.edges():
        out.add_edge(perm[u], perm[v], e)
    return out


class TestEdgeOrder:
    def test_backward_before_forward_from_rightmost(self):
        backward = (2, 0, 5, 0, 5)
        forward = (2, 3, 5, 0, 5)
        assert dfs_edge_lt(backward, forward)
        assert not dfs_edge_lt(forward, backward)

    def test_forward_deeper_anchor_first(self):
        deeper = (2, 3, 1, 0, 1)
        shallower = (1, 3, 1, 0, 1)
        assert dfs_edge_lt(deeper, shallower)

    def test_forward_label_tiebreak(self):
        small = (2, 3, 1, 0, 1)
        large = (2, 3, 1, 0, 2)
        assert dfs_edge_lt(small, large)

    def test_backward_smaller_target_first(self):
        early = (3, 0, 1, 0, 1)
        late = (3, 1, 1, 0, 1)
        assert dfs_edge_lt(early, late)

    def test_code_lt_prefix(self):
        e = (0, 1, 1, 0, 1)
        assert code_lt([e], [e, (1, 2, 1, 0, 1)])
        assert not code_lt([e, (1, 2, 1, 0, 1)], [e])


class TestDFSCode:
    def test_vertex_labels_derived(self):
        code = DFSCode([(0, 1, 5, 9, 6), (1, 2, 6, 9, 7)])
        assert code.vertex_labels == (5, 6, 7)
        assert code.num_vertices == 3

    def test_inconsistent_labels_rejected(self):
        with pytest.raises(MiningError, match="inconsistent"):
            DFSCode([(0, 1, 5, 9, 6), (1, 0, 7, 9, 5)])

    def test_rightmost_path(self):
        # 0 -f-> 1 -f-> 2, then backward 2->0, then forward from 1.
        code = DFSCode(
            [
                (0, 1, 1, 0, 1),
                (1, 2, 1, 0, 1),
                (2, 0, 1, 0, 1),
                (1, 3, 1, 0, 2),
            ]
        )
        assert code.rightmost_path == (0, 1, 3)
        assert code.rightmost_vertex == 3

    def test_to_graph_round_trip(self):
        code = DFSCode([(0, 1, 5, 9, 6), (1, 2, 6, 8, 7), (2, 0, 7, 9, 5)])
        g = code.to_graph()
        assert g.num_nodes == 3
        assert g.num_edges == 3
        assert g.edge_label(1, 2) == 8

    def test_empty_code(self):
        code = DFSCode(())
        assert code.num_vertices == 0
        with pytest.raises(MiningError):
            _ = code.rightmost_vertex

    def test_dense_vertex_ids_required(self):
        with pytest.raises(MiningError, match="dense"):
            DFSCode([(0, 2, 1, 0, 1)])


class TestMinCode:
    def test_single_edge_orientation(self):
        g = Graph.from_edges([2, 1], [(0, 1, 5)])
        code = min_dfs_code(g)
        assert code.edges == ((0, 1, 1, 5, 2),)  # smaller label first

    def test_is_min_accepts_min(self):
        g = Graph.from_edges([1, 1, 2], [(0, 1, 0), (1, 2, 0), (0, 2, 0)])
        assert is_min_code(min_dfs_code(g))

    def test_is_min_rejects_non_min(self):
        # Same triangle, but started from the larger label.
        non_min = DFSCode([(0, 1, 2, 0, 1), (1, 2, 1, 0, 1), (2, 0, 1, 0, 2)])
        assert not is_min_code(non_min)

    def test_empty_and_single_node(self):
        assert min_dfs_code(Graph.from_edges([7], [])).edges == ()
        assert is_min_code(DFSCode(()))

    def test_disconnected_rejected(self):
        g = Graph.from_edges([1, 1, 1], [(0, 1)])
        with pytest.raises(MiningError, match="not connected"):
            min_dfs_code(g)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_permutation_invariance(self, seed):
        rng = random.Random(seed)
        g = random_connected_graph(rng)
        assert min_dfs_code(permuted(g, rng)) == min_dfs_code(g)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_min_code_is_min_and_reconstructs(self, seed):
        rng = random.Random(seed)
        g = random_connected_graph(rng)
        code = min_dfs_code(g)
        assert is_min_code(code)
        rebuilt = graph_from_code(code)
        assert min_dfs_code(rebuilt) == code
        assert rebuilt.num_nodes == g.num_nodes
        assert rebuilt.num_edges == g.num_edges

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_distinct_labelings_get_distinct_codes(self, seed):
        rng = random.Random(seed)
        g = random_connected_graph(rng, max_nodes=4)
        g2 = g.copy()
        v = rng.randrange(g2.num_nodes)
        g2.relabel_node(v, g2.node_label(v) + 10)  # certainly not isomorphic
        assert min_dfs_code(g) != min_dfs_code(g2)

    @pytest.mark.parametrize("digraph_first", [False, True])
    def test_graph_and_digraph_keep_apart_in_cache(self, digraph_first):
        # Every arc runs from a lower to a higher node id, so the two
        # structure keys coincide; the canonical cache must not.
        graph = Graph.from_edges([1, 2, 3], [(0, 1, 0), (1, 2, 0)])
        digraph = DiGraph.from_arcs([1, 2, 3], [(0, 1, 0), (1, 2, 0)])
        assert graph.structure_key() == digraph.structure_key()
        clear_canonical_caches()
        order = [digraph, graph] if digraph_first else [graph, digraph]
        codes = {id(g): min_dfs_code(g) for g in order}
        assert codes[id(graph)].edges == ((0, 1, 1, 0, 2), (1, 2, 2, 0, 3))
        assert codes[id(digraph)].edges == (
            (0, 1, 1, 0, 2, 1),
            (1, 2, 2, 0, 3, 1),
        )
        assert isinstance(graph_from_code(codes[id(digraph)]), DiGraph)
